"""Workload definitions: the CLI command lists each benchmark pass runs.

Each workload is a reduced scale of acceptance criteria of the package,
chosen so that one pass takes 10-20 s on a 2-core machine.  The
``-smoke`` variants keep the same shape at a scale of a second or two
and exist for the benchmark's own checks (``smoke_check.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple            # argv lists, without the leading --format json
    seed_permutes: bool = False

    def plan(self, seed: int) -> list:
        """The commands of one pass, in the order the seed gives."""
        cmds = [list(c) for c in self.commands]
        if self.seed_permutes:
            random.Random(seed).shuffle(cmds)
        return cmds

    @property
    def seed_effect(self) -> str:
        if self.seed_permutes:
            return "the seed permutes the command order"
        return "none: the command list is fixed and runs in this order"


def _args(line: str) -> tuple:
    return tuple(line.split())


def _cli_mix_commands(virasoro_w, bloch_w, diffop_w, mn, rs, tables, extra):
    cmds = []
    for name in ("verify-virasoro", "verify-modified"):
        for m in range(-mn, mn + 1):
            for n in range(-mn, mn + 1):
                cmds.append(_args(f"{name} --m {m} --n {n} --weight {virasoro_w}"))
    for r, s in ((0, 0), (0, 1), (1, 1)):
        cmds.append(_args(f"verify-bloch-purity --r {r} --s {s} --weight {bloch_w}"))
    for r in range(rs + 1):
        for s in range(rs + 1):
            for m in range(-2, 3):
                for n in range(-2, 3):
                    cmds.append(_args(
                        f"verify-diffop --r {r} --s {s} --m {m} --n {n} "
                        f"--weight {diffop_w} --laurent-bound 6"))
    cmds.extend(_args(line) for line in extra)
    cmds.extend(_args(line) for line in tables)
    return tuple(cmds)


_WORKLOADS = [
    Workload(
        "genfun",
        "verify-thm31 W=2 window 3 ydeg 1, both conventions: series expansion "
        "of the ++ correction dominates; no vertex-operator modes",
        (_args("verify-thm31 --weight 2 --window 3 --ydeg 1"),)),
    Workload(
        "jacobi",
        "verify-jacobi W=2 window 4 then verify-thm42 ydeg 4: mode layer with "
        "high cache reuse and multi-MB JSON reports; series barely touched",
        (_args("verify-jacobi --weight 2 --window 4"),
         _args("verify-thm42 --weight 2 --window 4 --ydeg 4"))),
    Workload(
        "cli-mix",
        "273 short commands in seeded order: quadratic matrices, solve_exact, "
        "cold low-reuse modes and tables; per-command latency",
        _cli_mix_commands(
            8, 6, 6, 4, 1,
            ("zeta --max 8", "qdim --max 50", "chi --max 20",
             "bernoulli --max 30"),
            ("verify-axioms --weight 5 --mode-window 8",
             "verify-contraction --weight 6 --window 12",
             "verify-weak-comm --u h --v h",
             "verify-weak-comm --u omega --v omega")),
        seed_permutes=True),
    Workload(
        "genfun-smoke", "small genfun for the benchmark's own checks",
        (_args("verify-thm31 --weight 1 --window 1 --ydeg 1"),)),
    Workload(
        "jacobi-smoke", "small jacobi for the benchmark's own checks",
        (_args("verify-jacobi --weight 1 --window 2"),
         _args("verify-thm42 --weight 1 --window 2 --ydeg 2"))),
    Workload(
        "cli-mix-smoke", "three cli-mix commands for the benchmark's own checks",
        (_args("verify-virasoro --m 2 --n -2 --weight 4"),
         _args("verify-axioms --weight 2 --mode-window 3"),
         _args("zeta --max 8")),
        seed_permutes=True),
]

WORKLOADS = {w.name: w for w in _WORKLOADS}
FULL = ["genfun", "jacobi", "cli-mix"]
