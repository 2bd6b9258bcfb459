"""Checks of the benchmark itself, on the small ``-smoke`` workloads.

    python3 -m pytest perfbench/smoke_check.py

The file name keeps these checks out of the package's default test
collection; name the file to run them.
"""

import fractions
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import check  # noqa: E402
from tracer import LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE = ("genfun-smoke", "jacobi-smoke", "cli-mix-smoke")


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    *_, details, result = proc.stdout.splitlines()
    return json.loads(details), json.loads(result)


@pytest.fixture(scope="module")
def runs():
    return {(w, t): parsed(bench(w, t)) for w in SMOKE for t in (0, 1)}


@pytest.fixture(scope="module")
def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("workload", SMOKE)
def test_digests_identical_with_tracing_on_and_off(runs, workload):
    (plain, r0), (traced, r1) = runs[workload, 0], runs[workload, 1]
    assert r0["correct"] and r1["correct"]
    assert r0["failed"] == r1["failed"] == 0
    assert plain["digests"] == traced["digests"]
    assert set(plain["digests"]) == {" ".join(c) for c in
                                     WORKLOADS[workload].commands}


@pytest.mark.parametrize("workload", SMOKE)
def test_tracer_restored_every_name_in_the_pass(runs, workload):
    tracer = runs[workload, 1][0]["tracer"]
    assert tracer["patched"] > 0
    assert tracer["leftovers"] == []


def _bindings():
    import fockcalc.cli  # noqa: F401
    owners = [m for n, m in sys.modules.items()
              if n == "fockcalc" or n.startswith("fockcalc.")]
    owners += [v for m in list(owners) for v in vars(m).values()
               if inspect.isclass(v)]
    owners += [fractions.Fraction, json]
    return {(id(o), attr): value for o in owners
            for attr, value in vars(o).items()}


def test_install_and_restore_leave_every_binding_unchanged():
    sys.path.insert(0, str(ROOT / "src"))
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    during = _bindings()
    tracer.restore()
    after = _bindings()
    assert sum(during[k] is not v for k, v in before.items()) == tracer.patched
    assert all(after[k] is v for k, v in before.items())
    assert tracer.leftovers() == []


@pytest.mark.parametrize("workload", SMOKE)
def test_every_metric_printed_with_its_unit(runs, declared, workload):
    end_to_end, per_layer = declared
    assert per_layer == LAYER_UNITS
    for trace, want in ((0, end_to_end), (1, per_layer)):
        metrics = runs[workload, trace][1]["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in
                   metrics.values())
    assert all(runs[workload, 0][1]["metrics"][k]["value"] > 0
               for k in end_to_end)


def test_each_workload_stresses_its_layers(runs):
    layer = {w: {k: v["value"] for k, v in runs[w, 1][1]["metrics"].items()}
             for w in SMOKE}
    gen, jac, mix = (layer[w] for w in SMOKE)
    assert gen["series.expand.calls"] > 0
    assert jac["series.expand.calls"] == mix["series.expand.calls"] == 0
    assert jac["voa.mode_apply.calls"] > mix["voa.mode_apply.calls"] > 0
    assert gen["voa.mode_apply.calls"] == 0
    assert mix["quadratic.self_s"] > max(gen["quadratic.self_s"],
                                         jac["quadratic.self_s"])


@pytest.mark.parametrize("workload", SMOKE)
def test_times_are_scaled_by_the_speed_sampled_in_the_pass(runs, workload):
    details = runs[workload, 0][0]
    assert all(n > 0 for n in details["speed_samples"])
    for scaled, raw, speed in zip(details["pass_wall_s"],
                                  details["pass_raw_wall_s"],
                                  details["pass_speed"]):
        assert 0 < speed and scaled == pytest.approx(raw * speed)


def test_seed_permutes_only_cli_mix():
    for name, w in WORKLOADS.items():
        plans = {tuple(map(tuple, w.plan(seed))) for seed in range(10)}
        assert {tuple(sorted(p)) for p in plans} == {tuple(sorted(w.commands))}
        assert (len(plans) > 1) == name.startswith("cli-mix"), name


def test_mismatch_is_named_as_failed():
    expected = {"zeta --max 8": {"exit": 0, "sha256": "aa"}}
    passes = [{"commands": [
        {"command": "zeta --max 8", "exit": 0, "sha256": "aa"},
        {"command": "zeta --max 8", "exit": 0, "sha256": "bb"},
        {"command": "zeta --max 8", "exit": 1, "sha256": "aa"},
        {"command": "chi --max 3", "exit": 0, "sha256": "aa"}]}]
    assert check(passes, expected) == ["zeta --max 8", "zeta --max 8",
                                       "chi --max 3"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("cli-mix-smoke", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
