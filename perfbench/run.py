"""Benchmark of the fockcalc command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is a workload of ``workloads.py``,
or ``all`` for genfun, jacobi and cli-mix in turn.  Each pass runs the
workload's command list through ``fockcalc.cli.main`` in one fresh,
single-threaded interpreter (``child.py``), so the package's memo caches
start cold.  Passes repeat, closed-loop, until the next one would end
after S seconds; at least one pass runs.  Every command's exit code and
output sha256 are checked against ``expected.json`` (``record.py``).

End-to-end metrics (``--trace 0``), each the median over the run:

* setup_s: interpreter start plus ``import fockcalc.cli``, from 15
  start-only interpreters and every pass;
* wall_s: time to verdict summed over the commands of a pass;
* cells_per_s: listed report cells of a pass (bulk cells excluded) over
  wall_s;
* peak_rss_mb: peak resident memory of a pass's interpreter.

setup_s and wall_s are times at the reference speed of ``speed.py``: each
raw time, less the sampler's own time, is multiplied by the mean machine
speed sampled inside it.  The details line also holds the raw times and
the speeds.

Per-layer metrics (``--trace 1``) are those of ``tracer.py``; a traced
run alternates untraced and traced passes, so ``trace_overhead`` (traced
over untraced wall time) comes from the same run.

Output: per workload a JSON line of details (environment, seed, per-pass
times, per-command latency percentiles, failed commands, digests), then
``{"correct", "attempted", "failed", "metrics"}`` as the last line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from tracer import LAYER_UNITS
from workloads import FULL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

SETUP_SPAWNS = 15      # extra start-and-import-only interpreters per run
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cells_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def spawn(commands, trace=False, record=False):
    """Run one pass in a fresh interpreter; add its set-up and wall
    times, raw and at the reference speed."""
    job = json.dumps({"commands": commands, "trace": trace, "record": record})
    # a fixed hash seed gives every pass the same set and dict layouts
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(SRC), job],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT, env=env,
        text=True)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        with proc.stdout:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready != "ready\n":
        raise RuntimeError(f"benchmark pass exited with {proc.returncode}")
    result = json.loads(rest)
    setup = result["setup"]
    result["setup_raw_s"] = setup_s
    result["setup_s"] = (setup_s - setup["sampler_s"]) * setup["speed"]
    result["wall_raw_s"] = sum(c["seconds"] for c in result["commands"])
    result["wall_s"] = result["wall_raw_s"] * result["speed"]
    return result


def percentile(values, q):
    """Nearest-rank q-quantile, or None unless ten samples lie above it."""
    xs = sorted(values)
    k = max(math.ceil(q * len(xs)) - 1, 0)
    if len(xs) - k - 1 < 10:
        return None
    return xs[k]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def check(passes, expected):
    """Commands whose exit code or output digest differ from expected."""
    failed = []
    for p in passes:
        for c in p["commands"]:
            want = expected.get(c["command"])
            if (want is None or c["exit"] != want["exit"]
                    or c["sha256"] != want["sha256"]):
                failed.append(c["command"])
    return failed


def listed_cells(p, expected, failed):
    return sum(expected[c["command"]]["cells"] for c in p["commands"]
               if c["command"] not in failed)


def measure(workload, seed, seconds, trace):
    commands = workload.plan(seed)
    setups = [] if trace else [spawn([]) for _ in range(SETUP_SPAWNS)]
    plain, traced = [], []
    start = perf_counter()
    while True:
        t = perf_counter()
        plain.append(spawn(commands))
        if trace:
            traced.append(spawn(commands, trace=True))
        took = perf_counter() - t
        if perf_counter() - start + took > seconds:
            break
    return setups, plain, traced


def end_to_end(setups, plain, expected, failed):
    wall_s = statistics.median(p["wall_s"] for p in plain)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in setups + plain),
        "wall_s": wall_s,
        "cells_per_s": statistics.median(
            listed_cells(p, expected, failed) for p in plain) / wall_s,
        "peak_rss_mb": statistics.median(
            p["peak_rss_kb"] / 1024 for p in plain),
    }


def per_layer(plain, traced):
    out = {name: statistics.median_low(t["layers"][name] for t in traced)
           for name in LAYER_UNITS if name != "trace_overhead"}
    out["trace_overhead"] = (statistics.median(t["wall_s"] for t in traced)
                             / statistics.median(p["wall_s"] for p in plain))
    return out


def bench(workload, seed, seconds, trace):
    """Run one workload; print its details line, then its result line."""
    expected = json.loads(EXPECTED.read_text())
    loadavg_start = os.getloadavg()
    setups, plain, traced = measure(workload, seed, seconds, trace)
    passes = plain + traced
    failed = check(passes, expected)
    for name in sorted(set(failed)):
        print(f"wrong exit code or output digest: fockcalc {name}",
              file=sys.stderr)
    attempted = sum(len(p["commands"]) for p in passes)
    latencies = [c["seconds"] for p in plain for c in p["commands"]]

    if trace:
        values = per_layer(plain, traced)
        units = LAYER_UNITS
    else:
        values = end_to_end(setups, plain, expected, failed)
        units = END_TO_END_UNITS

    details = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seed_effect": workload.seed_effect,
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
            "loadavg_start": loadavg_start,
            "loadavg_end": os.getloadavg(),
        },
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_raw_wall_s": [p["wall_raw_s"] for p in plain],
        "pass_speed": [p["speed"] for p in plain],
        "speed_samples": [p["speed_samples"] for p in plain],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "setup_samples_s": [p["setup_s"] for p in setups + passes],
        "setup_raw_samples_s": [p["setup_raw_s"] for p in setups + passes],
        # percentiles pooled over the untraced commands of this run; null
        # unless ten samples lie above them
        "latency": {
            "cmd_p50_s": {"value": percentile(latencies, 0.50), "unit": "s"},
            "cmd_p95_s": {"value": percentile(latencies, 0.95), "unit": "s"},
            "samples": len(latencies),
        },
        "failed_ratio": {"value": len(failed) / attempted, "unit": "ratio"},
        "failed_commands": sorted(set(failed)),
        "digests": {c["command"]: c["sha256"]
                    for p in passes for c in p["commands"]},
    }
    if traced:
        details["tracer"] = {"patched": min(t["patched"] for t in traced),
                             "leftovers": sorted({n for t in traced
                                                  for n in t["leftovers"]})}
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failed and not details.get("tracer", {}).get("leftovers"),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="a workload, or all: genfun, jacobi, cli-mix")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so that spawn() kills
    # and waits for the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (SRC / "fockcalc" / "cli.py").is_file():
        sys.exit(f"no fockcalc sources under {SRC}")
    names = FULL if args.workload == "all" else [args.workload]
    for name in names:
        bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
