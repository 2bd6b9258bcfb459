"""One benchmark pass, run in a fresh interpreter.

    python3 perfbench/child.py SRC_DIR JOB_JSON

Imports ``fockcalc.cli`` from SRC_DIR, prints ``ready``, then runs each
command of the job through ``fockcalc.cli.main`` with ``--format json``
and prints one JSON line: per command the exit code, the sha256 and size
of its output and its time to verdict, and the peak resident memory of
this process.  The process-global memo caches start cold, as they do
for a user of the command line.

The interpreter runs a ``speed.SpeedSampler`` from before the import to
the end; each command's time leaves out the sampler's own time, and the
line holds the mean sampled speed of the set-up and of the pass.

With ``"trace": true`` in the job the pass runs under ``tracer.Tracer``
and the line also holds the per-layer metrics.  With ``"record": true``
each output is also parsed to count its listed and bulk cells.
"""

import contextlib
import hashlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter

from speed import SpeedSampler


class Sink:
    """Stands in for stdout: hashes what is written, keeps it if asked."""

    def __init__(self, keep):
        self.keep = keep
        self._reset()

    def _reset(self):
        self.digest = hashlib.sha256()
        self.nbytes = 0
        self.chunks = []

    def write(self, text):
        data = text.encode()
        self.digest.update(data)
        self.nbytes += len(data)
        if self.keep:
            self.chunks.append(text)
        return len(text)

    def flush(self):
        pass

    def take(self):
        out = (self.digest.hexdigest(), self.nbytes, "".join(self.chunks))
        self._reset()
        return out


def _cell_counts(text):
    payload = json.loads(text)
    cells = payload.get("cells", [])
    total = payload.get("summary", {}).get("total", len(cells))
    return len(cells), total - len(cells)


def run(job, cli, sampler):
    sink = Sink(job.get("record", False))
    tracer = None
    if job.get("trace"):
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        sink.write = tracer.timed("report.write", sink.write)
        tracer.install()
    results = []
    start = sampler.mark()
    try:
        for argv in job["commands"]:
            mark = sampler.mark()
            t0 = perf_counter()
            with contextlib.redirect_stdout(sink):
                try:
                    code = cli.main(["--format", "json", *argv])
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    traceback.print_exc()
                    code = 1
            seconds = perf_counter() - t0 - sampler.spent(mark)
            sha, nbytes, text = sink.take()
            entry = {"command": " ".join(argv), "exit": code, "sha256": sha,
                     "bytes": nbytes, "seconds": seconds}
            if job.get("record"):
                entry["cells"], entry["bulk_cells"] = _cell_counts(text)
            results.append(entry)
    finally:
        if tracer is not None:
            tracer.restore()
    out = {"commands": results, "speed": sampler.speed(start),
           "speed_samples": sampler.mark() - start,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["layers"] = layer_metrics(
            tracer, sum(r["bytes"] for r in results))
        out["patched"] = tracer.patched
        out["leftovers"] = tracer.leftovers()
    return out


def main():
    sampler = SpeedSampler()
    sampler.start()
    src = os.path.abspath(sys.argv[1])
    sys.path.insert(0, src)
    import fockcalc.cli
    if not os.path.abspath(fockcalc.cli.__file__).startswith(src + os.sep):
        sys.exit(f"fockcalc was imported from {fockcalc.cli.__file__}, "
                 f"not from {src}")
    setup = {"speed": sampler.speed(), "sampler_s": sampler.spent(0)}
    print("ready", flush=True)
    result = run(json.loads(sys.argv[2]), fockcalc.cli, sampler)
    sampler.stop()
    result["setup"] = setup
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
