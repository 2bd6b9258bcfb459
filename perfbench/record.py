"""Record the expected exit code, output sha256 and cell counts of every
benchmark command into ``expected.json``.

    python3 perfbench/record.py

Run it once at the commit whose outputs are the reference; the benchmark
then counts any command whose exit code or digest differs as failed.
Each workload runs in canonical order in one fresh interpreter.
"""

import json

from run import EXPECTED, spawn
from workloads import WORKLOADS


def main():
    expected = {}
    for workload in WORKLOADS.values():
        for c in spawn([list(c) for c in workload.commands],
                       record=True)["commands"]:
            expected[c["command"]] = {k: c[k] for k in (
                "exit", "sha256", "bytes", "cells", "bulk_cells")}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} commands in {EXPECTED}")


if __name__ == "__main__":
    main()
