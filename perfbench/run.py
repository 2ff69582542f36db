#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0|1

The program is built from source with dune and then replaces this
process, so its output (one line per metric, then a JSON result as the
last line) and its exit code are the benchmark's. Each run also appends
a kind:bench record to perfbench/BENCH_trajectory.jsonl.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the repository root "
                 "(dune-project and lib/ not found)")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    sys.stdout.flush()
    os.execv(EXE, [EXE, "--trajectory",
                   os.path.join("perfbench", "BENCH_trajectory.jsonl")]
             + sys.argv[1:])


if __name__ == "__main__":
    main()
