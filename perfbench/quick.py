#!/usr/bin/env python3
"""Self-check of the benchmark at 2,000 rows.

    dune build @perfbench/bench-quick

Runs every workload of BENCHMARK.json twice with the same seed (a
warm-up, one plain and one traced repetition each), and fails unless: every metric the file
lists is printed with its unit; every repetition passes the oracles; the
two runs print identical counts; and the traced split accounts for
98-102% of the traced window.

Usage: quick.py BENCHMARK.json MAIN_EXE
"""

import json
import subprocess
import sys

COUNT_UNITS = {"count", "B"}


def run(exe, workload):
    p = subprocess.run(
        [exe, "--workload", workload, "--rows", "2000", "--seconds", "0",
         "--trace", "1"],
        capture_output=True, text=True)
    if p.returncode != 0:
        raise SystemExit(f"{workload}: exit {p.returncode}\n{p.stderr}")
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            printed[fields[1]] = (float(fields[2]), fields[3])
    return result, printed


def main():
    spec_path, exe = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] + spec["per_layer"]
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        (r1, p1), (r2, p2) = run(exe, w), run(exe, w)
        for r in (r1, r2):
            if not r["correct"] or r["failed"] != 0:
                problems.append(f"{w}: correct={r['correct']} "
                                f"failed={r['failed']}")
        for m in metrics:
            got = p1.get(m["name"])
            if got is None or got[1] != m["unit"]:
                problems.append(f"{w}: {m['name']} [{m['unit']}] printed "
                                f"as {got}")
            elif m["unit"] in COUNT_UNITS and p2.get(m["name"]) != got:
                problems.append(f"{w}: {m['name']} differs between "
                                f"same-seed runs: {got} vs "
                                f"{p2.get(m['name'])}")
        attributed = p1.get("obs.attributed_pct", (0.0, ""))[0]
        if not 98.0 <= attributed <= 102.0:
            problems.append(f"{w}: obs.attributed_pct {attributed}")
    for p in problems:
        print(p)
    if problems:
        sys.exit(1)
    print(f"bench-quick: {len(spec['workloads'])} workloads, "
          f"{len(metrics)} metrics ok")


if __name__ == "__main__":
    main()
