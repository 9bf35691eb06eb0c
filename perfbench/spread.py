#!/usr/bin/env python3
"""Summarises benchmark runs: min, quartiles, median and max per metric.

Feed it files holding the result lines of several runs (the last stdout
line of each `perfbench/run.py` call), one JSON object per line:

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload serve_hot --seed $s --seconds 15 --trace 0 | tail -1
    done > hot.jsonl
    python3 perfbench/spread.py hot.jsonl

For each end-to-end metric of BENCHMARK.json it prints the quartile spread
(Q3 - Q1) / median, as `statistics.quantiles(values, n=4)` gives the
quartiles, next to the metric's bound.
"""

import json
import os
import statistics
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    for path in sys.argv[1:]:
        with open(path) as f:
            rows = [json.loads(line) for line in f if line.strip()]
        print(f"{path}: {len(rows)} runs, all correct: {all(r['correct'] for r in rows)}, "
              f"failed: {sum(r['failed'] for r in rows)}")
        names = [n for n in rows[0]["metrics"]] if rows else []
        for name in names:
            values = sorted(r["metrics"][name]["value"] for r in rows)
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = "" if bound is None else f"bound {bound}  {'ok' if spread <= bound else 'OVER'}"
            print(f"  {name:34s} min {values[0]:<12.6g} q1 {q1:<12.6g} median {med:<12.6g} "
                  f"q3 {q3:<12.6g} max {values[-1]:<12.6g} spread {spread:6.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
