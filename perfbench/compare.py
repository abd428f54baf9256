"""Compare the results of several benchmark runs of one workload.

    python3 perfbench/compare.py out/seed1.txt out/seed2.txt ...

Each file holds the standard output of one or more runs; every line that
is a result object counts.  Prints each metric's median and the distance
between its first and third quartile as a share of the median.  The work
counters in ``run.EXACT_COUNTERS`` must read the same in every run; the
exit code is 1 if one does not, or if a run was not correct.
"""

import json
import statistics
import sys

from run import EXACT_COUNTERS


def load(paths):
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("{"):
                    results.append(json.loads(line))
    return results


def main(paths) -> int:
    results = load(paths)
    if not results:
        print("no results found", file=sys.stderr)
        return 2
    status = 0
    if not all(r["correct"] for r in results):
        print("NOT CORRECT: at least one run failed its correctness gate")
        status = 1
    values = {}
    for result in results:
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in sorted(values.items()):
        if name in EXACT_COUNTERS:
            verdict = "exact" if len(set(vals)) == 1 else "NOT EXACT"
            status = status if verdict == "exact" else 1
            print(f"{name:40s} {verdict:10s} {sorted(set(vals))}")
            continue
        median = statistics.median(vals)
        if len(vals) > 1:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:40s} median {median:<12.6g} spread {spread:.4f}"
              f"  (n={len(vals)})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
