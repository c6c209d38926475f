"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py base.txt new.txt

Each file holds the stdout of one or more runs of ``run.py`` appended
together (for example ten seeds of each workload, on the parent commit and on
the change).  For every workload and metric it prints the median and the
quartile spread of each side and the change of the median; an end-to-end
metric whose median got worse by more than its bound in BENCHMARK.json is
marked WORSE and makes the exit code 1.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> dict:
    """{workload: {metric: [values]}} from run.py stdout lines."""
    runs: dict = {}
    workload = None
    with open(path) as fh:
        for line in fh:
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "record" in doc:
                workload = doc["record"]["meta"]["workload"]
                continue
            metrics = doc.get("metrics", {})
            by_workload = ({workload: metrics} if all("value" in m for m in metrics.values())
                           else metrics)
            for name, ms in by_workload.items():
                for metric, m in ms.items():
                    runs.setdefault(name, {}).setdefault(metric, []).append(m["value"])
    return runs


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    base, new = load(argv[0]), load(argv[1])
    worse = 0
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}")
        for metric in base[workload]:
            a, b = base[workload][metric], new[workload].get(metric)
            if not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / abs(ma) if ma else float("nan")
            verdict = ""
            if metric in bounds and change > bounds[metric]:
                verdict, worse = "WORSE", worse + 1
            print(f"   {metric:28s} {ma:12.6g} -> {mb:12.6g}  {change:+8.2%}  "
                  f"spread {spread(a):.3f}/{spread(b):.3f}  n={len(a)}/{len(b)}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
