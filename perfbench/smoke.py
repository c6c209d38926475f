"""Smoke test of the benchmark itself, on reduced inputs.

    python3 perfbench/smoke.py

For every workload it checks that a plain run emits each end-to-end metric of
BENCHMARK.json with its unit and no failed job, that a traced run emits each
per-layer metric with its unit and repeats its exact counts, and that a
deliberately perturbed reference makes the output checks fail.  It also runs
the benchmark in a directory holding only BENCHMARK.json and perfbench/,
where it must exit non-zero without printing a result.  Exit code 0 when all
of this holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

SECONDS = 1.5
COUNTS = ("memory.theta_points", "memory.steps", "circuits.pivots", "slh.ops",
          "elasticity.calls", "cli.out_bytes")


def _units(record: dict) -> dict:
    return {name: m["unit"] for name, m in record["metrics"].items()}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    expect(e2e == run.END_TO_END and layer == run.PER_LAYER,
           "BENCHMARK.json names the metrics run.py reports")
    if not run.use_sources():
        expect(False, "phoncirc sources found")
        return 1
    import workloads

    for name in workloads.WORKLOADS:
        plain = run.run_workload(name, 0, SECONDS, 0, smoke=True)
        expect(_units(plain) == e2e, f"{name}: end-to-end metrics with units")
        expect(all(m["value"] > 0 for m in plain["metrics"].values()),
               f"{name}: end-to-end metrics are positive")
        expect(plain["correct"] and plain["meta"]["fail_frac"] == 0,
               f"{name}: fail_frac is 0 {plain['reasons'][:1]}")
        traced = [run.run_workload(name, 0, SECONDS, 1, smoke=True) for _ in range(2)]
        expect(all(_units(t) == layer and t["correct"] for t in traced),
               f"{name}: per-layer metrics with units, no failed job")
        expect(all(traced[0]["metrics"][c] == traced[1]["metrics"][c] for c in COUNTS),
               f"{name}: exact counts repeat across traced runs")
        perturbed = run.run_workload(name, 0, SECONDS, 0, smoke=True, bias=1e-2)
        expect(not perturbed["correct"] and perturbed["meta"]["fail_frac"] > 0,
               f"{name}: a perturbed reference fails the checks "
               f"(fail_frac {perturbed['meta']['fail_frac']:.2f})")

    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(bench["command"] + ["--workload", "small-jobs", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without sources the benchmark exits non-zero and prints no result")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
