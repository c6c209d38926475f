"""phoncirc benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload delay-scan --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from ``src/``.  Each
workload's job list runs in a fresh worker process (``worker.py``) that calls
``phoncirc.cli.main`` in process, one job after another, and repeats the list
while ``--seconds`` lasts.  Outputs are checked after the timed region.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` a second, traced worker gives the per-layer metrics.  The last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the full run record with its metadata.
The exit code is 1 when any output check fails, 2 when the sources are
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

# Numerical libraries get one thread: the runs measure the single-threaded
# program, and two processes on a 2-core box must not oversubscribe it.
BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

END_TO_END = {"wall_s": "s", "job_p50_s": "s", "job_tail_s": "s", "setup_s": "s",
              "peak_rss_mib": "MiB"}
PER_LAYER = {
    "memory.scan_s": "s", "memory.scan_us_per_cell": "us",
    "memory.theta_s": "s", "memory.theta_points": "count",
    "memory.scan_peak_mib": "MiB", "memory.traj_free_s": "s",
    "memory.traj_delay_s": "s", "memory.free_ns_per_step": "ns",
    "memory.delay_ns_per_step": "ns", "memory.steps": "count",
    "memory.profile_s": "s",
    "circuits.decompose_s": "s", "circuits.us_per_pivot": "us",
    "circuits.pivots": "count", "circuits.apply_s": "s",
    "circuits.ns_per_element_col": "ns", "circuits.plan_io_s": "s",
    "slh.compose_s": "s", "slh.coeffs_s": "s", "slh.ops": "count",
    "elasticity.call_s": "s", "elasticity.calls": "count",
    "cli.self_s": "s", "cli.share": "ratio", "cli.parser_s": "s",
    "cli.out_bytes": "count",
    # check values: not gated, they show result drift next to the timings
    "memory.oracle_err": "1", "memory.scan_dF": "1",
    "circuits.recon_err": "1", "slh.oracle_err": "1",
    "trace_overhead": "s",
}
_DRIFT = {"trajectories": "memory.oracle_err", "delay-scan": "memory.scan_dF",
          "mesh-program": "circuits.recon_err", "small-jobs": "slh.oracle_err"}
SETUP_RUNS = 5          # timed fresh starts per run; one untimed start warms caches
TAIL_BEYOND = 10        # job_tail_s: highest percentile with this many jobs above it
TIMEOUT_S = 170


def use_sources() -> bool:
    """Put the checkout's src/ first on sys.path; False when it holds no package."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "phoncirc", "cli.py")):
        return False
    if sys.path[0] != src:
        sys.path.insert(0, src)
    return True


def _worker(args: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    return subprocess.run(cmd, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=True)


def measure_setup(workload: str, seed: int, workdir: str, smoke: bool) -> list[float]:
    """Seconds from spawning a fresh interpreter until its inputs are written."""
    times = []
    for i in range(SETUP_RUNS + 1):
        args = ["--workload", workload, "--seed", str(seed), "--setup-only",
                "--workdir", os.path.join(workdir, f"setup{i}")]
        if smoke:
            args.append("--smoke")
        start = time.monotonic()
        ready = float(_worker(args).stdout.strip().splitlines()[-1])
        if i:
            times.append(ready - start)
    return times


def run_worker(workload, seed, workdir, tag, budget, min_reps, trace, smoke) -> dict:
    result = os.path.join(workdir, f"{tag}.json")
    args = ["--workload", workload, "--seed", str(seed),
            "--workdir", os.path.join(workdir, tag), "--budget", repr(budget),
            "--min-reps", str(min_reps), "--trace", str(trace), "--result", result]
    if smoke:
        args.append("--smoke")
    _worker(args)
    with open(result) as fh:
        return json.load(fh)


def check_record(workload: str, record: dict, ref: dict, bias: float) -> dict:
    """Count failed jobs over every repetition; collect reasons and drift."""
    import workloads

    reasons, drift, first_ok = [], [], []
    for job, out, err, code in zip(record["jobs"], record["outputs"], record["errors"],
                                   record["reps"][0]["codes"]):
        why, value = (f"exit {code}: {err}", None) if code else \
            workloads.check(workload, job, out, ref, bias)
        first_ok.append(why is None)
        if why is not None:
            reasons.append(f"{' '.join(job['argv'][:2])}: {why}")
        if value is not None:
            drift.append(value)
    failed = first_ok.count(False)
    attempted = len(first_ok)
    for rep in record["reps"][1:]:
        for ok, code, digest, first in zip(first_ok, rep["codes"], rep["digests"],
                                           record["reps"][0]["digests"]):
            attempted += 1
            if not ok or code or digest != first:
                failed += 1
                if ok:
                    reasons.append("a repeated job's output differs from its first run")
    worst = max(drift, key=abs) if drift else 0.0
    return {"attempted": attempted, "failed": failed, "reasons": reasons, "drift": worst}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs above it.

    With too few jobs for that percentile to lie above the median, the slowest
    job is reported (percentile 100)."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - TAIL_BEYOND - 1 if n > 2 * TAIL_BEYOND + 1 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def _command(cmd: list[str]) -> str | None:
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=20,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _caches() -> dict:
    caches = {}
    for line in (_command(["lscpu"]) or "").splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip().split()[0]] = value.strip()
    return caches


def _bytes(text: str | None) -> float | None:
    match = re.match(r"([\d.]+)\s*([KMG])i?B", text or "")
    if not match:
        return None
    return float(match.group(1)) * 1024 ** " KMG".index(match.group(2))


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_sha() -> str:
    top = _command(["git", "-C", ROOT, "rev-parse", "--show-toplevel"])
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        return _command(["git", "-C", ROOT, "rev-parse", "HEAD"]) or "unknown"
    return "unknown"


def scan_working_set(job: dict, config: dict, caches: dict) -> dict:
    """Bytes of the scan's coefficient tables and history ring, computed from
    the grid and the integrator's step rule (h <= 0.002 and <= lag/20, a whole
    number of steps per lag), set against the last-level cache."""
    import workloads

    nm, nc = workloads.scan_shape(job)
    lag = 2 * math.pi * config["kappa_e_hz"] * config["delta_f_ns"] * 1e-9
    n_sub = math.ceil(lag / min(0.002, lag / 20) - 1e-12)
    steps = math.ceil(config["horizon"] / (lag / n_sub) - 1e-9)
    points = 2 * steps + 1
    tables = 16 * points * (nm + nc + 4) + 16 * (n_sub + 4) * nm * nc
    llc = _bytes(caches.get("L3") or caches.get("L2"))
    return {"scan_tables_mib": tables / 2**20, "scan_steps": steps,
            "scan_tables_over_llc": tables / llc if llc else None,
            "bytes": "computed from array shapes"}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False, bias: float = 0.0) -> dict:
    """Run one workload; return the run record with its metrics."""
    if not use_sources():
        raise FileNotFoundError(f"no phoncirc sources under {ROOT}/src")
    import workloads

    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ref = workloads.load_reference()
    try:
        if trace:
            plain = run_worker(workload, seed, workdir, "plain", seconds / 3, 1, 0, smoke)
            traced = run_worker(workload, seed, workdir, "traced", 2 * seconds / 3, 2, 1,
                                smoke)
            records = [plain, traced]
        else:
            setup = measure_setup(workload, seed, workdir, smoke)
            records = [run_worker(workload, seed, workdir, "plain", seconds, 1, 0, smoke)]
        checks = [check_record(workload, r, ref, bias) for r in records]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    src = os.path.join(ROOT, "src", "")
    if not all(r["phoncirc_file"].startswith(src) for r in records):
        raise RuntimeError(f"workers imported phoncirc from outside {src}")
    plain = records[0]
    walls = [r["wall_s"] for r in plain["reps"]]
    # one latency per job of the list: its median over the repetitions, so the
    # percentiles do not shift with the number of repetitions that fit
    latencies = [statistics.median(ts) for ts in zip(*(r["latency_s"] for r in plain["reps"]))]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    caches = _caches()
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "git_sha": _git_sha(), "src_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": plain["numpy"],
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS, "caches": caches,
        "client": "one closed-loop client, jobs in process via phoncirc.cli.main",
        "jobs_per_rep": len(plain["jobs"]), "reps": len(walls),
        "fail_frac": failed / attempted,
    }
    if workload == "delay-scan":
        meta.update(scan_working_set(plain["jobs"][0], workloads.SCAN_CONFIG, caches))
    if trace:
        import spans

        traced = records[1]
        timed = list(range(1, len(traced["reps"])))
        metrics = spans.layer_metrics(traced["spans"], traced["rep_spans"], timed,
                                      traced["reps"][timed[0]]["out_bytes"])
        for name in _DRIFT.values():
            metrics[name] = 0.0
        metrics[_DRIFT[workload]] = checks[1]["drift"]
        metrics["trace_overhead"] = (statistics.median(traced["reps"][i]["wall_s"]
                                                       for i in timed)
                                     - statistics.median(walls))
        units = PER_LAYER
    else:
        value, pct = tail(latencies)
        metrics = {"wall_s": statistics.median(walls),
                   "job_p50_s": statistics.median(latencies),
                   "job_tail_s": value, "setup_s": statistics.median(setup),
                   "peak_rss_mib": plain["peak_rss_mib"]}
        meta.update({"job_tail_pct": pct, "jobs_timed": len(latencies),
                     "setup_runs": setup, "rep_walls": walls})
        units = END_TO_END
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            "meta": meta, "reasons": sum((c["reasons"] for c in checks), [])[:20]}


def _report(record: dict) -> None:
    meta = record["meta"]
    print(f"== {meta['workload']} (seed {meta['seed']}, {meta['reps']} reps of "
          f"{meta['jobs_per_rep']} jobs)")
    for name, m in record["metrics"].items():
        print(f"   {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"   {'fail_frac':28s} {meta['fail_frac']:.6g} ratio")
    for reason in record["reasons"]:
        print(f"   FAILED {reason}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="delay-scan, trajectories, mesh-program, small-jobs or all")
    p.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    p.add_argument("--seconds", type=float, default=26.0,
                   help="measuring time per run (default 26)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    args = p.parse_args(argv)
    if not use_sources():
        print(f"error: no phoncirc sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        p.error(f"unknown workload {args.workload!r}")
    records = {}
    for name in names:
        records[name] = run_workload(name, args.seed, args.seconds, args.trace)
        _report(records[name])
    ok = all(r["correct"] for r in records.values())
    summary = {"correct": ok,
               "attempted": sum(r["attempted"] for r in records.values()),
               "failed": sum(r["failed"] for r in records.values())}
    if len(names) == 1:
        record = records[names[0]]
        print(json.dumps({"record": {"meta": record["meta"], "reasons": record["reasons"]}}))
        summary["metrics"] = record["metrics"]
    else:
        summary["metrics"] = {n: r["metrics"] for n, r in records.items()}
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
