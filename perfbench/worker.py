"""One fresh benchmark process: write a workload's inputs, then run its jobs.

Run by ``run.py``; not meant to be called by hand.  The process is a single
closed-loop client: it calls ``phoncirc.cli.main`` in process for each job of
the list, one after another, and repeats the whole list while the time budget
lasts.  Each call's stdout and stderr are captured.  The first repetition's
outputs are kept for the output checks; every repetition keeps a digest of
each output with the wall-time field removed, and later ones must equal the
first's.

With ``--setup-only`` it stops once the inputs are written and prints the
monotonic clock, so the parent can time a fresh start up to the first job.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import phoncirc  # noqa: E402
import phoncirc.cli  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

_WALL_FIELD = re.compile(r'"wall_time_s": [^,\n]*')


def _stable(text: str) -> bytes:
    """A job's stdout without the manifest's wall time, the one field that varies."""
    return _WALL_FIELD.sub("", text, count=1).encode()


def _output_size(argv: list[str]) -> int:
    if "--output" not in argv:
        return 0
    path = argv[argv.index("--output") + 1]
    return os.path.getsize(path) if os.path.exists(path) else 0


def run_job(argv: list[str]) -> tuple[float, int, str, str]:
    """(seconds, exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = phoncirc.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped exception is a failed job, not a crash
            code = 1
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--budget", type=float, default=0.0, help="seconds of repetitions")
    p.add_argument("--min-reps", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", help="write the run record (JSON) here")
    args = p.parse_args(argv)

    jobs = workloads.build(args.workload, args.seed, args.workdir, args.smoke)
    if args.setup_only:
        print(repr(time.monotonic()), flush=True)
        return 0

    os.chdir(args.workdir)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(phoncirc)
    reps, outputs, errors, rep_spans = [], [], [], []
    began = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.track_memory = not reps  # tracemalloc only in the first repetition
            first_span = len(tracer.spans)
        latencies, codes, digests, out_bytes = [], [], [], 0
        rep_start = time.perf_counter()
        for job in jobs:
            elapsed, code, out, err = run_job(job["argv"])
            latencies.append(elapsed)
            codes.append(code)
            stable = _stable(out)
            if not reps:
                outputs.append(out)
                errors.append(err.strip()[-500:])
            digests.append(hashlib.sha256(stable).hexdigest())
            out_bytes += len(stable) + _output_size(job["argv"])
        wall = time.perf_counter() - rep_start
        if tracer is not None:
            rep_spans.append((first_span, len(tracer.spans)))
        reps.append({"wall_s": wall, "latency_s": latencies, "codes": codes,
                     "digests": digests, "out_bytes": out_bytes})
        used = time.perf_counter() - began
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= args.min_reps and used + typical > args.budget:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {"jobs": jobs, "reps": reps, "outputs": outputs, "errors": errors,
              "peak_rss_mib": peak_kib / 1024.0,
              "numpy": np.__version__, "phoncirc_file": phoncirc.__file__}
    if tracer is not None:
        record["spans"] = tracer.spans
        record["rep_spans"] = rep_spans
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
