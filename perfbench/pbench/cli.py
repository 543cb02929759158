"""Command line: run one workload, print its metrics, save the result.

Output: a human-readable table (every metric with its unit, the check
tally and ``failed_ratio``), then, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The
same object, with the machine fingerprint, is written to
``perfbench/out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import traceback

from pbench import OUT_DIR, ROOT, ProgramMissing, ensure_program
from pbench.catalogue import END_TO_END, PER_LAYER, metric_block

WORKLOADS = ("hotspot-4096", "converge-4096", "steady-16384", "grid-sweep")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time of the untraced closed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def fingerprint(args) -> dict:
    import networkx
    import numpy
    import scipy

    import repro

    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "repro": repro.__version__,
        "git_sha": git_sha(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(args, scratch: str):
    # The workloads import repro, so they load after ensure_program().
    from pbench import grid, solo

    if args.workload == "grid-sweep":
        if args.trace:
            return grid.run_traced(grid.GRID, args.seed, scratch)
        return grid.run_untraced(grid.GRID, args.seed, args.seconds, scratch)
    w = solo.WORKLOADS[args.workload]
    if args.trace:
        return solo.run_traced(w, args.seed, scratch)
    return solo.run_untraced(w, args.seed, args.seconds, scratch)


def report(args, outcome) -> dict:
    values = dict(outcome.values)
    values["failed_ratio"] = outcome.tally.failed_ratio
    block = metric_block(values, PER_LAYER if args.trace else END_TO_END)
    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} seed={args.seed} ({mode})")
    for name, m in block.items():
        n = len(outcome.samples.get(name, ()))
        count = f"  (n={n})" if n else ""
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}{count}")
    for name, value in outcome.details.get("family_task_share", {}).items():
        print(f"{'task-time share ' + name:36s} {value:>16.3f}")
    tally = outcome.tally
    print(f"{'checks':36s} {tally.attempted - tally.failed}/{tally.attempted} passed")
    if not args.trace:
        # An end-to-end metric must never read 0, so failed_ratio rides
        # in the result's attempted/failed fields (and in the traced
        # run's per-layer block) instead of the end-to-end block.
        print(f"{'failed_ratio':36s} {tally.failed_ratio:>16.6g} ratio")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": block,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ensure_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR)
    try:
        outcome = run_workload(args, scratch)
        result = report(args, outcome)
        tag = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
        info = fingerprint(args)
        with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"fingerprint": info, **result,
                       "samples": outcome.samples,
                       "details": outcome.details,
                       "check_failures": outcome.tally.reasons}, fh, indent=1)
        if outcome.tracer is not None:
            outcome.tracer.dump(os.path.join(OUT_DIR, f"trace-{tag}.json"),
                                {"fingerprint": info})
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0
