"""The PPLB end-to-end benchmark: workloads, correctness checks, tracing.

Modules:

* :mod:`pbench.catalogue` — every metric name, unit and direction, in
  the order ``BENCHMARK.json`` lists them.
* :mod:`pbench.tracing` — in-memory spans recorded around calls into
  the program's public API, and the self-time / attribution analysis.
* :mod:`pbench.checks` — result digests, load conservation and the
  attempted/failed tally behind ``failed_ratio``.
* :mod:`pbench.solo` — the single-process workloads (``hotspot-4096``,
  ``converge-4096``, ``steady-16384``).
* :mod:`pbench.grid` — the ``grid-sweep`` workload (pool backend, cache).
* :mod:`pbench.cli` — argument parsing, fingerprint and output.

The program under test is the ``repro`` package in ``src/`` beside the
benchmark directory; :func:`ensure_program` puts it on ``sys.path`` and
refuses any other copy.
"""

from __future__ import annotations

import os
import sys

#: the benchmark directory (``perfbench/``).
BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the checkout root the benchmark runs in.
ROOT = os.path.dirname(BENCH_DIR)
#: the program's sources.
SRC_DIR = os.path.join(ROOT, "src")
#: where results, traces and scratch caches go (ignored by git).
OUT_DIR = os.path.join(BENCH_DIR, "out")


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


def ensure_program() -> None:
    """Make ``import repro`` load ``src/repro`` of this checkout."""
    pkg = os.path.join(SRC_DIR, "repro", "__init__.py")
    if not os.path.isfile(pkg):
        raise ProgramMissing(f"no program sources at {SRC_DIR}")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    import repro

    if os.path.abspath(repro.__file__) != os.path.abspath(pkg):
        raise ProgramMissing(
            f"repro was imported from {repro.__file__}, not {pkg}"
        )
