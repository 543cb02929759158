"""End-to-end benchmark of the PPLB reproduction, with an optional traced run.

Run from the repository root::

    python3 perfbench/run.py --workload hotspot-4096 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off and the
``null`` probe; ``--trace 1`` runs the same workload untraced and then
traced over a fixed spec list and reports the per-layer metrics. The
last line of standard output is one JSON object
(``correct``/``attempted``/``failed``/``metrics``). See
``perfbench/README.md`` for the workloads and the metric catalogue.

The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2 and prints no
result.
"""

import os
import sys

# Pin BLAS/OpenMP pools to one thread before NumPy loads, so a run (and
# the grid's two pool workers, which inherit the environment) stays
# within the machine's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

from pbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
