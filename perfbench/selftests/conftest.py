"""Make the benchmark package importable for its self-tests.

The benchmark directory goes at the *end* of ``sys.path``, so none of
its top-level names can shadow a module the rest of the suite imports.
Whether the program under test can be loaded is decided in the test
module, so a mismatch skips these self-tests and nothing else.
"""

import os
import sys

_BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _BENCH not in sys.path:
    sys.path.append(_BENCH)
