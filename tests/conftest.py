"""Pin BLAS and OpenMP to one thread for the test run.

Idle OpenBLAS threads that spin up again can push the timed loop of
``test_acceptance_01`` past its one-second gate.  pytest loads this file
before any test module imports numpy, which sizes its pool at import; the
list matches ``perfbench/envblock.py``.
"""

import os

for var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[var] = "1"
