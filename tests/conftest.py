"""Test-session setup: one BLAS thread.

The suite's dense linear algebra runs on small matrices, where a second
BLAS thread gains nothing and, with the other core busy, slows the dense
oracle's eigendecompositions about tenfold.  The variables are read when
NumPy loads, which is after pytest imports this file.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
