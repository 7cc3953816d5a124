"""Test-session setup: one BLAS thread.

The suite's dense linear algebra (eigendecompositions, expm references)
runs on small matrices, where a second BLAS thread gains nothing and only
competes for the cores.  The variables are read when NumPy loads, which
is after pytest imports this file.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
