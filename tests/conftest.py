"""Tier-1 runs BLAS on one thread, as the benchmark does: on a busy host,
idle BLAS threads spin and slow the suite several-fold.  NumPy reads these
variables when it is first imported, which is after pytest loads this file.
Tests that need another thread count set it in a child's environment."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
