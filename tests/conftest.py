"""Pin BLAS to one thread for the test suite.

On a machine whose cores are shared, OpenBLAS's default thread pool thrashes
and the suite runs several times slower.  BLAS reads its thread count when
numpy is first imported, so the pin is set here, before any test module
imports numpy; a value already in the environment wins.
"""

import os
import sys
import warnings

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py; BLAS threads are not pinned")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
