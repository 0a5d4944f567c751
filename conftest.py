"""Pin BLAS to one thread for the whole test run, before numpy is first
imported.

Grid chains run in forked workers, one per usable CPU, and each worker
would otherwise start its own BLAS thread pool, so the criterion-9 grid
ran more BLAS threads than the host has cores.  ``setdefault`` keeps any
thread count already set in the environment.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
