import os

# One BLAS/OpenMP thread unless the developer chose otherwise, as the console
# script does (vortexlab.cli), set before any test imports numpy: tests that
# run the CLI in process then write the bytes the console script writes, and
# the suite does not start a BLAS thread pool per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
