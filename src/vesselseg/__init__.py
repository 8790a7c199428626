"""Adversarial retinal vessel segmentation with a self-contained autodiff engine."""

import os

# One BLAS thread unless the caller set otherwise.  This runs before any
# submodule imports numpy, because OpenBLAS reads these variables once, when
# it loads; under load on a shared machine its default threading made small
# training GEMMs ten times slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
