import os

# One BLAS thread, set before numpy loads: the products here are small, and a
# thread pool that depends on idle CPUs made one einsum take 7.0 ms instead of
# 0.098 ms with the other CPU busy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from spectriple import build_toy


@pytest.fixture(scope="session")
def toy():
    """The shipped model at unit couplings (immutable, safe to share)."""
    return build_toy()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
