import pytest
from hypothesis import settings

from winpca._kernels import blas_threads

# Example timings vary with machine load; wall-clock deadlines would flag
# that as a slow example.  Examples come from a fixed seed and no failures
# are replayed from a saved database, so every run draws the same cases.
settings.register_profile("winpca", deadline=None, max_examples=60,
                          derandomize=True, database=None)
settings.load_profile("winpca")

_SESSION_BLAS_THREADS = blas_threads()


@pytest.fixture(autouse=True)
def _blas_threads_restored():
    """Every test leaves numpy's OpenBLAS at the thread count it started with."""
    yield
    if _SESSION_BLAS_THREADS is not None:
        assert blas_threads() == _SESSION_BLAS_THREADS, "a BLAS thread pin leaked"
