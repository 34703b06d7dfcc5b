"""Suite-wide pytest hooks and environment."""

import os

# one BLAS thread, as perfbench/run.py sets it: at this suite's matrix sizes
# a second thread buys no time and takes a whole CPU. Set before numpy loads;
# a caller's own setting wins, and spawned demo scripts inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


def pytest_collection_modifyitems(items):
    """Run the acceptance gate after the rest of the suite, so the tests that
    take seconds report before the ones that train models for minutes."""
    items.sort(key=lambda item: item.get_closest_marker("acceptance") is not None)
