import os

# the package's thread default, set before any test module imports numpy
# (importing freejordan sets it too, but test_acceptance imports numpy first)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest


def pytest_collection_modifyitems(config, items):
    if os.environ.get("FREEJORDAN_LONG_TESTS") == "1":
        return
    skip = pytest.mark.skip(reason="slow; set FREEJORDAN_LONG_TESTS=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
