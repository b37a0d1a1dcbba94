import importlib
import os
import sys

import pytest


@pytest.fixture(scope="session")
def baseline():
    """The pinned copy of the library in perfbench/baseline (the package
    nilcones_baseline), imported read-only as a reference."""
    root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "baseline")
    if root not in sys.path:
        sys.path.append(root)
    return importlib.import_module("nilcones_baseline")
