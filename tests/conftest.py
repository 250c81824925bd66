from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from spinchain import scans

# A Tier-1 result depends only on the commit: no example database carried
# between runs, and the same examples drawn on every run. Found failures
# stay as explicit @example lines in the tests.
settings.register_profile("commit", database=None, derandomize=True)
settings.load_profile("commit")


def pytest_addoption(parser):
    parser.addoption(
        "--slow",
        action="store_true",
        default=False,
        help="run long checks (N=11..13 entanglement length, N=13 and 14 oracle check)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running optional checks")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip = pytest.mark.skip(reason="needs --slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def skipped_sector(monkeypatch):
    """Give the staircase a 4-spin ring, one level per sector, whose sector
    minima eps = [0, -0.2, -1.5, -0.2, 0] skip a sector: sector 1 lies above
    the chord from sector 2 to sector 0, so the ground state would jump from
    n_up = 2 straight to 0."""
    spectrum = SimpleNamespace(n_spins=4, energies=np.array([0.0, -0.2, -1.5, -0.2, 0.0]), slopes=np.arange(-4, 5, 2))
    monkeypatch.setattr(scans, "diagonalize_chain", lambda n, j: spectrum)
