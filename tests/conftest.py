import pytest


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
