"""Repo-wide pytest options and fixtures.

``--slow`` opts into the long-running fuzz campaigns (tests marked
``@pytest.mark.slow``); without it they are skipped so tier-1 stays fast.

``@pytest.mark.faultfree`` disarms environment-driven fault injection
(``COPIER_FAULT_PLAN``) for tests whose assertions only hold on a
healthy machine — calibrated performance comparisons and
keeps-up-with-load invariants.  CI's fault-soak job runs the whole suite
with the mixed plan armed; correctness tests must pass under it, and
only these explicitly-marked tests opt out.

``env_cls`` and ``aspace_cls`` are the event-loop and address-space
classes that bare-engine and bare-memory tests build.  Here they are
the production classes; ``tests/sim/test_heap_oracle.py`` and
``tests/mem/test_pagewalk_oracle.py`` collect those suites a second
time with the fixtures bound to the reference classes, so every run
covers both.
"""

import pytest

from repro.mem import AddressSpace
from repro.sim import Environment


def pytest_addoption(parser):
    parser.addoption("--slow", action="store_true", default=False,
                     help="run the opt-in slow fuzz campaigns")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip_slow = pytest.mark.skip(reason="slow fuzz campaign; pass --slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(autouse=True)
def _disarm_faults_when_marked(request, monkeypatch):
    if "faultfree" in request.keywords:
        monkeypatch.delenv("COPIER_FAULT_PLAN", raising=False)
        monkeypatch.delenv("COPIER_FAULT_SEED", raising=False)


@pytest.fixture(scope="session")
def env_cls():
    return Environment


@pytest.fixture(scope="session")
def aspace_cls():
    return AddressSpace
