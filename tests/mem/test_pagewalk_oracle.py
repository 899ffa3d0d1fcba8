"""The address-space suites again, on the historic per-page walkers.

The tests imported below build their address spaces through the
``aspace_cls`` fixture (the run-cache fast path, see
``tests/conftest.py``).  Imported into this module they are collected a
second time, and the override below binds ``aspace_cls`` to the
reference :class:`PageWalkAddressSpace`, so both classes pass the same
suite in every run.  Machine-level tests need no copy:
``COPIER_SLOWPATH=1`` selects the page walk wherever a machine is built.
"""

import pytest

from repro.mem.pagewalk import PageWalkAddressSpace
from tests.mem.test_addrspace import *  # noqa: F401,F403
from tests.mem.test_runcache import *  # noqa: F401,F403
from tests.mem.test_shm import *  # noqa: F401,F403


@pytest.fixture(scope="module")
def aspace_cls():
    return PageWalkAddressSpace
