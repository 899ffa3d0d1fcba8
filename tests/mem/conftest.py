"""Shared fixtures for the memory tests.

``aspace`` is built from ``aspace_cls`` (see ``tests/conftest.py``), so
``tests/mem/test_pagewalk_oracle.py`` re-runs these suites on the
page-walk reference class.
"""

import pytest

from repro.mem import PhysicalMemory


@pytest.fixture
def phys():
    return PhysicalMemory(n_frames=512)


@pytest.fixture
def aspace(phys, aspace_cls):
    return aspace_cls(phys, name="test")
