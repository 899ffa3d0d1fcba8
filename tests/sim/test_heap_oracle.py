"""The bare-engine suites again, on the historic heapq loop.

The tests imported below build their event loop through the ``env_cls``
fixture (the calendar queue, see ``tests/conftest.py``).  Imported into
this module they are collected a second time, and the override below
binds ``env_cls`` to the reference :class:`HeapEnvironment`, so both
loops pass the same suite in every run.  Machine-level tests need no
copy: ``COPIER_SLOWHEAP=1`` selects the heap loop wherever a machine is
built.
"""

import pytest

from repro.sim.heapengine import HeapEnvironment
from tests.sim.test_cores_differential import *  # noqa: F401,F403
from tests.sim.test_cores_edge import *  # noqa: F401,F403
from tests.sim.test_engine import *  # noqa: F401,F403
from tests.sim.test_step import (  # noqa: F401
    test_loop_reentry_from_event_raises,
    test_loop_usable_again_after_reentry_error,
    test_step_cycle_horizon,
    test_step_event_budget,
    test_step_event_budget_blocks_horizon_skip,
    test_step_max_cycles_equals_run_until_horizon,
)


@pytest.fixture(scope="module")
def env_cls():
    return HeapEnvironment
