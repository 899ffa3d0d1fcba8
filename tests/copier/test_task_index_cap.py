"""Regression test: ``CopierClient.task_index`` stays bounded.

The index exists for csync address lookups, so a client that submits
forever without ever csyncing used to grow it without bound.  Submission
now force-prunes finished tasks once the index reaches
:attr:`CopierClient.INDEX_CAP`.
"""

import pytest

from repro.copier.client import CopierClient
from repro.sim import Timeout
from tests.copier.conftest import Setup

N_TASKS = 10_000


# The cap only bounds *finished* entries; under injected faults the
# service legitimately lags with more unfinished tasks in flight.
@pytest.mark.faultfree
def test_index_bounded_across_10k_submissions():
    setup = Setup()
    client, aspace = setup.client, setup.aspace
    src = aspace.mmap(4096, populate=True)
    dst = aspace.mmap(4096, populate=True)
    peak = 0

    def gen():
        nonlocal peak
        for i in range(N_TASKS):
            yield from client.amemcpy(dst, src, 256)
            peak = max(peak, len(client.task_index))
            if i % 512 == 511:
                # Never csync — just pause so the service drains the ring
                # (csync would prune the index itself and mask the leak).
                yield Timeout(50_000)

    setup.run_process(gen(), limit=500_000_000)
    assert client.stats.submitted == N_TASKS
    assert peak <= CopierClient.INDEX_CAP
    assert len(client.task_index) <= CopierClient.INDEX_CAP
    # The copies actually ran; pruning only sheds *finished* tasks.
    assert client.stats.completed > 0
    assert all(not t.is_finished or t.descriptor.all_ready
               for t in client.task_index)


def test_forced_prune_keeps_unfinished_tasks():
    setup = Setup()
    # Gate the service so nothing completes: every submitted task stays
    # unfinished and therefore survives the forced prune.
    setup.service.polling = "scenario"
    setup.service.scenario_active = False
    client, aspace = setup.client, setup.aspace
    src = aspace.mmap(4096, populate=True)
    dst = aspace.mmap(4096, populate=True)

    def gen():
        for _ in range(40):
            yield from client.amemcpy(dst, src, 256)

    setup.run_process(gen())
    before = list(client.task_index)
    client._prune_index(force=True)
    assert list(client.task_index) == before
