"""End-to-end tests of the Copier service: submit, copy, csync, handlers."""

import pytest

from repro.copier.errors import CopyAborted
from repro.mem import PAGE_SIZE
from repro.sim import Compute, Timeout
from tests.copier.conftest import Setup


def test_amemcpy_csync_moves_data(setup):
    aspace, client = setup.aspace, setup.client
    src = aspace.mmap(PAGE_SIZE, populate=True)
    dst = aspace.mmap(PAGE_SIZE, populate=True)
    payload = b"copier!" * 100
    aspace.write(src, payload)

    def app():
        yield from client.amemcpy(dst, src, len(payload))
        yield from client.csync(dst, len(payload))
        return aspace.read(dst, len(payload))

    assert setup.run_process(app()) == payload


def test_async_copy_overlaps_with_compute(setup):
    """The Copy-Use window hides copy latency (Insight-2)."""
    aspace, client, params = setup.aspace, setup.client, setup.params
    n = 64 * 1024
    src = aspace.mmap(n, populate=True)
    dst = aspace.mmap(n, populate=True)
    aspace.write(src, b"\x5a" * n)
    work = params.cpu_copy_cycles(n, engine="avx") * 4  # ample window

    def app():
        yield from client.amemcpy(dst, src, n)
        yield Compute(work)  # app compute overlapping the copy
        before_sync = setup.env.now
        yield from client.csync(dst, n)
        return setup.env.now - before_sync

    sync_wait = setup.run_process(app())
    # The copy finished inside the window: csync is (nearly) free.
    assert sync_wait < params.cpu_copy_cycles(n, engine="avx") / 4
    assert aspace.read(dst, n) == b"\x5a" * n


def test_segment_pipeline_prefix_ready_early(setup):
    """Fine-grained updates let apps consume a prefix before the tail lands."""
    aspace, client, params = setup.aspace, setup.client, setup.params
    n = 128 * 1024
    src = aspace.mmap(n, populate=True)
    dst = aspace.mmap(n, populate=True)
    aspace.write(src, bytes([i % 251 for i in range(n)]))

    def app():
        yield from client.amemcpy(dst, src, n)
        t0 = setup.env.now
        yield from client.csync(dst, 1024)  # just the first segment
        prefix_wait = setup.env.now - t0
        first_kb = aspace.read(dst, 1024)
        yield from client.csync(dst, n)     # now the whole thing
        full_wait = setup.env.now - t0
        return prefix_wait, full_wait, first_kb

    prefix_wait, full_wait, first_kb = setup.run_process(app())
    assert first_kb == bytes([i % 251 for i in range(1024)])
    assert prefix_wait < full_wait  # prefix available strictly earlier


def test_csync_returns_fast_when_already_done(setup):
    aspace, client, params = setup.aspace, setup.client, setup.params
    src = aspace.mmap(PAGE_SIZE, populate=True)
    dst = aspace.mmap(PAGE_SIZE, populate=True)

    def app():
        yield from client.amemcpy(dst, src, 2048)
        yield Timeout(1_000_000)  # far beyond completion
        t0 = setup.env.now
        yield from client.csync(dst, 2048)
        return setup.env.now - t0

    wait = setup.run_process(app())
    assert wait == params.csync_check_cycles


def test_csync_all_waits_for_everything(setup):
    aspace, client = setup.aspace, setup.client
    bufs = [aspace.mmap(PAGE_SIZE, populate=True) for _ in range(6)]
    for i in range(3):
        aspace.write(bufs[i], bytes([i + 1]) * 512)

    def app():
        for i in range(3):
            yield from client.amemcpy(bufs[i + 3], bufs[i], 512)
        yield from client.csync_all()
        return [aspace.read(bufs[i + 3], 512) for i in range(3)]

    results = setup.run_process(app())
    assert results == [bytes([1]) * 512, bytes([2]) * 512, bytes([3]) * 512]


def test_ufunc_handler_delegated_to_handler_queue(setup):
    """UFUNCs run in the client via post_handlers, not in Copier (§4.1)."""
    aspace, client = setup.aspace, setup.client
    src = aspace.mmap(PAGE_SIZE, populate=True)
    dst = aspace.mmap(PAGE_SIZE, populate=True)
    freed = []

    def app():
        yield from client.amemcpy(
            dst, src, 1024, handler=("ufunc", freed.append, (src,)))
        yield from client.csync(dst, 1024)
        ran_before = list(freed)
        yield from client.post_handlers()
        return ran_before, list(freed)

    ran_before, ran_after = setup.run_process(app())
    assert ran_before == []       # not run inside Copier
    assert ran_after == [src]     # run by the client's post_handlers


def test_kfunc_handler_runs_in_copier(setup):
    aspace, client = setup.aspace, setup.client
    src = aspace.mmap(PAGE_SIZE, populate=True)
    dst = aspace.mmap(PAGE_SIZE, populate=True)
    reclaimed = []

    def app():
        yield from client.amemcpy(
            dst, src, 1024, handler=("kfunc", reclaimed.append, ("skb",)))
        yield from client.csync(dst, 1024)
        return list(reclaimed)

    assert setup.run_process(app()) == ["skb"]


def test_proactive_fault_handling_maps_unbacked_pages(setup):
    """Copier resolves demand-paging faults in its own context (§4.5.4)."""
    aspace, client = setup.aspace, setup.client
    src = aspace.mmap(PAGE_SIZE * 2)   # not populated
    dst = aspace.mmap(PAGE_SIZE * 2)   # not populated
    aspace.write(src, b"fault me" * 8)
    demand_before = aspace.fault_counts["demand_zero"]

    def app():
        yield from client.amemcpy(dst, src, 64)
        yield from client.csync(dst, 64)
        return aspace.read(dst, 64)

    assert setup.run_process(app()) == b"fault me" * 8
    # dst page got demand-faulted by the service, not the app.
    assert aspace.fault_counts["demand_zero"] > demand_before


def test_illegal_address_drops_task_and_signals(setup):
    """Security check failure → task dropped, process signaled (§4.5.4)."""
    from repro.copier.errors import CopierSecurityError

    aspace, client = setup.aspace, setup.client
    src = aspace.mmap(PAGE_SIZE, populate=True)
    caught = []

    def app():
        try:
            yield from client.amemcpy(0xBAD00000, src, 512)
            yield from client.csync(0xBAD00000, 512)
        except (CopierSecurityError, CopyAborted) as exc:
            caught.append(type(exc).__name__)

    proc = setup.env.spawn(app(), name="app", affinity=0)
    client.process = proc
    setup.env.run_until(proc.terminated, limit=50_000_000)
    assert caught  # either the signal or the aborted-descriptor csync fired
    assert client.stats.dropped == 1


def test_abort_discards_queued_copy(setup):
    aspace, client = setup.aspace, setup.client
    n = 32 * 1024
    src = aspace.mmap(n, populate=True)
    dst = aspace.mmap(n, populate=True)
    aspace.write(src, b"\x11" * n)

    def app():
        # Submit lazily so the task stays queued rather than executing.
        yield from client.amemcpy(dst, src, n, lazy=True)
        yield from client.abort(dst, n)
        # Give the service time to process the abort.
        yield Timeout(100_000)
        return None

    setup.run_process(app())
    assert client.stats.aborted == 1
    # The data never moved.
    assert aspace.read(dst, 16) == b"\x00" * 16


def test_csync_after_abort_raises(setup):
    aspace, client = setup.aspace, setup.client
    n = 16 * 1024
    src = aspace.mmap(n, populate=True)
    dst = aspace.mmap(n, populate=True)
    caught = []

    def app():
        yield from client.amemcpy(dst, src, n, lazy=True)
        yield from client.abort(dst, n)
        yield Timeout(100_000)
        try:
            yield from client.csync(dst, n)
        except CopyAborted:
            caught.append(True)

    setup.run_process(app())
    assert caught == [True]


def test_queue_submit_charges_cycles(setup):
    aspace, client, params = setup.aspace, setup.client, setup.params
    src = aspace.mmap(PAGE_SIZE, populate=True)
    dst = aspace.mmap(PAGE_SIZE, populate=True)

    def app():
        t0 = setup.env.now
        yield from client.amemcpy(dst, src, 1024)
        return setup.env.now - t0

    cost = setup.run_process(app())
    assert cost == params.queue_submit_cycles + params.descriptor_alloc_cycles


def test_lazy_task_executes_after_deadline(setup):
    aspace, client = setup.aspace, setup.client
    src = aspace.mmap(PAGE_SIZE, populate=True)
    dst = aspace.mmap(PAGE_SIZE, populate=True)
    aspace.write(src, b"deferred")

    def app():
        yield from client.amemcpy(dst, src, 8, lazy=True)
        yield Timeout(setup.service.lazy_period_cycles * 2)
        return aspace.read(dst, 8)

    assert setup.run_process(app()) == b"deferred"
