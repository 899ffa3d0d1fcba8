"""Lifecycle robustness: exit reaping, mid-flight munmap EFAULTs, and
service shutdown under load (the teardown half of §5.1)."""

import pytest

from repro.copier.errors import AdmissionReject, CopyAborted, TaskEFault

from .conftest import Setup

BUF = 64 * 1024


def drive(gen):
    """Run a submission generator without advancing the event loop: the
    tasks land in the queues but nothing ingests them yet."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def _buffers(setup, n=2, nbytes=BUF):
    bufs = [setup.aspace.mmap(nbytes, populate=True) for _ in range(n)]
    for i, buf in enumerate(bufs):
        setup.aspace.write(buf, bytes([i + 1]) * nbytes)
    return bufs


# ------------------------------------------------------------- exit reaping


def test_reap_client_aborts_inflight_and_unpins(setup):
    src, dst = _buffers(setup)
    for off in range(0, BUF, 16 * 1024):
        drive(setup.client.amemcpy(dst + off, src + off, 16 * 1024))
    assert any(not t.is_finished for t in setup.client.task_index)

    reaped = setup.service.reap_client(setup.client)
    assert reaped == 4
    assert all(t.is_finished for t in setup.client.task_index)
    assert setup.client not in setup.service.clients
    assert setup.aspace.pins_outstanding() == 0
    assert setup.client.stats.exit_reaped == 4
    assert setup.service.lifecycle.exit_reaped == 4
    assert setup.service.lifecycle.processes_reaped == 1


def test_reap_client_is_idempotent(setup):
    src, dst = _buffers(setup)
    drive(setup.client.amemcpy(dst, src, 4096))
    assert setup.service.reap_client(setup.client) == 1
    assert setup.service.reap_client(setup.client) == 0
    assert setup.service.lifecycle.processes_reaped == 1


def test_reaped_aspace_still_counted_for_leaks(setup):
    """A departed client's address space stays visible to leak accounting."""
    src, dst = _buffers(setup)
    drive(setup.client.amemcpy(dst, src, 4096))
    setup.service.reap_client(setup.client)
    assert setup.aspace in setup.service._all_aspaces()
    assert setup.service.leaked_pins() == 0


# ------------------------------------------------- munmap mid-flight: EFAULT


def test_munmap_midflight_delivers_efault(setup):
    src, dst = _buffers(setup)
    drive(setup.client.amemcpy(dst, src, BUF))
    # The copy is queued but not ingested; now the source vanishes.
    setup.aspace.munmap(src, BUF)

    outcome = {}

    def app():
        try:
            yield from setup.client.csync(dst, BUF)
            outcome["error"] = None
        except TaskEFault as exc:
            outcome["error"] = exc

    setup.run_process(app())
    err = outcome["error"]
    assert isinstance(err, TaskEFault)
    assert isinstance(err, CopyAborted)  # existing handlers keep working
    assert setup.client.stats.efault_tasks == 1
    assert setup.service.lifecycle.efault_tasks == 1
    assert setup.aspace.pins_outstanding() == 0
    snap = setup.service.stats_snapshot()
    assert snap["lifecycle"]["efault_tasks"] == 1
    agg = snap["stages"]["outcomes"]
    assert agg.get("efault", 0) == 1


def test_munmap_of_dst_midflight_delivers_efault(setup):
    src, dst = _buffers(setup)
    drive(setup.client.amemcpy(dst, src, BUF))
    setup.aspace.munmap(dst, BUF)

    outcome = {}

    def app():
        try:
            yield from setup.client.csync(dst, BUF)
            outcome["error"] = None
        except TaskEFault as exc:
            outcome["error"] = exc

    setup.run_process(app())
    assert isinstance(outcome["error"], TaskEFault)
    assert setup.aspace.pins_outstanding() == 0


def test_efault_does_not_disturb_unrelated_tasks(setup):
    src, dst, src2, dst2 = _buffers(setup, n=4)
    drive(setup.client.amemcpy(dst, src, BUF))
    drive(setup.client.amemcpy(dst2 + 100, src2 + 100, 8192))
    setup.aspace.munmap(src, BUF)

    outcome = {}

    def app():
        try:
            yield from setup.client.csync(dst, BUF)
            outcome["faulted"] = False
        except TaskEFault:
            outcome["faulted"] = True
        yield from setup.client.csync(dst2 + 100, 8192)

    setup.run_process(app())
    assert outcome["faulted"]
    assert setup.aspace.read(dst2 + 100, 8192) == \
        setup.aspace.read(src2 + 100, 8192)


# ------------------------------------------------------------------ shutdown


def test_shutdown_drains_pending_work():
    setup = Setup()
    src, dst = _buffers(setup)
    n = 4
    for off in range(0, n * 8192, 8192):
        drive(setup.client.amemcpy(dst + off, src + off, 8192))

    report = setup.service.shutdown(deadline=50_000_000)
    assert report["drained"]
    assert report["requeued"] == n
    assert report["force_reaped"] == 0
    assert report["leaked_pins"] == 0
    # The drain really executed the copies rather than dropping them.
    assert setup.aspace.read(dst, 8192) == setup.aspace.read(src, 8192)
    assert setup.service.lifecycle.drains == 1
    assert setup.service.lifecycle.drain_requeued == n


def test_shutdown_is_idempotent():
    setup = Setup()
    report = setup.service.shutdown(deadline=1_000_000)
    assert setup.service.shutdown(deadline=1) is report
    assert setup.service.lifecycle.drains == 1


def test_shutdown_rejects_new_submissions():
    setup = Setup()
    src, dst = _buffers(setup)
    setup.service.shutdown(deadline=1_000_000)
    with pytest.raises(AdmissionReject):
        drive(setup.client.amemcpy(dst, src, 4096))
    assert setup.client.stats.rejected_submits == 1


def test_shutdown_force_reaps_wedged_work():
    setup = Setup()
    src, dst = _buffers(setup)
    drive(setup.client.amemcpy(dst, src, 8192))
    # Stop the workers first: the backlog can no longer drain on its own.
    setup.service.stop()
    report = setup.service.shutdown(deadline=200_000)
    assert not report["drained"]
    assert report["force_reaped"] == 1
    assert report["leaked_pins"] == 0
    assert setup.aspace.pins_outstanding() == 0


@pytest.mark.parametrize("ingested", [False, True])
def test_shutdown_executes_lazy_copy_inside_its_lazy_period(ingested):
    # A lazy copy only waiting out its lazy period is work the drain
    # must run, not a wedge to force-reap — whether the worker has
    # already ingested it or it still sits in the submission ring.
    setup = Setup()
    src, dst = _buffers(setup)
    drive(setup.client.amemcpy(dst, src, 8192, lazy=True))
    if ingested:
        while not setup.client.pending:
            setup.env.step(max_cycles=1000)
    report = setup.service.shutdown()
    assert report["drained"]
    assert report["force_reaped"] == 0
    assert report["leaked_pins"] == 0
    assert report["cycles"] < setup.service.lazy_period_cycles
    assert setup.aspace.read(dst, 8192) == setup.aspace.read(src, 8192)


def test_snapshot_carries_lifecycle_section(setup):
    snap = setup.service.stats_snapshot()
    lc = snap["lifecycle"]
    assert lc["exit_reaped"] == 0
    assert lc["efault_tasks"] == 0
    assert lc["drain_requeued"] == 0
    assert lc["pins_outstanding"] == 0
    assert lc["draining"] is False
