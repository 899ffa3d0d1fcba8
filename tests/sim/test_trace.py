"""Trace bus and stage-aggregation tests."""

import hashlib
import os
import random

import pytest

from repro.ckpt import checkpoint, restore
from repro.copier.errors import CopyAborted
from repro.copier.task import Region
from repro.kernel import System
from repro.sim.trace import (STAGE_NAMES, DmaCompleted, RoundPlanned,
                             SegmentExecuted, StageAggregator, TaskFinished,
                             TaskIngested, TaskSubmitted, ThreadSleep,
                             ThreadWake, TraceBus)
from tests.copier.conftest import Setup


def test_bus_subscribe_emit_unsubscribe():
    bus = TraceBus()
    assert not bus.active
    seen = []
    fn = bus.subscribe(seen.append)
    assert bus.active
    event = TaskSubmitted(10, 1, "app", "u", 4096, False)
    bus.emit(event)
    assert seen == [event]
    bus.unsubscribe(fn)
    assert not bus.active
    bus.emit(TaskSubmitted(20, 2, "app", "u", 4096, False))
    assert len(seen) == 1
    bus.unsubscribe(fn)  # double-unsubscribe is harmless


def test_bus_delivers_in_order_to_all_subscribers():
    bus = TraceBus()
    a, b = [], []
    bus.subscribe(a.append)
    bus.subscribe(b.append)
    events = [ThreadSleep(5, 0), ThreadWake(15, 0, 10)]
    for event in events:
        bus.emit(event)
    assert a == events and b == events


def test_event_repr_names_kind_and_fields():
    text = repr(TaskFinished(99, 7, "app", "done", 4096))
    assert "task-finished" in text
    assert "task_id=7" in text
    assert "ts=99" in text


def test_aggregator_stage_latencies_from_synthetic_stream():
    agg = StageAggregator()
    agg(TaskSubmitted(100, 1, "app", "u", 8192, False))
    agg(TaskIngested(130, 1, "app"))
    agg(RoundPlanned(140, "app", "hybrid", 8192, 0, 1))
    agg(SegmentExecuted(150, 1, 0, 4096, "avx"))
    agg(SegmentExecuted(180, 1, 1, 4096, "avx"))  # only first exec counts
    agg(TaskFinished(200, 1, "app", "done", 8192))
    snap = agg.as_dict()
    assert snap["stages"]["submit_to_ingest"] == {
        "count": 1, "total": 30, "mean": 30.0, "max": 30}
    assert snap["stages"]["ingest_to_execute"]["total"] == 20
    assert snap["stages"]["execute_to_complete"]["total"] == 50
    assert snap["stages"]["submit_to_complete"]["total"] == 100
    assert snap["rounds"] == 1
    assert snap["outcomes"]["done"] == 1
    assert snap["in_flight"] == 0
    assert snap["events"] == 6


def test_aggregator_dma_completion_counts_as_first_execution():
    agg = StageAggregator()
    agg(TaskSubmitted(0, 4, "app", "u", 65536, False))
    agg(TaskIngested(10, 4, "app"))
    agg(DmaCompleted(60, 4, 65536, 16))
    agg(TaskFinished(80, 4, "app", "done", 65536))
    snap = agg.as_dict()
    assert snap["stages"]["ingest_to_execute"]["total"] == 50
    assert snap["stages"]["execute_to_complete"]["total"] == 20


def test_aggregator_excludes_non_done_tasks_from_latency():
    agg = StageAggregator()
    agg(TaskSubmitted(0, 1, "app", "u", 4096, False))
    agg(TaskIngested(5, 1, "app"))
    agg(TaskFinished(50, 1, "app", "aborted", 4096))
    agg(TaskSubmitted(0, 2, "app", "u", 4096, False))
    agg(TaskFinished(1, 2, "app", "dropped", 4096))
    snap = agg.as_dict()
    assert snap["outcomes"]["aborted"] == 1
    assert snap["outcomes"]["dropped"] == 1
    # Aborted/dropped tasks never contribute end-to-end samples.
    assert snap["stages"]["submit_to_complete"]["count"] == 0
    assert snap["stages"]["execute_to_complete"]["count"] == 0
    assert snap["in_flight"] == 0


def test_aggregator_tracks_thread_sleep_wake():
    agg = StageAggregator()
    agg(ThreadSleep(100, 0))
    agg(ThreadWake(400, 0, 300))
    snap = agg.as_dict()
    assert snap["threads"] == {"sleeps": 1, "wakes": 1, "slept_cycles": 300}


def test_service_feeds_aggregator_end_to_end():
    setup = Setup()
    aspace, client = setup.aspace, setup.client
    src = aspace.mmap(16 * 1024, populate=True)
    dst = aspace.mmap(16 * 1024, populate=True)

    def gen():
        for _ in range(3):
            yield from client.amemcpy(dst, src, 16 * 1024)
            yield from client.csync(dst, 16 * 1024)

    setup.run_process(gen())
    snap = setup.service.stage_stats.as_dict()
    assert snap["outcomes"]["done"] == 3
    assert snap["in_flight"] == 0
    for name in STAGE_NAMES:
        assert snap["stages"][name]["count"] == 3, name
        assert snap["stages"][name]["max"] >= 0
    # Submission precedes ingestion precedes completion on the sim clock.
    assert snap["stages"]["submit_to_complete"]["total"] >= \
        snap["stages"]["submit_to_ingest"]["total"]
    assert snap["rounds"] > 0
    assert snap["events"] > 9


def test_extra_subscriber_sees_raw_events():
    setup = Setup()
    kinds = []
    setup.env.trace.subscribe(lambda event: kinds.append(event.kind))
    aspace, client = setup.aspace, setup.client
    src = aspace.mmap(4096, populate=True)
    dst = aspace.mmap(4096, populate=True)

    def gen():
        yield from client.amemcpy(dst, src, 4096)
        yield from client.csync(dst, 4096)

    setup.run_process(gen())
    assert "task-submitted" in kinds
    assert "task-ingested" in kinds
    assert "segment-executed" in kinds
    assert "task-finished" in kinds
    # Pipeline order holds for the first occurrence of each stage.
    order = [kinds.index(k) for k in
             ("task-submitted", "task-ingested", "task-finished")]
    assert order == sorted(order)


# ------------------------------------------------------------- quiet bus
#
# The copier folds its stage latencies by direct calls, so with no outside
# subscriber the bus stays inactive and no event object is built.  An
# outside subscriber must change nothing the copier reports, and must
# still see every event: the same kinds in the same order as when the
# copier's own aggregator was a bus subscriber (the kind sequences below
# were recorded on that code).

#: sha256 of the event-kind sequence each program delivers to a subscriber
#: attached from cycle 0, with the sequence's length.
PINNED_KINDS = {
    "plain": ("349aa4f58c63c2814312b61197ec6124"
              "a1698f224f066cc3b330147b5ae48609", 1030),
    "mixed": ("4874e979799bf4b06f5e7e568e4cc161"
              "78a23bd83c405ab1489e194c0d3e16f0", 1069),
    "ckpt": ("89c2c2d27d039d38b68f5429eb7a0a4c"
             "25f6f7791ba4a48ae7b36472c7a3c7b7", 2174),
}


def _busy_program(system, proc, seed, n_copies=60, depth=12):
    """A window of u- and k-mode, lazy, DMA-sized, deadline'd, cancelled
    and chained copies, one destination unmapped mid-flight."""
    rng = random.Random(seed)
    env = system.env
    client = proc.client
    slot = 64 * 1024
    blob = rng.randbytes(256 * 1024)
    src_base = proc.mmap(len(blob), populate=True)
    proc.write(src_base, blob)
    n_slots = 2 * depth
    dst_base = proc.mmap(n_slots * slot, populate=True)
    victim = proc.mmap(slot, populate=True)

    def sync(dst, n):
        try:
            yield from client.csync(dst, n)
        except CopyAborted:
            pass  # cancelled, deadline-missed, EFAULT or poisoned

    def run():
        window = []
        yield from client.amemcpy(victim, src_base, slot // 2, lazy=True)
        for i in range(n_copies):
            if i == n_copies // 2:
                proc.aspace.munmap(victim, slot)
            if len(window) >= depth:
                yield from sync(*window.pop(0))
            n = rng.choice((64, 700, 4096, 9000, 20000, 49152, slot))
            dst = dst_base + (i % n_slots) * slot
            chained = [w for w in window if w[1] >= n]
            if chained and rng.random() < 0.25:
                src = chained[-1][0]
            else:
                src = src_base + rng.randrange(len(blob) - n + 1)
            roll = rng.random()
            deadline = env.now + rng.randrange(2_000, 60_000) \
                if roll < 0.2 else None
            if roll >= 0.8:
                yield from proc.trap()
                yield from client.k_amemcpy(Region(proc.aspace, src, n),
                                            Region(proc.aspace, dst, n),
                                            deadline=deadline)
                yield from proc.sysret()
            else:
                yield from client.amemcpy(dst, src, n,
                                          lazy=0.7 <= roll < 0.8,
                                          deadline=deadline)
            window.append((dst, n))
            if rng.random() < 0.08:
                yield from client.cancel(*rng.choice(window))
            yield system.app_compute(proc, rng.randrange(0, 400))
        for dst, n in window[:-2]:
            yield from sync(dst, n)

    sim_proc = proc.spawn(run(), affinity=0)
    env.run_until(sim_proc.terminated, limit=10_000_000_000)


def _quiet_bus_run(variant, subscribe):
    """Run ``variant``'s program; returns the copier's stage snapshot and
    the kinds an outside subscriber saw (``None`` when none was attached)."""
    kinds = [] if subscribe else None

    def attach(system):
        if subscribe:
            system.env.trace.subscribe(lambda event: kinds.append(event.kind))

    system = System(n_cores=4, copier=True, phys_frames=16384)
    assert not system.env.trace.active  # the copier alone keeps it quiet
    attach(system)
    proc = system.create_process("busy")
    _busy_program(system, proc, seed=11)
    if variant == "ckpt":
        blob = checkpoint(system).to_bytes()
        system, = restore(blob)[:1]
        assert not system.env.trace.active
        attach(system)
        proc = next(p for p in system.processes if p.name == "busy")
        _busy_program(system, proc, seed=12)
    system.exit_process(proc)  # reaps the copies still in flight
    system.copier.shutdown()
    return system.copier.stats_snapshot()["stages"], kinds


def _foreign_knobs():
    return {k for k in os.environ if k.startswith("COPIER_")} - {
        "COPIER_SLOWHEAP", "COPIER_SLOWPATH", "COPIER_FAULT_PLAN",
        "COPIER_FAULT_SEED"}


@pytest.mark.parametrize("variant", sorted(PINNED_KINDS))
def test_outside_subscriber_changes_no_stage_and_sees_every_event(
        monkeypatch, variant):
    if variant == "mixed":
        monkeypatch.setenv("COPIER_FAULT_PLAN", "mixed")
        monkeypatch.setenv("COPIER_FAULT_SEED", "1")
    quiet, _ = _quiet_bus_run(variant, subscribe=False)
    stages, kinds = _quiet_bus_run(variant, subscribe=True)
    assert stages == quiet
    assert stages["events"] == len(kinds)
    assert stages["in_flight"] == 0
    digest = hashlib.sha256(" ".join(kinds).encode()).hexdigest()
    if variant != "mixed" and os.environ.get("COPIER_FAULT_PLAN"):
        return  # a fault plan from the environment changes the stream
    if _foreign_knobs():
        return
    assert (digest, len(kinds)) == PINNED_KINDS[variant]
