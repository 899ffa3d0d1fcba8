"""Calendar-queue vs heapq differential determinism.

The production event loop is a calendar/bucket queue
(:class:`Environment`); :class:`HeapEnvironment` is the historic
single-heapq loop, kept verbatim as the oracle.  The two must be
*bit-exact*: same event sequence, same ``env.now``, same
``events_executed``, same trace stream, same full ``stats_snapshot()`` —
across a raw-copy Copier workload (clean, ``COPIER_SLOWPATH=1`` and
``COPIER_FAULT_PLAN=mixed``), the overload scenario, the multi-node
fleet scenarios, and checkpoint/restore-driven recovery.

The queue basics build each class directly.  The workloads build whole
machines, so they set ``COPIER_SLOWHEAP=1``, which makes every machine
built afterwards run on the heap loop.
"""

import pytest

from repro.sim import Environment
from repro.sim.heapengine import HeapEnvironment
from tests.sim.test_step import _drive_batch, _run_workload

# ----------------------------------------------------------- queue basics

_LOOPS = [("calendar", Environment), ("slowheap", HeapEnvironment)]


def test_queue_introspection_agrees_across_flavors():
    for _name, loop_cls in _LOOPS:
        env = loop_cls()
        assert env.idle and env.next_event_time() is None
        assert env.pending_events() == 0
        for t in (30, 10, 10, 20):
            env.schedule(t, lambda: None)
        assert not env.idle
        assert env.next_event_time() == 10
        assert env.pending_events() == 4
        env.clear_pending()
        assert env.idle and env.pending_events() == 0
        env.run()  # an emptied loop runs (and stays) clean
        assert env.now == 0


def test_same_cycle_fifo_order_matches_heapq():
    """Events in one cycle bucket fire in schedule (seq) order, including
    events appended to the bucket *while it is being drained*."""
    logs = {}
    for name, loop_cls in _LOOPS:
        env = loop_cls()
        log = logs.setdefault(name, [])

        def tick(tag, log=log, env=env):
            log.append((env.now, tag))
            if tag == "b":
                # Lands in the bucket currently draining.
                env.schedule(0, lambda: log.append((env.now, "b-child")))

        env.schedule(5, lambda: tick("a"))
        env.schedule(5, lambda: tick("b"))
        env.schedule(0, lambda: tick("zero"))
        env.schedule(5, lambda: tick("c"))
        env.run()
    assert logs["calendar"] == logs["slowheap"]
    assert logs["calendar"] == [
        (0, "zero"), (5, "a"), (5, "b"), (5, "c"), (5, "b-child")]


def test_exception_preserves_pending_suffix():
    """An event that raises must not drop the rest of its cycle bucket."""
    for _name, loop_cls in _LOOPS:
        env = loop_cls()
        fired = []
        env.schedule(5, lambda: fired.append("pre"))

        def boom():
            raise RuntimeError("bang")

        env.schedule(5, boom)
        env.schedule(5, lambda: fired.append("post"))
        with pytest.raises(RuntimeError, match="bang"):
            env.run()
        assert fired == ["pre"]
        assert env.pending_events() == 1  # "post" survives for a retry
        env.run()
        assert fired == ["pre", "post"]


# ------------------------------------- differential oracle: full workloads

_KNOB_NAMES = ("COPIER_FAULT_PLAN", "COPIER_FAULT_SEED",
               "COPIER_SLOWPATH", "COPIER_SLOWHEAP")

_KNOBS = {
    "clean": {},
    "faults-mixed": {"COPIER_FAULT_PLAN": "mixed", "COPIER_FAULT_SEED": "7"},
    "slowpath": {"COPIER_SLOWPATH": "1"},
}


@pytest.mark.parametrize("knobs", sorted(_KNOBS), ids=sorted(_KNOBS))
def test_copier_workload_identical_across_queue_flavors(monkeypatch, knobs):
    """Raw-copy workload: every observable byte-identical between loops."""
    for name in _KNOB_NAMES:
        monkeypatch.delenv(name, raising=False)
    for name, value in _KNOBS[knobs].items():
        monkeypatch.setenv(name, value)

    ref = _run_workload(_drive_batch)  # calendar queue
    monkeypatch.setenv("COPIER_SLOWHEAP", "1")
    got = _run_workload(_drive_batch)  # historic heapq

    assert got["buffers"] == ref["buffers"]
    assert got["now"] == ref["now"]
    assert got["events_executed"] == ref["events_executed"]
    assert got["events"] == ref["events"]
    assert got["stats"] == ref["stats"]
    assert got["pins"] == ref["pins"] == 0


def _scenario_results(runner, monkeypatch):
    """Run a perfbaseline scenario under both flavors; returns the two
    recorder dicts with wall-clock noise stripped."""
    from repro.bench import perfbaseline

    perfbaseline._install_interposers()
    out = []
    for slowheap in (False, True):
        if slowheap:
            monkeypatch.setenv("COPIER_SLOWHEAP", "1")
        else:
            monkeypatch.delenv("COPIER_SLOWHEAP", raising=False)
        events_before = perfbaseline._global_event_count()
        recorder = {}
        runner(recorder)
        recorder["events"] = perfbaseline._global_event_count() - events_before
        recorder["sim_cycles"] = perfbaseline._last_env_now()
        Environment._perf_last_now = 0
        recorder.pop("wall_s", None)
        out.append(recorder)
    return out


@pytest.mark.parametrize("scenario", [
    "overload",        # burst admission + shedding
    "fleet",           # multi-node failover (elections, replication)
    "ckpt-restore",    # node restart: checkpoint, wipe, rejoin
])
def test_scenarios_identical_across_queue_flavors(monkeypatch, scenario):
    from repro.bench import perfbaseline

    for name in _KNOB_NAMES:
        monkeypatch.delenv(name, raising=False)
    runner = {
        "overload": lambda: perfbaseline._scenario_overload(2.0),
        "fleet": lambda: perfbaseline._scenario_fleet_failover(),
        "ckpt-restore": lambda: perfbaseline._scenario_fleet_restart_recovery(),
    }[scenario]()
    calendar, slowheap = _scenario_results(runner, monkeypatch)
    assert calendar == slowheap
    assert calendar["sim_cycles"] > 0 and calendar["events"] > 0
