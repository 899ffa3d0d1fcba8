"""Cooperative stepping: ``Environment.step`` shares the heap discipline
with ``run``/``run_until``, so any interleaving of bounded steps executes
the exact same event sequence — and lands on byte-identical counters —
as one batch run.  That equivalence is what lets an external driver
(:mod:`repro.serve.driver`) own the loop without perturbing the sim.

Covered here:

* event-budget and cycle-horizon semantics (``step(max_cycles=c)`` is
  exactly ``run(until=now+c)``; an event budget stops the clock on the
  last executed event and never skips to the horizon);
* idle/quiescence introspection (``idle``, ``next_event_time``);
* the non-reentrancy guard (``step``/``run``/``run_until`` from inside
  an executing event raise);
* the differential oracle: a full Copier workload driven by chaotic
  step/run interleavings matches a single batch run on buffers, trace
  sequence, clock, event count and service counters — on the fast path,
  under ``COPIER_SLOWPATH=1``, and with ``COPIER_FAULT_PLAN=mixed``
  armed.
"""

import re

import pytest

from repro.sim import Compute, Environment
from repro.sim.engine import DEFAULT_RUN_LIMIT, StepReport
from repro.sim.heapengine import HeapEnvironment
from tests.copier.conftest import Setup

# ------------------------------------------------------------ step basics


def test_default_run_limit_is_exported():
    assert DEFAULT_RUN_LIMIT == 500_000_000_000


def test_step_event_budget(env_cls):
    env = env_cls()
    fired = []
    for i in range(5):
        env.schedule(10 * (i + 1), lambda i=i: fired.append(i))

    report = env.step(max_events=2)
    assert isinstance(report, StepReport)
    assert (report.executed, report.now, report.idle) == (2, 20, False)
    assert fired == [0, 1]
    # The clock stops on the last executed event: no horizon skip.
    assert env.now == 20
    assert env.next_event_time() == 30
    assert not env.idle

    report = env.step()  # no bounds: run to quiescence, like run()
    assert (report.executed, report.now, report.idle) == (3, 50, True)
    assert fired == [0, 1, 2, 3, 4]
    assert env.idle
    assert env.next_event_time() is None

    # Stepping an idle environment is a cheap no-op.
    report = env.step(max_events=100)
    assert (report.executed, report.now, report.idle) == (0, 50, True)


def test_step_cycle_horizon(env_cls):
    env = env_cls()
    env.schedule(50, lambda: None)

    # The clock advances *to* the horizon even when nothing executes...
    report = env.step(max_cycles=30)
    assert (report.executed, report.now, report.idle) == (0, 30, False)
    # ...an event exactly at the horizon still executes...
    report = env.step(max_cycles=20)
    assert (report.executed, report.now, report.idle) == (1, 50, True)
    # ...and an idle environment still burns the requested virtual time.
    report = env.step(max_cycles=25)
    assert (report.executed, report.now, report.idle) == (0, 75, True)


def test_step_event_budget_blocks_horizon_skip(env_cls):
    env = env_cls()
    for t in (10, 20, 30):
        env.schedule(t, lambda: None)

    # The event budget cuts the slice short: the clock must stay on the
    # last executed event, not jump to the untouched horizon.
    report = env.step(max_events=2, max_cycles=100)
    assert (report.executed, report.now) == (2, 20)
    assert env.next_event_time() == 30
    # With budget to spare the horizon semantics return.
    report = env.step(max_events=5, max_cycles=80)  # limit = 20 + 80 = 100
    assert (report.executed, report.now, report.idle) == (1, 100, True)


def _self_scheduling(env):
    """A little feedback workload: each tick reschedules at a data-
    dependent offset, so any clock divergence compounds visibly."""
    state = {"n": 0}

    def tick():
        state["n"] += 1
        if state["n"] < 40:
            env.schedule(7 + (state["n"] % 5), tick)

    env.schedule(0, tick)
    return state


def test_step_max_cycles_equals_run_until_horizon(env_cls):
    """``step(max_cycles=c)`` is ``run(until=now+c)``, slice for slice."""
    a, b = env_cls(), env_cls()
    sa, sb = _self_scheduling(a), _self_scheduling(b)
    for c in (13, 1, 50, 7, 200, 1000):
        a.run(until=a.now + c)
        b.step(max_cycles=c)
        assert (a.now, a.events_executed) == (b.now, b.events_executed)
    assert a.idle and b.idle
    assert sa["n"] == sb["n"] == 40


# ------------------------------------------------- schedule delay typing


@pytest.mark.parametrize("loop_cls", [Environment, HeapEnvironment],
                         ids=["calendar", "slowheap"])
def test_schedule_delay_validated_at_the_seam(loop_cls):
    """Delays are whole cycles: non-integral or non-numeric delays are a
    typed error, integral floats normalize to int, negatives stay a
    ValueError — identically in both queue flavors."""
    env = loop_cls()
    for bad in (1.5, float("nan"), float("inf"), "10", None, True, 10 + 0j):
        with pytest.raises(TypeError, match="delay"):
            env.schedule(bad, lambda: None)
    with pytest.raises(ValueError):
        env.schedule(-1, lambda: None)
    with pytest.raises(ValueError):
        env.schedule(-2.0, lambda: None)  # normalized first, then rejected
    assert env.idle  # nothing leaked into the queue

    fired = []
    env.schedule(5.0, lambda: fired.append(env.now))
    env.run()
    assert fired == [5] and env.now == 5  # float 5.0 became int cycle 5
    assert type(env.now) is int


# ------------------------------------------------------------- reentrancy


@pytest.mark.parametrize("outer", ["run", "step"])
def test_loop_reentry_from_event_raises(env_cls, outer):
    env = env_cls()
    seen = []

    def from_inside():
        for call in (lambda: env.step(max_events=1),
                     env.run,
                     lambda: env.run_until(env.event())):
            try:
                call()
            except RuntimeError as exc:
                seen.append(str(exc))

    env.schedule(0, from_inside)
    if outer == "run":
        env.run()
    else:
        env.step()
    assert len(seen) == 3
    assert all("re-entered" in msg for msg in seen)


def test_loop_usable_again_after_reentry_error(env_cls):
    env = env_cls()

    def from_inside():
        with pytest.raises(RuntimeError):
            env.step()

    env.schedule(0, from_inside)
    env.run()
    # The guard must reset: the loop keeps working afterwards.
    fired = []
    env.schedule(5, lambda: fired.append(True))
    report = env.step()
    assert fired == [True]
    assert report.idle


# --------------------------------------- differential oracle: step ≡ run


def _normalize(events):
    """Remap task_ids to first-seen order: the global task counter leaks
    across runs, but the id *sequence* must be isomorphic."""
    mapping = {}

    def sub(match):
        tid = match.group(1)
        if tid not in mapping:
            mapping[tid] = "T%d" % len(mapping)
        return "task_id=" + mapping[tid]

    return [re.sub(r"task_id=(\d+)", sub, e) for e in events]


def _payload(n, salt):
    return bytes((i * 31 + salt) % 251 for i in range(n))


def _run_workload(drive):
    """Run the fixed Copier workload under ``drive(env)``; returns every
    observable that must be interleaving-invariant."""
    setup = Setup(n_frames=8192)
    events = []
    setup.env.trace.subscribe(lambda e: events.append(repr(e)))
    aspace, client = setup.aspace, setup.client

    big = 48 * 1024
    small = 3 * 1024
    src_big = aspace.mmap(big, populate=True, contiguous=True)
    dst_big = aspace.mmap(big, populate=True, contiguous=True)
    src_small = [aspace.mmap(small, populate=True) for _ in range(3)]
    dst_small = [aspace.mmap(small) for _ in range(3)]  # demand-faulted
    aspace.write(src_big, _payload(big, 7))
    for i, va in enumerate(src_small):
        aspace.write(va, _payload(small, i))

    def app():
        yield from client.amemcpy(dst_big, src_big, big)
        yield Compute(20_000)
        yield from client.csync(dst_big, big)
        for s, d in zip(src_small, dst_small):
            yield from client.amemcpy(d, s, small)
        yield Compute(5_000)
        for d in dst_small:
            yield from client.csync(d, small)
        return True

    proc = setup.env.spawn(app(), name="app", affinity=0)
    drive(setup.env)

    assert proc.terminated.triggered and proc.result is True
    assert setup.env.idle
    buffers = [bytes(aspace.read(dst_big, big))]
    buffers += [bytes(aspace.read(d, small)) for d in dst_small]
    return {
        "buffers": buffers,
        "events": _normalize(events),
        "now": setup.env.now,
        "events_executed": setup.env.events_executed,
        "stats": setup.service.stats_snapshot(),
        "pins": aspace.pins_outstanding(),
    }


def _drive_batch(env):
    env.run()


def _drive_stepped(env):
    """Run to quiescence in chaotic bounded slices."""
    sizes = [1, 2, 3, 5, 8, 13, 121]
    i = 0
    while not env.idle:
        env.step(max_events=sizes[i % len(sizes)])
        i += 1


def _drive_mixed(env):
    """Interleave step(max_events), step(max_cycles) and run(until=...).

    Cycle-bounded slices target ``next_event_time()`` so the clock always
    lands on an executed event's timestamp, exactly like a pure run.
    """
    i = 0
    while not env.idle:
        mode = i % 4
        if mode == 0:
            env.step(max_events=4)
        elif mode == 1:
            env.step(max_cycles=env.next_event_time() - env.now)
        elif mode == 2:
            env.run(until=env.next_event_time())
        else:
            env.step(max_events=37)
        i += 1


_KNOB_NAMES = ("COPIER_FAULT_PLAN", "COPIER_FAULT_SEED", "COPIER_SLOWPATH")

_KNOBS = {
    "clean": {},
    "faults-mixed": {"COPIER_FAULT_PLAN": "mixed", "COPIER_FAULT_SEED": "7"},
    "slowpath": {"COPIER_SLOWPATH": "1"},
    "faults-slowpath": {"COPIER_FAULT_PLAN": "mixed",
                        "COPIER_FAULT_SEED": "7", "COPIER_SLOWPATH": "1"},
}


@pytest.mark.parametrize("knobs", sorted(_KNOBS), ids=sorted(_KNOBS))
@pytest.mark.parametrize("drive", [_drive_stepped, _drive_mixed],
                         ids=["stepped", "mixed"])
def test_interleaved_step_matches_batch_run(monkeypatch, knobs, drive):
    for name in _KNOB_NAMES:
        monkeypatch.delenv(name, raising=False)
    for name, value in _KNOBS[knobs].items():
        monkeypatch.setenv(name, value)

    ref = _run_workload(_drive_batch)
    got = _run_workload(drive)

    assert got["buffers"] == ref["buffers"]
    assert got["now"] == ref["now"]
    assert got["events_executed"] == ref["events_executed"]
    assert got["events"] == ref["events"]
    assert got["stats"] == ref["stats"]
    assert got["pins"] == ref["pins"] == 0
