"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Compute, Timeout, WaitEvent
from repro.sim.events import all_of, any_of


def test_clock_starts_at_zero(env_cls):
    env = env_cls()
    assert env.now == 0


def test_schedule_orders_by_time(env_cls):
    env = env_cls()
    order = []
    env.schedule(10, lambda: order.append("b"))
    env.schedule(5, lambda: order.append("a"))
    env.schedule(20, lambda: order.append("c"))
    env.run()
    assert order == ["a", "b", "c"]
    assert env.now == 20


def test_schedule_same_time_fifo(env_cls):
    env = env_cls()
    order = []
    for i in range(5):
        env.schedule(7, lambda i=i: order.append(i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_negative_delay_rejected(env_cls):
    env = env_cls()
    with pytest.raises(ValueError):
        env.schedule(-1, lambda: None)


def test_run_until_time_limit(env_cls):
    env = env_cls()
    fired = []
    env.schedule(100, lambda: fired.append(1))
    env.run(until=50)
    assert env.now == 50
    assert not fired
    env.run(until=150)
    assert fired == [1]


def test_timeout_advances_clock(env_cls):
    env = env_cls()

    def proc():
        yield Timeout(42)
        return env.now

    p = env.spawn(proc())
    env.run()
    assert p.result == 42


def test_compute_consumes_core_time(env_cls):
    env = env_cls(n_cores=1)

    def proc():
        yield Compute(1000)

    env.spawn(proc())
    env.run()
    assert env.now == 1000
    assert env.cores.cores[0].busy_cycles == 1000


def test_compute_zero_cycles_is_scheduling_point(env_cls):
    env = env_cls(n_cores=1)

    def proc():
        yield Compute(0)
        return "done"

    p = env.spawn(proc())
    env.run()
    assert p.result == "done"
    assert env.now == 0


def test_two_processes_share_single_core(env_cls):
    env = env_cls(n_cores=1, timeslice=100)

    def proc():
        yield Compute(500)
        return env.now

    p1 = env.spawn(proc())
    p2 = env.spawn(proc())
    env.run()
    # Serialized on one core: combined work is 1000 cycles.
    assert env.now == 1000
    assert {p1.result, p2.result} == {900, 1000}


def test_two_processes_two_cores_parallel(env_cls):
    env = env_cls(n_cores=2)

    def proc():
        yield Compute(500)
        return env.now

    p1 = env.spawn(proc())
    p2 = env.spawn(proc())
    env.run()
    assert p1.result == 500
    assert p2.result == 500


def test_affinity_pins_process_to_core(env_cls):
    env = env_cls(n_cores=2)

    def proc():
        yield Compute(300)

    env.spawn(proc(), affinity=1)
    env.run()
    assert env.cores.cores[1].busy_cycles == 300
    assert env.cores.cores[0].busy_cycles == 0


def test_timeslicing_interleaves_fairly(env_cls):
    env = env_cls(n_cores=1, timeslice=10)
    finish = {}

    def proc(name, amount):
        yield Compute(amount)
        finish[name] = env.now

    env.spawn(proc("short", 20))
    env.spawn(proc("long", 200))
    env.run()
    # The short job must not wait for the whole long job.
    assert finish["short"] < 60
    assert finish["long"] == 220


def test_wait_event_delivers_value(env_cls):
    env = env_cls()
    ev = env.event()

    def waiter():
        value = yield WaitEvent(ev)
        return value

    def trigger():
        yield Timeout(30)
        ev.succeed("payload")

    p = env.spawn(waiter())
    env.spawn(trigger())
    env.run()
    assert p.result == "payload"


def test_yield_bare_event_works(env_cls):
    env = env_cls()
    ev = env.event()

    def waiter():
        value = yield ev
        return value

    p = env.spawn(waiter())
    env.schedule(5, lambda: ev.succeed(7))
    env.run()
    assert p.result == 7


def test_event_fail_raises_in_waiter(env_cls):
    env = env_cls()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield WaitEvent(ev)
        except ValueError as exc:
            caught.append(str(exc))

    env.spawn(waiter())
    env.schedule(1, lambda: ev.fail(ValueError("boom")))
    env.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected(env_cls):
    env = env_cls()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_callback_after_trigger_still_fires(env_cls):
    env = env_cls()
    ev = env.event()
    ev.succeed("x")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    env.run()
    assert got == ["x"]


def test_all_of_collects_values(env_cls):
    env = env_cls()
    evs = [env.event() for _ in range(3)]
    combined = all_of(env, evs)
    for i, ev in enumerate(evs):
        env.schedule(i + 1, lambda ev=ev, i=i: ev.succeed(i))
    env.run()
    assert combined.triggered
    assert combined.value == [0, 1, 2]


def test_all_of_empty_triggers_immediately(env_cls):
    env = env_cls()
    combined = all_of(env, [])
    assert combined.triggered


def test_any_of_triggers_on_first(env_cls):
    env = env_cls()
    evs = [env.event() for _ in range(3)]
    combined = any_of(env, evs)
    env.schedule(5, lambda: evs[2].succeed("late"))
    env.schedule(1, lambda: evs[1].succeed("first"))
    env.run()
    assert combined.value is evs[1]


def test_run_until_event(env_cls):
    env = env_cls()
    ev = env.event()
    env.schedule(500, lambda: ev.succeed("done"))
    env.schedule(900, lambda: None)
    assert env.run_until(ev) == "done"
    assert env.now == 500


def test_run_until_drained_raises(env_cls):
    env = env_cls()
    ev = env.event()
    with pytest.raises(RuntimeError):
        env.run_until(ev)


def test_process_return_value(env_cls):
    env = env_cls()

    def proc():
        yield Timeout(1)
        return 99

    p = env.spawn(proc())
    env.run()
    assert p.result == 99
    assert p.terminated.value == 99


def test_process_wait_on_termination(env_cls):
    env = env_cls()

    def child():
        yield Compute(100)
        return "child-done"

    def parent():
        c = env.spawn(child())
        value = yield WaitEvent(c.terminated)
        return value

    p = env.spawn(parent())
    env.run()
    assert p.result == "child-done"


def test_kill_blocked_process(env_cls):
    env = env_cls()
    from repro.sim import ProcessKilled

    caught = []

    def victim():
        try:
            yield Timeout(10_000)
        except ProcessKilled:
            caught.append(True)

    p = env.spawn(victim())
    env.schedule(5, lambda: p.kill())
    env.run()
    assert caught == [True]
    assert not p.is_alive


def test_kill_mid_compute_aborts_remaining_work(env_cls):
    env = env_cls(n_cores=1, timeslice=10)

    def victim():
        yield Compute(10_000)

    p = env.spawn(victim())
    env.schedule(25, lambda: p.kill())
    env.run()
    assert not p.is_alive
    # The process must not have consumed anywhere near its full request.
    assert env.now < 200


def test_kill_survivor_is_not_woken_by_stale_timeout(env_cls):
    """A process that catches a kill delivered while it sleeps and sleeps
    again wakes when its new Timeout ends, not when the old one would
    have."""
    env = env_cls()
    from repro.sim import ProcessKilled

    woke = []

    def survivor():
        try:
            yield Timeout(100)
        except ProcessKilled:
            woke.append(("killed", env.now))
        yield Timeout(1000)
        woke.append(("slept", env.now))

    p = env.spawn(survivor())
    env.schedule(10, lambda: p.kill())
    env.run()
    assert woke == [("killed", 10), ("slept", 1010)]
    assert p.terminated.triggered and not p.is_alive


def test_kill_survivor_is_not_woken_by_stale_event(env_cls):
    """The same for a kill delivered while the process waits on an event:
    the event's later trigger must not resume the survivor's next wait."""
    env = env_cls()
    from repro.sim import ProcessKilled

    first, second = env.event(), env.event()
    woke = []

    def survivor():
        try:
            yield WaitEvent(first)
        except ProcessKilled:
            woke.append(("killed", env.now))
        value = yield WaitEvent(second)
        woke.append((value, env.now))

    p = env.spawn(survivor())
    env.schedule(10, lambda: p.kill())
    env.schedule(50, lambda: first.succeed("first"))
    env.schedule(80, lambda: second.succeed("second"))
    env.run()
    assert woke == [("killed", 10), ("second", 80)]
    assert not p.is_alive


def test_kill_survivor_computes_to_the_end(env_cls):
    """A stale wakeup landing mid-Compute must not resume the survivor
    early: its Compute runs to the end, then it finishes once."""
    env = env_cls(n_cores=1)
    from repro.sim import ProcessKilled

    def survivor():
        try:
            yield Timeout(100)
        except ProcessKilled:
            pass
        yield Compute(200)
        return env.now

    p = env.spawn(survivor())
    env.schedule(10, lambda: p.kill())
    env.run()
    assert p.result == 210
    assert env.stats.cycles[p.pid]["app"] == 200


def test_invalid_yield_raises_typeerror_into_process(env_cls):
    env = env_cls()
    caught = []

    def proc():
        try:
            yield "not-a-request"
        except TypeError:
            caught.append(True)

    env.spawn(proc())
    env.run()
    assert caught == [True]


def test_stats_tags_accumulate(env_cls):
    env = env_cls(n_cores=1)

    def proc():
        yield Compute(300, tag="copy")
        yield Compute(700, tag="app")

    p = env.spawn(proc())
    env.run()
    assert env.stats.total_cycles(pid=p.pid, tag="copy") == 300
    assert env.stats.total_cycles(pid=p.pid) == 1000
    assert env.stats.tag_share("copy", pid=p.pid) == pytest.approx(0.3)


def test_stats_cpi(env_cls):
    env = env_cls(n_cores=1)

    def proc():
        yield Compute(1000, tag="app", instructions=500)

    p = env.spawn(proc())
    env.run()
    assert env.stats.cpi(pid=p.pid) == pytest.approx(2.0)


def test_negative_compute_rejected():
    with pytest.raises(ValueError):
        Compute(-5)


def test_utilization_reflects_busy_fraction(env_cls):
    env = env_cls(n_cores=2)

    def proc():
        yield Compute(500)

    env.spawn(proc(), affinity=0)
    env.run(until=1000)
    util = env.cores.utilization()
    assert util[0] == pytest.approx(0.5)
    assert util[1] == 0.0
