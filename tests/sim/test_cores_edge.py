"""Core-scheduler edge cases: mixed affinity, preemption, many processes."""

from hypothesis import given, settings, strategies as st

from repro.sim import Compute, Timeout


def test_pinned_takes_priority_over_shared_on_its_core(env_cls):
    env = env_cls(n_cores=1, timeslice=50)
    order = []

    def floating():
        yield Compute(100)
        order.append("floating")

    def pinned():
        yield Compute(100)
        order.append("pinned")

    env.spawn(floating())
    env.spawn(pinned(), affinity=0)
    env.run()
    # Both finish; total time is serialized.
    assert set(order) == {"floating", "pinned"}
    assert env.now == 200


def test_floating_process_uses_any_free_core(env_cls):
    env = env_cls(n_cores=3)
    done_at = {}

    def hog(core):
        yield Compute(1000)
        done_at["hog%d" % core] = env.now

    def floater():
        yield Compute(500)
        done_at["floater"] = env.now

    env.spawn(hog(0), affinity=0)
    env.spawn(hog(1), affinity=1)
    env.spawn(floater())
    env.run()
    assert done_at["floater"] == 500  # took core 2, no waiting


def test_many_processes_eventually_all_finish(env_cls):
    env = env_cls(n_cores=2, timeslice=100)
    finished = []

    def worker(i):
        yield Compute(250)
        finished.append(i)

    for i in range(20):
        env.spawn(worker(i))
    env.run()
    assert sorted(finished) == list(range(20))
    assert env.now == 20 * 250 // 2


def test_compute_interleaved_with_timeout(env_cls):
    env = env_cls(n_cores=1)
    trace = []

    def waiter():
        yield Timeout(50)
        trace.append(("woke", env.now))
        yield Compute(10)
        trace.append(("computed", env.now))

    def worker():
        yield Compute(200)
        trace.append(("worker", env.now))

    env.spawn(worker())
    env.spawn(waiter())
    env.run()
    # The waiter woke mid-worker-compute and queued behind it (timeslice
    # default is large, so the worker's single slice runs through).
    assert ("worker", 200) in trace
    assert trace[-1][0] == "computed"


@settings(max_examples=30, deadline=None)
@given(
    amounts=st.lists(st.integers(min_value=1, max_value=5000),
                     min_size=1, max_size=10),
    n_cores=st.integers(min_value=1, max_value=4),
    timeslice=st.sampled_from([10, 100, 10_000]),
)
def test_property_work_conservation(env_cls, amounts, n_cores, timeslice):
    """Total busy cycles equals total requested work, and the makespan is
    at least work/cores (no cycles invented or lost)."""
    env = env_cls(n_cores=n_cores, timeslice=timeslice)

    def worker(c):
        yield Compute(c)

    for c in amounts:
        env.spawn(worker(c))
    env.run()
    busy = sum(core.busy_cycles for core in env.cores.cores)
    assert busy == sum(amounts)
    assert env.now >= sum(amounts) / n_cores
    assert env.now >= max(amounts)
