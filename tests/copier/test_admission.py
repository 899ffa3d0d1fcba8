"""Admission control, deadlines and cancellation tests (§4.5 overload).

Covers the overload valve end to end: token-bucket metering on the sim
clock, policy selection (argument > ``COPIER_ADMISSION`` > default),
shed legality (never reorder against in-flight work), the typed reject
path, deadline reaping, ``cancel()``/csync-deadline semantics, and the
acceptance-criteria determinism run — same seed, same shed/reject/miss
counters, zero leaked pins.
"""

import random

import pytest

from repro.copier.admission import (REJECT, SHED, AdmissionPolicy,
                                    DeadlineFeasiblePolicy, QueueDepthPolicy,
                                    TokenBucket, make_admission)
from repro.copier.errors import AdmissionReject, CopyAborted, DeadlineMissed
from repro.sim import Environment, Timeout
from tests.copier.conftest import Setup


def _leaked_pins(aspace):
    return sum(pte.pin_count for pte in aspace.page_table.values())


def _pattern(n, salt=0):
    return bytes((i * 7 + salt) % 251 for i in range(n))


class ShedEverything(AdmissionPolicy):
    """Test policy: shed whenever it is legal (controller may override)."""

    name = "shed-everything"

    def decide(self, controller, client, task):
        return SHED


class RejectEverything(AdmissionPolicy):
    name = "reject-everything"

    def decide(self, controller, client, task):
        return REJECT


# ------------------------------------------------------------ token bucket


class TestTokenBucket:
    def test_burst_then_refill_on_sim_clock(self):
        env = Environment()
        bucket = TokenBucket(env, 2.0, 100)
        assert bucket.consume(100)
        assert not bucket.consume(1)
        env.run(until=30)  # 30 cycles * 2 B/cycle
        assert bucket.peek() == 60
        assert bucket.consume(60)
        assert not bucket.consume(1)

    def test_refill_caps_at_burst(self):
        env = Environment()
        bucket = TokenBucket(env, 1.0, 50)
        env.run(until=10_000)
        assert bucket.peek() == 50

    def test_failed_consume_deducts_nothing(self):
        env = Environment()
        bucket = TokenBucket(env, 1.0, 10)
        assert not bucket.consume(11)
        assert bucket.consume(10)

    def test_invalid_parameters_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            TokenBucket(env, 0, 10)
        with pytest.raises(ValueError):
            TokenBucket(env, 1.0, 0)


# -------------------------------------------------------- policy selection


class TestPolicySelection:
    def test_default_is_always(self, monkeypatch):
        monkeypatch.delenv("COPIER_ADMISSION", raising=False)
        assert make_admission(None).name == "always"

    def test_env_var_selects_policy(self, monkeypatch):
        monkeypatch.setenv("COPIER_ADMISSION", "queue-depth")
        setup = Setup()
        assert setup.service.admission.policy.name == "queue-depth"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("COPIER_ADMISSION", "queue-depth")
        setup = Setup(admission="deadline-feasible")
        assert setup.service.admission.policy.name == "deadline-feasible"

    def test_policy_instance_passes_through(self):
        policy = DeadlineFeasiblePolicy(headroom=2.0)
        assert make_admission(policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_admission("drop-randomly")

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(ValueError):
            QueueDepthPolicy(shed_watermark=0.0)
        with pytest.raises(ValueError):
            QueueDepthPolicy(shed_watermark=0.5, reject_watermark=0.25)
        with pytest.raises(ValueError):
            DeadlineFeasiblePolicy(headroom=0)


# ------------------------------------------------------------------- shed


class TestShed:
    def test_infeasible_deadline_sheds_synchronously(self):
        """A task that can never make its deadline is executed in the
        submitter's context: bytes in place on return, no queueing."""
        setup = Setup(admission="deadline-feasible")
        aspace, client = setup.aspace, setup.client
        n = 64 * 1024
        src = aspace.mmap(n, populate=True, contiguous=True)
        dst = aspace.mmap(n, populate=True, contiguous=True)
        aspace.write(src, _pattern(n))
        events = []
        setup.env.trace.subscribe(events.append)
        state = {}

        def gen():
            d = yield from setup.client.amemcpy(dst, src, n,
                                                deadline=setup.env.now + 1)
            state["all_ready"] = d.all_ready
            state["data"] = aspace.read(dst, n)  # before any csync
            yield from client.csync(dst, n)  # fast path over the shed task

        setup.run_process(gen())
        assert state["data"] == _pattern(n)
        assert state["all_ready"] is True
        assert client.stats.shed_tasks == 1
        assert client.stats.shed_bytes == n
        assert client.outstanding_bytes == 0  # shed never charged async
        overload = setup.service.admission.stats
        assert overload.shed_tasks == 1 and overload.shed_bytes == n
        sheds = [e for e in events if e.kind == "task-shed"]
        assert len(sheds) == 1
        assert sheds[0].reason == "deadline-feasible"
        assert sheds[0].sync_cycles > 0
        assert _leaked_pins(aspace) == 0

    def test_shed_refused_when_dependency_in_flight(self):
        """Shedding must not reorder against unfinished work: a task
        reading an in-flight destination is admitted instead."""
        setup = Setup(admission=ShedEverything(), polling="scenario")
        aspace, client = setup.aspace, setup.client
        n = 8 * 1024
        src = aspace.mmap(n, populate=True)
        mid = aspace.mmap(n, populate=True)
        dst = aspace.mmap(n, populate=True)
        aspace.write(src, _pattern(n, salt=3))
        state = {}

        def gen():
            # Lazy tasks are never shed, so this one stays in flight...
            yield from client.amemcpy(mid, src, n, lazy=True)
            # ...and this one reads its destination: must queue behind it.
            yield from client.amemcpy(dst, mid, n)
            state["shed_after_submit"] = client.stats.shed_tasks
            setup.service.scenario_begin()
            yield from client.csync(dst, n)

        setup.run_process(gen())
        assert state["shed_after_submit"] == 0
        assert client.stats.shed_tasks == 0
        assert setup.service.admission.stats.admitted == 2
        assert aspace.read(dst, n) == _pattern(n, salt=3)  # order held

    def test_chained_sheds_preserve_data_flow(self):
        """Once the first shed lands its bytes, a dependent copy is free
        to shed too — synchronous execution keeps program order."""
        setup = Setup(admission=ShedEverything())
        aspace, client = setup.aspace, setup.client
        n = 4096
        src = aspace.mmap(n, populate=True)
        mid = aspace.mmap(n, populate=True)
        dst = aspace.mmap(n, populate=True)
        aspace.write(src, _pattern(n, salt=9))

        def gen():
            yield from client.amemcpy(mid, src, n)
            yield from client.amemcpy(dst, mid, n)

        setup.run_process(gen())
        assert client.stats.shed_tasks == 2
        assert aspace.read(dst, n) == _pattern(n, salt=9)


# ----------------------------------------------------------------- reject


class TestReject:
    def test_reject_raises_typed_error_and_counts(self):
        setup = Setup(admission=RejectEverything())
        aspace, client = setup.aspace, setup.client
        src = aspace.mmap(4096, populate=True)
        dst = aspace.mmap(4096, populate=True)
        events = []
        setup.env.trace.subscribe(events.append)

        def gen():
            with pytest.raises(AdmissionReject) as exc:
                yield from client.amemcpy(dst, src, 4096)
            assert exc.value.reason == "reject-everything"
            assert exc.value.nbytes == 4096

        setup.run_process(gen())
        assert client.stats.rejected_submits == 1
        assert client.stats.submitted == 0
        assert client.outstanding_bytes == 0
        assert list(client.task_index) == []  # rejected work leaves no trace
        assert setup.service.admission.stats.rejected == 1
        rejects = [e for e in events if e.kind == "admission-reject"]
        assert len(rejects) == 1 and rejects[0].client_name == "app"

    def test_queue_depth_watermarks_shed_then_reject(self):
        """The real queue-depth policy: overlapping (unsheddable) tasks
        pile onto the sleeping service's ring until the backlog crosses
        the shed watermark (downgraded to admit — shed would reorder)
        and finally the reject watermark."""
        policy = QueueDepthPolicy(shed_watermark=0.25, reject_watermark=0.5)
        setup = Setup(admission=policy, polling="scenario")
        aspace = setup.aspace
        client = setup.service.create_client(aspace, name="tiny",
                                             queue_capacity=8)
        n = 4096
        src = aspace.mmap(n, populate=True)
        dst = aspace.mmap(n, populate=True)
        aspace.write(src, _pattern(n, salt=1))
        state = {}

        def gen():
            for i in range(4):  # depths 0..3: admit (shed is illegal)
                yield from client.amemcpy(dst, src, n)
            with pytest.raises(AdmissionReject) as exc:  # depth 4 >= 8*0.5
                yield from client.amemcpy(dst, src, n)
            state["reason"] = exc.value.reason
            setup.service.scenario_begin()
            yield from client.csync(dst, n)

        setup.run_process(gen())
        assert state["reason"] == "queue-depth"
        assert client.stats.submitted == 4
        assert client.stats.rejected_submits == 1
        assert client.stats.shed_tasks == 0
        assert aspace.read(dst, n) == _pattern(n, salt=1)
        assert _leaked_pins(aspace) == 0


# ------------------------------------------------- deadlines and cancellation


class TestDeadlinesAndCancellation:
    def test_expired_task_reaped_not_copied(self):
        """A task past its deadline at ingest retires as a deadline-miss:
        destination untouched, pins released, csync raises."""
        setup = Setup(admission="always")
        aspace, client = setup.aspace, setup.client
        n = 8 * 1024
        src = aspace.mmap(n, populate=True)
        dst = aspace.mmap(n, populate=True)
        aspace.write(src, _pattern(n))
        events = []
        setup.env.trace.subscribe(events.append)

        def gen():
            # Deadline already in the past once submission cycles accrue.
            yield from client.amemcpy(dst, src, n, deadline=setup.env.now)
            yield Timeout(300_000)
            with pytest.raises(CopyAborted):
                yield from client.csync(dst, n)

        setup.run_process(gen())
        assert aspace.read(dst, n) == b"\x00" * n
        assert client.stats.deadline_misses == 1
        assert setup.service.admission.stats.deadline_misses == 1
        assert client.outstanding_bytes == 0
        assert _leaked_pins(aspace) == 0
        finished = [e for e in events if e.kind == "task-finished"]
        assert [e.outcome for e in finished] == ["deadline-miss"]

    def test_cancel_marks_and_service_retires(self):
        setup = Setup(polling="scenario")
        aspace, client = setup.aspace, setup.client
        n = 8 * 1024
        src = aspace.mmap(n, populate=True)
        dst = aspace.mmap(n, populate=True)
        aspace.write(src, _pattern(n))
        state = {}

        def gen():
            yield from client.amemcpy(dst, src, n)
            state["count"] = yield from client.cancel(dst, n)
            state["again"] = yield from client.cancel(dst, n)  # idempotent
            setup.service.scenario_begin()
            yield Timeout(500_000)
            with pytest.raises(CopyAborted):
                yield from client.csync(dst, n)

        setup.run_process(gen())
        assert state["count"] == 1
        assert state["again"] == 0
        assert aspace.read(dst, n) == b"\x00" * n  # never copied
        assert client.stats.cancelled == 1
        assert setup.service.admission.stats.cancelled == 1
        assert client.outstanding_bytes == 0
        assert _leaked_pins(aspace) == 0

    def test_cancel_unpins_ingested_lazy_task(self):
        """Cancelling a task the worker already ingested (and pinned)
        releases its pins when the reaper retires it."""
        setup = Setup()
        aspace, client = setup.aspace, setup.client
        n = 16 * 1024
        src = aspace.mmap(n, populate=True)
        dst = aspace.mmap(n, populate=True)
        state = {}

        def gen():
            yield from client.amemcpy(dst, src, n, lazy=True)
            yield Timeout(200_000)  # ingested, pinned, deferred
            state["pins_mid"] = _leaked_pins(aspace)
            yield from client.cancel(dst, n)
            yield Timeout(200_000)  # reaper runs

        setup.run_process(gen())
        assert state["pins_mid"] > 0
        assert client.stats.cancelled == 1
        assert _leaked_pins(aspace) == 0

    def test_csync_deadline_raises_and_cancels_covering_tasks(self):
        setup = Setup(polling="scenario")  # service asleep: spin must bail
        aspace, client = setup.aspace, setup.client
        n = 8 * 1024
        src = aspace.mmap(n, populate=True)
        dst = aspace.mmap(n, populate=True)
        state = {}

        def gen():
            yield from client.amemcpy(dst, src, n)
            with pytest.raises(DeadlineMissed):
                yield from client.csync(dst, n,
                                        deadline=setup.env.now + 30_000)
            state["at_raise"] = setup.env.now
            setup.service.scenario_begin()
            yield Timeout(500_000)

        setup.run_process(gen())
        # The wait was bounded: the spin stopped within a backoff step of
        # the deadline, and the covering task was cancelled and retired.
        assert state["at_raise"] < 40_000
        assert client.stats.cancelled == 1
        assert _leaked_pins(aspace) == 0


# ------------------------------------------------------------ determinism


def _seeded_overload_run(seed):
    """The acceptance-criteria workload: mixed feasible/infeasible
    deadlines plus cancellations under deadline-feasible admission."""
    setup = Setup(n_frames=16384, admission="deadline-feasible",
                  watchdog_cycles=25_000, watchdog_starvation_cycles=200_000)
    aspace, client = setup.aspace, setup.client
    n = 32 * 1024
    src = aspace.mmap(n, populate=True, contiguous=True)
    dsts = [aspace.mmap(n, populate=True, contiguous=True)
            for _ in range(40)]
    rng = random.Random(("overload", seed).__repr__())

    def gen():
        for dst in dsts:
            roll = rng.random()
            deadline = None
            if roll < 0.5:
                # Budgets straddle the ~2K-cycle service time: some
                # infeasible (shed), some comfortable (admit).
                deadline = setup.env.now + rng.randrange(500, 50_000)
            try:
                yield from client.amemcpy(dst, src, n, deadline=deadline)
            except AdmissionReject:
                pass
            if roll > 0.8:
                yield from client.cancel(dst, n)
            yield Timeout(rng.randrange(0, 3_000))
        try:
            yield from client.csync_all()
        except CopyAborted:
            pass
        yield Timeout(2_000_000)  # drain: every task retires

    setup.run_process(gen(), limit=10_000_000_000)
    snap = setup.service.stats_snapshot()
    return (snap["overload"], snap["clients"]["app"],
            _leaked_pins(aspace), setup.env.now)


@pytest.mark.faultfree
def test_overload_counters_replay_deterministically():
    """Same seed, same shed/reject/deadline-miss counters, same clock,
    zero leaked pins — the PR's acceptance-criteria determinism run."""
    first = _seeded_overload_run(11)
    second = _seeded_overload_run(11)
    assert first == second
    overload, client_snap, pins, _now = first
    assert pins == 0
    assert overload["shed_tasks"] > 0
    assert overload["cancelled"] > 0
    assert overload["shed_tasks"] == client_snap["shed_tasks"]
    assert overload["cancelled"] == client_snap["cancelled"]
    other = _seeded_overload_run(12)
    assert other[3] != first[3]  # different seed, different trajectory
