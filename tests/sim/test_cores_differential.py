"""Differential test: the production core scheduler against the historic one.

``ReferenceCoreSet`` below is the core scheduler as it stood before the
``Compute`` fast path: every ``submit`` walks all cores, every slice
schedules a fresh lambda, and every request allocates its own state.  It
lives here, not in ``src/``, as the oracle.

Seeded random programs of pinned and floating processes run on 1-4 cores
twice, once per scheduler, stepping both environments one event at a
time.  After every step the two runs must agree on the clock, the event
count, the ``(now, process)`` resume sequence, the ``CycleStats``
cycles, instructions and core cycles, and every core's busy cycles.  The
programs mix Computes shorter than, equal to and longer than the
timeslice, zero-cycle Computes, ``Timeout``, ``WaitEvent`` and kills.  A
kill lands mid-Compute or while the process is blocked on a ``Timeout``,
a zero-cycle ``Compute`` or a ``WaitEvent``, and half the processes
catch it and carry on.
"""

import random
from collections import Counter, deque

import pytest

from repro.sim import Compute, Timeout, WaitEvent
from repro.sim import process as proc_mod
from repro.sim.process import ProcessKilled


def _account(stats, process, tag, cycles, instructions, core_id):
    """The historic ``CycleStats.account``."""
    stats.cycles[process.pid][tag] += cycles
    stats.instructions[process.pid][tag] += instructions
    stats.core_cycles[core_id][tag] += cycles


class _RefComputeState:
    __slots__ = ("process", "request", "remaining", "instr_per_cycle")

    def __init__(self, process, request):
        self.process = process
        self.request = request
        self.remaining = request.cycles
        self.instr_per_cycle = (
            request.instructions / request.cycles if request.cycles else 0.0
        )


class _RefCore:
    __slots__ = ("core_id", "current", "pinned_queue", "busy_cycles", "slice_end_at")

    def __init__(self, core_id):
        self.core_id = core_id
        self.current = None
        self.pinned_queue = deque()
        self.busy_cycles = 0
        self.slice_end_at = None


class ReferenceCoreSet:
    """The historic CoreSet, verbatim apart from the class names, the
    accounting call (``CycleStats.account`` lives on as ``_account``) and
    the wakeup each lambda calls (``Process._wake``, which carries the
    process's wake generation)."""

    def __init__(self, env, n_cores, timeslice=100_000):
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.env = env
        self.cores = [_RefCore(i) for i in range(n_cores)]
        self.timeslice = int(timeslice)
        self.shared_queue = deque()

    @property
    def n_cores(self):
        return len(self.cores)

    def submit(self, process, request):
        """Begin servicing a Compute request for ``process``."""
        if request.cycles == 0:
            # Zero-length compute still acts as a scheduling point.
            process.state = proc_mod.BLOCKED
            self.env.schedule(0, lambda: process._wake())
            return
        state = _RefComputeState(process, request)
        process.state = proc_mod.READY
        process._compute_state = state
        self._enqueue(state)
        self._dispatch_all()

    def _enqueue(self, state):
        affinity = state.process.affinity
        if affinity is None:
            self.shared_queue.append(state)
        else:
            self.cores[affinity].pinned_queue.append(state)

    def _dispatch_all(self):
        for core in self.cores:
            if core.current is None:
                self._dispatch(core)

    def _dispatch(self, core):
        state = None
        if core.pinned_queue:
            state = core.pinned_queue.popleft()
        elif self.shared_queue:
            state = self.shared_queue.popleft()
        if state is None:
            return
        self._grant(core, state)

    def _grant(self, core, state):
        core.current = state
        state.process.state = proc_mod.RUNNING
        slice_len = min(state.remaining, self.timeslice)
        core.slice_end_at = self.env.now + slice_len
        self.env.schedule(slice_len, lambda: self._slice_end(core, state, slice_len))

    def _slice_end(self, core, state, slice_len):
        process = state.process
        state.remaining -= slice_len
        core.busy_cycles += slice_len
        core.slice_end_at = None
        _account(
            self.env.stats,
            process,
            state.request.tag,
            slice_len,
            state.instr_per_cycle * slice_len,
            core.core_id,
        )
        if process._pending_exc is not None or process.state == proc_mod.DONE:
            # Killed mid-compute: abort the rest of the request.
            core.current = None
            self._dispatch(core)
            if process.state != proc_mod.DONE:
                process.state = proc_mod.BLOCKED
                self.env.schedule(0, lambda: process._wake())
            return
        if state.remaining == 0:
            core.current = None
            process._compute_state = None
            self._dispatch(core)
            process.state = proc_mod.BLOCKED
            self.env.schedule(0, lambda: process._wake())
            return
        # More cycles to run: rotate if anyone else is waiting for this core.
        contended = bool(core.pinned_queue) or (
            process.affinity is None and bool(self.shared_queue)
        )
        if contended:
            core.current = None
            process.state = proc_mod.READY
            self._enqueue(state)
            self._dispatch(core)
        else:
            self._grant(core, state)


# ----------------------------------------------------------- random programs

def make_plan(seed):
    """A seeded program: core count, timeslice, processes and external
    events (event triggers, kills, late spawns)."""
    rng = random.Random(seed)
    n_cores = rng.randint(1, 4)
    ts = rng.choice((7, 50, 100))
    n_events = 3
    procs = []
    for k in range(rng.randint(2, 7)):
        affinity = rng.choice([None, None] + list(range(n_cores)))
        actions = []
        for _ in range(rng.randint(3, 12)):
            kind = rng.random()
            if kind < 0.6:
                cycles = rng.choice((0, 1, ts - 1, ts, ts + 1, 3 * ts + 2,
                                     rng.randint(1, 4 * ts)))
                actions.append(("compute", cycles, rng.randint(0, 2 * cycles)))
            elif kind < 0.8:
                actions.append(("timeout", rng.choice((0, 1, ts, 2 * ts + 3))))
            else:
                actions.append(("wait", rng.randrange(n_events)))
        procs.append({
            "name": "p%d" % k,
            "affinity": affinity,
            "actions": actions,
            "survives_kill": rng.random() < 0.5,
            "spawn_at": 0 if rng.random() < 0.7 else rng.randint(1, 6 * ts),
        })
    horizon = 12 * ts
    fires = [rng.randint(0, horizon) for _ in range(n_events)]
    kills = [(rng.randint(1, horizon), rng.randrange(len(procs)))
             for _ in range(rng.randint(0, 4))]
    # A kill at a random cycle seldom finds a process blocked on a Timeout
    # and almost never on a zero-cycle Compute, so some of those requests
    # get their own kill, at a delay inside the block.
    blocked_kills = {}
    for spec in procs:
        for step, action in enumerate(spec["actions"]):
            if action[:2] == ("compute", 0) or action[0] == "timeout":
                if rng.random() < 0.5:
                    blocked_kills[spec["name"], step] = rng.randint(
                        0, action[1] if action[0] == "timeout" else 0)
    return n_cores, ts, n_events, procs, fires, kills, blocked_kills


def build(plan, reference, env_cls):
    """One ``env_cls`` environment running ``plan``; returns (env, resume
    log, pid -> process name)."""
    n_cores, ts, n_events, procs, fires, kills, blocked_kills = plan
    env = env_cls(n_cores=n_cores, timeslice=ts)
    if reference:
        env.cores = ReferenceCoreSet(env, n_cores, ts)
    log = []
    events = [env.event() for _ in range(n_events)]
    waiting_on = {}  # process name -> the kind of its current request
    live = {}
    pid_names = {}

    def program(spec):
        name = spec["name"]
        for step, action in enumerate(spec["actions"]):
            if action[0] == "compute":
                request = Compute(action[1], tag=name[:2] if action[1] % 2
                                  else "app", instructions=action[2])
            elif action[0] == "timeout":
                request = Timeout(action[1])
            else:
                request = WaitEvent(events[action[1]])
            waiting_on[name] = "zero-cycle Compute" if action[:2] == (
                "compute", 0) else action[0]
            if (name, step) in blocked_kills:
                # Scheduled before the yield, so a zero delay lands after
                # the process blocks and before its wakeup runs.
                env.schedule(blocked_kills[name, step], lambda: kill(spec))
            start = env.now
            try:
                yield request
            except ProcessKilled:
                log.append((env.now, name, "killed"))
                if not spec["survives_kill"]:
                    raise
            else:
                # Only its own expiry wakes a sleeper, never the stale
                # wakeup of a request a kill interrupted.
                assert action[0] != "timeout" or \
                    env.now == start + action[1], (name, step)
            log.append((env.now, name))

    def spawn(spec):
        proc = env.spawn(program(spec), name=spec["name"],
                         affinity=spec["affinity"])
        live[spec["name"]] = proc
        pid_names[proc.pid] = proc.name

    for spec in procs:
        if spec["spawn_at"] == 0:
            spawn(spec)
        else:
            env.schedule(spec["spawn_at"], lambda spec=spec: spawn(spec))
    for i, at in enumerate(fires):
        env.schedule(at, lambda ev=events[i]: ev.succeed(env.now))

    def kill(spec):
        proc = live.get(spec["name"])
        if proc is None:
            return
        log.append((env.now, spec["name"], "kill", proc.state,
                    waiting_on.get(spec["name"], "start")))
        proc.kill()

    for at, k in kills:
        env.schedule(at, lambda spec=procs[k]: kill(spec))
    return env, log, pid_names


def _stats(env, pid_names):
    """Cycle accounting keyed by process name (pids are process-global
    counters, so the two runs number their processes differently)."""
    stats = env.stats

    def by_name(per_pid):
        return {pid_names.get(pid, pid): dict(tags)
                for pid, tags in per_pid.items()}

    return (by_name(stats.cycles), by_name(stats.instructions),
            {core: dict(tags) for core, tags in stats.core_cycles.items()},
            [core.busy_cycles for core in env.cores.cores])


def assert_idle_core_invariant(cores):
    """An idle core has nothing queued for it: a pinned request is never
    left waiting on a core with no current request."""
    for core in cores.cores:
        if core.current is None:
            assert not core.pinned_queue, core.core_id


def _note_coverage(cores, seen):
    """Count the scheduler states the programs are meant to reach."""
    if cores.shared_queue and any(c.current is None for c in cores.cores):
        seen["floating request waits while a core idles"] += 1
    queued = list(cores.shared_queue)
    for core in cores.cores:
        queued += core.pinned_queue
    if any(s.remaining != s.request.cycles for s in queued):
        seen["request rotated out mid-Compute"] += 1


def run_pair(seed, seen, env_cls):
    plan = make_plan(seed)
    ref_env, ref_log, ref_names = build(plan, reference=True, env_cls=env_cls)
    env, log, names = build(plan, reference=False, env_cls=env_cls)
    steps = 0
    while not ref_env.idle:
        ref_env.step(max_events=1)
        env.step(max_events=1)
        steps += 1
        assert (env.now, env.events_executed) == \
            (ref_env.now, ref_env.events_executed), (seed, steps)
        assert log == ref_log, (seed, steps)
        assert_idle_core_invariant(env.cores)
        assert_idle_core_invariant(ref_env.cores)
        assert _stats(env, names) == _stats(ref_env, ref_names), (seed, steps)
        _note_coverage(ref_env.cores, seen)
    assert env.idle
    for entry in log:
        if entry[2:3] != ("kill",):
            continue
        if entry[3] in (proc_mod.READY, proc_mod.RUNNING):
            seen["kill lands mid-Compute"] += 1
        elif entry[3] == proc_mod.BLOCKED and entry[4] in (
                "timeout", "wait", "zero-cycle Compute"):
            seen["kill lands blocked on " + entry[4]] += 1
    return steps


@pytest.mark.parametrize("block", range(8))
def test_cores_match_reference_scheduler(block, env_cls):
    seen = Counter()
    for seed in range(block * 40, (block + 1) * 40):
        run_pair(seed, seen, env_cls)
    # Every block reaches the states the fast path must get right.
    assert len(seen) == 6 and min(seen.values()) >= 3, seen
