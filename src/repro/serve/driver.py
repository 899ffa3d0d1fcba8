"""The asyncio ↔ simulator bridge: SimDriver, sessions, and staged ops.

One :class:`SimDriver` coroutine owns a simulated clock — one machine's
``Environment``, or a fleet's :class:`~repro.serve.fleetfront.FleetClock`
— and is the *only* code that steps it.  Every other coroutine reaches
the sim through :meth:`SimDriver.call`, which wraps a request in a
:class:`PendingOp` — a ``start(name)`` that launches the operation in
the sim, plus an asyncio future.  The future resolves from *inside* sim
execution (a task's ``on_retire`` hook, a generator finishing, a fleet
op settling), so a parked coroutine wakes exactly when its simulated
operation completes.  Everything runs on one event loop: there are no
threads and no locks, only turn-taking between the driver and the
serving coroutines.

Sessions make the deterministic ``gate`` pacing policy possible.  A
connection handler registers an :class:`AsyncSession` and then tells the
driver what it is blocked on: parked on a sim op (:meth:`SimDriver.call`
marks this), or waiting for the outside world (wrap socket awaits in
:meth:`AsyncSession.external`).  The gate advances the sim only when
every live session is parked on an *unresolved* op, then starts the
staged batch in sorted ``(session key, seq)`` order — wall-clock arrival
order stops mattering, and simulated counters become run-to-run
deterministic for closed-loop workloads, on one machine or a fleet.

Driver health is exported through :meth:`SimDriver.snapshot`, surfaced
as ``stats_snapshot()["serve"]`` on the attached copier service and
rendered by ``tools/copierstat.py``.
"""

import asyncio
import time

from repro.serve.pacing import WallClockRatio, make_pacing

# Session states.  A suspended handler coroutine is always in PARKED or
# EXTERNAL (its awaits are either facade ops or ``external()``-wrapped);
# RUNNING covers the instants it actually holds the loop.
RUNNING = "running"
PARKED = "parked"
EXTERNAL = "external"
CLOSED = "closed"


class AsyncSession:
    """One connection's identity and blocking state, as the gate sees it.

    ``key`` must be stable across runs (derive it from data the client
    sends — e.g. a hello ID — never from accept order) and mutually
    comparable with every other session key.
    """

    __slots__ = ("driver", "key", "seq", "state", "waiting")

    def __init__(self, driver, key):
        self.driver = driver
        self.key = key
        self.seq = 0
        self.state = RUNNING
        self.waiting = None  # the PendingOp this session is parked on

    def next_seq(self):
        seq = self.seq
        self.seq += 1
        return seq

    async def external(self, awaitable):
        """Await something outside the sim (socket I/O) under this session.

        Marks the session EXTERNAL so the gate knows the coroutine is
        waiting on the outside world, not on sim progress.
        """
        if self.state == CLOSED:
            raise RuntimeError("session %r is closed" % (self.key,))
        self.state = EXTERNAL
        self.driver.kick()
        try:
            return await awaitable
        finally:
            if self.state == EXTERNAL:
                self.state = RUNNING

    def close(self):
        """Deregister; a closed session no longer holds up the gate."""
        if self.state == CLOSED:
            return
        self.state = CLOSED
        self.waiting = None
        self.driver._sessions.pop(self.key, None)
        self.driver.stats.sessions_closed += 1
        self.driver.kick()


class PendingOp:
    """A sim operation's ``start(name)`` wired to the asyncio future
    awaiting its outcome."""

    __slots__ = ("key", "start", "future", "session", "kind")

    def __init__(self, key, start, future, session, kind):
        self.key = key
        self.start = start
        self.future = future
        self.session = session
        self.kind = kind


class ServeStats:
    """Counters for the driver's stepping loop (``snapshot()`` exports)."""

    __slots__ = ("steps", "events", "idle_polls", "rounds",
                 "ops_submitted", "ops_resolved",
                 "sessions_opened", "sessions_closed")

    def __init__(self):
        self.steps = 0
        self.events = 0
        self.idle_polls = 0
        self.rounds = 0
        self.ops_submitted = 0
        self.ops_resolved = 0
        self.sessions_opened = 0
        self.sessions_closed = 0


class SimDriver:
    """The asyncio task that steps a simulated clock under a pacing policy.

    Construct from a :class:`~repro.kernel.system.System` (binds its env
    and copier service, and registers itself as ``service.serve_driver``
    so driver stats ride along in ``stats_snapshot()``), or from a bare
    ``env``: an ``Environment`` for engine-level tests, or a
    :class:`~repro.serve.fleetfront.FleetClock` to serve a fleet.  Run
    it as a task (``async with driver:`` manages one), submit work
    through :meth:`call` (or an :class:`~repro.serve.facade.AsyncCopier`),
    and :meth:`stop` it when the serving frontends wind down.
    """

    def __init__(self, system=None, env=None, service=None, pacing=None,
                 batch_events=2048, expected_sessions=0,
                 idle_sleep=0.0005, gate_poll=0.05):
        if system is not None:
            env = system.env
            if service is None:
                service = system.copier
        if env is None:
            raise ValueError("SimDriver needs a system= or env=")
        self.env = env
        self.service = service
        if service is not None:
            service.serve_driver = self
        self.pacing = make_pacing(pacing)
        self.batch_events = batch_events
        #: The gate will not fire its first round before this many
        #: sessions have registered (protects round 1 from slow accepts).
        self.expected_sessions = expected_sessions
        self.idle_sleep = idle_sleep
        self.gate_poll = gate_poll
        self.stats = ServeStats()
        self._sessions = {}
        self._staged = []
        self._op_counter = 0
        self._stop = False
        self._task = None
        self._wakeup = asyncio.Event()
        # Wall↔sim anchor for the ratio policy, set on first tick.
        self._wall0 = None
        self._cyc0 = 0

    # ------------------------------------------------------------- sessions

    def session(self, key):
        """Register a new session under a run-stable, comparable ``key``."""
        if key in self._sessions:
            raise ValueError("duplicate session key %r" % (key,))
        sess = AsyncSession(self, key)
        self._sessions[key] = sess
        self.stats.sessions_opened += 1
        self.kick()
        return sess

    @property
    def sessions_live(self):
        return len(self._sessions)

    @property
    def parked_ops(self):
        """Coroutines currently parked on unresolved sim operations."""
        return self.stats.ops_submitted - self.stats.ops_resolved

    # ----------------------------------------------------------- submission

    async def call(self, start, future, session, kind):
        """Park ``session`` on a sim op until ``future`` resolves; the
        pacing policy decides when ``start(name)`` launches the op."""
        key = ((), self.stats.ops_submitted) if session is None else \
            (session.key, session.next_seq())
        op = PendingOp(key, start, future, session, kind)
        if session is not None:
            session.state = PARKED
            session.waiting = op
        self.submit(op)
        try:
            return await future
        finally:
            if session is not None and session.waiting is op:
                session.waiting = None
                if session.state == PARKED:
                    session.state = RUNNING

    def submit(self, op):
        """Accept a :class:`PendingOp`.

        Deterministic pacing stages the op for the next gate round;
        otherwise it is started in the sim immediately.
        """
        self.stats.ops_submitted += 1
        op.future.add_done_callback(self._op_resolved)
        if self.pacing.deterministic:
            self._staged.append(op)
        else:
            self._spawn(op)
        self.kick()

    def _op_resolved(self, _future):
        self.stats.ops_resolved += 1

    def _spawn(self, op):
        self._op_counter += 1
        op.start("serve-%s-%d" % (op.kind, self._op_counter))

    def kick(self):
        """Wake the driver loop (new work, or a gate condition change)."""
        self._wakeup.set()

    # ------------------------------------------------------------ lifecycle

    def stop(self):
        self._stop = True
        self.kick()

    async def run(self):
        """Step the sim until :meth:`stop` — the driver's main coroutine."""
        self._stop = False
        if self.pacing.deterministic:
            tick = self._gate_tick
        elif isinstance(self.pacing, WallClockRatio):
            tick = self._ratio_tick
        else:
            tick = self._free_tick
        while not self._stop:
            await tick()

    async def __aenter__(self):
        self._task = asyncio.ensure_future(self.run())
        return self

    async def __aexit__(self, exc_type, exc, tb):
        self.stop()
        if self._task is not None:
            await self._task
            self._task = None
        return False

    # ----------------------------------------------------- stepping: common

    def _step(self, max_events=None, max_cycles=None):
        report = self.env.step(max_events=max_events, max_cycles=max_cycles)
        self.stats.steps += 1
        self.stats.events += report.executed
        return report

    async def _idle_wait(self, max_wait):
        """Sleep until kicked (or ``max_wait`` seconds).  Single-threaded
        asyncio: no kick can land between the caller's condition check
        and the ``clear()`` here, so the pattern is race-free."""
        self.stats.idle_polls += 1
        self._wakeup.clear()
        try:
            await asyncio.wait_for(self._wakeup.wait(), max_wait)
        except asyncio.TimeoutError:
            pass

    # ------------------------------------------------------- stepping: free

    async def _free_tick(self):
        if self.env.idle:
            await self._idle_wait(self.idle_sleep)
            return
        self._step(max_events=self.batch_events)
        await asyncio.sleep(0)

    # ------------------------------------------------------ stepping: ratio

    async def _ratio_tick(self):
        now = time.monotonic()
        if self._wall0 is None:
            self._wall0 = now
            self._cyc0 = self.env.now
        rate = self.pacing.cycles_per_second
        target = self._cyc0 + int((now - self._wall0) * rate)
        behind = target - self.env.now
        if behind > 0:
            self._step(max_events=self.batch_events, max_cycles=behind)
            await asyncio.sleep(0)
        else:
            # Ahead of the wall clock: sleep (at most) the shortfall.
            await self._idle_wait(min(max(-behind / rate, self.idle_sleep),
                                      0.02))

    # ------------------------------------------------------- stepping: gate

    def _gate_ready(self):
        """The lockstep condition: staged work exists and every live
        session is parked on an op whose future is still unresolved.

        A session whose future already resolved counts as *about to run*
        (its coroutine just hasn't been scheduled yet) — advancing then
        would let host scheduling decide which round its next op joins,
        which is exactly the non-determinism the gate exists to remove.
        Sessions waiting on the outside world (EXTERNAL) also hold the
        gate: with closed-loop clients their next submission is en route.
        """
        if not self._staged:
            return False
        if self.stats.sessions_opened < self.expected_sessions:
            return False
        for sess in self._sessions.values():
            if sess.state != PARKED:
                return False
            op = sess.waiting
            if op is None or op.future.done():
                return False
        return True

    async def _gate_tick(self):
        if self._gate_ready():
            await self._run_round()
        else:
            await self._idle_wait(self.gate_poll)

    async def _run_round(self):
        """Inject the staged batch in sorted order and step until every
        op in it has resolved."""
        batch, self._staged = self._staged, []
        batch.sort(key=lambda op: op.key)
        for op in batch:
            self._spawn(op)
        self.stats.rounds += 1
        pending = batch
        while True:
            pending = [op for op in pending if not op.future.done()]
            if not pending:
                break
            if self.env.idle:
                # The sim cannot make progress but ops are unresolved:
                # the service is wedged or stopped.  Fail the waiters
                # rather than hanging the frontend.
                exc = RuntimeError(
                    "simulator went idle with %d unresolved serve ops"
                    % len(pending))
                for op in pending:
                    if not op.future.done():
                        op.future.set_exception(exc)
                break
            self._step(max_events=self.batch_events)
            # Let resolved coroutines resume mid-round (they may stage
            # ops for the *next* round; composition is unaffected).
            await asyncio.sleep(0)

    # -------------------------------------------------------------- exports

    def snapshot(self):
        """Driver stats for ``stats_snapshot()["serve"]`` / copierstat."""
        s = self.stats
        return {
            "pacing": self.pacing.name,
            "steps": s.steps,
            "events": s.events,
            "events_per_step": round(s.events / s.steps, 2) if s.steps else 0.0,
            "idle_polls": s.idle_polls,
            "rounds": s.rounds,
            "ops_submitted": s.ops_submitted,
            "ops_resolved": s.ops_resolved,
            "parked": self.parked_ops,
            "sessions_opened": s.sessions_opened,
            "sessions_closed": s.sessions_closed,
            "sessions_live": self.sessions_live,
        }

    def __repr__(self):
        return "<SimDriver %s sessions=%d parked=%d>" % (
            self.pacing.name, self.sessions_live, self.parked_ops)
