"""The simulation environment: virtual clock and event loop.

Time model (the sim-time vs wall-time seam)
-------------------------------------------

The environment's clock is purely *virtual*: ``now`` advances only when
events execute (or when a run/step horizon passes), and the environment
never reads the host's wall clock.  Anything wall-time related — pacing
the simulation against real time, serving real sockets, parking real
coroutines on simulated completions — lives entirely *outside* this
module, in a driver that owns the loop (:mod:`repro.serve.driver`).  The
seam between the two worlds is the cooperative stepping API:

* :meth:`Environment.step` executes a bounded slice of the event loop
  and returns control (with a :class:`StepReport`), so an external
  driver can interleave simulation with I/O, wall-clock pacing, or
  other work;
* :attr:`Environment.idle` / :meth:`Environment.next_event_time` expose
  quiescence explicitly, so a driver can tell "nothing will ever happen
  until new work is injected" apart from "work is pending".

``run``/``run_until`` remain the batch drivers (run-to-horizon /
run-to-event); they share the queue discipline with ``step``, so
interleaved ``step`` calls execute the exact same event sequence — and
therefore produce byte-identical counters — as a single batch run.  All
three are mutually exclusive and non-reentrant: calling any of them from
inside an executing event raises, which is what keeps an external driver
and in-process drain loops from fighting over the run loop.

Queue engineering (the calendar queue)
--------------------------------------

The historic loop kept every pending event in one ``heapq`` of
``(when, seq, fn)`` tuples: every schedule and every pop paid an
O(log n) sift *per event*, with tuple allocation and tuple comparison on
the hot path.  The production loop is a **calendar/bucket queue** keyed
on the cycle: events scheduled for the same cycle share one bucket (a
plain list, appended in schedule order — which *is* ``seq`` order, since
``seq`` grows monotonically), and a small heap orders only the distinct
pending cycles.  Scheduling into an existing bucket is O(1); the heap
fallback pays its O(log d) only once per *distinct* future cycle, not
once per event.  Execution drains a whole bucket in one dispatch loop —
same-cycle batching — and events that schedule more work at the current
cycle land in the bucket being drained, exactly where the heap's
``(when, seq)`` total order would have put them.  The observable event
order is therefore bit-exact with the historic loop, which lives on
verbatim as the reference class
:class:`~repro.sim.heapengine.HeapEnvironment`;
:class:`~repro.kernel.System` builds it instead of this class under
``COPIER_SLOWHEAP=1``, the differential oracle for this queue.
"""

import heapq

from repro.sim.cores import CoreSet
from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.stats import CycleStats
from repro.sim.trace import TraceBus

#: Default ``run_until`` safety limit (cycles) shared by benchmarks,
#: tools and app drivers: generous enough for every workload in the
#: repo, finite so a wedged simulation fails instead of spinning.
DEFAULT_RUN_LIMIT = 500_000_000_000


def _normalize_delay(delay):
    """Validate/normalize a schedule delay at the seam (once, here).

    Cycles are integral by definition.  Integral ``float``s (a common
    artifact of latency arithmetic) are normalized to ``int``; anything
    non-integral or non-numeric is a typed error instead of a silent
    drift of the clock into float territory.
    """
    if isinstance(delay, bool) or not isinstance(delay, (int, float)):
        raise TypeError(
            "schedule delay must be an integral number of cycles, got %r"
            % type(delay).__name__)
    if isinstance(delay, float):
        if not delay.is_integer():
            raise TypeError(
                "schedule delay must be a whole number of cycles, got %r"
                % (delay,))
        delay = int(delay)
    return delay


class StepReport:
    """What one :meth:`Environment.step` call did."""

    __slots__ = ("executed", "now", "idle")

    def __init__(self, executed, now, idle):
        self.executed = executed  # events executed by this step
        self.now = now            # clock after the step
        self.idle = idle          # True when the queue is empty

    def __repr__(self):
        return "StepReport(executed=%d, now=%d, idle=%s)" % (
            self.executed, self.now, self.idle)


class Environment:
    """Event loop with a cycle-granularity virtual clock.

    ``n_cores`` and ``timeslice`` configure the CPU model.  All simulated
    components (Copier service, kernel, apps, copy engines) share one
    environment, which is what gives Copier its whole-system global view.
    """

    def __init__(self, n_cores=4, timeslice=100_000):
        self.now = 0
        # Calendar queue: cycle -> [fn, ...] in schedule order, plus a
        # heap of the distinct pending cycles (each pushed exactly once).
        self._buckets = {}
        self._times = []
        self._running = False
        self.events_executed = 0
        self.stats = CycleStats()
        self.trace = TraceBus()
        self.cores = CoreSet(self, n_cores, timeslice)
        # Live processes in spawn order (a dict for O(1) removal when one
        # finishes); iterate it like a list.
        self.processes = {}

    def schedule(self, delay, fn):
        """Run ``fn()`` after ``delay`` cycles."""
        if type(delay) is not int:
            delay = _normalize_delay(delay)
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        when = self.now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [fn]
            heapq.heappush(self._times, when)
        else:
            bucket.append(fn)

    def event(self):
        return Event(self)

    def spawn(self, generator, name=None, affinity=None):
        """Create and start a process from ``generator``."""
        process = Process(self, generator, name=name, affinity=affinity)
        self.processes[process] = None
        process.start()
        return process

    # ----------------------------------------------------------- stepping

    @property
    def idle(self):
        """True when no events remain: nothing will happen until new work
        is scheduled from outside (quiescence, not just a pause)."""
        return not self._times

    def next_event_time(self):
        """Clock value of the earliest pending event, or ``None`` when
        idle.  Lets an external driver bound how far ``step`` can go
        without executing anything."""
        return self._times[0] if self._times else None

    def pending_events(self):
        """Number of events currently queued."""
        return sum(len(b) for b in self._buckets.values())

    def clear_pending(self):
        """Drop every queued event (checkpoint/restore surgery)."""
        self._buckets.clear()
        del self._times[:]

    def _enter(self):
        if self._running:
            raise RuntimeError(
                "event loop re-entered: step()/run()/run_until() called "
                "from inside an executing event")
        self._running = True

    def step(self, max_events=None, max_cycles=None):
        """Execute a bounded slice of the event loop; returns a
        :class:`StepReport`.

        ``max_events`` bounds how many events execute; ``max_cycles``
        bounds how far the clock advances (a relative horizon at
        ``now + max_cycles`` — events exactly at the horizon still
        execute, matching ``run(until=...)``).  With a cycle horizon the
        clock advances *to* the horizon even when fewer events exist, so
        ``step(max_cycles=c)`` is exactly ``run(until=now+c)``; with only
        an event budget the clock stops at the last executed event, so a
        driver that steps an idle simulation burns no virtual time.
        With neither bound it runs to quiescence, like ``run()``.

        Re-entrant *between* calls (call it as often as you like, from
        wherever, interleaved with ``run``/``run_until``), but not from
        inside an executing event — that raises ``RuntimeError``.
        """
        self._enter()
        buckets = self._buckets
        times = self._times
        limit = None if max_cycles is None else self.now + max_cycles
        executed = 0
        try:
            while times:
                when = times[0]
                if limit is not None and when > limit:
                    break
                if max_events is not None and executed >= max_events:
                    break
                bucket = buckets[when]
                self.now = when
                i = 0
                try:
                    while i < len(bucket):
                        if max_events is not None and executed >= max_events:
                            break
                        fn = bucket[i]
                        i += 1
                        self.events_executed += 1
                        executed += 1
                        fn()
                finally:
                    if i < len(bucket):
                        # Budget (or an exception) cut the bucket short:
                        # keep the unexecuted suffix pending.
                        del bucket[:i]
                    else:
                        del buckets[when]
                        heapq.heappop(times)
            if limit is not None and limit > self.now:
                # Horizon semantics match run(until=...): the clock lands
                # on the horizon whether or not events filled the slice —
                # unless the event budget cut the slice short first.
                if not times or (max_events is None or executed < max_events):
                    self.now = limit
        finally:
            self._running = False
        return StepReport(executed, self.now, not times)

    # -------------------------------------------------------- batch drives

    def run(self, until=None):
        """Run the event loop.

        With ``until=None`` runs until no events remain; otherwise runs
        until the clock reaches ``until`` cycles (events at exactly
        ``until`` still execute).
        """
        self._enter()
        buckets = self._buckets
        times = self._times
        try:
            while times:
                when = times[0]
                if until is not None and when > until:
                    self.now = until
                    return
                bucket = buckets[when]
                self.now = when
                i = 0
                try:
                    # Same-cycle batch: one dispatch loop per bucket.
                    # Events scheduling at the current cycle append to
                    # this bucket and are picked up by the length check.
                    while i < len(bucket):
                        fn = bucket[i]
                        i += 1
                        self.events_executed += 1
                        fn()
                finally:
                    if i < len(bucket):
                        del bucket[:i]
                    else:
                        del buckets[when]
                        heapq.heappop(times)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def run_until(self, event, limit=None):
        """Run until ``event`` triggers; raises if the loop drains first."""
        self._enter()
        buckets = self._buckets
        times = self._times
        try:
            while not event.triggered:
                if not times:
                    raise RuntimeError("event loop drained before event triggered")
                when = times[0]
                if limit is not None and when > limit:
                    raise RuntimeError("simulation limit reached at %d" % when)
                bucket = buckets[when]
                self.now = when
                i = 0
                try:
                    while i < len(bucket):
                        if event.triggered:
                            break
                        fn = bucket[i]
                        i += 1
                        self.events_executed += 1
                        fn()
                finally:
                    if i < len(bucket):
                        del bucket[:i]
                    else:
                        del buckets[when]
                        heapq.heappop(times)
        finally:
            self._running = False
        if event.exception is not None:
            raise event.exception
        return event.value
