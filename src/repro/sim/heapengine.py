"""The historic single-heapq event loop, kept as a reference class.

Before the calendar queue (:mod:`repro.sim.engine`) every pending event
lived in one ``heapq`` of ``(when, seq, fn)`` tuples, ordered by cycle
and, within a cycle, by the monotonically growing ``seq``.  The
calendar queue must reproduce that order bit for bit, so the historic
loop survives here verbatim as the differential oracle:
:class:`HeapEnvironment` overrides the queue and the three drivers and
inherits everything else (clock, cores, stats, trace, spawning, the
re-entrancy guard).  ``COPIER_SLOWHEAP=1`` makes
:class:`~repro.kernel.System` build it; ``tests/sim/test_calendar.py``
compares the two loops event for event.
"""

import heapq

from repro.sim.engine import Environment, StepReport, _normalize_delay


class HeapEnvironment(Environment):
    """:class:`~repro.sim.engine.Environment` on the historic heapq loop."""

    def __init__(self, n_cores=4, timeslice=100_000):
        self._heap = []
        self._seq = 0
        super().__init__(n_cores=n_cores, timeslice=timeslice)

    def schedule(self, delay, fn):
        """Run ``fn()`` after ``delay`` cycles (historic heapq loop)."""
        if type(delay) is not int:
            delay = _normalize_delay(delay)
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))
        self._seq += 1

    @property
    def idle(self):
        return not self._heap

    def next_event_time(self):
        return self._heap[0][0] if self._heap else None

    def pending_events(self):
        return len(self._heap)

    def clear_pending(self):
        del self._heap[:]

    def step(self, max_events=None, max_cycles=None):
        self._enter()
        heap = self._heap
        limit = None if max_cycles is None else self.now + max_cycles
        executed = 0
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                when = heap[0][0]
                if limit is not None and when > limit:
                    break
                _when, _seq, fn = heapq.heappop(heap)
                self.now = when
                self.events_executed += 1
                executed += 1
                fn()
            if limit is not None and limit > self.now:
                if not heap or (max_events is None or executed < max_events):
                    self.now = limit
        finally:
            self._running = False
        return StepReport(executed, self.now, not heap)

    def run(self, until=None):
        self._enter()
        try:
            while self._heap:
                when, _seq, fn = self._heap[0]
                if until is not None and when > until:
                    self.now = until
                    return
                heapq.heappop(self._heap)
                self.now = when
                self.events_executed += 1
                fn()
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def run_until(self, event, limit=None):
        self._enter()
        try:
            while not event.triggered:
                if not self._heap:
                    raise RuntimeError("event loop drained before event triggered")
                when, _seq, fn = heapq.heappop(self._heap)
                if limit is not None and when > limit:
                    raise RuntimeError("simulation limit reached at %d" % when)
                self.now = when
                self.events_executed += 1
                fn()
        finally:
            self._running = False
        if event.exception is not None:
            raise event.exception
        return event.value
