"""Multicore CPU model with round-robin timeslicing.

Cores execute :class:`~repro.sim.requests.Compute` requests.  A request may
span several timeslices; between slices the core rotates among ready
processes, which is what lets Fig. 14's oversubscribed 4-core experiments
show realistic throughput collapse when Copier's polling thread competes
with application instances.

Every simulated syscall, poll and copy slice is a ``Compute``, so this
module is on the host's hottest path.  It keeps three invariants that
make the common case cheap without changing a single scheduling choice:

* An idle core has an empty pinned queue.  ``submit`` therefore grants a
  pinned request on its core directly when that core is idle, and a
  floating request on the first idle core, instead of walking every core.
  The one state the shortcut cannot see is a floating request waiting in
  the shared queue while some core idles (a rotation leaves it there and
  only dispatches its own core); while the shared queue is non-empty,
  ``submit`` takes the historic walk over all cores.
* Each core owns one slice-end callback, built once; the request and the
  slice length it ends live on the core.
* A process has at most one request in flight, so it reuses one
  :class:`_ComputeState` for all of them.

``tests/sim/test_cores_differential.py`` holds the historic scheduler and
checks this one against it event by event.
"""

from collections import deque
from functools import partial

from repro.sim import process as proc_mod

_READY = proc_mod.READY
_RUNNING = proc_mod.RUNNING
_BLOCKED = proc_mod.BLOCKED
_DONE = proc_mod.DONE


class _ComputeState:
    """The request a process has on a core or in a run queue."""

    __slots__ = ("process", "tag", "remaining", "instr_per_cycle")

    def __init__(self, process):
        self.process = process
        self.tag = None
        self.remaining = 0
        self.instr_per_cycle = 0.0


class Core:
    __slots__ = ("core_id", "current", "pinned_queue", "busy_cycles",
                 "slice_len", "slice_end")

    def __init__(self, core_id):
        self.core_id = core_id
        self.current = None
        self.pinned_queue = deque()
        self.busy_cycles = 0
        self.slice_len = 0
        self.slice_end = None  # bound by CoreSet: ends this core's slice


class CoreSet:
    """A set of CPU cores with per-core pinned queues and a shared queue."""

    def __init__(self, env, n_cores, timeslice=100_000):
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.env = env
        self.cores = [Core(i) for i in range(n_cores)]
        for core in self.cores:
            core.slice_end = partial(self._slice_end, core)
        self.timeslice = int(timeslice)
        self.shared_queue = deque()

    @property
    def n_cores(self):
        return len(self.cores)

    def submit(self, process, request):
        """Begin servicing a Compute request for ``process``."""
        cycles = request.cycles
        if cycles == 0:
            # Zero-length compute still acts as a scheduling point.
            process.state = _BLOCKED
            self.env.schedule(0, process._wake)
            return
        state = process._compute
        if state is None:
            state = process._compute = _ComputeState(process)
        state.tag = request.tag
        state.remaining = cycles
        state.instr_per_cycle = request.instructions / cycles
        if self.shared_queue:
            # A rotated floating request may be waiting while a core
            # idles: only the full walk grants in the historic order.
            process.state = _READY
            self._enqueue(state)
            self._dispatch_all()
            return
        affinity = process.affinity
        if affinity is None:
            for core in self.cores:
                if core.current is None:
                    self._grant(core, state)
                    return
            process.state = _READY
            self.shared_queue.append(state)
            return
        core = self.cores[affinity]
        if core.current is None:
            self._grant(core, state)
        else:
            process.state = _READY
            core.pinned_queue.append(state)

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
        if core.pinned_queue:
            self._grant(core, core.pinned_queue.popleft())
        elif self.shared_queue:
            self._grant(core, self.shared_queue.popleft())

    def _grant(self, core, state):
        core.current = state
        state.process.state = _RUNNING
        slice_len = state.remaining
        if slice_len > self.timeslice:
            slice_len = self.timeslice
        core.slice_len = slice_len
        self.env.schedule(slice_len, core.slice_end)

    def _slice_end(self, core):
        state = core.current
        slice_len = core.slice_len
        process = state.process
        state.remaining -= slice_len
        core.busy_cycles += slice_len
        stats = self.env.stats
        tag = state.tag
        pid = process.pid
        stats.cycles[pid][tag] += slice_len
        stats.instructions[pid][tag] += state.instr_per_cycle * slice_len
        stats.core_cycles[core.core_id][tag] += slice_len
        if (state.remaining == 0 or process._pending_exc is not None
                or process.state == _DONE):
            # Finished, or killed mid-compute: the rest is aborted.
            core.current = None
            if core.pinned_queue or self.shared_queue:
                self._dispatch(core)
            if process.state != _DONE:
                process.state = _BLOCKED
                self.env.schedule(0, process._wake)
            return
        # More cycles to run: rotate if anyone else is waiting for this core.
        if core.pinned_queue or (process.affinity is None
                                 and self.shared_queue):
            core.current = None
            process.state = _READY
            self._enqueue(state)
            self._dispatch(core)
        else:
            self._grant(core, state)

    def utilization(self):
        """Return per-core busy fraction up to the current time."""
        now = self.env.now or 1
        return [core.busy_cycles / now for core in self.cores]
