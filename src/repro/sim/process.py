"""Generator-based simulated processes.

A process resumes once per request it yields, so this is the other half
of the host's hot path (with :mod:`repro.sim.cores`).  Each process binds
one wake callback, ``_wake``, at construction and schedules it for every
start, ``Timeout`` expiry and ``Compute`` end instead of a fresh closure
per event; ``_handle`` tests the exact request types before falling back
to ``isinstance`` for subclasses.  A finished process leaves
``env.processes``, so a long-running environment holds only live ones.

A kill delivered to a blocked process resumes it at once, while the
wakeup it was blocked on (a ``Timeout`` expiry, a zero-cycle ``Compute``,
a ``WaitEvent`` trigger) stays scheduled.  Every wakeup therefore carries
the process's *wake generation*, which a forced kill advances: a stale
wakeup finds the generation moved on and does nothing, so a process that
catches the kill and blocks again is woken only by its new request.  The
wakeups of generation 0 are the plain bound methods, so a process that is
never killed while blocked pays one integer compare per wakeup.
"""

from functools import partial

from repro.sim.events import Event
from repro.sim.requests import Compute, Timeout, WaitEvent

NEW = "new"
READY = "ready"
RUNNING = "running"
BLOCKED = "blocked"
DONE = "done"


class ProcessKilled(Exception):
    """Raised inside a process generator when it is killed (e.g. SIGSEGV)."""


class Process:
    """A simulated thread of execution.

    Wraps a generator that yields :mod:`repro.sim.requests` objects.  Code
    between yields executes instantaneously in simulated time; only
    :class:`Compute` consumes core cycles.

    ``affinity`` pins the process to a core id (``None`` floats it across
    all cores) — the Copier service thread uses this to claim its dedicated
    core, matching the paper's "one dedicated core to copy" setup.
    """

    _next_pid = [1]

    def __init__(self, env, generator, name=None, affinity=None):
        self.env = env
        self.gen = generator
        self.pid = Process._next_pid[0]
        Process._next_pid[0] += 1
        self.name = name or ("proc-%d" % self.pid)
        self.affinity = affinity
        self.state = NEW
        self.terminated = Event(env)
        self.result = None
        self._pending_exc = None
        self._compute = None  # reused by CoreSet for every Compute
        # The wakeups of the current wake generation: _wake is scheduled
        # for every start, Timeout expiry and Compute end, _wake_event is
        # registered on every awaited event.
        self._gen = 0
        self._wake = self._resume
        self._wake_event = self._on_event

    def __repr__(self):
        return "<Process %s pid=%d %s>" % (self.name, self.pid, self.state)

    @property
    def is_alive(self):
        return self.state != DONE

    def start(self):
        if self.state != NEW:
            raise RuntimeError("process already started")
        self.state = BLOCKED
        self.env.schedule(0, self._wake)
        return self

    def kill(self, exc=None):
        """Deliver ``exc`` (default :class:`ProcessKilled`) into the process.

        Takes effect at the process's next resumption point; if it is
        currently blocked the environment forces an immediate resumption.
        This mirrors asynchronous signal delivery (the paper's sigsegv path
        in §4.5.4): the signal lands at the next scheduling boundary.
        """
        if self.state == DONE:
            return
        self._pending_exc = exc if exc is not None else ProcessKilled(self.name)
        if self.state == BLOCKED:
            self.env.schedule(0, self._deliver_kill)

    def _deliver_kill(self):
        # Only force-resume if still blocked with the kill pending; the
        # process may have resumed (and died) on its own in the meantime.
        # The wakeup it was blocked on is now stale: a new generation.
        if self.state == BLOCKED and self._pending_exc is not None:
            gen = self._gen = self._gen + 1
            self._wake = partial(self._resume, None, gen)
            self._wake_event = partial(self._on_event, gen=gen)
            self._resume(None, gen)

    def _resume(self, value=None, gen=0):
        if gen != self._gen or self.state == DONE:
            return
        self.state = RUNNING
        try:
            if self._pending_exc is not None:
                exc, self._pending_exc = self._pending_exc, None
                request = self.gen.throw(exc)
            elif isinstance(value, BaseException):
                request = self.gen.throw(value)
            else:
                request = self.gen.send(value)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None), None)
            return
        except ProcessKilled as exc:
            self._finish(None, exc)
            return
        self._handle(request)

    def _handle(self, request):
        env = self.env
        # Exact types first: the isinstance walk only runs for subclasses
        # and the rarer requests.
        kind = type(request)
        if kind is Compute or (kind is not Timeout
                               and isinstance(request, Compute)):
            env.cores.submit(self, request)
        elif kind is Timeout or isinstance(request, Timeout):
            self.state = BLOCKED
            env.schedule(request.cycles, self._wake)
        elif isinstance(request, WaitEvent):
            self.state = BLOCKED
            request.event.add_callback(self._wake_event)
        elif isinstance(request, Event):
            # Allow yielding a bare Event as shorthand for WaitEvent.
            self.state = BLOCKED
            request.add_callback(self._wake_event)
        else:
            exc = TypeError("process %s yielded %r" % (self.name, request))
            gen = self._gen
            self.env.schedule(0, lambda: self._resume(exc, gen))

    def _on_event(self, event, gen=0):
        if event.exception is not None:
            self._resume(event.exception, gen)
        else:
            self._resume(event.value, gen)

    def _finish(self, result, exc):
        self.state = DONE
        self.result = result
        self.env.processes.pop(self, None)
        if exc is not None:
            self.terminated.fail(exc)
        else:
            self.terminated.succeed(result)
