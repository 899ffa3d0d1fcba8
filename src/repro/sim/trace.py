"""System-wide trace bus: typed events at every copy-path stage boundary.

The paper treats submission, ingestion, dispatch, execution and completion
as distinct stages with distinct policies (§4.2–§4.5); the trace bus makes
those boundaries observable.  Each layer of the Copier subsystem emits a
typed event as work crosses its boundary:

==================  ========================================================
event               emitted when
==================  ========================================================
``task-submitted``  a client publishes a Copy Task on its CSH ring
``task-ingested``   a Copier thread moves the task into the pending list
                    (security checks + proactive faulting done)
``round-planned``   the piggyback dispatcher produced an execution round
``segment-executed``one segment's bytes landed via the AVX path
``dma-completed``   a physically-contiguous DMA run signalled completion
``task-finished``   the task retired (``done``/``aborted``/``dropped``)
``thread-sleep``    a Copier thread blocked on its doorbell
``thread-wake``     a Copier thread resumed (carries the slept cycles)
``engine-fallback`` DMA work re-routed to a CPU engine after a persistent
                    submit failure or a mid-transfer abort
``fault-injected``  the fault-injection layer fired at a site
                    (:mod:`repro.faultinject`)
``integrity-mismatch`` the end-to-end CRC defense caught corruption at a
                    csync or at retirement (``reexec``), or a poisoned
                    frame retired a task loudly (``poisoned``)
``task-shed``       admission control executed a copy synchronously in the
                    submitter's context instead of queueing it
                    (:mod:`repro.copier.admission`)
``admission-reject`` admission control refused a submission outright
``watchdog-stall``  the liveness watchdog saw nonempty queues with no
                    retirement progress over its check window
``watchdog-starved`` a client's oldest outstanding task aged past the
                    starvation threshold
``watchdog-quarantine`` backlog piling up behind a quarantined DMA engine
``process-reaped``  a process exited (or was killed) and the lifecycle
                    layer reaped its client's in-flight tasks
``service-drained`` the service finished (or timed out) a
                    ``shutdown(deadline=...)`` drain
==================  ========================================================

``task-finished`` additionally carries ``"cancelled"`` and
``"deadline-miss"`` outcomes for tasks retired by the overload-protection
layer, plus the lifecycle layer's ``"efault"`` (source/dest unmapped
mid-flight), ``"exit-reap"`` (owning process exited), ``"drain-reap"``
(force-retired at the shutdown deadline) and ``"poisoned"``
(uncorrectable frame under the copy) outcomes.

The bus itself is policy-free: ``subscribe`` a callable, every event is
delivered synchronously in emission order.  The Copier does not subscribe
to it: its :class:`StageAggregator` is called directly at each stage
boundary with plain values and folds the submit→ingest→execute→complete
latency breakdown that ``copierstat`` and the benchmark reports print.
An event object is built only while :attr:`TraceBus.active`, that is
while some outside subscriber (a test, a tool, perfbench's stage sampler)
listens; with none, a stage boundary costs one method call and one
attribute test.

One bus exists per simulated machine (``Environment.trace``), so kernel
services and future subsystems can share the same spine.
"""


class TraceEvent:
    """Base class: every event carries the cycle timestamp it occurred at."""

    __slots__ = ("ts",)
    kind = "event"

    def __init__(self, ts):
        self.ts = ts

    def __repr__(self):
        fields = ", ".join(
            "%s=%r" % (name, getattr(self, name))
            for cls in type(self).__mro__
            for name in getattr(cls, "__slots__", ())
        )
        return "<%s %s>" % (self.kind, fields)


class TaskSubmitted(TraceEvent):
    kind = "task-submitted"
    __slots__ = ("task_id", "client_name", "queue_kind", "nbytes", "lazy")

    def __init__(self, ts, task_id, client_name, queue_kind, nbytes, lazy):
        super().__init__(ts)
        self.task_id = task_id
        self.client_name = client_name
        self.queue_kind = queue_kind
        self.nbytes = nbytes
        self.lazy = lazy


class TaskIngested(TraceEvent):
    kind = "task-ingested"
    __slots__ = ("task_id", "client_name")

    def __init__(self, ts, task_id, client_name):
        super().__init__(ts)
        self.task_id = task_id
        self.client_name = client_name


class RoundPlanned(TraceEvent):
    kind = "round-planned"
    __slots__ = ("client_name", "mode", "avx_bytes", "dma_bytes", "n_tasks")

    def __init__(self, ts, client_name, mode, avx_bytes, dma_bytes, n_tasks):
        super().__init__(ts)
        self.client_name = client_name
        self.mode = mode
        self.avx_bytes = avx_bytes
        self.dma_bytes = dma_bytes
        self.n_tasks = n_tasks


class SegmentExecuted(TraceEvent):
    kind = "segment-executed"
    __slots__ = ("task_id", "seg_index", "nbytes", "engine", "absorbed_bytes")

    def __init__(self, ts, task_id, seg_index, nbytes, engine, absorbed_bytes=0):
        super().__init__(ts)
        self.task_id = task_id
        self.seg_index = seg_index
        self.nbytes = nbytes
        self.engine = engine
        self.absorbed_bytes = absorbed_bytes


class DmaCompleted(TraceEvent):
    kind = "dma-completed"
    __slots__ = ("task_id", "nbytes", "n_segments")

    def __init__(self, ts, task_id, nbytes, n_segments):
        super().__init__(ts)
        self.task_id = task_id
        self.nbytes = nbytes
        self.n_segments = n_segments


class TaskFinished(TraceEvent):
    kind = "task-finished"
    __slots__ = ("task_id", "client_name", "outcome", "nbytes")

    def __init__(self, ts, task_id, client_name, outcome, nbytes):
        super().__init__(ts)
        self.task_id = task_id
        self.client_name = client_name
        # "done" | "aborted" | "dropped" | "cancelled" | "deadline-miss"
        self.outcome = outcome
        self.nbytes = nbytes


class TaskShed(TraceEvent):
    """Admission control ran the copy synchronously in the submitter's
    context (the paper's bounded-latency sync escape hatch)."""

    kind = "task-shed"
    __slots__ = ("task_id", "client_name", "nbytes", "sync_cycles", "reason")

    def __init__(self, ts, task_id, client_name, nbytes, sync_cycles, reason):
        super().__init__(ts)
        self.task_id = task_id
        self.client_name = client_name
        self.nbytes = nbytes
        self.sync_cycles = sync_cycles
        self.reason = reason  # "queue-depth" | "deadline" | "tokens"


class AdmissionRejected(TraceEvent):
    """Admission control refused a submission outright."""

    kind = "admission-reject"
    __slots__ = ("client_name", "nbytes", "reason")

    def __init__(self, ts, client_name, nbytes, reason):
        super().__init__(ts)
        self.client_name = client_name
        self.nbytes = nbytes
        self.reason = reason


class WatchdogStall(TraceEvent):
    """No retirement progress over the watchdog window despite backlog."""

    kind = "watchdog-stall"
    __slots__ = ("backlog_tasks", "stalled_cycles")

    def __init__(self, ts, backlog_tasks, stalled_cycles):
        super().__init__(ts)
        self.backlog_tasks = backlog_tasks
        self.stalled_cycles = stalled_cycles


class WatchdogStarvation(TraceEvent):
    """A client's oldest outstanding task aged past the threshold."""

    kind = "watchdog-starved"
    __slots__ = ("client_name", "oldest_age")

    def __init__(self, ts, client_name, oldest_age):
        super().__init__(ts)
        self.client_name = client_name
        self.oldest_age = oldest_age


class WatchdogQuarantine(TraceEvent):
    """Backlog piling up behind a quarantined DMA engine."""

    kind = "watchdog-quarantine"
    __slots__ = ("backlog_tasks",)

    def __init__(self, ts, backlog_tasks):
        super().__init__(ts)
        self.backlog_tasks = backlog_tasks


class ProcessReaped(TraceEvent):
    """A process exited/was killed; its in-flight copies were reaped."""

    kind = "process-reaped"
    __slots__ = ("client_name", "tasks_reaped")

    def __init__(self, ts, client_name, tasks_reaped):
        super().__init__(ts)
        self.client_name = client_name
        self.tasks_reaped = tasks_reaped


class ServiceDrained(TraceEvent):
    """``CopierService.shutdown`` finished (or timed out) its drain."""

    kind = "service-drained"
    __slots__ = ("drained", "requeued", "force_reaped", "cycles")

    def __init__(self, ts, drained, requeued, force_reaped, cycles):
        super().__init__(ts)
        self.drained = drained          # True when the backlog hit zero
        self.requeued = requeued        # unfinished tasks at drain entry
        self.force_reaped = force_reaped  # stragglers reaped at deadline
        self.cycles = cycles


class EngineFallback(TraceEvent):
    """DMA-assigned work re-routed to a CPU engine (graceful degradation)."""

    kind = "engine-fallback"
    __slots__ = ("task_id", "client_name", "nbytes", "reason")

    def __init__(self, ts, task_id, client_name, nbytes, reason):
        super().__init__(ts)
        self.task_id = task_id
        self.client_name = client_name
        self.nbytes = nbytes
        self.reason = reason  # "dma-submit" | "dma-abort"


class FaultInjected(TraceEvent):
    kind = "fault-injected"
    __slots__ = ("fault_kind",)

    def __init__(self, ts, fault_kind):
        super().__init__(ts)
        self.fault_kind = fault_kind


class IntegrityMismatch(TraceEvent):
    """The end-to-end copy-integrity defense caught damage.

    ``action`` is ``"reexec"`` (CRC mismatch repaired on the CPU) or
    ``"poisoned"`` (uncorrectable frame — the task retired loudly with
    ``TaskPoisoned``).
    """

    kind = "integrity-mismatch"
    __slots__ = ("task_id", "client_name", "nbytes", "action")

    def __init__(self, ts, task_id, client_name, nbytes, action):
        super().__init__(ts)
        self.task_id = task_id
        self.client_name = client_name
        self.nbytes = nbytes
        self.action = action


class ThreadSleep(TraceEvent):
    kind = "thread-sleep"
    __slots__ = ("tid",)

    def __init__(self, ts, tid):
        super().__init__(ts)
        self.tid = tid


class ThreadWake(TraceEvent):
    kind = "thread-wake"
    __slots__ = ("tid", "slept_cycles")

    def __init__(self, ts, tid, slept_cycles):
        super().__init__(ts)
        self.tid = tid
        self.slept_cycles = slept_cycles


class TraceBus:
    """Synchronous publish/subscribe spine for :class:`TraceEvent` streams.

    :attr:`active` is a *cached plain boolean*, maintained by
    ``subscribe``/``unsubscribe``, so the zero-subscriber case costs emit
    sites a single attribute read — checked *before* constructing the
    event object, never after.  Do not assign it directly.
    """

    def __init__(self):
        self._subscribers = []
        #: True when at least one subscriber is attached (emit sites use
        #: this to skip event construction entirely).
        self.active = False

    def subscribe(self, fn):
        """Attach ``fn(event)``; returns ``fn`` for later unsubscribe."""
        self._subscribers.append(fn)
        self.active = True
        return fn

    def unsubscribe(self, fn):
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass
        self.active = bool(self._subscribers)

    def emit(self, event):
        for fn in self._subscribers:
            fn(event)


class StageLatency:
    """Count/total/max accumulator for one stage's latency samples."""

    __slots__ = ("count", "total", "max")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.max = 0

    def add(self, delta):
        self.count += 1
        self.total += delta
        if delta > self.max:
            self.max = delta

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def as_dict(self):
        return {"count": self.count, "total": self.total,
                "mean": self.mean, "max": self.max}


#: Stage names in pipeline order (also the render order downstream).
STAGE_NAMES = (
    "submit_to_ingest",
    "ingest_to_execute",
    "execute_to_complete",
    "submit_to_complete",
)


class StageAggregator:
    """Folds the copy path's stage boundaries into per-stage latency
    statistics.

    The copier calls the plain-value methods (:meth:`submitted`,
    :meth:`ingested`, :meth:`executed`, :meth:`finished`, ...) at each
    boundary, so no event object is built for it.  As a bus subscriber
    (``__call__``) it folds the same events through the same methods,
    which is how a subclass can see another machine's stream.  Every
    call counts one event in ``events_seen`` — :meth:`seen` for the
    events that carry nothing to fold.

    Memory is O(in-flight tasks): per-task timestamps are dropped the
    moment the task retires.  Only tasks that retire ``done`` contribute
    latency samples — aborted/dropped tasks would skew the breakdown with
    policy decisions rather than pipeline behaviour (they are still
    counted in ``outcomes``).
    """

    def __init__(self):
        self.stages = {name: StageLatency() for name in STAGE_NAMES}
        self.outcomes = {"done": 0, "aborted": 0, "dropped": 0}
        self.thread_sleeps = 0
        self.thread_wakes = 0
        self.slept_cycles = 0
        self.rounds = 0
        self.watchdog_alerts = {}
        self.events_seen = 0
        self._submitted = {}
        self._ingested = {}
        self._first_exec = {}
        self._dispatch = {
            TaskSubmitted: lambda e: self.submitted(e.ts, e.task_id),
            TaskIngested: lambda e: self.ingested(e.ts, e.task_id),
            RoundPlanned: lambda e: self.planned(),
            SegmentExecuted: lambda e: self.executed(e.ts, e.task_id),
            DmaCompleted: lambda e: self.executed(e.ts, e.task_id),
            TaskFinished: lambda e: self.finished(e.ts, e.task_id,
                                                  e.outcome),
            ThreadSleep: lambda e: self.slept(),
            ThreadWake: lambda e: self.woke(e.slept_cycles),
            TaskShed: lambda e: self.shed(),
            WatchdogStall: lambda e: self.alert(e.kind),
            WatchdogStarvation: lambda e: self.alert(e.kind),
            WatchdogQuarantine: lambda e: self.alert(e.kind),
        }

    def __call__(self, event):
        handler = self._dispatch.get(type(event))
        if handler is None:
            self.events_seen += 1
        else:
            handler(event)

    # ---------------------------------------------------------------- folds

    def seen(self):
        """An event with nothing to fold (fault injected, fallback...)."""
        self.events_seen += 1

    def submitted(self, ts, task_id):
        self.events_seen += 1
        self._submitted[task_id] = ts

    def ingested(self, ts, task_id):
        self.events_seen += 1
        self._ingested[task_id] = ts
        submitted = self._submitted.get(task_id)
        if submitted is not None:
            self.stages["submit_to_ingest"].add(ts - submitted)

    def planned(self):
        self.events_seen += 1
        self.rounds += 1

    def executed(self, ts, task_id):
        """A segment (AVX) or a run of segments (DMA) landed."""
        self.events_seen += 1
        if task_id in self._first_exec:
            return
        self._first_exec[task_id] = ts
        ingested = self._ingested.get(task_id)
        if ingested is not None:
            self.stages["ingest_to_execute"].add(ts - ingested)

    def finished(self, ts, task_id, outcome):
        self.events_seen += 1
        submitted = self._submitted.pop(task_id, None)
        self._ingested.pop(task_id, None)
        first_exec = self._first_exec.pop(task_id, None)
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if outcome != "done":
            return
        if first_exec is not None:
            self.stages["execute_to_complete"].add(ts - first_exec)
        if submitted is not None:
            self.stages["submit_to_complete"].add(ts - submitted)

    def slept(self):
        self.events_seen += 1
        self.thread_sleeps += 1

    def woke(self, slept_cycles):
        self.events_seen += 1
        self.thread_wakes += 1
        self.slept_cycles += slept_cycles

    def shed(self):
        self.events_seen += 1
        self.outcomes["shed"] = self.outcomes.get("shed", 0) + 1

    def alert(self, kind):
        """A watchdog alert of event kind ``kind``."""
        self.events_seen += 1
        self.watchdog_alerts[kind] = self.watchdog_alerts.get(kind, 0) + 1

    # -------------------------------------------------------------- export

    def as_dict(self):
        """Plain-dict snapshot (the shape ``copierstat`` renders)."""
        return {
            "stages": {name: self.stages[name].as_dict()
                       for name in STAGE_NAMES},
            "outcomes": dict(self.outcomes),
            "rounds": self.rounds,
            "threads": {"sleeps": self.thread_sleeps,
                        "wakes": self.thread_wakes,
                        "slept_cycles": self.slept_cycles},
            "watchdog_alerts": dict(self.watchdog_alerts),
            "in_flight": len(self._submitted),
            "events": self.events_seen,
        }
