"""Copier task types and memory regions (§4.1, §4.2).

A Copy Task names a source and destination range, a segment granularity and
a descriptor; Sync Tasks promote ranges (or abort pending copies); Barrier
Tasks record cross-queue positions for order-dependency tracking.
"""

# Task lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
ABORTED = "aborted"

# Task types (the paper's `type` field).
TYPE_NORMAL = "normal"
TYPE_LAZY = "lazy"


class _TaskIdCounter:
    """Monotonic task-id source with a *readable* position.

    ``itertools.count`` hides its next value, which makes the machine
    checkpoint (repro.ckpt) unable to save/restore the id stream; this
    is the same iterator protocol with ``next_value`` exposed.
    """

    __slots__ = ("next_value",)

    def __init__(self, start=1):
        self.next_value = start

    def __next__(self):
        value = self.next_value
        self.next_value = value + 1
        return value


_task_ids = _TaskIdCounter(1)


class Region:
    """A byte range inside one address space."""

    __slots__ = ("aspace", "start", "length")

    def __init__(self, aspace, start, length):
        self.aspace = aspace
        self.start = start
        self.length = length

    @property
    def end(self):
        return self.start + self.length

    def overlaps(self, other):
        return (
            self.aspace.asid == other.aspace.asid
            and self.start < other.end
            and other.start < self.end
        )

    def contains(self, other):
        return (
            self.aspace.asid == other.aspace.asid
            and self.start <= other.start
            and other.end <= self.end
        )

    def intersection(self, other):
        if not self.overlaps(other):
            return None
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        return Region(self.aspace, start, end - start)

    def __repr__(self):
        return "Region(as=%d, 0x%x+%d)" % (self.aspace.asid, self.start, self.length)


class CopyTask:
    """An asynchronous copy request.

    ``order_key`` is filled in at submission by the queue layer: a tuple
    that merges u-mode and k-mode streams into a single per-client order
    (see :mod:`repro.copier.deps`).  ``handler`` is the post-copy FUNC
    (§4.1): ``("kfunc", callable, args)`` runs in Copier's context,
    ``("ufunc", callable, args)`` is delegated to the client's Handler
    Queue.
    """

    __slots__ = (
        "task_id",
        "client",
        "queue_kind",
        "src",
        "dst",
        "descriptor",
        "handler",
        "task_type",
        "order_key",
        "state",
        "submitted_at",
        "started_at",
        "completed_at",
        "promoted",
        "pinned",
        "absorbed_bytes",
        "lazy_deadline",
        "deadline",
        "cancelled",
        "error",
        "on_retire",
        "crc_expect",
        "dma_used",
        "runs",
    )

    def __init__(self, client, queue_kind, src, dst, descriptor,
                 handler=None, task_type=TYPE_NORMAL):
        if src.length != dst.length:
            raise ValueError("copy src/dst length mismatch")
        self.task_id = next(_task_ids)
        self.client = client
        self.queue_kind = queue_kind
        self.src = src
        self.dst = dst
        self.descriptor = descriptor
        self.handler = handler
        self.task_type = task_type
        self.order_key = None
        self.state = PENDING
        self.submitted_at = None
        self.started_at = None
        self.completed_at = None
        self.promoted = False
        self.pinned = False
        self.absorbed_bytes = 0
        self.lazy_deadline = None
        #: Absolute cycle by which the submitter wants the copy completed;
        #: the service retires the task (``deadline-miss``) once it passes.
        self.deadline = None
        #: Set by :meth:`CopierClient.cancel`; the next service pass
        #: retires the task without copying further bytes.
        self.cancelled = False
        #: The typed error (e.g. :class:`~repro.copier.errors.TaskEFault`)
        #: that retired this task, delivered to csyncs over its range.
        self.error = None
        #: Retirement hook ``fn(task, outcome)``, fired exactly once on
        #: every retirement path (done/shed/efault/cancel/reap).  The
        #: async serving facade parks coroutine futures on it.
        self.on_retire = None
        #: End-to-end CRC accumulator (``COPIER_E2E_CRC=1``): the
        #: intended-bytes checksum folded in per completed segment and
        #: verified against the destination at retirement.  ``None``
        #: while the defense is disarmed.
        self.crc_expect = None
        #: True once any segment of this task ran on the DMA engine —
        #: the quarantine target when verification catches corruption.
        self.dma_used = False
        #: ``(src_runs, dst_runs, src_generation, dst_generation)``: the
        #: frame runs the pin translated, kept from pin to unpin when it
        #: is safe to reuse them (see :meth:`pinned_runs`), else ``None``.
        self.runs = None

    def pinned_runs(self):
        """``(src_runs, dst_runs)`` from the pin while both address
        spaces' mapping generations are unchanged, else ``None`` — the
        caller then translates afresh."""
        runs = self.runs
        if runs is None:
            return None
        if (self.src.aspace.generation != runs[2]
                or self.dst.aspace.generation != runs[3]):
            self.runs = None  # generations only grow: stale for good
            return None
        return runs

    @property
    def length(self):
        return self.src.length

    @property
    def lazy(self):
        return self.task_type == TYPE_LAZY

    @property
    def is_finished(self):
        return self.state in (DONE, ABORTED)

    def expired(self, now):
        """True when the task carries a deadline that has already passed."""
        return self.deadline is not None and now > self.deadline

    def segments_pending(self):
        """Indices of segments not yet copied."""
        return [i for i in range(self.descriptor.n_segments)
                if not self.descriptor.is_ready(i)]

    def dst_range_of_segment(self, index):
        """The destination byte range covered by segment ``index``."""
        seg = self.descriptor.segment_bytes
        start = self.dst.start + index * seg
        length = min(seg, self.dst.end - start)
        return Region(self.dst.aspace, start, length)

    def src_range_of_segment(self, index):
        seg = self.descriptor.segment_bytes
        offset = index * seg
        length = min(seg, self.length - offset)
        return Region(self.src.aspace, self.src.start + offset, length)

    def segments_covering(self, region):
        """Segment indices whose *destination* range intersects ``region``."""
        if region.aspace.asid != self.dst.aspace.asid:
            return []
        inter = self.dst.intersection(region)
        if inter is None:
            return []
        seg = self.descriptor.segment_bytes
        first = (inter.start - self.dst.start) // seg
        last = (inter.end - 1 - self.dst.start) // seg
        return list(range(first, last + 1))

    def segments_covering_src(self, region):
        """Segment indices whose *source* range intersects ``region``."""
        if region.aspace.asid != self.src.aspace.asid:
            return []
        inter = self.src.intersection(region)
        if inter is None:
            return []
        seg = self.descriptor.segment_bytes
        first = (inter.start - self.src.start) // seg
        last = (inter.end - 1 - self.src.start) // seg
        return list(range(first, last + 1))

    def __repr__(self):
        return "<CopyTask #%d %s %s->%s %s%s>" % (
            self.task_id,
            self.queue_kind,
            self.src,
            self.dst,
            self.state,
            " lazy" if self.lazy else "",
        )


class SyncTask:
    """A promotion (or abort) request for a destination range (§4.1, §4.4)."""

    __slots__ = ("task_id", "client", "queue_kind", "region", "abort", "submitted_at")

    def __init__(self, client, queue_kind, region, abort=False):
        self.task_id = next(_task_ids)
        self.client = client
        self.queue_kind = queue_kind
        self.region = region
        self.abort = abort
        self.submitted_at = None

    def __repr__(self):
        kind = "abort" if self.abort else "sync"
        return "<SyncTask #%d %s %s>" % (self.task_id, kind, self.region)


class BarrierTask:
    """Records the paired u-mode Copy Queue position at a trap/return event.

    ``u_position`` is the count of u-mode tasks acquired at the moment the
    kernel crossed the privilege boundary; k-mode tasks submitted after this
    barrier depend on exactly those u-mode tasks (§4.2.1, Fig. 6-a).
    """

    __slots__ = ("task_id", "u_position", "u_epoch")

    def __init__(self, u_position, u_epoch):
        self.task_id = next(_task_ids)
        self.u_position = u_position
        self.u_epoch = u_epoch

    def __repr__(self):
        return "<Barrier u_pos=%d epoch=%d>" % (self.u_position, self.u_epoch)
