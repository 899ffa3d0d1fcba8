"""The submission layer: registered clients and their developer-facing API.

A :class:`CopierClient` owns one client's CSH queues, barrier bookkeeping
and pending-task state.  The ``amemcpy``/``csync`` methods
here are the *mechanism* (queue protocol + cycle charging);
:mod:`repro.api.libcopier` wraps them in the paper's high-level developer
API.  All methods that consume simulated time are generators — call them
with ``yield from`` inside a simulator process.
"""

from repro.copier import task as task_mod
from repro.copier.admission import REJECT, SHED
from repro.copier.deps import BarrierBookkeeping, PendingTasks, u_order_key
from repro.copier.descriptor import Descriptor
from repro.copier.errors import AdmissionReject, CopyAborted, DeadlineMissed
from repro.copier.queues import ClientQueues, QueueFull
from repro.copier.task import CopyTask, Region, SyncTask
from repro.sim import Compute
from repro.sim.trace import AdmissionRejected, TaskShed, TaskSubmitted

_MAX_SPIN_CYCLES = 800

#: Full-ring (or injected queue_overflow) retries before QueueFull
#: propagates to the submitter.
_MAX_SUBMIT_RETRIES = 8


class ClientStats:
    __slots__ = ("submitted", "completed", "aborted", "dropped",
                 "sync_tasks", "bytes_copied", "bytes_absorbed",
                 "queue_overflows", "shed_tasks", "shed_bytes",
                 "rejected_submits", "cancelled", "deadline_misses",
                 "efault_tasks", "exit_reaped", "poisoned_tasks")

    def __init__(self):
        self.submitted = 0
        self.completed = 0
        self.aborted = 0
        self.dropped = 0
        self.sync_tasks = 0
        self.bytes_copied = 0
        self.bytes_absorbed = 0
        self.queue_overflows = 0
        self.shed_tasks = 0
        self.shed_bytes = 0
        self.rejected_submits = 0
        self.cancelled = 0
        self.deadline_misses = 0
        self.efault_tasks = 0
        self.exit_reaped = 0
        self.poisoned_tasks = 0

    def as_dict(self):
        """Plain-dict snapshot of every counter."""
        return {name: getattr(self, name) for name in self.__slots__}


class CopierClient:
    """A registered client: its queues, pending tasks, and submission API."""

    #: Hard bound on ``task_index`` growth.  Crossing it forces a prune of
    #: finished tasks at submission time, so a client that never csyncs
    #: cannot leak index entries (unfinished tasks are always retained —
    #: they are needed for csync correctness and are already bounded by
    #: the ring capacity + pending list).
    INDEX_CAP = 2048

    #: Index size above which a csync prunes the finished tasks.
    PRUNE_SIZE = 64

    def __init__(self, service, aspace, name="", queue_capacity=1024,
                 process=None, segment_bytes=None):
        self.service = service
        self.env = service.env
        self.aspace = aspace
        self.name = name or ("client-%d" % aspace.asid)
        self.process = process
        self.segment_bytes = segment_bytes or service.params.default_segment_bytes
        self.u_queues = ClientQueues(queue_capacity, self.name + "-u")
        self.k_queues = ClientQueues(queue_capacity, self.name + "-k")
        self.barriers = BarrierBookkeeping(self.u_queues.copy)
        self.pending = PendingTasks()
        #: Every submitted task until a prune drops it after it finished:
        #: the interval index all region queries go through.
        self.task_index = self.pending.index
        self.stats = ClientStats()
        self.outstanding_bytes = 0  # admitted async bytes not yet retired
        #: Unretired tasks carrying a deadline or a cancel mark: while it
        #: is zero the overload reap has nothing to look for.
        self.overload_marked = 0
        #: Complete but unretired tasks, as an insertion-ordered set:
        #: entered where a task's last segment is marked, left at
        #: retirement.  The completion sweep retires what remains.
        self.landed = {}
        self.sigsegv_handler = None  # default: kill the attached process

    # -------------------------------------------------------------- barriers

    def on_trap(self):
        """Kernel entered a syscall on this client's context (§4.2.1)."""
        self.barriers.on_trap()

    def on_return(self):
        """Kernel is about to return to userspace.

        An armed ``delayed_trap_return`` fault postpones the barrier
        snapshot — the kernel dawdled on the return path — which widens
        the window where k-mode tasks outrank racing u-mode submissions
        (Fig. 6-a); ordering stays correct, only the window moves.
        """
        inj = self.service.faults
        if inj.armed:
            delay = inj.delay_cycles("delayed_trap_return")
            if delay:
                self.env.schedule(delay, self.barriers.on_return)
                return
        self.barriers.on_return()

    # ------------------------------------------------------------ submission

    def amemcpy(self, dst_va, src_va, nbytes, handler=None, segment_bytes=None,
                lazy=False, descriptor=None, deadline=None, on_retire=None):
        """u-mode async copy within this client's address space.

        Generator; returns the task's descriptor.  ``deadline`` is an
        absolute cycle count: past it the task is reaped unexecuted
        (``deadline-miss``) rather than copied late.  ``on_retire`` is an
        optional ``fn(task, outcome)`` hook fired exactly once when the
        task retires, whatever the path (see :class:`CopyTask`).
        """
        src = Region(self.aspace, src_va, nbytes)
        dst = Region(self.aspace, dst_va, nbytes)
        return (yield from self.submit_copy("u", src, dst, handler=handler,
                                            segment_bytes=segment_bytes,
                                            lazy=lazy, descriptor=descriptor,
                                            deadline=deadline,
                                            on_retire=on_retire))

    def k_amemcpy(self, src, dst, handler=None, segment_bytes=None,
                  lazy=False, descriptor=None, deadline=None):
        """k-mode async copy between arbitrary Regions (kernel services)."""
        return (yield from self.submit_copy("k", src, dst, handler=handler,
                                            segment_bytes=segment_bytes,
                                            lazy=lazy, descriptor=descriptor,
                                            deadline=deadline))

    def submit_copy(self, queue_kind, src, dst, handler=None,
                    segment_bytes=None, lazy=False, descriptor=None,
                    deadline=None, on_retire=None):
        params = self.service.params
        cost = params.queue_submit_cycles
        if descriptor is None:
            descriptor = Descriptor(src.length,
                                    segment_bytes or self.segment_bytes)
            cost += params.descriptor_alloc_cycles
        yield Compute(cost, tag="copier-submit")
        task = CopyTask(
            self, queue_kind, src, dst, descriptor, handler=handler,
            task_type=task_mod.TYPE_LAZY if lazy else task_mod.TYPE_NORMAL,
        )
        task.submitted_at = self.env.now
        task.deadline = deadline
        task.on_retire = on_retire
        if lazy:
            task.lazy_deadline = self.env.now + self.service.lazy_period_cycles
        admission = self.service.admission
        if self.service.draining:
            # Shutdown in progress: no new work is admitted, period —
            # the drain loop must converge on the backlog it started with.
            self.stats.rejected_submits += 1
            admission.stats.rejected += 1
            self.service.stage_stats.seen()
            trace = self.service.trace
            if trace.active:
                trace.emit(AdmissionRejected(self.env.now, self.name,
                                             src.length, "draining"))
            raise AdmissionReject("draining", src.length)
        decision = admission.admit(self, task)
        if decision == REJECT:
            self.stats.rejected_submits += 1
            admission.stats.rejected += 1
            self.service.stage_stats.seen()
            trace = self.service.trace
            if trace.active:
                trace.emit(AdmissionRejected(self.env.now, self.name,
                                             src.length,
                                             admission.policy.name))
            raise AdmissionReject(admission.policy.name, src.length)
        if decision == SHED:
            yield from self._shed_sync(task, admission.policy.name)
            return descriptor
        if queue_kind == "u":
            queue = self.u_queues.copy
            position = yield from self._acquire_slot(queue)
            task.order_key = u_order_key(position)
            queue.publish(position, task)
        else:
            queue = self.k_queues.copy
            task.order_key = self.barriers.next_k_key()
            position = yield from self._acquire_slot(queue)
            queue.publish(position, task)
        if len(self.task_index) >= self.INDEX_CAP:
            self._prune_index(force=True)
        self.task_index.add(task)
        if deadline is not None:
            self.overload_marked += 1
        self.stats.submitted += 1
        self.outstanding_bytes += src.length
        now = self.env.now
        self.service.stage_stats.submitted(now, task.task_id)
        trace = self.service.trace
        if trace.active:
            trace.emit(TaskSubmitted(now, task.task_id, self.name,
                                     queue_kind, src.length, lazy))
        self.service.notify_submit(self)
        return descriptor

    def _shed_sync(self, task, reason):
        """Execute a shed task synchronously in the submitter's context.

        Same semantics as ``user_memcpy``: the caller's core pays the
        faults and the copy, and the bytes are in place on return.  The
        task still lands in ``task_index`` fully marked, so later csyncs
        over the range take the fast path.  Latency is bounded (no
        queueing), which is the entire point of the overload valve.
        """
        params = self.service.params
        t0 = self.env.now
        fault_cycles = 0
        resolutions = task.src.aspace.ensure_mapped(
            task.src.start, task.src.length, write=False)
        resolutions += task.dst.aspace.ensure_mapped(
            task.dst.start, task.dst.length, write=True)
        for kind in resolutions:
            fault_cycles += (params.fault_entry_cycles
                             + params.page_alloc_cycles
                             + params.fault_exit_cycles)
            if kind == "cow_copy":
                fault_cycles += params.cpu_copy_cycles(4096, engine="avx")
        if fault_cycles:
            yield Compute(fault_cycles, tag="fault")
        yield Compute(params.cpu_copy_cycles(task.length, engine="avx"),
                      tag="copier-submit")
        data = task.src.aspace.read(task.src.start, task.src.length)
        task.dst.aspace.write(task.dst.start, data)
        for seg in range(task.descriptor.n_segments):
            task.descriptor.mark(seg)
        task.state = task_mod.DONE
        task.completed_at = self.env.now
        if len(self.task_index) >= self.INDEX_CAP:
            self._prune_index(force=True)
        self.task_index.add(task)
        self.stats.shed_tasks += 1
        self.stats.shed_bytes += task.length
        overload = self.service.admission.stats
        overload.shed_tasks += 1
        overload.shed_bytes += task.length
        if task.handler is not None:
            kind, fn, args = task.handler
            if kind == "kfunc":
                fn(*args)
            else:
                self.u_queues.handler.submit((fn, args))
        self.service.stage_stats.shed()
        trace = self.service.trace
        if trace.active:
            trace.emit(TaskShed(self.env.now, task.task_id, self.name,
                                task.length, self.env.now - t0, reason))
        hook, task.on_retire = task.on_retire, None
        if hook is not None:
            hook(task, "shed")

    # ---------------------------------------------------------- cancellation

    def cancel(self, va, nbytes, queue_kind=None):
        """Cancel unfinished copies whose destination overlaps the range.

        Generator; returns how many tasks were marked.  Marked tasks are
        retired by the service (``cancelled`` outcome, pins released,
        FUNC still dispatched) rather than copied; a csync over the range
        then raises :class:`~repro.copier.errors.CopyAborted`.
        """
        params = self.service.params
        yield Compute(params.queue_submit_cycles, tag="csync")
        count = self._mark_cancelled(Region(self.aspace, va, nbytes),
                                     queue_kind)
        if count:
            self.service.notify_submit(self)  # wake a worker to reap
        return count

    def _mark_cancelled(self, region, queue_kind=None):
        count = 0
        for task in self.task_index.writers(region):
            if task.is_finished or task.cancelled:
                continue
            if queue_kind is not None and task.queue_kind != queue_kind:
                continue
            if task.deadline is None:
                self.overload_marked += 1
            task.cancelled = True
            count += 1
        return count

    def _acquire_slot(self, queue):
        """Acquire a ring slot, absorbing transient overflow (generator).

        A full ring (genuine, or an injected ``queue_overflow``) backs off
        on the client's own core — giving the Copier thread time to drain
        the tail — and retries.  Only a ring that *stays* full for the
        whole retry budget propagates :class:`QueueFull`: that is back
        pressure, not a transient, and the submitter must see it.
        """
        inj = self.service.faults
        backoff = self.service.params.queue_submit_cycles
        for _attempt in range(_MAX_SUBMIT_RETRIES):
            try:
                if inj.armed and inj.fire("queue_overflow"):
                    raise QueueFull(queue.name)
                return queue.acquire()
            except QueueFull:
                self.stats.queue_overflows += 1
                self.service.notify_submit(self)  # kick a sleeping drainer
                yield Compute(backoff, tag="copier-submit")
                backoff = min(backoff * 2, _MAX_SPIN_CYCLES)
        return queue.acquire()

    # ----------------------------------------------------------------- csync

    def _range_ready(self, region):
        """True when ``region``'s bytes, per their *newest* covering tasks,
        have landed.

        Buffers are recycled, so older tasks on the same addresses are
        superseded byte-by-byte by newer submissions: walk the tasks writing
        the region newest first and only consult older tasks for bytes no
        newer task covers.  Raises :class:`CopyAborted` when the deciding
        copy for some byte was aborted before those bytes arrived.  With
        the end-to-end CRC armed, the deciding copies' segments are
        verified (and repaired) before the range is reported ready.
        """
        remaining = [(region.start, region.start + region.length)]
        deciding = []  # (task, segments) whose bytes this csync returns
        for task in self.task_index.writers(region):
            if not remaining:
                break
            next_remaining = []
            dst_start = task.dst.start
            dst_end = dst_start + task.dst.length
            descriptor = task.descriptor
            seg_bytes = descriptor.segment_bytes
            for start, end in remaining:
                lo = max(start, dst_start)
                hi = min(end, dst_end)
                if lo >= hi:
                    next_remaining.append((start, end))
                    continue
                # The segments covering [lo, hi) — the index only yields
                # tasks in the region's address space.
                first = (lo - dst_start) // seg_bytes
                last = (hi - 1 - dst_start) // seg_bytes
                segs_ready = descriptor.range_ready_segments(first, last)
                if task.state == task_mod.ABORTED:
                    if not segs_ready:
                        if task.error is not None:
                            raise task.error
                        raise CopyAborted(
                            "copy covering 0x%x aborted" % lo)
                elif not segs_ready:
                    return False
                elif task.crc_expect:
                    deciding.append((task, range(first, last + 1)))
                if start < lo:
                    next_remaining.append((start, lo))
                if hi < end:
                    next_remaining.append((hi, end))
            remaining = next_remaining
        if deciding:
            self.service.completion.verify_returned(self, deciding)
        return True

    def csync(self, va, nbytes, queue_kind="u", deadline=None):
        """Ensure [va, va+nbytes) from prior async copies is ready (§4.1).

        Fast path: one descriptor check.  Slow path: submit a Sync Task
        (raising the segments' priority) and spin-wait with exponential
        backoff, burning the client's own core — the polling cost the
        paper accounts to csync.

        With a ``deadline`` (absolute cycles), a spin that reaches it
        stops waiting: the still-unfinished covering copies are cancelled
        and :class:`~repro.copier.errors.DeadlineMissed` is raised, so
        the caller's wait — not just the copy — is bounded.
        """
        params = self.service.params
        region = Region(self.aspace, va, nbytes)
        yield Compute(params.csync_check_cycles, tag="csync")
        if self._range_ready(region):
            self._prune_index()
            return
        yield from self._sync_and_spin(region, queue_kind, deadline)
        self._prune_index()

    def csync_region(self, region, queue_kind="k", deadline=None):
        """csync for an arbitrary Region (kernel-side users)."""
        params = self.service.params
        yield Compute(params.csync_check_cycles, tag="csync")
        if self._range_ready(region):
            return
        yield from self._sync_and_spin(region, queue_kind, deadline)

    def _sync_and_spin(self, region, queue_kind, deadline=None):
        """Slow path shared by the csync flavours: submit a Sync Task and
        spin-wait with exponential backoff until the range lands."""
        params = self.service.params
        yield Compute(params.queue_submit_cycles, tag="csync")
        sync = SyncTask(self, queue_kind, region)
        sync.submitted_at = self.env.now
        queues = self.u_queues if queue_kind == "u" else self.k_queues
        queues.sync.submit(sync)
        self.stats.sync_tasks += 1
        self.service.notify_submit(self)
        spin = params.csync_spin_cycles
        while not self._range_ready(region):
            if deadline is not None and self.env.now >= deadline:
                if self._mark_cancelled(region, queue_kind):
                    self.service.notify_submit(self)
                raise DeadlineMissed(
                    "csync [0x%x, +%d) missed its deadline at cycle %d"
                    % (region.start, region.length, deadline))
            yield Compute(spin, tag="csync")
            spin = min(spin * 2, _MAX_SPIN_CYCLES)

    def csync_all(self):
        """Wait for every outstanding copy and run queued UFUNC handlers."""
        params = self.service.params
        yield Compute(params.csync_check_cycles, tag="csync")
        spin = params.csync_spin_cycles
        while any(not t.is_finished for t in self.task_index):
            yield Compute(spin, tag="csync")
            spin = min(spin * 2, _MAX_SPIN_CYCLES)
        yield from self.post_handlers()
        self._prune_index(force=True)

    def abort(self, va, nbytes, queue_kind="u"):
        """Discard still-queued copies targeting the range (§4.4)."""
        params = self.service.params
        yield Compute(params.queue_submit_cycles, tag="csync")
        sync = SyncTask(self, queue_kind, Region(self.aspace, va, nbytes),
                        abort=True)
        sync.submitted_at = self.env.now
        queues = self.u_queues if queue_kind == "u" else self.k_queues
        queues.sync.submit(sync)
        self.service.notify_submit(self)

    def post_handlers(self):
        """Run delegated UFUNC handlers from the Handler Queue (§4.1)."""
        params = self.service.params
        for entry in self.u_queues.handler.drain():
            yield Compute(params.handler_dispatch_cycles, tag="handler")
            fn, args = entry
            fn(*args)

    def _prune_index(self, force=False):
        if force or len(self.task_index) > self.PRUNE_SIZE:
            self.task_index.prune()

    # ------------------------------------------------------------- snapshot

    def stats_snapshot(self):
        """Plain-dict view of this client's state (for copierstat)."""
        snap = {
            "queues": {
                "u_copy": len(self.u_queues.copy),
                "u_sync": len(self.u_queues.sync),
                "u_handler": len(self.u_queues.handler),
                "k_copy": len(self.k_queues.copy),
                "k_sync": len(self.k_queues.sync),
            },
            "pending_tasks": len(self.pending),
            "outstanding_bytes": self.outstanding_bytes,
            "task_index": len(self.task_index),
            "scheduler_total": self.service.scheduler.client_total(self),
        }
        snap.update(self.stats.as_dict())
        return snap

    def __repr__(self):
        return "<CopierClient %s>" % self.name
