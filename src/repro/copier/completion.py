"""The completion stage: retiring tasks, unpinning, and FUNC handlers.

Everything that happens *after* a task's last byte lands (or after it is
abandoned) lives here: marking it done/aborted, removing it from the
pending list, unpinning its pages, and dispatching its post-copy FUNC —
KFUNCs run in Copier's own context, UFUNCs are delegated to the client's
Handler Queue (§4.1).  Emits ``task-finished`` trace events at the
pipeline's final boundary.

The overload-protection layer adds two retirement flavours: tasks the
submitter :meth:`cancelled <repro.copier.client.CopierClient.cancel>`
and tasks whose :attr:`deadline <repro.copier.task.CopyTask.deadline>`
passed before their bytes landed.  Both retire through
:meth:`retire_overload` — clean unpin, a ``cancelled``/``deadline-miss``
trace outcome, and the handler still dispatched (kernel FUNCs often free
resources; skipping them would leak).  :meth:`reap_overload` is the
per-iteration sweep the worker loop runs over each client's pending
list.
"""

import zlib
from operator import attrgetter

from repro.copier import task as task_mod
from repro.copier.absorption import resolve_sources
from repro.mem.faults import MemoryFault
from repro.sim import Compute
from repro.sim.trace import IntegrityMismatch, TaskFinished

_order_key = attrgetter("order_key")


class CompletionHandler:
    """Retires tasks for one :class:`~repro.copier.service.CopierService`."""

    def __init__(self, service):
        self.service = service

    # ---------------------------------------------------------------- sweep

    def sweep(self, client):
        """Finalize tasks completed out-of-band (DMA callbacks, promotion)
        without charging handler-dispatch time inline.

        The complete, unretired tasks are exactly ``client.landed``
        (entered where segments are marked, left at retirement); they
        are visited in merged order."""
        landed = client.landed
        if not landed:
            return
        client.landed = {}
        for task in sorted(landed, key=_order_key):
            if not task.is_finished and task.descriptor.all_ready:
                self.verify_integrity(client, task)
                task.state = task_mod.DONE
                task.completed_at = self.service.env.now
                client.pending.remove(task)
                client.stats.completed += 1
                self._finalize(client, task, "done")
                self.queue_handler(client, task)

    # --------------------------------------------------------------- finish

    def finish_task(self, client, task):
        """Retire a task whose segments all landed (generator)."""
        self.verify_integrity(client, task)
        task.state = task_mod.DONE
        task.completed_at = self.service.env.now
        try:
            client.pending.remove(task)
        except ValueError:
            pass  # already retired by a concurrent sweep — benign
        client.stats.completed += 1
        self._finalize(client, task, "done")
        yield from self.run_handler(client, task)

    # ------------------------------------------------------------- integrity

    def expect_crc(self, client, task, seg, crc):
        """Record segment ``seg``'s intended-bytes CRC (``COPIER_E2E_CRC=1``).

        The write supersedes any older task's expectation over the same
        destination bytes: those bytes are no longer the older task's to
        check, and re-writing them from its sources would clobber this
        write.  The superseded segments are dropped (``overlap_skips``).
        """
        task.crc_expect[seg] = crc
        region = task.dst_range_of_segment(seg)
        key = task.order_key
        for older in client.task_index.writers(region):
            expect = older.crc_expect
            if not expect or older is task or not older.order_key < key:
                continue
            dropped = [s for s in older.segments_covering(region)
                       if expect.pop(s, None) is not None]
            if dropped:
                self.service.integrity.overlap_skips += 1

    def verify_returned(self, client, deciding):
        """Check the segments a csync is about to hand back.

        ``deciding`` lists ``(task, segments)``: the ready segments of the
        newest copy covering each byte of the csync's range.  A segment
        still expecting a CRC is verified now — once the client has it,
        it may rewrite it — repaired on a mismatch, and then left out of
        the retirement check.
        """
        for task, segments in deciding:
            expect = task.crc_expect
            if not expect:
                continue
            owed = {s: expect.pop(s) for s in segments if s in expect}
            if owed:
                self._verify_segments(client, task, owed)

    def verify_integrity(self, client, task):
        """End-to-end CRC check at retirement (``COPIER_E2E_CRC=1``).

        Checks every segment whose expected CRC is still owed: not handed
        back by a csync and not superseded by a newer write.  On a
        mismatch the engines lied: the owed segments are re-executed
        synchronously on the CPU from their (re-resolved) sources, and if
        any segment ran on the DMA engine that engine is quarantined,
        reusing the persistent-failure quarantine spine.
        """
        owed = task.crc_expect
        if owed is None:
            return
        self.service.integrity.crc_checks += 1
        if owed:
            self._verify_segments(client, task, owed)

    def _verify_segments(self, client, task, owed):
        """Verify ``owed`` (``{segment: expected crc}``) against the
        destination; on any mismatch re-write every owed segment."""
        try:
            self._check_and_repair(client, task, owed)
        except MemoryFault:
            # The range was unmapped between the bytes landing and the
            # check (the same lifecycle race retire_efault covers on the
            # write path).  Nothing can read the destination any more,
            # so there is nothing left to protect — skip.
            pass

    def _check_and_repair(self, client, task, owed):
        service = self.service
        integ = service.integrity
        dst_as = task.dst.aspace
        for seg, expected in owed.items():
            region = task.dst_range_of_segment(seg)
            crc = zlib.crc32(bytes(dst_as.read(region.start,
                                               region.length))) & 0xFFFFFFFF
            if crc != expected:
                break
        else:
            return
        integ.crc_mismatches += 1
        # Synchronous CPU repair while the pins are held: re-resolve the
        # sources (absorption may still be feeding some spans from an
        # earlier pending task) and rewrite each owed segment host-side.
        use_absorption = service.dispatcher.use_absorption
        repaired_bytes = 0
        for seg in owed:
            dst_region = task.dst_range_of_segment(seg)
            src_region = task.src_range_of_segment(seg)
            spans = resolve_sources(client.pending, task, src_region,
                                    enabled=use_absorption)
            pos = dst_region.start
            for span in spans:
                dst_as.write(pos, bytes(span.aspace.read(span.va,
                                                         span.nbytes)))
                pos += span.nbytes
            repaired_bytes += dst_region.length
        service.stage_stats.seen()
        trace = service.trace
        if trace.active:
            trace.emit(IntegrityMismatch(service.env.now, task.task_id,
                                         client.name, task.length, "reexec"))
        integ.reexec_tasks += 1
        integ.reexec_bytes += repaired_bytes
        if task.dma_used:
            service.dispatcher.quarantine_dma()
            integ.quarantines += 1

    def retire_poisoned(self, client, task, exc):
        """Retire a task that consumed an uncorrectable (poisoned) frame.

        The machine-check analogue of :meth:`retire_efault`: nothing
        partial is trusted, the task retires loudly with a typed
        :class:`~repro.copier.errors.TaskPoisoned` parked on it, and the
        next csync touching the range delivers the error.  Pins release
        exactly once.
        """
        from repro.copier.errors import TaskPoisoned

        if task.is_finished:
            return
        task.state = task_mod.ABORTED
        if task.error is None:
            va = getattr(exc, "va", task.dst.start)
            task.error = TaskPoisoned(task.task_id, va, str(exc))
        task.descriptor.abort()
        try:
            client.pending.remove(task)
        except ValueError:
            pass  # not ingested yet, or already plucked — benign
        client.stats.poisoned_tasks += 1
        self.service.integrity.poisoned_tasks += 1
        self.service.stage_stats.seen()
        trace = self.service.trace
        if trace.active:
            trace.emit(IntegrityMismatch(self.service.env.now, task.task_id,
                                         client.name, task.length,
                                         "poisoned"))
        self._finalize(client, task, "poisoned")
        self.queue_handler(client, task)

    def abort_task(self, client, task):
        """Discard a pending task (abort Sync Task path, §4.4)."""
        task.state = task_mod.ABORTED
        task.descriptor.abort()
        client.pending.remove(task)
        client.stats.aborted += 1
        self._finalize(client, task, "aborted")
        yield from self.run_handler(client, task)

    def drop_task(self, client, task, exc):
        """Unresolvable fault or failed security check (§4.5.4): drop the
        task and signal the process, exactly like the in-context OOM-kill
        or SIGSEGV would."""
        from repro.copier.errors import CopierSecurityError

        task.state = task_mod.ABORTED
        task.descriptor.abort()
        client.stats.dropped += 1
        self.service.tasks_dropped += 1
        self._finalize(client, task, "dropped")
        if client.sigsegv_handler is not None:
            client.sigsegv_handler(task, exc)
        elif client.process is not None:
            client.process.kill(CopierSecurityError(str(exc)))

    # ------------------------------------------------------------- overload

    def retire_overload(self, client, task, outcome):
        """Retire a cancelled or deadline-expired task (non-generator).

        ``outcome`` is ``"cancelled"`` or ``"deadline-miss"``.  The task
        may be anywhere in its lifecycle — still on a ring, pending, or
        partially copied — so the descriptor is aborted (csync on the
        range raises :class:`~repro.copier.errors.CopyAborted` rather
        than spinning forever) and pins are released exactly once.  The
        FUNC still dispatches, uncharged, like the sweep path: kernel
        handlers frequently release buffers and must not be skipped.
        """
        task.state = task_mod.ABORTED
        task.descriptor.abort()
        try:
            client.pending.remove(task)
        except ValueError:
            pass  # not ingested yet, or already plucked — benign
        overload = self.service.admission.stats
        if outcome == "cancelled":
            client.stats.cancelled += 1
            overload.cancelled += 1
        else:
            client.stats.deadline_misses += 1
            overload.deadline_misses += 1
        self._finalize(client, task, outcome)
        self.queue_handler(client, task)

    def reap_overload(self, client):
        """Retire every cancelled/expired task in the pending list;
        returns how many were retired (the worker's did-work signal).
        Returns at once while the client holds no unretired task with a
        deadline or a cancel mark (``client.overload_marked``)."""
        if not client.overload_marked:
            return 0
        now = self.service.env.now
        reaped = 0
        for task in list(client.pending):
            if task.is_finished:
                continue
            if task.cancelled:
                self.retire_overload(client, task, "cancelled")
                reaped += 1
            elif task.expired(now):
                self.retire_overload(client, task, "deadline-miss")
                reaped += 1
        return reaped

    # ------------------------------------------------------------- lifecycle

    def retire_efault(self, client, task, exc):
        """Retire a task whose source/dest was unmapped mid-flight.

        The io_uring answer to buffer-lifetime races: the task fails with
        a typed EFAULT rather than crashing the service or killing the
        process (the unmap was a legal, if rude, application action).
        The error is parked on the task and re-raised by the next csync
        whose range depends on it.  Pins release exactly once — unpin of
        a lazily-torn-down page reclaims its deferred frame.
        """
        from repro.copier.errors import TaskEFault

        if task.is_finished:
            return
        task.state = task_mod.ABORTED
        if task.error is None:
            va = getattr(exc, "va", task.src.start)
            task.error = TaskEFault(task.task_id, va, str(exc))
        task.descriptor.abort()
        try:
            client.pending.remove(task)
        except ValueError:
            pass  # not ingested yet, or already plucked — benign
        client.stats.efault_tasks += 1
        self.service.lifecycle.efault_tasks += 1
        self._finalize(client, task, "efault")
        self.queue_handler(client, task)

    def reap_exit(self, client, task, outcome="exit-reap"):
        """Force-complete a task whose owning process is exiting.

        The IDXD cancel-on-exit path: descriptor aborted (any stranded
        waiter wakes), pins released so deferred frames reclaim, and only
        *kernel* FUNCs still dispatch — they free kernel resources; the
        process that would consume a UFUNC no longer exists.
        """
        task.state = task_mod.ABORTED
        task.descriptor.abort()
        try:
            client.pending.remove(task)
        except ValueError:
            pass
        client.stats.exit_reaped += 1
        self.service.lifecycle.exit_reaped += 1
        self._finalize(client, task, outcome)
        if task.handler is not None and task.handler[0] == "kfunc":
            self.queue_handler(client, task)

    # ---------------------------------------------------------------- pages

    def unpin(self, task):
        if task.pinned:
            task.src.aspace.unpin(task.src.start, task.src.length)
            task.dst.aspace.unpin(task.dst.start, task.dst.length)
            task.pinned = False
            task.runs = None

    # -------------------------------------------------------------- handlers

    def queue_handler(self, client, task):
        """Dispatch the FUNC without charging Copier time (sweep path)."""
        if task.handler is None:
            return
        kind, fn, args = task.handler
        if kind == "kfunc":
            fn(*args)
        else:
            client.u_queues.handler.submit((fn, args))

    def run_handler(self, client, task):
        """Dispatch the FUNC, charging handler-dispatch cycles (generator)."""
        if task.handler is None:
            return
        kind, fn, args = task.handler
        yield Compute(self.service.params.handler_dispatch_cycles,
                      tag="copier-mgmt")
        if kind == "kfunc":
            fn(*args)
        else:
            client.u_queues.handler.submit((fn, args))

    # ----------------------------------------------------------------- trace

    def _finalize(self, client, task, outcome):
        """Post-retirement bookkeeping shared by every path: release the
        pins, settle the outstanding-byte meter, count global progress
        (the watchdog's liveness signal), emit ``task-finished`` and fire
        the task's ``on_retire`` hook (exactly once — the async facade
        parks coroutine futures on it).  The task is reported to the
        client's index for its next prune, and leaves ``client.landed``
        and the client's count of deadline'd or cancel-marked tasks."""
        self.unpin(task)
        task.crc_expect = None  # nothing left to check once retired
        client.outstanding_bytes = max(0,
                                       client.outstanding_bytes - task.length)
        if task.deadline is not None or task.cancelled:
            client.overload_marked -= 1
        client.landed.pop(task, None)
        client.task_index.retire(task)
        service = self.service
        service.tasks_retired += 1
        now = service.env.now
        service.stage_stats.finished(now, task.task_id, outcome)
        trace = service.trace
        if trace.active:
            trace.emit(TaskFinished(now, task.task_id, client.name, outcome,
                                    task.length))
        hook, task.on_retire = task.on_retire, None
        if hook is not None:
            hook(task, outcome)
