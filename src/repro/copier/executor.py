"""The execution stage: ingest, fault promotion, and round execution.

This layer does the Copier thread's actual work each iteration:

* **ingest** — move published Copy Tasks from the CSH rings into the
  pending list, with security checks, proactive fault handling and page
  pinning (§4.5.4);
* **sync handling** — serve Sync Tasks: aborts, and out-of-order
  *promotion* of the segments a csync is spinning on (§4.2.2);
* **round execution** — run the piggyback dispatcher's plans, pairing the
  AVX stream with DMA runs and writing resolved source spans (§4.3–§4.4).

Retirement of finished tasks is delegated to
:class:`repro.copier.completion.CompletionHandler`.

The executor is also where the copy path degrades gracefully under
faults (:mod:`repro.faultinject`): transient DMA submit failures are
retried with exponential backoff, persistent failures and mid-transfer
aborts re-route the affected runs to the AVX stream (``engine-fallback``
on the trace bus, with DMA quarantined after repeated persistent
failures), and transient page-pin failures during ingest retry before a
task is ever dropped.  Every absorbed fault is recorded in the service's
:class:`~repro.faultinject.RecoveryStats`.
"""

import zlib

from repro.copier.absorption import resolve_sources
from repro.copier.errors import (DMAAbortError, DMASubmitError,
                                 FramePoisonError, PagePinError)
from repro.copier.task import Region
from repro.hw.dma import DMASubtask
from repro.mem.addrspace import copy_range, copy_runs, runs_alias
from repro.mem.faults import MemoryFault, SegmentationFault
from repro.mem.phys import OutOfMemory
from repro.sim import Compute, Timeout, WaitEvent
from repro.sim.trace import (DmaCompleted, EngineFallback, RoundPlanned,
                             SegmentExecuted, TaskIngested)

_INGEST_CYCLES_PER_TASK = 20
_AVX_SEGMENT_OVERHEAD = 5

#: DMA submit retry budget before the round falls back to the CPU engine.
_MAX_DMA_SUBMIT_RETRIES = 3
_DMA_RETRY_BACKOFF_CYCLES = 200

#: Exhausted-retry episodes tolerated before DMA is quarantined entirely.
_DMA_QUARANTINE_EPISODES = 2

#: Page-pin retry budget before the task is dropped as unresolvable.
_MAX_PIN_RETRIES = 6
_PIN_RETRY_BACKOFF_CYCLES = 150


class CopyExecutor:
    """Executes copy work for one :class:`~repro.copier.service.
    CopierService`; shared by all of its worker threads."""

    def __init__(self, service, completion):
        self.service = service
        self.completion = completion

    # --------------------------------------------------------------- ingest

    def ingest(self, client):
        """Move published Copy Tasks into the pending list with proactive
        fault handling (§4.5.4).  Returns cycles to charge."""
        cost = 0
        for queue in (client.k_queues.copy, client.u_queues.copy):
            for task in queue.drain():
                cost += _INGEST_CYCLES_PER_TASK
                cost += self._prepare_task(client, task)
        return cost

    def _prepare_task(self, client, task):
        """Security checks, proactive faulting, pinning, translation."""
        params = self.service.params
        cost = 0

        # Cancelled or already-expired tasks retire here, before any pin
        # or page work is spent on bytes nobody will consume.
        if task.cancelled:
            self.completion.retire_overload(client, task, "cancelled")
            return cost
        if task.expired(self.service.env.now):
            self.completion.retire_overload(client, task, "deadline-miss")
            return cost
        try:
            task.src.aspace.check_range(task.src.start, task.src.length, write=False)
            task.dst.aspace.check_range(task.dst.start, task.dst.length, write=True)
        except SegmentationFault as exc:
            # A range that *was* mapped and disappeared is a lifecycle
            # race (munmap beat the ingest) — EFAULT, not SIGSEGV.  A
            # never-mapped range is an application bug and still kills.
            if (task.src.aspace.was_unmapped(task.src.start, task.src.length)
                    or task.dst.aspace.was_unmapped(task.dst.start,
                                                    task.dst.length)):
                self.completion.retire_efault(client, task, exc)
            else:
                self.completion.drop_task(client, task, exc)
            return cost
        try:
            resolutions = []
            resolutions += task.src.aspace.ensure_mapped(
                task.src.start, task.src.length, write=False)
            resolutions += task.dst.aspace.ensure_mapped(
                task.dst.start, task.dst.length, write=True)
        except OutOfMemory as exc:
            self.completion.drop_task(client, task, exc)
            return cost
        for kind in resolutions:
            cost += params.page_alloc_cycles
            if kind == "cow_copy":
                cost += params.cpu_copy_cycles(4096, engine="avx")
        stats = self.service.fault_stats
        attempts = 0
        while True:
            try:
                self._pin_task(task)
                break
            except PagePinError as exc:
                stats.pin_failures += 1
                attempts += 1
                if attempts > _MAX_PIN_RETRIES:
                    self.completion.drop_task(client, task, exc)
                    return cost
                cost += _PIN_RETRY_BACKOFF_CYCLES
        if attempts:
            stats.pin_retries_ok += 1
        if self.service.e2e_crc:
            # Arm the end-to-end checksum at prepare: every completed
            # segment records its intended-bytes CRC, checked when a
            # csync hands the segment back or, failing that, at
            # retirement.
            task.crc_expect = {}
        client.pending.add(task)
        service = self.service
        now = service.env.now
        service.stage_stats.ingested(now, task.task_id)
        trace = service.trace
        if trace.active:
            trace.emit(TaskIngested(now, task.task_id, client.name))
        return cost

    def _pin_task(self, task):
        """Pin both ranges, leaving no partial pin behind on failure."""
        inj = self.service.faults
        if inj.armed and inj.fire("pin_fail"):
            raise PagePinError("transient pin failure on source range")
        src_as, dst_as = task.src.aspace, task.dst.aspace
        generations = (src_as.generation, dst_as.generation)
        src_runs = src_as.pin(task.src.start, task.src.length)
        try:
            if inj.armed and inj.fire("pin_fail"):
                raise PagePinError("transient pin failure on destination range")
        except PagePinError:
            src_as.unpin(task.src.start, task.src.length)
            raise
        dst_runs = dst_as.pin(task.dst.start, task.dst.length, write=True)
        task.pinned = True
        # Keep the pin's translation for the data path unless a pin
        # itself changed a mapping, the copy overlaps itself in frames,
        # or a side is the per-page reference class (it translates
        # every access on purpose).
        if (src_as.generation, dst_as.generation) == generations \
                and not (src_as.page_walk or dst_as.page_walk) \
                and not (src_as.phys is dst_as.phys
                         and runs_alias(src_runs, dst_runs)):
            task.runs = (src_runs, dst_runs) + generations

    # ------------------------------------------------------------ sync path

    def handle_sync(self, client, sync, _depth=0):
        # The Copy Task a sync refers to may have been published *after*
        # this iteration's ingest pass swept the client's rings; re-ingest
        # so promotion/abort sees it (queue order guarantees the copy was
        # acquired before the sync that names it).
        cost = self.ingest(client)
        if cost:
            yield Compute(cost, tag="copier-mgmt")
        if sync.abort:
            # Only discard copies submitted *before* the abort: buffers are
            # recycled, and a newer task on the same range must survive.
            for task in client.pending.writing(sync.region):
                if task.task_id < sync.task_id:
                    yield from self.completion.abort_task(client, task)
            return
        yield from self._promote_region(client, sync.region, _depth=_depth)

    def serve_other_syncs(self, busy_client):
        """Between slices of a bulk promotion, serve other clients' Sync
        Tasks so one client's huge csync cannot monopolize the thread
        (the copy-slice guarantee of §4.5.3)."""
        for kind in ("k", "u"):
            for other in list(self.service.clients):
                if other is busy_client:
                    continue
                queues = other.k_queues if kind == "k" else other.u_queues
                for sync in queues.sync.drain():
                    yield from self.handle_sync(other, sync, _depth=1)

    def _promote_region(self, client, region, _depth=0):
        """Out-of-order execution of the segments a Sync Task needs (§4.2.2)."""
        service = self.service
        if _depth > 16:
            return
        for task in client.pending.writing(region):
            segs = [s for s in task.segments_covering(region)
                    if not task.descriptor.is_ready(s)]
            if not segs:
                continue
            task.promoted = True
            needed = len(segs) * task.descriptor.segment_bytes
            hazards = [d for d in client.pending.dependencies_of(task)
                       if not d.is_finished]
            if (needed >= service.params.i_piggyback_threshold and not hazards
                    and service.dispatcher.dma_available):
                # Large promotion with no reordering hazards: run the full
                # piggyback dispatcher so DMA still helps (§4.3) — but in
                # copy-slice-bounded rounds, serving other clients' syncs
                # in between so the bulk csync cannot starve them.
                budget = service.scheduler.copy_slice_bytes
                progressed = True
                while (progressed and not task.is_finished
                       and not task.descriptor.all_ready):
                    plan = service.dispatcher.build_round(
                        client.pending, budget_bytes=budget, head=task)
                    if plan is None or not (plan.avx_jobs or plan.dma_runs):
                        progressed = False
                        break
                    yield from self.execute_plan(client, plan)
                    if _depth == 0:
                        yield from self.serve_other_syncs(client)
                if task.is_finished or task.descriptor.all_ready:
                    continue
            yield from self._execute_segments(client, task, segs,
                                              _depth=_depth)

    def _execute_segments(self, client, task, segments, _depth=0):
        """Copy specific segments now, honoring WAR/WAW hazards recursively."""
        service = self.service
        params = service.params
        for seg in segments:
            if task.is_finished or task.descriptor.is_ready(seg):
                continue
            dst_region = task.dst_range_of_segment(seg)
            src_region = task.src_range_of_segment(seg)
            index = client.task_index
            candidates = dict.fromkeys(index.readers(dst_region))
            candidates.update(dict.fromkeys(index.writers(dst_region)))
            if not service.dispatcher.use_absorption:
                candidates.update(dict.fromkeys(index.writers(src_region)))
            for earlier in client.pending.earlier(task, candidates):
                if earlier.is_finished:
                    continue
                if earlier.src.overlaps(dst_region):
                    hazard = earlier.segments_covering_src(dst_region)
                elif earlier.dst.overlaps(dst_region):
                    hazard = earlier.segments_covering(dst_region)
                elif not service.dispatcher.use_absorption and \
                        earlier.dst.overlaps(src_region):
                    hazard = earlier.segments_covering(src_region)
                else:
                    continue
                yield from self._execute_segments(
                    client, earlier,
                    [s for s in hazard if not earlier.descriptor.is_ready(s)],
                    _depth=_depth + 1)
            spans = resolve_sources(client.pending, task, src_region,
                                    enabled=service.dispatcher.use_absorption)
            nbytes = dst_region.length
            inj = service.faults
            if inj.armed:
                stall = inj.stall_cycles("engine_stall")
                if stall:
                    yield Timeout(stall)
            cycles = int(nbytes / params.avx_bytes_per_cycle) + _AVX_SEGMENT_OVERHEAD
            yield Compute(cycles, tag="copier-copy")
            try:
                self.write_spans(client, task, seg, dst_region, spans)
            except MemoryFault as exc:
                # The range was unmapped after ingest (it passed the
                # security check then): a lifecycle race, not a bug.
                self.completion.retire_efault(client, task, exc)
                return
            except FramePoisonError as exc:
                self.completion.retire_poisoned(client, task, exc)
                return
        if not task.is_finished and task.descriptor.all_ready:
            yield from self.completion.finish_task(client, task)

    # ------------------------------------------------------------ execution

    def next_head(self, client):
        """The task a round for ``client`` starts at: the first pending
        non-lazy task, else the first lazy one whose period elapsed;
        ``None`` when nothing is runnable."""
        head = client.pending.runnable_head()
        if head is not None:
            return head
        now = self.service.env.now
        for t in client.pending:
            if t.lazy and t.lazy_deadline is not None and t.lazy_deadline <= now:
                return t
        return None

    def execute_plan(self, client, plan):
        service = self.service
        params = service.params
        service.stage_stats.planned()
        trace = service.trace
        if trace.active:
            trace.emit(RoundPlanned(service.env.now, client.name, plan.mode,
                                    plan.avx_bytes, plan.dma_bytes,
                                    len(plan.tasks)))
        inj = service.faults
        stats = service.fault_stats
        dma_done = None
        fallback_reason = None
        dma_runs = plan.dma_runs
        if dma_runs:
            # DMA needs physical addresses: walk (or ATCache-hit) the pages
            # of each run before ringing the doorbell (§4.3).  A run whose
            # mapping vanished since ingest (munmap racing the round)
            # EFAULTs its task here and is excluded from the batch.
            translate = 0
            live_runs = []
            for run in dma_runs:
                if run.task.is_finished:
                    continue
                try:
                    cycles, _h, _m = service.atcache.translation_cost(
                        run.task.src.aspace, run.src_va, run.nbytes,
                        contiguous=True)
                    translate += cycles
                    cycles, _h, _m = service.atcache.translation_cost(
                        run.task.dst.aspace, run.dst_va, run.nbytes, write=True,
                        contiguous=True)
                    translate += cycles
                except MemoryFault as exc:
                    self.completion.retire_efault(client, run.task, exc)
                    continue
                live_runs.append(run)
            dma_runs = live_runs
            yield Compute(params.dma_submit_cycles + translate,
                          tag="copier-copy")
        if dma_runs:
            batch = []
            for run in dma_runs:
                batch.append(DMASubtask(
                    run.task.src.aspace, run.src_va,
                    run.task.dst.aspace, run.dst_va, run.nbytes,
                    on_done=self._make_dma_callback(client, run)))
            # Transient submit failures retry with exponential backoff;
            # a persistent failure re-routes the runs to the AVX stream.
            attempts = 0
            backoff = _DMA_RETRY_BACKOFF_CYCLES
            while True:
                try:
                    dma_done = service.dma.submit(batch)
                    if attempts:
                        stats.dma_submit_retries_ok += 1
                    break
                except DMASubmitError:
                    stats.dma_submit_failures += 1
                    attempts += 1
                    if attempts > _MAX_DMA_SUBMIT_RETRIES:
                        stats.dma_submit_exhausted += 1
                        fallback_reason = "dma-submit"
                        if stats.dma_submit_exhausted >= _DMA_QUARANTINE_EPISODES:
                            service.dispatcher.quarantine_dma()
                        break
                    yield Timeout(backoff)
                    backoff *= 2
        for job in plan.avx_jobs:
            if job.task.is_finished or job.task.descriptor.is_ready(job.seg_index):
                continue
            if inj.armed:
                stall = inj.stall_cycles("engine_stall")
                if stall:
                    yield Timeout(stall)
            cycles = int(job.nbytes / params.avx_bytes_per_cycle) \
                + _AVX_SEGMENT_OVERHEAD
            yield Compute(cycles, tag="copier-copy")
            dst_region = Region(job.task.dst.aspace, job.dst_va, job.nbytes)
            try:
                self.write_spans(client, job.task, job.seg_index, dst_region,
                                 job.spans)
            except MemoryFault as exc:
                self.completion.retire_efault(client, job.task, exc)
            except FramePoisonError as exc:
                self.completion.retire_poisoned(client, job.task, exc)
        if dma_done is not None:
            try:
                yield WaitEvent(dma_done)
            except DMAAbortError:
                # The device aborted the batch mid-transfer: the aborted
                # subtasks committed nothing, so their segments are simply
                # still not ready and the fallback below re-copies them.
                stats.dma_aborts += 1
                fallback_reason = "dma-abort"
            yield Compute(params.dma_complete_check_cycles, tag="copier-copy")
        if fallback_reason is not None:
            yield from self._fallback_runs(client, dma_runs,
                                           fallback_reason)
        for task in plan.tasks:
            if not task.is_finished and task.descriptor.all_ready:
                yield from self.completion.finish_task(client, task)

    def _fallback_runs(self, client, runs, reason):
        """Re-execute a DMA run's unfinished segments on the AVX stream.

        The device committed nothing for aborted subtasks (and a lost
        doorbell committed nothing at all), so re-copying whole segments
        here can never tear data — segments are only marked ready after
        their bytes land via exactly one engine.
        """
        service = self.service
        params = service.params
        stats = service.fault_stats
        trace = service.trace
        for run in runs:
            redo = [job for job in run.jobs
                    if not run.task.is_finished
                    and not run.task.descriptor.is_ready(job.seg_index)]
            if not redo:
                continue
            nbytes = sum(job.nbytes for job in redo)
            stats.engine_fallbacks += 1
            stats.fallback_bytes += nbytes
            service.stage_stats.seen()
            if trace.active:
                trace.emit(EngineFallback(service.env.now, run.task.task_id,
                                          client.name, nbytes, reason))
            for job in redo:
                if run.task.is_finished:
                    break
                cycles = int(job.nbytes / params.avx_bytes_per_cycle) \
                    + _AVX_SEGMENT_OVERHEAD
                yield Compute(cycles, tag="copier-copy")
                dst_region = job.task.dst_range_of_segment(job.seg_index)
                try:
                    self.write_spans(client, job.task, job.seg_index,
                                     dst_region, job.spans)
                except MemoryFault as exc:
                    self.completion.retire_efault(client, job.task, exc)
                    break
                except FramePoisonError as exc:
                    self.completion.retire_poisoned(client, job.task, exc)
                    break

    def _make_dma_callback(self, client, run):
        service = self.service

        def on_done(_subtask):
            if not run.task.is_finished:
                # Run jobs are consecutive segments of one task by
                # construction — retire them with one bitmap update so
                # csync waiters fire once per run, not once per segment.
                run.task.descriptor.mark_range(run.jobs[0].seg_index,
                                               run.jobs[-1].seg_index)
                if run.task.descriptor.all_ready:
                    client.landed[run.task] = None
                run.task.dma_used = True
                if run.task.crc_expect is not None:
                    # Checksum the intended bytes from the (pinned, still
                    # pristine) source — a device that corrupted the
                    # destination cannot also doctor this checksum.
                    for job in run.jobs:
                        src = run.task.src_range_of_segment(job.seg_index)
                        crc = zlib.crc32(bytes(src.aspace.read(
                            src.start, src.length))) & 0xFFFFFFFF
                        self.completion.expect_crc(client, run.task,
                                                   job.seg_index, crc)
            client.stats.bytes_copied += run.nbytes
            service.scheduler.charge(client, run.nbytes)
            now = service.env.now
            service.stage_stats.executed(now, run.task.task_id)
            trace = service.trace
            if trace.active:
                trace.emit(DmaCompleted(now, run.task.task_id, run.nbytes,
                                        len(run.jobs)))
        return on_done

    def write_spans(self, client, task, seg_index, dst_region, spans):
        service = self.service
        dst_as = task.dst.aspace
        inj = service.faults
        if inj.armed and inj.fire("frame_poison"):
            # Uncorrectable memory error under the copy: loud, typed,
            # nothing written — the caller retires the task poisoned.
            raise FramePoisonError(dst_region.start)
        torn = inj.armed and inj.fire("engine_torn_write")
        if len(spans) == 1:
            # Common case: one resolved span — move it run-to-run with no
            # intermediate buffer (snapshot semantics are preserved by
            # copy_range's alias check, and by the pin keeping no runs
            # for a task whose frames alias).
            span = spans[0]
            if task.crc_expect is not None:
                self.completion.expect_crc(
                    client, task, seg_index,
                    zlib.crc32(bytes(span.aspace.read(
                        span.va, span.nbytes))) & 0xFFFFFFFF)
            # A silent torn write lands half the segment, and the engine
            # still reports success below.  Only the E2E CRC can tell.
            nbytes = span.nbytes // 2 if torn else span.nbytes
            src = task.src
            runs = task.pinned_runs() if span.aspace is src.aspace else None
            offset = span.va - src.start
            if runs is not None and 0 <= offset <= src.length - span.nbytes:
                # The span lies in the task's own pinned source: slice
                # the runs the pin translated instead of walking both
                # ranges again.
                copy_runs(src.aspace.phys, runs[0], offset, dst_as.phys,
                          runs[1], dst_region.start - task.dst.start, nbytes)
            else:
                copy_range(span.aspace, span.va, dst_as, dst_region.start,
                           nbytes)
            absorbed = span.nbytes if span.absorbed else 0
        else:
            data = bytearray(dst_region.length)
            view = memoryview(data)
            pos = 0
            absorbed = 0
            for span in spans:
                span.aspace.read_into(span.va, view[pos : pos + span.nbytes])
                pos += span.nbytes
                if span.absorbed:
                    absorbed += span.nbytes
            if task.crc_expect is not None:
                self.completion.expect_crc(client, task, seg_index,
                                           zlib.crc32(data) & 0xFFFFFFFF)
            if torn:
                dst_as.write(dst_region.start,
                             bytes(view[:dst_region.length // 2]))
            else:
                dst_as.write(dst_region.start, data)
        descriptor = task.descriptor
        descriptor.mark(seg_index)
        if descriptor.all_ready:
            client.landed[task] = None
        task.absorbed_bytes += absorbed
        client.stats.bytes_copied += dst_region.length
        client.stats.bytes_absorbed += absorbed
        service.scheduler.charge(client, dst_region.length)
        now = service.env.now
        if task.started_at is None:
            task.started_at = now
        service.stage_stats.executed(now, task.task_id)
        trace = service.trace
        if trace.active:
            trace.emit(SegmentExecuted(now, task.task_id, seg_index,
                                       dst_region.length, "avx", absorbed))
