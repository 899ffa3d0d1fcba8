"""Hybrid subtasks and the piggyback-based hardware dispatcher (§4.3).

The dispatcher plans *rounds*: it takes the head of a client's pending
list, optionally fuses adjacent independent tasks (e-piggyback, for tasks
below the 12 KB i-piggyback threshold), splits the work into segment jobs,
finds physically-contiguous DMA-candidate runs, and pairs DMA work with
AVX work so both units finish together — DMA riding piggyback on the AVX
copy instead of the CPU waiting for it.
"""

from repro.copier.absorption import (SourceSpan, _nearest_producer,
                                     absorbed_bytes, resolve_round_sources)
from repro.copier.task import Region
from repro.mem.addrspace import slice_runs
from repro.mem.faults import MemoryFault
from repro.mem.phys import PAGE_SIZE


class SegmentJob:
    """One segment of one task, with resolved source spans."""

    __slots__ = ("task", "seg_index", "dst_va", "nbytes", "spans")

    def __init__(self, task, seg_index, spans):
        self.task = task
        self.seg_index = seg_index
        # task.dst_range_of_segment(seg_index), without the Region.
        seg = task.descriptor.segment_bytes
        dst = task.dst
        start = dst.start + seg_index * seg
        self.dst_va = start
        self.nbytes = min(seg, dst.start + dst.length - start)
        self.spans = spans

    @property
    def absorbed(self):
        return absorbed_bytes(self.spans)

    @property
    def plain(self):
        """True when the job copies straight from its own task's source
        (one unabsorbed span) — the precondition for DMA eligibility."""
        return len(self.spans) == 1 and not self.spans[0].absorbed

    def __repr__(self):
        return "SegJob(task=%d seg=%d %dB)" % (
            self.task.task_id, self.seg_index, self.nbytes)


class DMARun:
    """A physically-contiguous run of consecutive plain segment jobs."""

    __slots__ = ("task", "jobs", "src_va", "dst_va", "nbytes")

    def __init__(self, task, jobs):
        self.task = task
        self.jobs = jobs
        self.src_va = jobs[0].spans[0].va
        self.dst_va = jobs[0].dst_va
        self.nbytes = sum(j.nbytes for j in jobs)

    def __repr__(self):
        return "DMARun(task=%d, %d jobs, %dB)" % (
            self.task.task_id, len(self.jobs), self.nbytes)


class RoundPlan:
    """The dispatcher's output: what runs where in this round."""

    def __init__(self, tasks, avx_jobs, dma_runs, mode):
        self.tasks = tasks
        self.avx_jobs = avx_jobs
        self.dma_runs = dma_runs
        self.mode = mode  # "i-piggyback", "e-piggyback" or "avx-only"

    @property
    def avx_bytes(self):
        return sum(j.nbytes for j in self.avx_jobs)

    @property
    def dma_bytes(self):
        return sum(r.nbytes for r in self.dma_runs)

    @property
    def total_bytes(self):
        return self.avx_bytes + self.dma_bytes


def _races(run, jobs):
    """True when a job of another task reads or writes bytes that ``run``
    writes, or writes bytes that ``run`` reads."""
    for job in run.jobs:
        dst = job.task.dst_range_of_segment(job.seg_index)
        span = job.spans[0]
        src = Region(span.aspace, span.va, span.nbytes)
        for other in jobs:
            if other.task is job.task:
                continue
            other_dst = other.task.dst_range_of_segment(other.seg_index)
            if (other_dst.overlaps(dst) or other_dst.overlaps(src)
                    or any(Region(s.aspace, s.va, s.nbytes).overlaps(dst)
                           for s in other.spans)):
                return True
    return False


class Dispatcher:
    """Builds round plans from a client's pending list."""

    def __init__(self, params, use_dma=True, use_absorption=True, atcache=None):
        self.params = params
        self.use_dma = use_dma
        self.use_absorption = use_absorption
        self.atcache = atcache
        self.dma_quarantined = False
        self.rounds_planned = 0
        self.bytes_to_dma = 0
        self.bytes_to_avx = 0
        self.bytes_absorbed = 0

    @property
    def dma_available(self):
        """DMA is configured on *and* has not been quarantined."""
        return self.use_dma and not self.dma_quarantined

    def quarantine_dma(self):
        """Stop assigning DMA runs after persistent device failure.

        The executor calls this once submit retries have been exhausted
        repeatedly; every subsequent round runs AVX-only, which is the
        paper's degradation story — the service keeps its asynchronous
        contract on the engines that still work.
        """
        self.dma_quarantined = True

    #: Assumed DMA-run size when estimating translation amortization.
    _EST_RUN_BYTES = 16 * 1024

    def _translate_cost_per_byte(self):
        """Expected software-translation cycles per DMA byte.

        DMA runs are physically contiguous, so only the run's first page
        needs a full walk (~240 cyc) — the rest verify at hit cost.  The
        live ATCache hit rate discounts even the first walk for recycled
        buffers (the ≥75 % recurrence the paper measures in Redis), which
        is why DMA's share grows with buffer repetition (Fig. 9)."""
        p = self.params
        hit = self.atcache.hit_rate if self.atcache is not None else 0.0
        first = hit * p.atcache_hit_cycles + (1.0 - hit) * p.page_translate_cycles
        pages = max(1, self._EST_RUN_BYTES // PAGE_SIZE)
        per_run = first + (pages - 1) * p.atcache_hit_cycles
        return 2.0 * per_run / self._EST_RUN_BYTES

    # ------------------------------------------------------------- planning

    def build_round(self, pending, budget_bytes, head=None):
        """Plan one round starting at ``head`` (default: first runnable task).

        Returns a :class:`RoundPlan` or ``None`` when nothing is runnable.
        """
        params = self.params
        if head is None:
            head = pending.runnable_head()
        if head is None:
            return None

        prereqs = self._lazy_prerequisites(pending, head)
        tasks = prereqs + [head]
        mode = "i-piggyback" if head.length >= params.i_piggyback_threshold \
            else "e-piggyback"
        if mode == "e-piggyback":
            tasks.extend(self._fusable_followers(pending, tasks, budget_bytes))

        jobs = []
        budget = budget_bytes
        absorbing = self.use_absorption
        for task in tasks:
            # A task no earlier unfinished task writes into reads every
            # segment from its own source: one lookup decides them all.
            src = task.src
            fed = (absorbing
                   and _nearest_producer(pending, task, src) is not None)
            seg_bytes = task.descriptor.segment_bytes
            for seg_index in task.segments_pending():
                if budget <= 0:
                    break
                if fed:
                    # Only prerequisites run ahead of a reader in this
                    # round.
                    spans = resolve_round_sources(
                        pending, task, task.src_range_of_segment(seg_index),
                        prereqs, enabled=True)
                else:
                    offset = seg_index * seg_bytes
                    spans = [SourceSpan(src.aspace, src.start + offset,
                                        min(seg_bytes, src.length - offset),
                                        False)]
                job = SegmentJob(task, seg_index, spans)
                jobs.append(job)
                budget -= job.nbytes
            if budget <= 0:
                break
        if not jobs:
            return RoundPlan(tasks, [], [], mode)

        dma_runs = self._assign_dma(jobs) if self.dma_available else []
        if prereqs:
            # A DMA run overlaps the whole AVX stream, so a run touching
            # bytes another round task touches would break the program
            # order a lazy prerequisite exists to keep: run it on AVX.
            # (Without prerequisites no two round tasks conflict: fused
            # followers depend on no unfinished task.)
            dma_runs = [r for r in dma_runs if not _races(r, jobs)]
        dma_job_ids = {id(j) for run in dma_runs for j in run.jobs}
        avx_jobs = [j for j in jobs if id(j) not in dma_job_ids]

        self.rounds_planned += 1
        plan = RoundPlan(tasks, avx_jobs, dma_runs, mode)
        self.bytes_to_dma += plan.dma_bytes
        self.bytes_to_avx += plan.avx_bytes
        self.bytes_absorbed += sum(j.absorbed for j in jobs)
        return plan

    def _lazy_prerequisites(self, pending, head):
        """Lazy tasks that must materialize before ``head`` runs.

        With absorption on, RAW producers are read *through* (that is the
        point of lazy tasks, §4.4) — only WAR/WAW hazards force execution.
        With absorption off, RAW producers must execute too.

        The closure is transitive: a forced prerequisite may itself have
        lazy hazards that must run even earlier (e.g. head overwrites the
        source of lazy L2, and L2 overwrites the source of lazy L1 — L1
        must read before L2 writes before head writes).
        """
        prereqs = []
        seen = {head.task_id}
        stack = [head]
        while stack:
            current = stack.pop()
            for dep in pending.dependencies_of(current):
                if not dep.lazy or dep.is_finished or dep.task_id in seen:
                    continue
                war_waw = (current.dst.overlaps(dep.src)
                           or current.dst.overlaps(dep.dst))
                raw = current.src.overlaps(dep.dst)
                if war_waw or (raw and not self.use_absorption):
                    seen.add(dep.task_id)
                    prereqs.append(dep)
                    stack.append(dep)
        prereqs.sort(key=lambda t: t.order_key)
        return prereqs

    def _fusable_followers(self, pending, round_tasks, budget_bytes):
        """e-piggyback: adjacent tasks with no data dependency on the round.

        Followers come after the round's last task in merged order, so
        the walk starts there rather than at the head of the list."""
        params = self.params
        fused = []
        total = sum(t.length for t in round_tasks)
        in_round = set(round_tasks)
        for task in pending.following(round_tasks[-1]):
            if task in in_round or task.lazy or task.is_finished:
                continue
            if total + task.length > max(budget_bytes, params.i_piggyback_threshold):
                break
            # No data dependency on ANY unfinished earlier task — not just
            # the round's tasks: fusing would also hop over skipped (lazy)
            # tasks it conflicts with, reordering a WAR/WAW hazard.
            if any(not dep.is_finished
                   for dep in pending.dependencies_of(task)):
                break
            fused.append(task)
            total += task.length
        return fused

    # ----------------------------------------------------- DMA assignment

    def _assign_dma(self, jobs):
        """Pick DMA runs from the *latter* candidates, balancing unit times.

        Latter segments/tasks have the longest Copy-Use windows (§4.3), so
        they tolerate DMA's slower start; the CPU keeps the head of the
        round where the client will look first.
        """
        params = self.params
        total_bytes = sum(j.nbytes for j in jobs)
        avx_rate = params.avx_bytes_per_cycle
        dma_rate = params.dma_bytes_per_cycle
        # Completion-time balance (§4.3): choose d so that
        #   submit + translate(d) + d/dma_rate  ≈  (total - d)/avx_rate,
        # where translation is paid on the Copier core before AVX starts.
        tc = self._translate_cost_per_byte()
        target = (total_bytes / avx_rate - params.dma_submit_cycles) / (
            1.0 / dma_rate + tc + 1.0 / avx_rate)
        floor = params.dma_candidate_min_bytes
        if target < floor:
            # Balanced split is below the candidacy floor.  A single
            # floor-sized run may still be profitable (warm ATCache, small
            # fused copies) as long as DMA does not outlast the AVX stream.
            dma_time = (params.dma_submit_cycles + tc * floor
                        + floor / dma_rate)
            avx_time = (total_bytes - floor) / avx_rate
            if dma_time <= avx_time:
                target = floor
            else:
                return []
        # Only a round that can take DMA work translates its pages.
        candidates = self._candidate_runs(jobs)
        chosen = []
        dma_bytes = 0
        for run in reversed(candidates):
            remaining = target - dma_bytes
            if remaining <= 0:
                break
            if run.nbytes <= remaining:
                chosen.append(run)
                dma_bytes += run.nbytes
                continue
            # Split the run: take its *tail* (longest Copy-Use window),
            # keeping the partial piece above the DMA candidacy floor.
            tail = []
            tail_bytes = 0
            for job in reversed(run.jobs):
                if tail_bytes + job.nbytes > remaining:
                    break
                tail.insert(0, job)
                tail_bytes += job.nbytes
            if tail and tail_bytes >= params.dma_candidate_min_bytes:
                chosen.append(DMARun(run.task, tail))
                dma_bytes += tail_bytes
            break
        chosen.reverse()
        return chosen

    def _candidate_runs(self, jobs):
        """Maximal physically-contiguous runs of plain jobs ≥ the DMA floor.

        Discovery is *run-based*: VA-adjacent plain jobs of one task are
        grouped, the group's whole source and destination ranges are
        translated once into physical runs (:meth:`~repro.mem.addrspace.
        AddressSpace.translate_run`, TLB-backed), and DMA runs are cut at
        the physical discontinuities — instead of probing every page of
        every job and every job boundary separately.
        """
        params = self.params
        runs = []
        group = []
        for job in jobs:
            if group and self._va_follows(group[-1], job):
                group.append(job)
            else:
                runs.extend(self._split_group(group))
                group = [job] if job.plain else []
        runs.extend(self._split_group(group))
        return [r for r in runs if r.nbytes >= params.dma_candidate_min_bytes]

    @staticmethod
    def _va_follows(prev, job):
        """True when ``job`` continues ``prev``'s group: next segment of
        the same task, plain, and VA-adjacent on both source and dest."""
        if job.task is not prev.task or job.seg_index != prev.seg_index + 1:
            return False
        if not job.plain:
            return False
        prev_span, span = prev.spans[0], job.spans[0]
        return (prev_span.va + prev_span.nbytes == span.va
                and prev.dst_va + prev.nbytes == job.dst_va)

    def _split_group(self, group):
        """Cut a VA-contiguous job group into physically-contiguous DMARuns.

        A job belongs to a run iff it lies entirely inside one physical
        run on *both* sides; consecutive such jobs extend the same DMARun
        iff they share those physical runs (equivalent to the historic
        per-job probe + per-boundary adjacency check).
        """
        if not group:
            return []
        first = group[0]
        total = sum(j.nbytes for j in group)
        task = first.task
        src_va = first.spans[0].va
        pinned = task.pinned_runs()
        if pinned is not None:
            # Plain jobs read their own task's source: slice the pin's
            # translation.
            src_runs = slice_runs(pinned[0], src_va - task.src.start, total)
            dst_runs = slice_runs(pinned[1], first.dst_va - task.dst.start,
                                  total)
        else:
            try:
                src_runs = first.spans[0].aspace.translate_run(src_va, total)
                dst_runs = task.dst.aspace.translate_run(first.dst_va, total,
                                                         write=True)
            except MemoryFault:
                # Unmapped/unwritable page somewhere in the group: retry
                # per job so one faulted page only disqualifies the jobs
                # it touches (the AVX path resolves the fault inline).
                # Anything other than a memory fault is a real bug and
                # must propagate.
                return self._split_group_per_job(group)
        # Prefix-sum run boundaries → for each job offset, which physical
        # run (src, dst) contains it.
        runs = []
        current = []
        current_key = None
        offset = 0
        si = di = 0
        s_end = src_runs[0][2]
        d_end = dst_runs[0][2]
        for job in group:
            job_end = offset + job.nbytes
            while s_end < job_end:
                si += 1
                s_end += src_runs[si][2]
            while d_end < job_end:
                di += 1
                d_end += dst_runs[di][2]
            # The job is capable iff it starts inside the same physical
            # runs it ends in (runs are maximal, so spanning a boundary
            # means discontiguous).
            capable = (s_end - src_runs[si][2] <= offset
                       and d_end - dst_runs[di][2] <= offset)
            if capable and current_key == (si, di):
                current.append(job)
            else:
                self._close_run(runs, current)
                current = [job] if capable else []
            current_key = (si, di) if capable else None
            offset = job_end
        self._close_run(runs, current)
        return runs

    def _split_group_per_job(self, group):
        """Fault-tolerant fallback: probe each job's ranges separately."""
        runs = []
        current = []
        for job in group:
            if self._job_contiguous(job):
                current.append(job)
            else:
                self._close_run(runs, current)
                current = []
        self._close_run(runs, current)
        # Boundary adjacency within the surviving jobs is re-checked by
        # splitting on physical breaks between consecutive jobs.
        split = []
        for run in runs:
            split.extend(self._split_run_on_boundaries(run))
        return split

    def _job_contiguous(self, job):
        span = job.spans[0]
        try:
            if len(span.aspace.translate_run(span.va, span.nbytes)) > 1:
                return False
            return len(job.task.dst.aspace.translate_run(
                job.dst_va, job.nbytes, write=True)) <= 1
        except MemoryFault:
            return False

    def _split_run_on_boundaries(self, run):
        out = []
        current = [run.jobs[0]]
        for prev, job in zip(run.jobs, run.jobs[1:]):
            prev_span, span = prev.spans[0], job.spans[0]
            try:
                src_adj = len(span.aspace.translate_run(
                    prev_span.va, prev_span.nbytes + span.nbytes)) <= 1
                dst_adj = len(job.task.dst.aspace.translate_run(
                    prev.dst_va, prev.nbytes + job.nbytes, write=True)) <= 1
            except MemoryFault:
                src_adj = dst_adj = False
            if src_adj and dst_adj:
                current.append(job)
            else:
                out.append(DMARun(run.task, current))
                current = [job]
        out.append(DMARun(run.task, current))
        return out

    @staticmethod
    def _close_run(runs, current):
        if current:
            runs.append(DMARun(current[0].task, list(current)))
