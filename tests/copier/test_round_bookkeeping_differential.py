"""Differential test: the copier's round bookkeeping vs its historic scans.

The copier keeps four per-round and per-csync structures proportional to
the work that changed instead of rescanning the whole window:

* ``TaskIndex.prune`` drops only the tasks reported retired since the
  last prune;
* the completion ``sweep`` visits only the complete, unretired tasks
  (``client.landed``, entered where a task's last segment is marked);
* ``reap_overload`` returns at once while ``client.overload_marked``
  counts no unretired deadline'd or cancel-marked task;
* ``_fusable_followers`` starts at the round's last task, and
  ``build_round`` builds a task's spans arithmetically when no earlier
  producer writes into its source.

Seeded programs drive one client over overlapping buffers with u- and
k-mode copies (k-mode keyed between u-mode ones by trap/return
barriers), lazy copies, deadlines (deadline-feasible admission sheds
some), cancel, abort, DMA-sized copies, csyncs, forced prunes and
copies completed out of band.  Every call of
the structures above is checked against the historic full scan, and
their invariants are checked after every step.  The scans below are the
oracle; they stay out of ``src/``.
"""

import random

import pytest

from repro.copier.absorption import resolve_round_sources, resolve_sources
from repro.copier.deps import TaskIndex, _granules
from repro.copier.errors import CopyAborted, DeadlineMissed, FramePoisonError
from repro.copier.task import Region
from repro.mem.faults import MemoryFault
from repro.sim import Timeout
from tests.copier.conftest import Setup

KIB = 1024
SPAN = 256 * KIB
#: Overlapping buffers (offset, length) that straddle 64 KiB granules.
BUFFERS = [(0, 80 * KIB), (56 * KIB, 80 * KIB), (120 * KIB, 80 * KIB),
           (176 * KIB, 80 * KIB)]
N_OPS = 60


# ------------------------------------------------------------------ oracle


def _historic_prune(index):
    """The historic prune: drop every finished task found by a scan of
    the whole index."""
    for task in [t for t in index._seq if t.is_finished]:
        del index._seq[task]
        for table, region in ((index._by_dst, task.dst),
                              (index._by_src, task.src)):
            asid, first, last = _granules(region)
            for granule in range(first, last + 1):
                bucket = table[asid, granule]
                del bucket[task]
                if not bucket:
                    del table[asid, granule]


def _index_copy(index):
    copy = TaskIndex()
    copy._seq = dict(index._seq)
    copy._next_seq = index._next_seq
    copy._by_dst = {k: dict(v) for k, v in index._by_dst.items()}
    copy._by_src = {k: dict(v) for k, v in index._by_src.items()}
    return copy


def _index_contents(index):
    return (list(index._seq.items()),
            sorted((k, list(v.items())) for k, v in index._by_dst.items()),
            sorted((k, list(v.items())) for k, v in index._by_src.items()))


def _historic_sweep(client):
    """Tasks the historic sweep over the whole pending list retires, in
    the order it retires them."""
    return [t for t in client.pending
            if not t.is_finished and t.descriptor.all_ready]


def _historic_reap(client, now):
    """``(task, outcome)`` the historic reap over the whole pending list
    retires, in order."""
    out = []
    for task in client.pending:
        if task.is_finished:
            continue
        if task.cancelled:
            out.append((task, "cancelled"))
        elif task.expired(now):
            out.append((task, "deadline-miss"))
    return out


def _historic_fusable(dispatcher, pending, round_tasks, budget_bytes):
    """The historic follower scan, from the head of the pending list."""
    fused = []
    total = sum(t.length for t in round_tasks)
    limit = max(budget_bytes, dispatcher.params.i_piggyback_threshold)
    for task in pending:
        if task in round_tasks or task.lazy or task.is_finished:
            continue
        if task.order_key < round_tasks[-1].order_key:
            continue
        if total + task.length > limit:
            break
        if any(not dep.is_finished for dep in pending.dependencies_of(task)):
            break
        fused.append(task)
        total += task.length
    return fused


def _span_key(spans):
    return [(s.aspace.asid, s.va, s.nbytes, s.absorbed) for s in spans]


# ------------------------------------------------------------ instrumented


class Recorder:
    """Wraps the client's and service's bookkeeping entry points with
    their historic scans; counts what each comparison covered."""

    def __init__(self, setup):
        self.client = client = setup.client
        service = setup.service
        completion = service.completion
        dispatcher = service.dispatcher
        self.retired = []
        self.seen = dict.fromkeys(
            ("prunes", "pruned", "sweeps", "swept", "reaps", "reaped",
             "fusions", "fused", "fed_jobs", "plain_jobs", "dma_runs",
             "k_tasks", "landed"), 0)

        finalize = completion._finalize

        def _finalize(client, task, outcome):
            self.retired.append((task, outcome))
            finalize(client, task, outcome)

        completion._finalize = _finalize

        prune_index = client._prune_index

        def _prune_index(force=False):
            expected = _index_copy(client.task_index)
            _historic_prune(expected)
            before = len(client.task_index)
            prune_index(force=force)
            after = len(client.task_index)
            if after != before or force:
                assert _index_contents(client.task_index) == \
                    _index_contents(expected)
                assert client.task_index._retired == []
                self.seen["prunes"] += 1
                self.seen["pruned"] += before - after

        client._prune_index = _prune_index

        sweep = completion.sweep

        def _sweep(client):
            expected = [(t, "done") for t in _historic_sweep(client)]
            self.retired = []
            sweep(client)
            assert self.retired == expected
            self.seen["sweeps"] += 1
            self.seen["swept"] += len(expected)

        completion.sweep = _sweep

        reap = completion.reap_overload

        def _reap(client):
            expected = _historic_reap(client, service.env.now)
            self.retired = []
            count = reap(client)
            assert self.retired == expected
            assert count == len(expected)
            self.seen["reaps"] += 1
            self.seen["reaped"] += count
            return count

        completion.reap_overload = _reap

        fusable = dispatcher._fusable_followers

        def _fusable(pending, round_tasks, budget_bytes):
            got = fusable(pending, round_tasks, budget_bytes)
            assert got == _historic_fusable(dispatcher, pending, round_tasks,
                                            budget_bytes)
            self.seen["fusions"] += 1
            self.seen["fused"] += len(got)
            return got

        dispatcher._fusable_followers = _fusable

        build_round = dispatcher.build_round

        def _build_round(pending, budget_bytes, head=None):
            head = head if head is not None else pending.runnable_head()
            plan = build_round(pending, budget_bytes, head=head)
            if plan is None:
                return plan
            prereqs = plan.tasks[:plan.tasks.index(head)]
            jobs = list(plan.avx_jobs)
            for run in plan.dma_runs:
                jobs.extend(run.jobs)
                self.seen["dma_runs"] += 1
            for job in jobs:
                task, seg = job.task, job.seg_index
                dst = task.dst_range_of_segment(seg)
                assert (job.dst_va, job.nbytes) == (dst.start, dst.length)
                expected = resolve_round_sources(
                    pending, task, task.src_range_of_segment(seg), prereqs,
                    enabled=dispatcher.use_absorption)
                assert _span_key(job.spans) == _span_key(expected)
                fed = len(expected) > 1 or expected[0].absorbed
                self.seen["fed_jobs" if fed else "plain_jobs"] += 1
            return plan

        dispatcher.build_round = _build_round

    def check(self):
        """Invariants after every program step."""
        client = self.client
        index = client.task_index
        # Every finished indexed task awaits the next prune.
        retired = set(index._retired)
        assert all(t in retired for t in index if t.is_finished)
        # The overload count is the number of unretired tasks it names.
        assert client.overload_marked == sum(
            1 for t in index if not t.is_finished
            and (t.deadline is not None or t.cancelled))
        # The complete, unretired pending tasks are exactly the ones
        # awaiting the next sweep.
        assert set(client.landed) == set(_historic_sweep(client))


# ----------------------------------------------------------------- program


def _region(rng, aspace, base, dma=False):
    off, length = rng.choice(BUFFERS)
    if dma:
        n = rng.randint(16 * KIB, length)
    else:
        n = rng.choice([rng.randint(1, 4 * KIB), rng.randint(1, 12 * KIB)])
    start = base + off + rng.randint(0, length - n)
    return Region(aspace, start, n)


def _land_out_of_band(setup, rng):
    """Write every remaining segment of a pending task the way a DMA
    callback or a promotion would, leaving its retirement to the next
    completion sweep.  Returns whether a task was landed."""
    client, executor = setup.client, setup.service.executor
    pending = client.pending
    candidates = [t for t in pending
                  if not t.is_finished and not t.lazy
                  and not any(not d.is_finished
                              for d in pending.dependencies_of(t))]
    if not candidates:
        return False
    task = rng.choice(candidates)
    for seg in task.segments_pending():
        src = task.src_range_of_segment(seg)
        spans = resolve_sources(
            pending, task, src,
            enabled=setup.service.dispatcher.use_absorption)
        try:
            executor.write_spans(client, task, seg,
                                 task.dst_range_of_segment(seg), spans)
        except (MemoryFault, FramePoisonError):
            return False  # an injected fault; a later round retires it
    return True


@pytest.mark.parametrize("seed", range(6))
def test_round_bookkeeping_matches_historic_scans(seed):
    rng = random.Random(seed)
    # Deadline-feasible admission sheds some tight-deadline copies: a
    # shed task enters the index already finished.
    setup = Setup(n_frames=4096, admission="deadline-feasible")
    client, env = setup.client, setup.env
    recorder = Recorder(setup)
    app = setup.aspace
    kern = type(setup.aspace)(setup.phys, name="kern")
    bases = {}
    for aspace in (app, kern):
        base = aspace.mmap(SPAN, populate=True)
        aspace.write(base, rng.randbytes(SPAN))
        bases[aspace.asid] = base
    spaces = [app, kern]

    def pick(aspace=None, dma=False):
        aspace = aspace or rng.choice(spaces)
        return _region(rng, aspace, bases[aspace.asid], dma=dma)

    def deadline():
        if rng.random() < 0.3:
            return env.now + rng.choice((rng.randint(0, 3_000),
                                         rng.randint(0, 40_000)))
        return None

    def program():
        for _ in range(N_OPS):
            roll = rng.random()
            try:
                if roll < 0.38:
                    # A burst, so the window is deep when the copier and
                    # the steps below look at it.
                    for _ in range(rng.randint(1, 5)):
                        dst = pick(app, dma=rng.random() < 0.2)
                        src = Region(app, pick(app).start, dst.length)
                        if src.start + src.length > bases[app.asid] + SPAN:
                            src = Region(app, bases[app.asid], dst.length)
                        yield from client.amemcpy(
                            dst.start, src.start, dst.length,
                            lazy=rng.random() < 0.2, deadline=deadline())
                elif roll < 0.52:
                    # A k-mode copy inside a syscall, keyed after the
                    # u-mode copies the trap witnessed.
                    client.on_trap()
                    dst = pick(dma=rng.random() < 0.2)
                    src_space = rng.choice(spaces)
                    src = Region(src_space, bases[src_space.asid]
                                 + rng.randint(0, SPAN - dst.length),
                                 dst.length)
                    yield from client.k_amemcpy(
                        src, dst, lazy=rng.random() < 0.2,
                        deadline=deadline())
                    recorder.seen["k_tasks"] += 1
                    client.on_return()
                elif roll < 0.68:
                    r = pick(app)
                    yield from client.csync(r.start, r.length,
                                            deadline=deadline())
                elif roll < 0.74:
                    r = pick(app)
                    yield from client.cancel(r.start, r.length)
                elif roll < 0.79:
                    r = pick(app)
                    yield from client.abort(r.start, r.length)
                elif roll < 0.86:
                    for _ in range(rng.randint(1, 3)):
                        recorder.seen["landed"] += _land_out_of_band(
                            setup, rng)
                elif roll < 0.95:
                    yield Timeout(rng.randint(1, 20_000))
                else:
                    client._prune_index(force=True)
            except (CopyAborted, DeadlineMissed):
                pass
            recorder.check()
        while any(not t.is_finished for t in client.task_index):
            yield Timeout(10_000)
            recorder.check()
        client._prune_index(force=True)
        recorder.check()

    setup.run_process(program(), limit=2_000_000_000)
    seen = recorder.seen
    assert client.stats.submitted > 0
    assert len(client.task_index) == 0
    # The comparisons saw the branches they exist for.
    assert seen["prunes"] and seen["pruned"]
    assert seen["sweeps"] and seen["landed"]
    assert seen["reaps"] and seen["reaped"]
    assert seen["fusions"] and seen["fused"]
    assert seen["plain_jobs"] and seen["fed_jobs"] and seen["dma_runs"]
    assert seen["k_tasks"]
