"""Differential test: the per-client interval index vs brute-force scans.

Seeded random programs drive one client over overlapping buffers that
straddle index granules, in two address spaces: u- and k-mode copies,
lazy copies, deadlines, csyncs (some with deadlines), cancel, abort and
forced prunes.  After every step, every region query the copier asks the
index must return exactly the tasks, in exactly the order, that a linear
scan over ``client.task_index`` or ``client.pending`` returns, and
``_range_ready`` must return or raise exactly what the historic
newest-first walk over the whole index does.  The scans below are the
oracle; they stay out of ``src/``.
"""

import random

import pytest

from repro.copier import task as task_mod
from repro.copier.absorption import _nearest_producer
from repro.copier.descriptor import Descriptor
from repro.copier.errors import CopyAborted, DeadlineMissed
from repro.copier.task import CopyTask, Region
from repro.sim import Timeout
from tests.copier.conftest import Setup

KIB = 1024
SPAN = 256 * KIB
#: Overlapping buffers (offset, length) that straddle 64 KiB granules.
BUFFERS = [(0, 80 * KIB), (56 * KIB, 80 * KIB), (120 * KIB, 80 * KIB),
           (176 * KIB, 80 * KIB)]
N_OPS = 45


# ------------------------------------------------------------------ oracle


def _earlier(pending, task):
    """Historic ``PendingTasks.earlier_than``: nearest first."""
    out = []
    for other in pending:
        if other is task:
            break
        if other.order_key < task.order_key:
            out.append(other)
    out.reverse()
    return out


def _historic_range_ready(client, region):
    """The historic csync walk over the whole index, newest first."""
    remaining = [(region.start, region.start + region.length)]
    for task in reversed(list(client.task_index)):
        if not remaining:
            return True
        if task.dst.aspace.asid != region.aspace.asid:
            continue
        next_remaining = []
        for start, end in remaining:
            lo = max(start, task.dst.start)
            hi = min(end, task.dst.end)
            if lo >= hi:
                next_remaining.append((start, end))
                continue
            covered = Region(region.aspace, lo, hi - lo)
            segs_ready = all(task.descriptor.is_ready(s)
                             for s in task.segments_covering(covered))
            if task.state == task_mod.ABORTED:
                if not segs_ready:
                    if task.error is not None:
                        raise task.error
                    raise CopyAborted("copy covering 0x%x aborted" % lo)
            elif not segs_ready:
                return False
            if start < lo:
                next_remaining.append((start, lo))
            if hi < end:
                next_remaining.append((hi, end))
        remaining = next_remaining
    return True


def _outcome(fn, *args):
    try:
        return ("returned", fn(*args))
    except CopyAborted as exc:
        return ("raised", type(exc), str(exc))


def _check(client, probes):
    index, pending = client.task_index, client.pending
    newest_first = list(index)[::-1]
    indexed = {id(t) for t in newest_first}
    assert all(id(t) in indexed for t in pending)
    for region in probes:
        assert list(index.writers(region)) == [
            t for t in newest_first if t.dst.overlaps(region)]
        assert list(index.readers(region)) == [
            t for t in newest_first if t.src.overlaps(region)]
        assert pending.writing(region) == [
            t for t in pending if t.dst.overlaps(region)]
        historic = _outcome(_historic_range_ready, client, region)
        assert _outcome(client._range_ready, region) == historic
        if not region.length:
            continue
        # Shed legality for a hypothetical copy into the probe.
        src = Region(region.aspace, region.start ^ (8 * KIB), region.length)
        probe = CopyTask(client, "u", src, region,
                         Descriptor(region.length, 4 * KIB))
        legal = all(t.is_finished for t in newest_first
                    if t.dst.overlaps(src) or t.dst.overlaps(region)
                    or t.src.overlaps(region))
        try:
            region.aspace.check_range(region.start, region.length,
                                      write=True)
            src.aspace.check_range(src.start, src.length, write=False)
        except Exception:
            legal = False
        assert client.service.admission._sheddable(client, probe) == legal
    for task in pending:
        earlier = _earlier(pending, task)
        assert pending.dependencies_of(task) == [
            o for o in earlier
            if task.src.overlaps(o.dst) or task.dst.overlaps(o.src)
            or task.dst.overlaps(o.dst)]
        for region in (task.src, task.dst):
            assert pending.earlier(task, index.writers(region)) == [
                o for o in earlier if o.dst.overlaps(region)]
            assert pending.earlier(task, index.readers(region)) == [
                o for o in earlier if o.src.overlaps(region)]
        assert _nearest_producer(pending, task, task.src) is next(
            (o for o in earlier
             if not o.is_finished and task.src.overlaps(o.dst)), None)


# ----------------------------------------------------------------- program


def _region(rng, aspace, base):
    off, length = rng.choice(BUFFERS)
    n = rng.choice([rng.randint(1, 4 * KIB), rng.randint(1, length)])
    start = base + off + rng.randint(0, length - n)
    return Region(aspace, start, n)


@pytest.mark.parametrize("seed", range(6))
def test_index_queries_match_brute_force_scans(seed):
    rng = random.Random(seed)
    setup = Setup(n_frames=4096)
    client, env = setup.client, setup.env
    app = setup.aspace
    kern = type(setup.aspace)(setup.phys, name="kern")
    bases = {}
    for aspace in (app, kern):
        base = aspace.mmap(SPAN, populate=True)
        aspace.write(base, rng.randbytes(SPAN))
        bases[aspace.asid] = base
    spaces = [app, kern]

    def pick(aspace=None):
        aspace = aspace or rng.choice(spaces)
        return _region(rng, aspace, bases[aspace.asid])

    def probes():
        out = [Region(a, bases[a.asid] + off, n)
               for a in spaces for off, n in BUFFERS]
        out += [pick() for _ in range(4)]
        r = pick(app)
        out.append(Region(app, r.start, 0))   # empty range
        # Ranges that abut indexed tasks on either side, and ranges that
        # end on a segment boundary of a task's destination.
        for t in list(client.task_index)[-3:]:
            out.append(Region(t.dst.aspace, t.dst.end, 64))
            out.append(Region(t.src.aspace, t.src.start - 64, 64))
            out.append(t.dst)
            out.append(Region(t.dst.aspace, t.dst.start,
                              min(t.dst.length, t.descriptor.segment_bytes)))
        return out

    def deadline():
        if rng.random() < 0.2:
            return env.now + rng.randint(0, 40_000)
        return None

    def program():
        for _ in range(N_OPS):
            roll = rng.random()
            try:
                if roll < 0.35:
                    dst = pick(app)
                    src = Region(app, pick(app).start, dst.length)
                    if src.start + src.length > bases[app.asid] + SPAN:
                        src = Region(app, bases[app.asid], dst.length)
                    yield from client.amemcpy(
                        dst.start, src.start, dst.length,
                        lazy=rng.random() < 0.3, deadline=deadline())
                elif roll < 0.47:
                    dst = pick()
                    src_space = rng.choice(spaces)
                    src = Region(src_space, bases[src_space.asid]
                                 + rng.randint(0, SPAN - dst.length),
                                 dst.length)
                    yield from client.k_amemcpy(
                        src, dst, lazy=rng.random() < 0.3,
                        deadline=deadline())
                elif roll < 0.67:
                    r = pick(app)
                    yield from client.csync(r.start, r.length,
                                            deadline=deadline())
                elif roll < 0.74:
                    r = pick(app)
                    yield from client.cancel(r.start, r.length)
                elif roll < 0.81:
                    r = pick(app)
                    yield from client.abort(r.start, r.length)
                elif roll < 0.93:
                    yield Timeout(rng.randint(1, 30_000))
                else:
                    client._prune_index(force=True)
                    assert all(not t.is_finished for t in client.task_index)
            except (CopyAborted, DeadlineMissed):
                pass
            _check(client, probes())
        while any(not t.is_finished for t in client.task_index):
            yield Timeout(10_000)
            _check(client, probes())
        _check(client, probes())

    setup.run_process(program(), limit=2_000_000_000)
    assert client.stats.submitted > 0
