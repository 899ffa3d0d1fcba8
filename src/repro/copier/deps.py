"""Order and data dependency tracking (§4.2).

Order dependency merges the u-mode and k-mode copy streams of one client
into a single total order using barrier tasks captured at trap/return
events (Fig. 6-a).  The merged order is expressed as sort keys:

* a u-mode task acquired at ring position ``p`` gets key ``(p + 1, 0, p)``;
* a k-mode task submitted after a barrier recording ``c`` acquired u-mode
  tasks gets key ``(c, 1, seq)``.

Under lexicographic comparison this places each k-mode task after exactly
the ``c`` u-mode tasks the barrier witnessed and before every later one —
and, for the racy window where another app thread submits during the
syscall (U3/U4 in Fig. 6-a), k-mode tasks win, matching the paper's
"Copier prioritizes tasks in k-mode queues".

Data dependency is answered by one per-client interval index,
:class:`TaskIndex`: every task in ``client.task_index`` is bucketed by
the granules its destination and its source touch, so "who writes (or
reads) this range" inspects only the tasks sharing a granule with it.
The csync readiness walk, cancellation, shed legality, absorption's
nearest producer, the dispatcher's and the promotion path's hazards and
the integrity check's superseded-segment rule all ask the index;
pending-list callers keep the tasks still in ``pending`` and order them
by merged order (:meth:`PendingTasks.earlier`).
"""

from itertools import islice
from operator import attrgetter

#: log2 of the index granule: tasks are bucketed per 64 KiB of address
#: space, per address space.
GRANULE_SHIFT = 16

_order_key = attrgetter("order_key")
_dst = attrgetter("dst")
_src = attrgetter("src")


def u_order_key(position):
    return (position + 1, 0, position)


def k_order_key(barrier_u_position, sequence):
    return (barrier_u_position, 1, sequence)


def _granules(region):
    """``(asid, first, last)``: the granules ``region`` touches; an empty
    region sits in the granule of its start."""
    start = region.start
    end = start + region.length
    first = start >> GRANULE_SHIFT
    last = (end - 1) >> GRANULE_SHIFT if end > start else first
    return region.aspace.asid, first, last


class TaskIndex:
    """A client's submitted tasks, bucketed by destination and by source.

    A task enters at submission (or when it is shed) and leaves only when
    :meth:`prune` drops it after it finished: a finished but unpruned
    task stays visible, so an aborted copy still fails a csync over its
    range.  Retirement reports each finished task once (:meth:`retire`;
    a shed task arrives finished), so a prune touches only those tasks,
    not the whole index.  Iteration and the query results follow append
    order (newest last), which is not ``task_id`` order: a submitter may
    yield for a ring slot between creating a task and appending it.
    Queries are lazy: finish iterating one before adding or pruning.
    """

    __slots__ = ("_seq", "_next_seq", "_by_dst", "_by_src", "_retired")

    def __init__(self):
        self._seq = {}        # task -> append sequence, in append order
        self._next_seq = 0
        self._by_dst = {}     # (asid, granule) -> {task: seq}
        self._by_src = {}
        self._retired = []    # finished since the last prune

    def __len__(self):
        return len(self._seq)

    def __iter__(self):
        return iter(self._seq)

    def __contains__(self, task):
        return task in self._seq

    def add(self, task):
        seq = self._next_seq
        self._next_seq = seq + 1
        self._seq[task] = seq
        for table, region in ((self._by_dst, task.dst),
                              (self._by_src, task.src)):
            asid, first, last = _granules(region)
            for granule in range(first, last + 1):
                table.setdefault((asid, granule), {})[task] = seq
        if task.is_finished:
            self._retired.append(task)

    def retire(self, task):
        """Record that ``task`` finished: the next :meth:`prune` drops it."""
        self._retired.append(task)

    def prune(self):
        """Drop every task retired since the last prune from its own
        buckets."""
        retired, self._retired = self._retired, []
        seqs = self._seq
        for task in retired:
            if seqs.pop(task, None) is None:
                continue  # never indexed here
            for table, region in ((self._by_dst, task.dst),
                                  (self._by_src, task.src)):
                asid, first, last = _granules(region)
                for granule in range(first, last + 1):
                    bucket = table[asid, granule]
                    del bucket[task]
                    if not bucket:
                        del table[asid, granule]

    def writers(self, region):
        """Indexed tasks whose destination overlaps ``region``, newest
        first, yielded lazily (a csync stops at the tasks that decide
        its bytes)."""
        return self._query(self._by_dst, _dst, region)

    def readers(self, region):
        """Indexed tasks whose source overlaps ``region``, newest first,
        yielded lazily."""
        return self._query(self._by_src, _src, region)

    @staticmethod
    def _query(table, side, region):
        # _granules inlined: every csync and dependency check lands here.
        start = region.start
        end = start + region.length
        asid = region.aspace.asid
        first = start >> GRANULE_SHIFT
        last = (end - 1) >> GRANULE_SHIFT if end > start else first
        if first == last:
            bucket = table.get((asid, first))
            if not bucket:
                return
            candidates = reversed(bucket)
        else:
            found = {}
            for granule in range(first, last + 1):
                bucket = table.get((asid, granule))
                if bucket:
                    found.update(bucket)
            candidates = sorted(found, key=found.__getitem__, reverse=True)
        for task in candidates:
            r = side(task)
            if r.start < end and start < r.start + r.length:
                yield task


class PendingTasks:
    """Per-client pending Copy Tasks in merged submission order.

    Region queries go through ``index``, the client's :class:`TaskIndex`
    (``client.task_index``).  A pending task is always indexed: the
    client indexes it at submission, and a list used on its own (unit
    tests, figure benches) indexes each task as it is added.
    """

    def __init__(self):
        self.index = TaskIndex()
        self._tasks = []  # kept sorted by order_key
        self._members = set()

    def __len__(self):
        return len(self._tasks)

    def __iter__(self):
        return iter(self._tasks)

    def add(self, task):
        if task.order_key is None:
            raise ValueError("task has no order key; submit through queues")
        if task not in self.index:
            self.index.add(task)
        self._members.add(task)
        # Fast path: appends dominate (keys are normally increasing).
        if not self._tasks or self._tasks[-1].order_key <= task.order_key:
            self._tasks.append(task)
            return
        self._tasks.insert(self._after(task.order_key), task)

    def _after(self, key):
        """Position of the first task whose order key exceeds ``key``."""
        tasks = self._tasks
        lo, hi = 0, len(tasks)
        while lo < hi:
            mid = (lo + hi) // 2
            if tasks[mid].order_key <= key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def remove(self, task):
        self._tasks.remove(task)
        self._members.discard(task)

    def following(self, task):
        """Pending tasks after ``task`` in merged order, lazily."""
        return islice(self._tasks, self._after(task.order_key), None)

    def head(self):
        return self._tasks[0] if self._tasks else None

    def runnable_head(self):
        """First pending non-lazy task (lazy tasks are skipped, §4.4)."""
        for task in self._tasks:
            if not task.lazy:
                return task
        return None

    def has_earlier(self, task):
        """True when some pending task precedes ``task`` in merged order:
        the O(1) test before asking the index."""
        return bool(self._tasks) and self._tasks[0].order_key < task.order_key

    def earlier(self, task, candidates):
        """The pending ``candidates`` strictly before ``task`` in merged
        order, nearest first."""
        key = task.order_key
        members = self._members
        found = [t for t in candidates
                 if t in members and t.order_key < key]
        found.sort(key=_order_key, reverse=True)
        return found

    def writing(self, region):
        """Pending tasks whose destination overlaps ``region``, in merged
        order."""
        members = self._members
        found = [t for t in self.index.writers(region) if t in members]
        found.sort(key=_order_key)
        return found

    def dependencies_of(self, task):
        """Earlier pending tasks ``task`` conflicts with (nearest first).

        A conflict is any region overlap: RAW (task.src vs other.dst),
        WAR (task.dst vs other.src) or WAW (task.dst vs other.dst).
        """
        if not self.has_earlier(task):
            return []
        index = self.index
        candidates = dict.fromkeys(index.writers(task.src))
        candidates.update(dict.fromkeys(index.readers(task.dst)))
        candidates.update(dict.fromkeys(index.writers(task.dst)))
        return self.earlier(task, candidates)


class BarrierBookkeeping:
    """Tracks the k-mode submission context of one client (§4.2.1).

    The kernel calls :meth:`on_trap` when entering a syscall and
    :meth:`on_return` when leaving; the first k-mode submission after a
    trap snapshots the paired u-mode Copy Queue position.
    """

    def __init__(self, u_copy_queue):
        self.u_copy_queue = u_copy_queue
        self._current_barrier_pos = 0
        self._barrier_epoch = 0
        self._k_sequence = 0
        self.barriers_recorded = 0

    def on_trap(self):
        self._snapshot()

    def on_return(self):
        self._snapshot()

    def _snapshot(self):
        self._current_barrier_pos = self.u_copy_queue.head
        self._barrier_epoch = self.u_copy_queue.epoch
        self.barriers_recorded += 1

    def next_k_key(self):
        self._k_sequence += 1
        return k_order_key(self._current_barrier_pos, self._k_sequence)
