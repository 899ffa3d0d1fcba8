"""Physical memory: frames of real bytes with reference counting.

Frame numbers double as physical addresses (``paddr = frame * PAGE_SIZE``),
which is what the DMA engine's physical-contiguity requirement (§4.3) is
checked against when Copier splits tasks into subtasks.

Storage layout (demand-zero backing)
------------------------------------

All frames live in **one anonymous ``mmap``** of ``n_frames`` pages, at
byte offset ``frame * PAGE_SIZE``.  The host kernel zero-fills a page of
the mapping on first touch, so a sparsely-used pool (e.g. 262144 frames
with a few thousand touched) commits host RAM only for the pages the
simulated machine writes, and the mapping never grows or moves.  A
physically-contiguous run is contiguous in the mapping, so
``read_run``/``write_run``/``copy_run`` are each a *single* slice copy
regardless of how many frames the run spans, and
:func:`repro.mem.addrspace.copy_range` collapses adjacent physical runs
into one move.  A per-frame ``touched`` map records which frames were
ever claimed: a first claim finds the page zero already, and only a
reclaimed frame is scrubbed.

Free list (extents plus a LIFO tail)
------------------------------------

The free list is one sequence whose last entry ``alloc_frame`` pops.
It is held as two parts: ``_extents``, maximal runs ``[start, end)`` of
free frames, highest first, standing for the descending-sorted front of
the sequence; and ``_tail``, the frames freed out of order since, in
free order.  A free that keeps the sequence sorted (the lowest free
frame, under LIFO churn) grows the lowest extent; any other free appends
to the tail.  ``alloc_frame`` pops the tail's newest frame, otherwise
the lowest free frame, both O(1).  A contiguous allocation merges the
tail into the extents (``sort_work`` counts the merged frames, so tests
can pin the cost without wall-clock flakiness) and takes the lowest
extent of length >= n — the lowest free run, as a full sort would pick.
:meth:`PhysicalMemory.free_list` materialises the sequence in the
historic list order; checkpoints save and restore that order.
"""

import mmap
from bisect import bisect_right

PAGE_SIZE = 4096

_ZERO_PAGE = bytes(PAGE_SIZE)


class OutOfMemory(Exception):
    pass


class PhysicalMemory:
    """A pool of ``n_frames`` page frames in one demand-zero mapping.

    ``fragmented=True`` makes the allocator hand out alternating frames so
    that multi-page buffers are physically non-contiguous — the worst case
    for DMA subtask formation (Fig. 7-b assumes all pages non-contiguous).
    ``fragmented=False`` allocates the lowest free frame, so consecutive
    allocations tend to be contiguous.
    """

    def __init__(self, n_frames=65536, fragmented=False):
        self.n_frames = n_frames
        self.fragmented = fragmented
        self._map_frames()
        self._refcount = {}
        # Free runs [start, end), highest first: frame 0 is allocated first.
        self._extents = [[0, n_frames]] if n_frames else []
        self._tail = []  # frames freed out of order, oldest first
        self._n_free = n_frames
        self._alloc_parity = 0
        self.sort_work = 0  # tail frames merged by contiguous allocs

    @property
    def frames_in_use(self):
        return len(self._refcount)

    @property
    def frames_free(self):
        return self._n_free

    def free_list(self):
        """The free list in its historic order: the descending-sorted
        front, then the out-of-order tail; ``alloc_frame`` pops the last
        entry."""
        out = []
        for start, end in self._extents:
            out.extend(range(end - 1, start - 1, -1))
        out.extend(self._tail)
        return out

    def free_list_sorted(self):
        """True while no out-of-order free is pending (the ckpt payload's
        ``free_sorted``)."""
        return not self._tail

    def load_free_list(self, frames, is_sorted):
        """Restore a :meth:`free_list` image; ``is_sorted`` is
        :meth:`free_list_sorted` at save time.  An unsorted image comes
        back as one out-of-order tail: same order, same picks."""
        frames = list(frames)
        self._extents = []
        self._tail = []
        self._n_free = len(frames)
        if not is_sorted:
            self._tail = frames
            return
        for frame in frames:  # descending
            if self._extents and self._extents[-1][0] == frame + 1:
                self._extents[-1][0] = frame
            else:
                self._extents.append([frame, frame + 1])

    # ------------------------------------------------------------ backing

    def _map_frames(self):
        """Start from a fresh, all-zero mapping with no frame touched."""
        self._mem = mmap.mmap(-1, self.n_frames * PAGE_SIZE)
        self._view = memoryview(self._mem)
        self._touched = bytearray(self.n_frames)

    def _claim(self, frame):
        """Zero ``frame``'s page and mark it allocated (refcount 1)."""
        if self._touched[frame]:
            # Reclaimed page: scrub whatever the previous owner left.
            start = frame * PAGE_SIZE
            self._mem[start : start + PAGE_SIZE] = _ZERO_PAGE
        else:
            self._touched[frame] = 1
        self._refcount[frame] = 1

    # --------------------------------------------------------- allocation

    def alloc_frame(self):
        """Allocate one zeroed frame; returns the frame number."""
        if not self._n_free:
            raise OutOfMemory("no free frames")
        if self.fragmented and self._n_free > 1:
            # Alternate between the two ends of the free list to break up
            # physically-contiguous runs.
            self._alloc_parity ^= 1
            frame = self._pop_last() if self._alloc_parity else \
                self._pop_first()
        else:
            frame = self._pop_last()
        self._claim(frame)
        return frame

    def _pop_last(self):
        """Pop the free list's last entry: the newest out-of-order free,
        otherwise the lowest free frame."""
        self._n_free -= 1
        if self._tail:
            return self._tail.pop()
        lowest = self._extents[-1]
        frame = lowest[0]
        lowest[0] = frame + 1
        if lowest[0] == lowest[1]:
            self._extents.pop()
        return frame

    def _pop_first(self):
        """Pop the free list's first entry: the highest sorted frame,
        otherwise the oldest out-of-order free."""
        self._n_free -= 1
        if not self._extents:
            return self._tail.pop(0)
        highest = self._extents[0]
        highest[1] -= 1
        if highest[0] == highest[1]:
            del self._extents[0]
        return highest[1]

    def alloc_frame_in(self, lo, hi):
        """Allocate a zeroed frame with ``lo <= frame < hi``.

        Tiered-memory managers use frame-number bands as tiers (low band =
        fast DRAM, high band = slow CXL/NVM).  The free list is scanned
        from its end: the out-of-order tail newest first, then the sorted
        frames lowest first.
        """
        tail = self._tail
        for i in range(len(tail) - 1, -1, -1):
            frame = tail[i]
            if lo <= frame < hi:
                del tail[i]
                self._n_free -= 1
                self._claim(frame)
                return frame
        extents = self._extents
        for i in range(len(extents) - 1, -1, -1):
            start, end = extents[i]
            if end > lo and start < hi:
                frame = max(start, lo)
                if frame == start:
                    extents[i][0] = start + 1
                elif frame == end - 1:
                    extents[i][1] = frame
                else:
                    extents[i:i + 1] = [[frame + 1, end], [start, frame]]
                if extents[i][0] == extents[i][1]:
                    del extents[i]
                self._n_free -= 1
                self._claim(frame)
                return frame
        raise OutOfMemory("no free frames in [%d, %d)" % (lo, hi))

    def _merge_tail(self):
        """Fold every out-of-order free into the extents."""
        tail = self._tail
        if not tail:
            return
        self.sort_work += len(tail)
        extents = self._extents
        # Negated starts ascend along the highest-first extent list.
        keys = [-start for start, _end in extents]
        for frame in tail:
            i = bisect_right(keys, -frame)   # first extent below frame
            above = extents[i - 1] if i else None
            below = extents[i] if i < len(extents) else None
            if below is not None and below[1] == frame:
                below[1] = frame + 1
                if above is not None and above[0] == frame + 1:
                    below[1] = above[1]
                    del extents[i - 1]
                    del keys[i - 1]
            elif above is not None and above[0] == frame + 1:
                above[0] = frame
                keys[i - 1] = -frame
            else:
                extents.insert(i, [frame, frame + 1])
                keys.insert(i, -frame)
        tail.clear()

    def alloc_frames(self, n, contiguous=False):
        """Allocate ``n`` frames; with ``contiguous=True`` they are adjacent.

        A contiguous allocation picks the *lowest* free run of ``n``
        frames and leaves the free list fully sorted, so subsequent
        single allocations pop the lowest frame.
        """
        if contiguous:
            self._merge_tail()
            extents = self._extents
            for i in range(len(extents) - 1, -1, -1):
                start, end = extents[i]
                if end - start >= n > 0:
                    if end - start == n:
                        del extents[i]
                    else:
                        extents[i][0] = start + n
                    self._n_free -= n
                    frames = list(range(start, start + n))
                    for frame in frames:
                        self._claim(frame)
                    return frames
            raise OutOfMemory("no contiguous run of %d frames" % n)
        if n > self._n_free:
            # All-or-nothing: never leave a half-allocated batch behind
            # (a failed mmap must not leak frames).
            raise OutOfMemory("need %d frames, %d free" % (n, self._n_free))
        return [self.alloc_frame() for _ in range(n)]

    def share_frame(self, frame):
        """Increment the reference count (CoW fork, shared memory)."""
        self._refcount[frame] += 1

    def refcount(self, frame):
        return self._refcount.get(frame, 0)

    def free_frame(self, frame):
        count = self._refcount.get(frame)
        if count is None:
            raise ValueError("double free of frame %d" % frame)
        if count == 1:
            del self._refcount[frame]
            self._n_free += 1
            extents = self._extents
            # Below every free frame with no out-of-order free pending:
            # the sorted front grows (LIFO churn); otherwise the tail.
            if self._tail or (extents and frame >= extents[-1][0]):
                self._tail.append(frame)
            elif extents and extents[-1][0] == frame + 1:
                extents[-1][0] = frame
            else:
                extents.append([frame, frame + 1])
        else:
            self._refcount[frame] = count - 1

    # ------------------------------------------------------- byte movers

    def read(self, frame, offset, length):
        """Read ``length`` bytes from ``frame`` starting at ``offset``."""
        if offset < 0 or offset + length > PAGE_SIZE:
            raise ValueError("read outside frame: off=%d len=%d" % (offset, length))
        start = frame * PAGE_SIZE + offset
        return self._mem[start : start + length]

    def write(self, frame, offset, data):
        if offset < 0 or offset + len(data) > PAGE_SIZE:
            raise ValueError("write outside frame: off=%d len=%d" % (offset, len(data)))
        start = frame * PAGE_SIZE + offset
        self._mem[start : start + len(data)] = data

    def copy_frame(self, src_frame, dst_frame):
        """Copy a whole frame (the CoW handler's page copy)."""
        self.copy_run(src_frame, 0, dst_frame, 0, PAGE_SIZE)

    # ----------------------------------------------------- bulk run movers
    #
    # A physically-contiguous run is contiguous in the mapping, so each
    # mover is one slice copy no matter how many frames it spans.
    # :func:`repro.mem.addrspace.copy_range` rides on these.

    def read_run(self, frame, offset, out, pos, nbytes):
        """Copy ``nbytes`` starting at ``(frame, offset)`` into writable
        buffer ``out`` at ``pos``; the run may span multiple frames."""
        start = frame * PAGE_SIZE + offset
        out[pos : pos + nbytes] = self._view[start : start + nbytes]

    def write_run(self, frame, offset, data_mv, pos, nbytes):
        """Copy ``nbytes`` from buffer ``data_mv`` at ``pos`` into the run
        starting at ``(frame, offset)``."""
        start = frame * PAGE_SIZE + offset
        self._view[start : start + nbytes] = data_mv[pos : pos + nbytes]

    def copy_run(self, src_frame, src_off, dst_frame, dst_off, nbytes):
        """Frame-to-frame run copy (``memmove`` between physical runs)."""
        if nbytes > 0:
            self._mem.move(dst_frame * PAGE_SIZE + dst_off,
                           src_frame * PAGE_SIZE + src_off, nbytes)

    # -------------------------------------------------------- checkpointing

    def snapshot_frames(self):
        """Plain-data image of every allocated frame: ``{frame: bytes}``.

        The per-frame dict shape is the ckpt payload contract (stable
        across backing rewrites): restore into a pool of any layout via
        :meth:`load_frames`.
        """
        mem = self._mem
        out = {}
        for frame in self._refcount:
            start = frame * PAGE_SIZE
            out[frame] = mem[start : start + PAGE_SIZE]
        return out

    def load_frames(self, mapping):
        """Replace frame contents from a :meth:`snapshot_frames` image.

        Every frame outside the image reads zero afterwards.  Only the
        bytes are restored; the caller restores refcounts and the free
        list separately (ckpt machine restore).
        """
        self._map_frames()
        mem = self._mem
        touched = self._touched
        for frame, data in mapping.items():
            start = frame * PAGE_SIZE
            mem[start : start + PAGE_SIZE] = data
            touched[frame] = 1

    def paddr(self, frame, offset=0):
        return frame * PAGE_SIZE + offset
