"""Per-process address spaces: page tables, demand paging, CoW, pinning."""

from bisect import bisect_right
from collections import deque

from repro.mem.errors import UnpinMismatchError
from repro.mem.faults import NotPresentFault, ProtectionFault, SegmentationFault
from repro.mem.phys import PAGE_SIZE
from repro.mem.vma import VMA

#: How many recently-unmapped ranges to remember for :meth:`was_unmapped`.
_UNMAP_LOG_LIMIT = 64

_DEFAULT_MMAP_BASE = 0x1000_0000

#: Soft bound on the per-aspace run-cache size; crossing it clears the
#: cache wholesale (cheaper than LRU bookkeeping on the hot path, and the
#: simulations in this repo never come close).
_RUN_CACHE_LIMIT = 1 << 16


class PTE:
    """Page-table entry."""

    __slots__ = ("frame", "writable", "cow", "pin_count")

    def __init__(self, frame, writable, cow=False):
        self.frame = frame
        self.writable = writable
        self.cow = cow
        self.pin_count = 0

    def __repr__(self):
        return "<PTE frame=%d w=%s cow=%s pins=%d>" % (
            self.frame,
            self.writable,
            self.cow,
            self.pin_count,
        )


class AddressSpace:
    """A process's virtual address space.

    Translation is explicit: :meth:`translate` raises the fault a hardware
    walk would raise, and callers decide who pays for resolution — the
    in-context kernel fault handler, or Copier's proactive handler (§4.5.4).
    Convenience accessors :meth:`read`/:meth:`write` resolve legal faults
    inline (recording them in :attr:`fault_counts`) the way the combination
    of MMU + kernel does for ordinary application accesses.

    The data path is *run-based*: :meth:`translate_run` returns maximal
    physically-contiguous frame runs backed by a per-aspace sequential-run
    cache (a software TLB keyed by vpn, invalidated through the same
    plumbing that feeds :meth:`register_invalidation_hook`), and the bulk
    primitives :meth:`read_into` / :meth:`write_from` /
    :func:`copy_range` move whole runs via ``memoryview`` slices instead
    of per-page chunk loops.  The historic per-page walkers live on as
    the reference subclass
    :class:`~repro.mem.pagewalk.PageWalkAddressSpace`, which
    :class:`~repro.kernel.System` builds under ``COPIER_SLOWPATH=1``.
    """

    _next_asid = [1]

    #: True on the per-page reference class: :func:`copy_range` then
    #: composes ``read`` and ``write`` instead of moving frame runs.
    page_walk = False

    def __init__(self, phys, name=""):
        self.phys = phys
        self.asid = AddressSpace._next_asid[0]
        AddressSpace._next_asid[0] += 1
        self.name = name or ("as-%d" % self.asid)
        self.page_table = {}
        # VMA index: ``_vmas`` is kept sorted by start address (VMAs never
        # overlap) with ``_vma_starts`` as the parallel bisect key, so
        # :meth:`find_vma` is O(log n) instead of a linear scan — the
        # historic scan was the single hottest call in whole-system
        # profiles (it sits under every translate/check_range).
        self._vmas = []
        self._vma_starts = []
        self._mmap_cursor = _DEFAULT_MMAP_BASE
        self.fault_counts = {"demand_zero": 0, "cow_copy": 0, "cow_reuse": 0}
        self._invalidation_hooks = []
        self._run_cache = {}  # vpn -> (frame, writable); the software TLB
        # Bumped by every mapping change (``_invalidate``): frame runs
        # captured at generation g are current while it still reads g.
        self.generation = 0
        # Lazy teardown: pinned pages survive their VMA as (vpn, pte)
        # entries here; the last unpin frees the frame (§4.3 lifecycle).
        self._lazy_teardown = []
        self.deferred_unmaps = 0     # pages deferred by munmap-while-pinned
        self.deferred_reclaimed = 0  # deferred pages whose last pin dropped
        self.pinned_fork_copies = 0  # pinned pages eagerly copied at fork
        self._unmap_log = deque(maxlen=_UNMAP_LOG_LIMIT)  # (start, end) ranges

    # ------------------------------------------------------------------ VMAs

    @property
    def vmas(self):
        """VMA list, sorted by start address.  Assigning replaces the
        whole list and rebuilds the bisect index (ckpt restore)."""
        return self._vmas

    @vmas.setter
    def vmas(self, value):
        self._vmas = list(value)
        self._vmas.sort(key=lambda v: v.start)
        self._vma_starts = [v.start for v in self._vmas]

    def _vma_add(self, vma):
        """Insert ``vma`` keeping the index sorted.  The mmap cursor is
        monotonic, so in practice this is an O(1) append."""
        starts = self._vma_starts
        if not starts or vma.start > starts[-1]:
            starts.append(vma.start)
            self._vmas.append(vma)
        else:
            i = bisect_right(starts, vma.start)
            starts.insert(i, vma.start)
            self._vmas.insert(i, vma)

    def _vma_remove(self, vma):
        i = bisect_right(self._vma_starts, vma.start) - 1
        if i < 0 or self._vmas[i] is not vma:
            raise ValueError("VMA not mapped: %r" % (vma,))
        del self._vmas[i]
        del self._vma_starts[i]

    def mmap(self, length, prot="rw", populate=False, shared_segment=None, name="", contiguous=False):
        """Map ``length`` bytes; returns the region's base virtual address.

        ``populate`` eagerly allocates frames (MAP_POPULATE); otherwise
        pages materialize on first touch (demand paging).  ``contiguous``
        requests physically-contiguous frames, for DMA-friendly buffers.

        Every operation that can fail (bad protection string, shared
        segment validation, frame exhaustion) runs *before* the mapping is
        installed: a failed mmap consumes no address space — the cursor
        does not advance past a guard-page gap that nothing occupies.
        """
        n_pages = pages_needed(length)
        base = self._mmap_cursor
        vma = VMA(base, base + n_pages * PAGE_SIZE, prot=prot,
                  shared_segment=shared_segment, name=name)
        frames = None
        if shared_segment is not None:
            shared_segment.attach(self, vma)
        elif populate:
            frames = self.phys.alloc_frames(n_pages, contiguous=contiguous)
        # Point of no return: nothing below raises.
        self._mmap_cursor = base + n_pages * PAGE_SIZE + PAGE_SIZE  # guard gap
        self._vma_add(vma)
        if frames is not None:
            writable = vma.writable
            for i, frame in enumerate(frames):
                self.page_table[(base // PAGE_SIZE) + i] = PTE(frame, writable)
        return base

    def map_frames(self, frames, prot="rw", name=""):
        """Map existing frames into this space (kmap / shared skb view).

        Shares the frames (refcount++); :meth:`munmap` later drops the
        references.  Returns the base virtual address.
        """
        base = self._mmap_cursor
        self._mmap_cursor += len(frames) * PAGE_SIZE + PAGE_SIZE
        vma = VMA(base, base + len(frames) * PAGE_SIZE, prot=prot, name=name)
        self._vma_add(vma)
        for i, frame in enumerate(frames):
            self.phys.share_frame(frame)
            self.page_table[(base // PAGE_SIZE) + i] = PTE(frame, vma.writable)
        return base

    def munmap(self, va, length):
        """Unmap [va, va+length); pinned pages are *deferred*, not an error.

        A pinned page (an async copy holds it — §4.3) moves to the
        lazy-teardown list: the translation disappears immediately (new
        accesses fault), but the frame stays alive until the last pin
        drops, at which point :meth:`unpin` reclaims it.  This is the
        FOLL_PIN / io_uring answer to munmap racing an in-flight DMA.
        """
        vma = self.find_vma(va)
        if vma is None or not vma.covers(va, length):
            raise SegmentationFault(va, "munmap outside VMA")
        for vpn in range(va // PAGE_SIZE, pages_end(va, length)):
            pte = self.page_table.get(vpn)
            if pte is not None:
                if pte.pin_count:
                    self._lazy_teardown.append((vpn, pte))
                    self.deferred_unmaps += 1
                else:
                    self.phys.free_frame(pte.frame)
                del self.page_table[vpn]
                self._invalidate(vpn)
        self._unmap_log.append((va, va + pages_needed(length) * PAGE_SIZE))
        if vma.start == va and vma.end == va + pages_needed(length) * PAGE_SIZE:
            self._vma_remove(vma)

    def was_unmapped(self, va, length):
        """True if [va, va+length) overlaps a recently-unmapped range.

        Lets the copy path distinguish an EFAULT-style lifecycle race
        (buffer unmapped under an in-flight task) from a never-mapped
        address (a bug, handled as SIGSEGV).  The log is bounded, so a
        very old unmap can be forgotten — the consequence is the harsher
        verdict, never a false EFAULT.
        """
        end = va + length
        for start, stop in self._unmap_log:
            if va < stop and start < end:
                return True
        return False

    def teardown(self):
        """Unmap every VMA (process exit).  Pinned pages defer as usual;
        returns the number of pages parked on the lazy-teardown list."""
        before = self.deferred_unmaps
        for vma in list(self.vmas):
            self.munmap(vma.start, vma.end - vma.start)
        return self.deferred_unmaps - before

    def pins_outstanding(self):
        """Total pin count across live and lazily-torn-down pages."""
        total = 0
        for pte in self.page_table.values():
            total += pte.pin_count
        for _vpn, pte in self._lazy_teardown:
            total += pte.pin_count
        return total

    def find_vma(self, va):
        """VMA containing ``va``, or None — O(log n) bisect over the
        sorted, non-overlapping VMA index."""
        i = bisect_right(self._vma_starts, va) - 1
        if i >= 0:
            vma = self._vmas[i]
            if va < vma.end:
                return vma
        return None

    def check_range(self, va, length, write=False):
        """Validate [va, va+length) against VMAs (Copier security check)."""
        end = va + length
        cursor = va
        vmas = self._vmas
        n_vmas = len(vmas)
        i = bisect_right(self._vma_starts, cursor) - 1
        while cursor < end:
            if i < 0 or i >= n_vmas:
                raise SegmentationFault(cursor, "no VMA")
            vma = vmas[i]
            if not (vma.start <= cursor < vma.end):
                raise SegmentationFault(cursor, "no VMA")
            if write and not vma.writable:
                raise SegmentationFault(cursor, "write to read-only VMA")
            if not write and not vma.readable:
                raise SegmentationFault(cursor, "read from unreadable VMA")
            cursor = vma.end
            i += 1

    # ----------------------------------------------------------- translation

    def translate(self, va, write=False):
        """Hardware-style walk: returns ``(frame, offset)`` or raises."""
        vma = self.find_vma(va)
        if vma is None:
            raise SegmentationFault(va)
        if write and not vma.writable:
            raise SegmentationFault(va, "write to read-only VMA")
        pte = self.page_table.get(va // PAGE_SIZE)
        if pte is None:
            raise NotPresentFault(va)
        if write and not pte.writable:
            raise ProtectionFault(va)
        return pte.frame, va % PAGE_SIZE

    def _translate_page(self, va, write):
        """Frame of the page holding ``va``: the page translate behind
        :meth:`_walk_runs` and :meth:`ensure_mapped`.

        TLB-backed :meth:`translate`: a hit skips the VMA scan and walk.

        A cached entry exists only for a page a full :meth:`translate`
        succeeded on, and every mapping change pops it (``_invalidate``),
        so a hit is always current.  A write request through a read-only
        entry falls back to the full walk so the correct fault is raised.
        """
        vpn = va // PAGE_SIZE
        entry = self._run_cache.get(vpn)
        if entry is not None and (entry[1] or not write):
            return entry[0]
        frame, _off = self.translate(va, write=write)
        if len(self._run_cache) >= _RUN_CACHE_LIMIT:
            self._run_cache.clear()
        self._run_cache[vpn] = (frame, self.page_table[vpn].writable)
        return frame

    def translate_run(self, va, length, write=False):
        """Translate [va, va+length) into maximal physically-contiguous runs.

        Returns ``[(frame, offset, nbytes), ...]`` where each entry covers
        as many pages as stay physically adjacent; raises the same faults
        :meth:`translate` would at the first untranslatable page.  The
        whole range must be mapped (use :meth:`ensure_mapped` first).
        """
        return self._walk_runs(va, length, write, resolve=False)

    def _walk_runs(self, va, length, write, resolve):
        """Core run walker behind :meth:`translate_run` and the bulk I/O.

        With ``resolve=True`` legal faults are resolved inline (counted in
        :attr:`fault_counts`, ascending-address order — byte-compatible
        with the historic per-page walkers).
        """
        runs = []
        if length <= 0:
            return runs
        cursor = va
        end = va + length
        translate_page = self._translate_page
        while cursor < end:
            while True:
                try:
                    frame = translate_page(cursor, write)
                    break
                except (NotPresentFault, ProtectionFault):
                    if not resolve:
                        raise
                    self.resolve_fault(cursor, write=write)
            offset = cursor % PAGE_SIZE
            chunk = min(end - cursor, PAGE_SIZE - offset)
            run_frame = frame
            run_offset = offset
            run_len = chunk
            cursor += chunk
            next_frame = frame + 1
            while cursor < end:
                try:
                    frame = translate_page(cursor, write)
                except (NotPresentFault, ProtectionFault):
                    break  # close the run; the outer loop resolves/raises
                if frame != next_frame:
                    break
                chunk = min(end - cursor, PAGE_SIZE)
                run_len += chunk
                cursor += chunk
                next_frame += 1
            runs.append((run_frame, run_offset, run_len))
        return runs

    def resolve_fault(self, va, write=False):
        """Resolve one legal fault at ``va``; returns the resolution kind.

        Kinds: ``"demand_zero"`` (fresh zero frame), ``"cow_copy"`` (page
        was shared — allocate and copy), ``"cow_reuse"`` (sole owner — just
        re-enable write).  Raises :class:`SegmentationFault` for illegal
        accesses.  The *caller* charges simulated time for the resolution.
        """
        vma = self.find_vma(va)
        if vma is None:
            raise SegmentationFault(va)
        if write and not vma.writable:
            raise SegmentationFault(va, "write to read-only VMA")
        vpn = va // PAGE_SIZE
        pte = self.page_table.get(vpn)
        if pte is None:
            if vma.shared_segment is not None:
                frame = vma.shared_segment.frame_for(vma, va)
                self.phys.share_frame(frame)
                self.page_table[vpn] = PTE(frame, vma.writable)
            else:
                frame = self.phys.alloc_frame()
                self.page_table[vpn] = PTE(frame, vma.writable)
            self.fault_counts["demand_zero"] += 1
            return "demand_zero"
        if write and not pte.writable:
            if not pte.cow:
                raise ProtectionFault(va, "read-only page, not CoW")
            if self.phys.refcount(pte.frame) == 1:
                # Last reference: reuse the frame without copying.
                pte.writable = True
                pte.cow = False
                self.fault_counts["cow_reuse"] += 1
                self._invalidate(vpn)
                return "cow_reuse"
            new_frame = self.phys.alloc_frame()
            self.phys.copy_frame(pte.frame, new_frame)
            self.phys.free_frame(pte.frame)
            pte.frame = new_frame
            pte.writable = True
            pte.cow = False
            self.fault_counts["cow_copy"] += 1
            self._invalidate(vpn)
            return "cow_copy"
        raise RuntimeError("resolve_fault called with no fault at 0x%x" % va)

    def ensure_mapped(self, va, length, write=False):
        """Resolve every fault in [va, va+length); returns resolution kinds.

        This is the core of Copier's *proactive fault handling*: rather
        than letting the copy trap, the service walks the range up front.
        """
        resolutions = []
        cursor = va
        end = va + length
        if length == 0:
            return resolutions
        while cursor < end:
            while True:
                try:
                    self._translate_page(cursor, write)
                    break
                except (NotPresentFault, ProtectionFault):
                    resolutions.append(self.resolve_fault(cursor, write=write))
            cursor = (cursor // PAGE_SIZE + 1) * PAGE_SIZE
        return resolutions

    # ------------------------------------------------------------- data path

    def frames_for(self, va, length, write=False):
        """Return ``[(frame, offset, chunk_len), ...]`` covering the range.

        Requires the range to be fully mapped (use :meth:`ensure_mapped`
        first); per-page spans for compatibility — contiguity-sensitive
        callers should use :meth:`translate_run` directly.
        """
        spans = []
        for frame, offset, nbytes in self._walk_runs(va, length, write,
                                                     resolve=False):
            while nbytes > 0:
                chunk = min(nbytes, PAGE_SIZE - offset)
                spans.append((frame, offset, chunk))
                nbytes -= chunk
                frame += 1
                offset = 0
        return spans

    def read(self, va, length):
        """Read bytes, resolving legal faults inline (app direct access)."""
        out = bytearray(length)
        if length:
            self.read_into(va, out)
        return bytes(out)

    def read_into(self, va, buf):
        """Fill writable buffer ``buf`` from [va, va+len(buf)) in bulk.

        Resolves legal faults inline like :meth:`read`; moves whole
        physically-contiguous runs per iteration.
        """
        mv = memoryview(buf)
        pos = 0
        read_run = self.phys.read_run
        for frame, offset, nbytes in self._walk_runs(va, len(mv), False,
                                                     resolve=True):
            read_run(frame, offset, mv, pos, nbytes)
            pos += nbytes

    def write(self, va, data):
        if len(data):
            self.write_from(va, data)

    def write_from(self, va, data):
        """Write buffer ``data`` to [va, va+len(data)) in bulk.

        Resolves legal faults inline like :meth:`write`; moves whole
        physically-contiguous runs per iteration.
        """
        mv = memoryview(data)
        pos = 0
        write_run = self.phys.write_run
        for frame, offset, nbytes in self._walk_runs(va, len(mv), True,
                                                     resolve=True):
            write_run(frame, offset, mv, pos, nbytes)
            pos += nbytes

    # ------------------------------------------------------------ pin / fork

    def pin(self, va, length, write=False):
        """Pin pages so their mapping cannot change during an async copy.

        Resolves legal faults first (ascending, like :meth:`ensure_mapped`)
        and returns the range's frame runs, as :meth:`translate_run` would
        right after.  They stay current while :attr:`generation` does.
        """
        runs = self._walk_runs(va, length, write, resolve=True)
        page_table = self.page_table
        for vpn in range(va // PAGE_SIZE, pages_end(va, length)):
            page_table[vpn].pin_count += 1
        return runs

    def unpin(self, va, length):
        page_table = self.page_table
        for vpn in range(va // PAGE_SIZE, pages_end(va, length)):
            pte = page_table.get(vpn)
            if pte is None or pte.pin_count == 0:
                if self._unpin_deferred(vpn):
                    continue
                raise UnpinMismatchError(vpn)
            pte.pin_count -= 1

    def _unpin_deferred(self, vpn):
        """Drop one pin on a lazily-torn-down page; free on the last one."""
        for i, (t_vpn, pte) in enumerate(self._lazy_teardown):
            if t_vpn == vpn and pte.pin_count > 0:
                pte.pin_count -= 1
                if pte.pin_count == 0:
                    self.phys.free_frame(pte.frame)
                    del self._lazy_teardown[i]
                    self.deferred_reclaimed += 1
                return True
        return False

    def fork(self, name=""):
        """Create a child address space sharing pages copy-on-write."""
        child = type(self)(self.phys, name=name or (self.name + "-child"))
        child._mmap_cursor = self._mmap_cursor
        for vma in self.vmas:
            child_vma = VMA(
                vma.start,
                vma.end,
                prot=("r" if vma.readable else "") + ("w" if vma.writable else ""),
                shared_segment=vma.shared_segment,
                name=vma.name,
            )
            child._vma_add(child_vma)
            if vma.shared_segment is not None:
                vma.shared_segment.attach(child, child_vma)
        for vpn, pte in self.page_table.items():
            vma = self.find_vma(vpn * PAGE_SIZE)
            if vma is not None and vma.shared_segment is not None:
                self.phys.share_frame(pte.frame)
                child.page_table[vpn] = PTE(pte.frame, pte.writable)
                continue
            if pte.pin_count:
                # FOLL_PIN semantics: a pinned page is never CoW-shared.
                # The child gets an eager copy (a consistent snapshot at
                # fork time) and the parent's frame stays writable in
                # place, so the in-flight DMA it is pinned for keeps
                # landing in the frame the pin promised.
                new_frame = self.phys.alloc_frame()
                self.phys.copy_frame(pte.frame, new_frame)
                child.page_table[vpn] = PTE(new_frame, pte.writable)
                self.pinned_fork_copies += 1
                continue
            self.phys.share_frame(pte.frame)
            child.page_table[vpn] = PTE(pte.frame, writable=False, cow=True)
            if pte.writable:
                pte.writable = False
                pte.cow = True
                self._invalidate(vpn)
        return child

    # -------------------------------------------------------- ATCache hooks

    def register_invalidation_hook(self, fn):
        """``fn(asid, vpn)`` fires whenever a mapping changes (§4.3)."""
        self._invalidation_hooks.append(fn)

    def _invalidate(self, vpn):
        self.generation += 1
        self._run_cache.pop(vpn, None)
        for fn in self._invalidation_hooks:
            fn(self.asid, vpn)


def copy_range(src_as, src_va, dst_as, dst_va, nbytes):
    """Move ``nbytes`` from ``(src_as, src_va)`` to ``(dst_as, dst_va)``.

    The bulk equivalent of ``dst_as.write(dst_va, src_as.read(src_va, n))``
    — same fault-resolution semantics (source faults resolved first, then
    destination, both in ascending address order; counted in each side's
    ``fault_counts``), same snapshot semantics (a destination write never
    feeds back into a later source read, even for aliasing ranges), but
    the bytes move frame-run to frame-run through ``memoryview`` slices
    with no intermediate buffer in the common non-aliasing case.
    """
    if nbytes == 0:
        return
    if src_as.page_walk or dst_as.page_walk:
        data = src_as.read(src_va, nbytes)
        dst_as.write(dst_va, data)
        return
    # Resolve faults up front, source first — the same order the
    # read-then-write slow path produces, so frame allocation sequences
    # (and with them DMA candidacy) are identical.
    src_runs = src_as._walk_runs(src_va, nbytes, False, resolve=True)
    dst_runs = dst_as._walk_runs(dst_va, nbytes, True, resolve=True)
    if src_as.phys is dst_as.phys and runs_alias(src_runs, dst_runs):
        buf = bytearray(nbytes)
        src_as.read_into(src_va, buf)
        dst_as.write_from(dst_va, buf)
        return
    copy_runs(src_as.phys, src_runs, 0, dst_as.phys, dst_runs, 0, nbytes)


def copy_runs(src_phys, src_runs, src_off, dst_phys, dst_runs, dst_off,
              nbytes):
    """Move ``nbytes`` from byte ``src_off`` of the range frame runs
    ``src_runs`` cover to byte ``dst_off`` of the range ``dst_runs`` cover.

    The two byte ranges must not alias (the caller checks, as
    :func:`copy_range` does).
    """
    if nbytes <= 0:
        return
    si = di = 0
    s_frame, s_off, s_left = src_runs[0]
    while src_off >= s_left:
        src_off -= s_left
        si += 1
        s_frame, s_off, s_left = src_runs[si]
    d_frame, d_off, d_left = dst_runs[0]
    while dst_off >= d_left:
        dst_off -= d_left
        di += 1
        d_frame, d_off, d_left = dst_runs[di]
    # A run is physically contiguous, so an offset past its first frame
    # still addresses the right byte.
    s_off += src_off
    s_left -= src_off
    d_off += dst_off
    d_left -= dst_off
    same_phys = src_phys is dst_phys
    while True:
        chunk = min(s_left, d_left, nbytes)
        if same_phys:
            dst_phys.copy_run(s_frame, s_off, d_frame, d_off, chunk)
        else:
            tmp = memoryview(bytearray(chunk))
            src_phys.read_run(s_frame, s_off, tmp, 0, chunk)
            dst_phys.write_run(d_frame, d_off, tmp, 0, chunk)
        nbytes -= chunk
        if nbytes == 0:
            return
        s_left -= chunk
        if s_left == 0:
            si += 1
            s_frame, s_off, s_left = src_runs[si]
        else:
            s_off += chunk
        d_left -= chunk
        if d_left == 0:
            di += 1
            d_frame, d_off, d_left = dst_runs[di]
        else:
            d_off += chunk


def slice_runs(runs, offset, length):
    """The frame runs of bytes [offset, offset+length) of the range that
    ``runs`` covers — what :meth:`AddressSpace.translate_run` returns for
    that sub-range while the mapping is unchanged."""
    out = []
    for frame, run_off, nbytes in runs:
        if offset >= nbytes:
            offset -= nbytes
            continue
        pos = run_off + offset
        take = nbytes - offset
        if take > length:
            take = length
        out.append((frame + pos // PAGE_SIZE, pos % PAGE_SIZE, take))
        length -= take
        if length <= 0:
            break
        offset = 0
    return out


def runs_alias(src_runs, dst_runs):
    """True if any source frame interval intersects a destination one."""
    for s_frame, s_off, s_len in src_runs:
        s_last = s_frame + (s_off + s_len - 1) // PAGE_SIZE
        for d_frame, d_off, d_len in dst_runs:
            d_last = d_frame + (d_off + d_len - 1) // PAGE_SIZE
            if s_frame <= d_last and d_frame <= s_last:
                return True
    return False


def pages_needed(length):
    return max(1, (length + PAGE_SIZE - 1) // PAGE_SIZE)


def pages_end(va, length):
    """Exclusive vpn bound of the range [va, va+length)."""
    if length == 0:
        return va // PAGE_SIZE
    return (va + length - 1) // PAGE_SIZE + 1
