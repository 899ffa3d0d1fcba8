"""Run-based translation, the sequential-run cache, and bulk primitives.

The run cache is a software TLB (vpn → frame) fed only by successful
translates and popped through the same ``_invalidate`` plumbing that
drives :meth:`AddressSpace.register_invalidation_hook` — so every mapping
change (CoW break/downgrade, munmap) must be observable here as "the
stale frame is never returned".
"""

import pytest

from repro.mem import (
    PAGE_SIZE,
    AddressSpace,
    NotPresentFault,
    PhysicalMemory,
    SegmentationFault,
)
from repro.mem.addrspace import copy_range
from repro.mem.phys import OutOfMemory


# --------------------------------------------------------------- translate_run


def test_translate_run_contiguous_is_one_run(aspace):
    va = aspace.mmap(PAGE_SIZE * 4, populate=True, contiguous=True)
    runs = aspace.translate_run(va, PAGE_SIZE * 4)
    assert len(runs) == 1
    assert runs[0][1] == 0
    assert runs[0][2] == PAGE_SIZE * 4


def test_translate_run_respects_offsets(aspace):
    va = aspace.mmap(PAGE_SIZE * 2, populate=True, contiguous=True)
    runs = aspace.translate_run(va + 100, PAGE_SIZE)
    assert len(runs) == 1
    frame, offset, nbytes = runs[0]
    assert offset == 100 and nbytes == PAGE_SIZE


def test_translate_run_splits_at_physical_discontinuity(aspace_cls):
    phys = PhysicalMemory(n_frames=256, fragmented=True)
    aspace = aspace_cls(phys)
    va = aspace.mmap(PAGE_SIZE * 6, populate=True)
    runs = aspace.translate_run(va, PAGE_SIZE * 6)
    assert sum(r[2] for r in runs) == PAGE_SIZE * 6
    assert len(runs) > 1  # fragmented allocator breaks adjacency
    # Runs expanded per page must agree exactly with frames_for.
    expanded = []
    for frame, offset, nbytes in runs:
        while nbytes > 0:
            chunk = min(nbytes, PAGE_SIZE - offset)
            expanded.append((frame, offset, chunk))
            frame, offset, nbytes = frame + 1, 0, nbytes - chunk
    assert expanded == aspace.frames_for(va, PAGE_SIZE * 6)


def test_translate_run_raises_on_unmapped(aspace):
    va = aspace.mmap(PAGE_SIZE * 2)
    with pytest.raises(NotPresentFault):
        aspace.translate_run(va, PAGE_SIZE)


# ----------------------------------------------------------- cache soundness


def test_cow_break_never_returns_stale_frame(aspace, phys):
    va = aspace.mmap(PAGE_SIZE, populate=True)
    aspace.write(va, b"parent")
    child = aspace.fork()
    # Warm the child's run cache on the shared frame.
    shared_frame = child.translate_run(va, PAGE_SIZE)[0][0]
    child.write(va, b"child!")  # CoW break: child gets a private frame
    new_frame = child.translate_run(va, PAGE_SIZE)[0][0]
    assert new_frame != shared_frame
    assert child.read(va, 6) == b"child!"
    assert aspace.read(va, 6) == b"parent"


def test_fork_downgrade_invalidates_parent_cache(aspace):
    va = aspace.mmap(PAGE_SIZE, populate=True)
    aspace.write(va, b"before")  # warms a *writable* cache entry
    child = aspace.fork()        # downgrades the parent's PTE to CoW
    # A cached writable entry surviving the downgrade would let this
    # write land in the shared frame and leak into the child.
    aspace.write(va, b"after!")
    assert child.read(va, 6) == b"before"
    assert aspace.fault_counts["cow_copy"] + aspace.fault_counts["cow_reuse"] >= 1


def test_munmap_pops_cache_entry(phys):
    aspace = AddressSpace(phys)  # the run cache is production-only
    va = aspace.mmap(PAGE_SIZE, populate=True)
    aspace.read(va, 8)  # warm
    assert va // PAGE_SIZE in aspace._run_cache
    aspace.munmap(va, PAGE_SIZE)
    assert va // PAGE_SIZE not in aspace._run_cache
    with pytest.raises(SegmentationFault):
        aspace.translate_run(va, PAGE_SIZE)


def test_readonly_cache_entry_does_not_satisfy_writes(aspace):
    va = aspace.mmap(PAGE_SIZE, populate=True)
    child = aspace.fork()
    child.read(va, 8)  # warm a read-only (CoW) entry
    # The write must fall back to the full walk and take the CoW fault —
    # not write through the cached read-only frame.
    child.write(va, b"x")
    assert child.fault_counts["cow_copy"] + child.fault_counts["cow_reuse"] == 1
    assert aspace.read(va, 1) == b"\x00"  # parent's copy untouched
    assert child.read(va, 1) == b"x"


def test_run_cache_limit_clears(monkeypatch, aspace):
    import repro.mem.addrspace as mod
    monkeypatch.setattr(mod, "_RUN_CACHE_LIMIT", 4)
    va = aspace.mmap(PAGE_SIZE * 16, populate=True)
    for i in range(16):
        aspace.read(va + i * PAGE_SIZE, 1)
    assert len(aspace._run_cache) <= 4


# ------------------------------------------------------------ bulk primitives


def test_read_into_write_from_roundtrip(aspace):
    va = aspace.mmap(PAGE_SIZE * 3)
    data = bytes(range(256)) * 44  # crosses pages at an odd offset
    aspace.write_from(va + 7, data)
    out = bytearray(len(data))
    aspace.read_into(va + 7, out)
    assert bytes(out) == data
    assert aspace.read(va + 7, len(data)) == data


def test_copy_range_cross_aspace(aspace_cls, phys):
    a = aspace_cls(phys, name="a")
    b = aspace_cls(phys, name="b")
    src = a.mmap(PAGE_SIZE * 2, populate=True)
    dst = b.mmap(PAGE_SIZE * 2)
    payload = bytes(i % 251 for i in range(PAGE_SIZE + 500))
    a.write(src + 3, payload)
    copy_range(a, src + 3, b, dst + 9, len(payload))
    assert b.read(dst + 9, len(payload)) == payload


def test_copy_range_resolves_faults_like_read_write(aspace_cls, phys):
    fast_src, fast_dst = aspace_cls(phys), aspace_cls(phys)
    sva = fast_src.mmap(PAGE_SIZE * 3)
    dva = fast_dst.mmap(PAGE_SIZE * 3)
    copy_range(fast_src, sva, fast_dst, dva, PAGE_SIZE * 3)
    # Same demand-zero counts the read-then-write composition produces.
    assert fast_src.fault_counts["demand_zero"] == 3
    assert fast_dst.fault_counts["demand_zero"] == 3


def test_copy_range_overlap_snapshot_semantics(aspace):
    """An aliasing copy reads a snapshot: the write never feeds back."""
    va = aspace.mmap(PAGE_SIZE * 2, populate=True)
    n = PAGE_SIZE
    pattern = bytes(i % 256 for i in range(n))
    aspace.write(va, pattern)
    # Overlapping forward copy within one page run.
    copy_range(aspace, va, aspace, va + 100, n)
    assert aspace.read(va + 100, n) == pattern
    assert aspace.read(va, 100) == pattern[:100]


def test_copy_range_matches_read_write_composition(aspace_cls, phys):
    fast = aspace_cls(phys)
    ref = aspace_cls(phys)
    for aspace in (fast, ref):
        va = aspace.mmap(PAGE_SIZE * 4, populate=True)
        aspace.write(va, bytes(i % 253 for i in range(PAGE_SIZE * 2 + 123)))
    n = PAGE_SIZE + 777
    copy_range(fast, va + 11, fast, va + PAGE_SIZE * 2, n)
    ref.write(va + PAGE_SIZE * 2, ref.read(va + 11, n))
    assert fast.read(va, PAGE_SIZE * 4) == ref.read(va, PAGE_SIZE * 4)


# ----------------------------------------------------- mmap failure atomicity


def test_failed_mmap_does_not_leak_cursor_or_vma(aspace_cls):
    phys = PhysicalMemory(n_frames=4)
    aspace = aspace_cls(phys)
    cursor = aspace._mmap_cursor
    with pytest.raises(OutOfMemory):
        aspace.mmap(PAGE_SIZE * 16, populate=True)
    assert aspace._mmap_cursor == cursor
    assert aspace.vmas == []
    assert phys.frames_in_use == 0
    # The next mapping lands exactly where the failed one would have.
    va = aspace.mmap(PAGE_SIZE, populate=True)
    assert va == cursor
