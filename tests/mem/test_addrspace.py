"""Address-space tests: demand paging, CoW, pinning, fork isolation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import (
    PAGE_SIZE,
    NotPresentFault,
    PhysicalMemory,
    SegmentationFault,
    SharedSegment,
)


def test_mmap_returns_page_aligned_va(aspace):
    va = aspace.mmap(100)
    assert va % PAGE_SIZE == 0


def test_demand_paging_allocates_on_first_touch(aspace, phys):
    va = aspace.mmap(PAGE_SIZE * 4)
    assert phys.frames_in_use == 0
    aspace.write(va, b"hi")
    assert phys.frames_in_use == 1
    assert aspace.fault_counts["demand_zero"] == 1


def test_populate_allocates_eagerly(aspace, phys):
    aspace.mmap(PAGE_SIZE * 4, populate=True)
    assert phys.frames_in_use == 4


def test_translate_unmapped_raises_not_present(aspace):
    va = aspace.mmap(PAGE_SIZE)
    with pytest.raises(NotPresentFault):
        aspace.translate(va)


def test_translate_outside_vma_raises_segfault(aspace):
    with pytest.raises(SegmentationFault):
        aspace.translate(0xDEAD_0000)


def test_write_to_readonly_vma_raises_segfault(aspace):
    va = aspace.mmap(PAGE_SIZE, prot="r")
    with pytest.raises(SegmentationFault):
        aspace.write(va, b"x")


def test_read_write_roundtrip_cross_page(aspace):
    va = aspace.mmap(PAGE_SIZE * 3)
    data = bytes(range(256)) * 40  # 10240 bytes, spans 3 pages
    aspace.write(va + 10, data)
    assert aspace.read(va + 10, len(data)) == data


def test_read_unwritten_returns_zeros(aspace):
    va = aspace.mmap(PAGE_SIZE)
    assert aspace.read(va, 16) == b"\x00" * 16


def test_frames_for_spans_pages(aspace):
    va = aspace.mmap(PAGE_SIZE * 2, populate=True)
    spans = aspace.frames_for(va + 100, PAGE_SIZE)
    assert len(spans) == 2
    assert spans[0][1] == 100
    assert spans[0][2] == PAGE_SIZE - 100
    assert spans[1][2] == 100
    assert sum(s[2] for s in spans) == PAGE_SIZE


def test_check_range_valid_and_invalid(aspace):
    va = aspace.mmap(PAGE_SIZE)
    aspace.check_range(va, PAGE_SIZE)
    with pytest.raises(SegmentationFault):
        aspace.check_range(va, PAGE_SIZE * 10)


def test_ensure_mapped_resolves_all_pages(aspace):
    va = aspace.mmap(PAGE_SIZE * 3)
    kinds = aspace.ensure_mapped(va, PAGE_SIZE * 3)
    assert kinds == ["demand_zero"] * 3
    # Second pass: nothing left to resolve.
    assert aspace.ensure_mapped(va, PAGE_SIZE * 3) == []


# ------------------------------------------------------------------- fork/CoW


def test_fork_shares_frames_copy_on_write(aspace, phys):
    va = aspace.mmap(PAGE_SIZE, populate=True)
    aspace.write(va, b"parent")
    child = aspace.fork()
    assert child.read(va, 6) == b"parent"
    frames_before = phys.frames_in_use
    child.write(va, b"child!")
    assert phys.frames_in_use == frames_before + 1
    assert aspace.read(va, 6) == b"parent"
    assert child.read(va, 6) == b"child!"
    assert child.fault_counts["cow_copy"] == 1


def test_fork_parent_write_also_cows(aspace):
    va = aspace.mmap(PAGE_SIZE, populate=True)
    aspace.write(va, b"before")
    child = aspace.fork()
    aspace.write(va, b"after!")
    assert child.read(va, 6) == b"before"
    assert aspace.read(va, 6) == b"after!"


def test_cow_reuse_when_sole_owner(aspace, phys):
    va = aspace.mmap(PAGE_SIZE, populate=True)
    aspace.write(va, b"data")
    child = aspace.fork()
    child.write(va, b"x")  # breaks sharing: child copies
    frames = phys.frames_in_use
    # Parent is now the sole owner of the original frame: reuse, no copy.
    aspace.write(va, b"y")
    assert phys.frames_in_use == frames
    assert aspace.fault_counts["cow_reuse"] == 1


def test_fork_shares_shm_without_cow(phys, aspace):
    seg = SharedSegment(phys, PAGE_SIZE)
    va = aspace.mmap(PAGE_SIZE, shared_segment=seg)
    aspace.write(va, b"shared")
    child = aspace.fork()
    child.write(va, b"SHARED")
    # Writes through shm are visible to both sides — no CoW.
    assert aspace.read(va, 6) == b"SHARED"


def test_shared_segment_cross_process_visibility(aspace_cls, phys):
    seg = SharedSegment(phys, PAGE_SIZE * 2)
    a = aspace_cls(phys)
    b = aspace_cls(phys)
    va_a = a.mmap(PAGE_SIZE * 2, shared_segment=seg)
    va_b = b.mmap(PAGE_SIZE * 2, shared_segment=seg)
    a.write(va_a + 4097, b"binder-msg")
    assert b.read(va_b + 4097, 10) == b"binder-msg"
    assert seg.read(4097, 10) == b"binder-msg"


# --------------------------------------------------------------------- pinning


def test_pin_defers_munmap_until_last_unpin(aspace, phys):
    va = aspace.mmap(PAGE_SIZE * 2)
    aspace.pin(va, PAGE_SIZE * 2)
    frames_pinned = phys.frames_in_use
    # munmap of a pinned range defers: translation gone, frames alive.
    aspace.munmap(va, PAGE_SIZE * 2)
    assert aspace.deferred_unmaps == 2
    assert phys.frames_in_use == frames_pinned
    with pytest.raises(SegmentationFault):
        aspace.translate(va)
    assert aspace.was_unmapped(va, PAGE_SIZE * 2)
    # The last unpin reclaims the deferred frames.
    aspace.unpin(va, PAGE_SIZE * 2)
    assert aspace.deferred_reclaimed == 2
    assert phys.frames_in_use == frames_pinned - 2
    assert aspace.pins_outstanding() == 0


def test_fork_with_pinned_pages_copies_eagerly(aspace, phys):
    va = aspace.mmap(PAGE_SIZE * 2, populate=True)
    aspace.write(va, b"dma-target")
    aspace.pin(va, PAGE_SIZE * 2)
    parent_frame, _ = aspace.translate(va)
    frames_before = phys.frames_in_use
    child = aspace.fork()
    # FOLL_PIN semantics: the pinned pages were copied for the child at
    # fork time, not CoW-shared.
    assert aspace.pinned_fork_copies == 2
    assert phys.frames_in_use == frames_before + 2
    assert child.read(va, 10) == b"dma-target"
    assert child.translate(va)[0] != parent_frame
    # The parent's mapping is untouched: still writable, same frame — an
    # in-flight DMA keeps landing where the pin promised, and the child
    # never sees those late writes.
    frame_now, offset = aspace.translate(va, write=True)
    assert frame_now == parent_frame
    phys.write(parent_frame, offset, b"late-dma!!")
    assert aspace.read(va, 10) == b"late-dma!!"
    assert child.read(va, 10) == b"dma-target"
    aspace.unpin(va, PAGE_SIZE * 2)
    assert aspace.pins_outstanding() == 0


def test_fork_pinned_child_unpinned(aspace):
    va = aspace.mmap(PAGE_SIZE, populate=True)
    aspace.pin(va, PAGE_SIZE)
    child = aspace.fork()
    # The pin belongs to the parent's in-flight copy, not the child.
    assert child.pins_outstanding() == 0
    with pytest.raises(RuntimeError):
        child.unpin(va, PAGE_SIZE)
    aspace.unpin(va, PAGE_SIZE)


def test_unpin_unpinned_rejected(aspace):
    va = aspace.mmap(PAGE_SIZE, populate=True)
    with pytest.raises(RuntimeError):
        aspace.unpin(va, PAGE_SIZE)


def test_munmap_frees_frames(aspace, phys):
    va = aspace.mmap(PAGE_SIZE * 2, populate=True)
    assert phys.frames_in_use == 2
    aspace.munmap(va, PAGE_SIZE * 2)
    assert phys.frames_in_use == 0
    with pytest.raises(SegmentationFault):
        aspace.read(va, 1)


# --------------------------------------------------------- invalidation hooks


def test_invalidation_hook_fires_on_cow_break(aspace):
    va = aspace.mmap(PAGE_SIZE, populate=True)
    aspace.write(va, b"z")
    child = aspace.fork()
    events = []
    child.register_invalidation_hook(lambda asid, vpn: events.append((asid, vpn)))
    child.write(va, b"w")
    assert events == [(child.asid, va // PAGE_SIZE)]


def test_invalidation_hook_fires_on_munmap(aspace):
    va = aspace.mmap(PAGE_SIZE, populate=True)
    events = []
    aspace.register_invalidation_hook(lambda asid, vpn: events.append(vpn))
    aspace.munmap(va, PAGE_SIZE)
    assert events == [va // PAGE_SIZE]


# ------------------------------------------------------------ property tests


@settings(max_examples=50, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=PAGE_SIZE * 3),
    data=st.binary(min_size=1, max_size=PAGE_SIZE * 2),
)
def test_property_write_read_roundtrip(aspace_cls, offset, data):
    phys = PhysicalMemory(n_frames=64)
    aspace = aspace_cls(phys)
    va = aspace.mmap(PAGE_SIZE * 6)
    aspace.write(va + offset, data)
    assert aspace.read(va + offset, len(data)) == data


@settings(max_examples=30, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=PAGE_SIZE * 2),
            st.binary(min_size=1, max_size=512),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_property_fork_isolation(aspace_cls, writes):
    """After fork, child writes never leak into the parent and vice versa."""
    phys = PhysicalMemory(n_frames=256)
    parent = aspace_cls(phys)
    va = parent.mmap(PAGE_SIZE * 3, populate=True)
    parent.write(va, b"\xaa" * (PAGE_SIZE * 3))
    child = parent.fork()
    for offset, data in writes:
        child.write(va + offset, data)
    assert parent.read(va, PAGE_SIZE * 3) == b"\xaa" * (PAGE_SIZE * 3)


@settings(max_examples=30, deadline=None)
@given(n_pages=st.integers(min_value=1, max_value=8))
def test_property_ensure_mapped_is_idempotent(aspace_cls, n_pages):
    phys = PhysicalMemory(n_frames=64)
    aspace = aspace_cls(phys)
    va = aspace.mmap(PAGE_SIZE * n_pages)
    first = aspace.ensure_mapped(va, PAGE_SIZE * n_pages)
    assert len(first) == n_pages
    assert aspace.ensure_mapped(va, PAGE_SIZE * n_pages) == []
    assert phys.frames_in_use == n_pages
