"""SharedSegment edge cases."""

import pytest

from repro.mem import PAGE_SIZE, SharedSegment


def test_read_write_cross_page(phys):
    seg = SharedSegment(phys, PAGE_SIZE * 3)
    data = bytes(range(200)) * 30
    seg.write(PAGE_SIZE - 100, data)
    assert seg.read(PAGE_SIZE - 100, len(data)) == data


def test_write_beyond_segment_rejected(phys):
    seg = SharedSegment(phys, PAGE_SIZE)
    with pytest.raises(ValueError):
        seg.write(PAGE_SIZE - 2, b"abc")
    with pytest.raises(ValueError):
        seg.read(PAGE_SIZE - 1, 2)


def test_release_frees_frames(phys):
    seg = SharedSegment(phys, PAGE_SIZE * 2)
    assert phys.frames_in_use == 2
    seg.release()
    assert phys.frames_in_use == 0


def test_release_with_live_mapping_keeps_frames(aspace_cls, phys):
    seg = SharedSegment(phys, PAGE_SIZE)
    aspace = aspace_cls(phys)
    va = aspace.mmap(PAGE_SIZE, shared_segment=seg)
    aspace.write(va, b"held")
    seg.release()
    # The attached mapping still holds a reference: data survives.
    assert aspace.read(va, 4) == b"held"


def test_contiguous_segment_frames_adjacent(phys):
    seg = SharedSegment(phys, PAGE_SIZE * 4, contiguous=True)
    assert seg.frames == list(range(seg.frames[0], seg.frames[0] + 4))


def test_two_mappings_same_offsets(aspace_cls, phys):
    seg = SharedSegment(phys, PAGE_SIZE * 2)
    a = aspace_cls(phys)
    b = aspace_cls(phys)
    va = a.mmap(PAGE_SIZE * 2, shared_segment=seg)
    vb = b.mmap(PAGE_SIZE * 2, shared_segment=seg)
    a.write(va + 5000, b"offset-check")
    assert b.read(vb + 5000, 12) == b"offset-check"
