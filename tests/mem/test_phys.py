"""Unit tests for physical memory and frame accounting."""

import pytest

from repro.mem import PAGE_SIZE, PhysicalMemory
from repro.mem.phys import OutOfMemory


def test_alloc_returns_zeroed_frame():
    phys = PhysicalMemory(n_frames=8)
    frame = phys.alloc_frame()
    assert phys.read(frame, 0, PAGE_SIZE) == b"\x00" * PAGE_SIZE


def test_write_read_roundtrip():
    phys = PhysicalMemory(n_frames=8)
    frame = phys.alloc_frame()
    phys.write(frame, 100, b"hello")
    assert phys.read(frame, 100, 5) == b"hello"


def test_write_outside_frame_rejected():
    phys = PhysicalMemory(n_frames=8)
    frame = phys.alloc_frame()
    with pytest.raises(ValueError):
        phys.write(frame, PAGE_SIZE - 2, b"abc")


def test_out_of_memory():
    phys = PhysicalMemory(n_frames=2)
    phys.alloc_frame()
    phys.alloc_frame()
    with pytest.raises(OutOfMemory):
        phys.alloc_frame()


def test_free_returns_frame_to_pool():
    phys = PhysicalMemory(n_frames=2)
    f1 = phys.alloc_frame()
    phys.alloc_frame()
    phys.free_frame(f1)
    assert phys.frames_free == 1
    phys.alloc_frame()  # must not raise


def test_double_free_rejected():
    phys = PhysicalMemory(n_frames=4)
    frame = phys.alloc_frame()
    phys.free_frame(frame)
    with pytest.raises(ValueError):
        phys.free_frame(frame)


def test_refcounting_shares_frame():
    phys = PhysicalMemory(n_frames=4)
    frame = phys.alloc_frame()
    phys.share_frame(frame)
    assert phys.refcount(frame) == 2
    phys.free_frame(frame)
    assert phys.refcount(frame) == 1
    # Data survives while a reference remains.
    phys.write(frame, 0, b"x")
    assert phys.read(frame, 0, 1) == b"x"
    phys.free_frame(frame)
    assert phys.refcount(frame) == 0


def test_contiguous_allocation_is_adjacent():
    phys = PhysicalMemory(n_frames=32)
    frames = phys.alloc_frames(4, contiguous=True)
    assert frames == list(range(frames[0], frames[0] + 4))


def test_contiguous_allocation_fails_when_fragmented():
    phys = PhysicalMemory(n_frames=4)
    kept = [phys.alloc_frame() for _ in range(4)]
    phys.free_frame(kept[0])
    phys.free_frame(kept[2])
    with pytest.raises(OutOfMemory):
        phys.alloc_frames(2, contiguous=True)


def test_fragmented_allocator_breaks_contiguity():
    phys = PhysicalMemory(n_frames=64, fragmented=True)
    frames = [phys.alloc_frame() for _ in range(6)]
    adjacent_pairs = sum(
        1 for a, b in zip(frames, frames[1:]) if b == a + 1
    )
    assert adjacent_pairs < 5  # not a fully contiguous run


def test_copy_frame_duplicates_contents():
    phys = PhysicalMemory(n_frames=4)
    a = phys.alloc_frame()
    b = phys.alloc_frame()
    phys.write(a, 10, b"payload")
    phys.copy_frame(a, b)
    assert phys.read(b, 10, 7) == b"payload"
    # Copies are independent afterwards.
    phys.write(a, 10, b"XXXXXXX")
    assert phys.read(b, 10, 7) == b"payload"


def test_paddr_layout():
    phys = PhysicalMemory(n_frames=4)
    assert phys.paddr(3, 5) == 3 * PAGE_SIZE + 5


class _HistoricFreeList:
    """The historic allocator: one plain list whose end ``alloc_frame``
    pops, re-sorted descending in full by every contiguous allocation.
    Returns ``None`` where the real one raises :class:`OutOfMemory`."""

    def __init__(self, n_frames, fragmented):
        self.free = list(range(n_frames - 1, -1, -1))
        self.fragmented = fragmented
        self.parity = 0

    def alloc_frame(self):
        if not self.free:
            return None
        if self.fragmented and len(self.free) > 1:
            self.parity ^= 1
            return self.free.pop() if self.parity else self.free.pop(0)
        return self.free.pop()

    def alloc_frame_in(self, lo, hi):
        for i in range(len(self.free) - 1, -1, -1):
            if lo <= self.free[i] < hi:
                return self.free.pop(i)
        return None

    def alloc_contiguous(self, n):
        self.free.sort(reverse=True)
        run = []
        for frame in reversed(self.free):  # ascending
            if run and frame != run[-1] + 1:
                run = []
            run.append(frame)
            if len(run) == n:
                for f in run:
                    self.free.remove(f)
                return run
        return None

    def free_frame(self, frame):
        self.free.append(frame)


def test_contiguous_alloc_matches_reference_semantics():
    """The extent allocator makes the historic picks AND keeps the
    historic free-list order, step for step, across every allocation
    flavour and checkpoint round trips, for 5 seeds with and without
    ``fragmented`` (frame numbers feed DMA candidacy, so any drift
    changes simulated behaviour)."""
    for seed in range(5):
        for fragmented in (False, True):
            _run_against_historic(seed, fragmented)


def _run_against_historic(seed, fragmented):
    import random

    rng = random.Random(seed)
    phys = PhysicalMemory(n_frames=512, fragmented=fragmented)
    ref = _HistoricFreeList(512, fragmented)
    held = []
    for _step in range(2000):
        roll = rng.random()
        if roll < 0.25:
            n = rng.randint(1, 9)
            expected = ref.alloc_contiguous(n)
            if expected is None:
                with pytest.raises(OutOfMemory):
                    phys.alloc_frames(n, contiguous=True)
            else:
                assert phys.alloc_frames(n, contiguous=True) == expected
                held.extend(expected)
        elif roll < 0.45:
            expected = ref.alloc_frame()
            if expected is None:
                with pytest.raises(OutOfMemory):
                    phys.alloc_frame()
            else:
                assert phys.alloc_frame() == expected
                held.append(expected)
        elif roll < 0.55:
            lo = rng.randrange(512)
            hi = lo + rng.randint(1, 128)
            expected = ref.alloc_frame_in(lo, hi)
            if expected is None:
                with pytest.raises(OutOfMemory):
                    phys.alloc_frame_in(lo, hi)
            else:
                assert phys.alloc_frame_in(lo, hi) == expected
                held.append(expected)
        elif roll < 0.57:
            # A checkpoint round trip restores the same order.
            phys.load_free_list(phys.free_list(), phys.free_list_sorted())
        elif held:
            frame = held.pop(rng.randrange(len(held)))
            phys.free_frame(frame)
            ref.free_frame(frame)
        assert phys.free_list() == ref.free
        assert phys.frames_free == len(ref.free)


# ------------------------------------------------ free-list merge pressure


def test_lifo_churn_never_resorts_free_list():
    """Frees in LIFO order grow the lowest free extent directly, so no
    out-of-order tail builds up and contiguous allocation merges nothing
    (``sort_work`` stays 0)."""
    phys = PhysicalMemory(n_frames=4096)
    a = phys.alloc_frames(64, contiguous=True)
    for frame in reversed(a):
        phys.free_frame(frame)
    b = phys.alloc_frames(64, contiguous=True)
    assert b == a
    assert phys.sort_work == 0


def test_free_burst_sort_work_bounded_by_dirty_tail():
    """A burst of k out-of-order frees lands in the tail: the next
    contiguous alloc merges those k frames into the extents, never the
    whole free list.

    The counter-based assertion pins the complexity class (the historic
    path charged the full list length every time) without wall-clock
    flakiness.
    """
    phys = PhysicalMemory(n_frames=4096)
    frames = phys.alloc_frames(64, contiguous=True)
    for frame in frames:  # ascending frees break descending order fast
        phys.free_frame(frame)
    again = phys.alloc_frames(64, contiguous=True)
    assert again == frames  # semantics identical to a full re-sort
    assert 0 < phys.sort_work <= len(frames)  # dirty tail only, not ~4096
    # The tail is merged: further allocs merge nothing.
    work = phys.sort_work
    phys.alloc_frames(8, contiguous=True)
    assert phys.sort_work == work


def test_free_frame_keeps_refcount_semantics_on_shared_frames():
    phys = PhysicalMemory(n_frames=16)
    frame = phys.alloc_frame()
    phys.share_frame(frame)
    phys.free_frame(frame)           # one ref left: frame stays allocated
    assert phys.refcount(frame) == 1
    assert frame not in phys.free_list()
    phys.free_frame(frame)           # last ref: really freed
    assert phys.refcount(frame) == 0
    assert frame in phys.free_list()


# ------------------------------------------------------ flat frame backing


def test_run_movers_cross_frame_boundaries():
    phys = PhysicalMemory(n_frames=64)
    src = phys.alloc_frames(3, contiguous=True)
    dst = phys.alloc_frames(3, contiguous=True)
    blob = bytes((i * 37 + 11) % 256 for i in range(3 * PAGE_SIZE))
    phys.write_run(src[0], 0, memoryview(blob), 0, len(blob))
    # Unaligned, multi-frame copy between the two runs.
    nbytes = 2 * PAGE_SIZE + 123
    phys.copy_run(src[0], 17, dst[0], 513, nbytes)
    out = bytearray(nbytes)
    phys.read_run(dst[0], 513, memoryview(out), 0, nbytes)
    assert bytes(out) == blob[17:17 + nbytes]


def test_copy_run_overlapping_ranges_is_a_memmove():
    phys = PhysicalMemory(n_frames=16)
    frames = phys.alloc_frames(2, contiguous=True)
    blob = bytes(range(256)) * (2 * PAGE_SIZE // 256)
    phys.write_run(frames[0], 0, memoryview(blob), 0, len(blob))
    # Forward-overlapping copy within the run (dst inside [src, src+n)).
    phys.copy_run(frames[0], 0, frames[0], 1000, PAGE_SIZE + 500)
    expect = bytearray(blob)
    expect[1000:1000 + PAGE_SIZE + 500] = blob[:PAGE_SIZE + 500]
    out = bytearray(len(blob))
    phys.read_run(frames[0], 0, memoryview(out), 0, len(blob))
    assert out == expect
    # Backward-overlapping copy too.
    phys.write_run(frames[0], 0, memoryview(blob), 0, len(blob))
    phys.copy_run(frames[0], 900, frames[0], 100, PAGE_SIZE)
    expect = bytearray(blob)
    expect[100:100 + PAGE_SIZE] = blob[900:900 + PAGE_SIZE]
    out = bytearray(len(blob))
    phys.read_run(frames[0], 0, memoryview(out), 0, len(blob))
    assert out == expect


def test_reclaimed_frame_is_scrubbed():
    phys = PhysicalMemory(n_frames=8)
    frame = phys.alloc_frame()
    phys.write(frame, 0, b"\xaa" * PAGE_SIZE)
    phys.free_frame(frame)
    again = phys.alloc_frame()
    assert again == frame  # LIFO: same frame comes right back
    assert phys.read(again, 0, PAGE_SIZE) == b"\x00" * PAGE_SIZE


def test_snapshot_frames_roundtrip():
    phys = PhysicalMemory(n_frames=32)
    frames = [phys.alloc_frame() for _ in range(5)]
    for i, frame in enumerate(frames):
        phys.write(frame, 0, bytes([i + 1]) * 64)
    phys.free_frame(frames.pop())
    image = phys.snapshot_frames()
    assert sorted(image) == sorted(frames)  # only live frames captured

    other = PhysicalMemory(n_frames=32)
    other.load_frames(image)
    for i, frame in enumerate(frames):
        assert other.read(frame, 0, 64) == bytes([i + 1]) * 64


def test_highest_frame_of_large_pool_reads_zero():
    phys = PhysicalMemory(n_frames=262144)
    top = phys.n_frames - 1
    assert phys.alloc_frame_in(top, top + 1) == top
    assert phys.read(top, 0, PAGE_SIZE) == b"\x00" * PAGE_SIZE
    phys.write(top, PAGE_SIZE - 3, b"end")
    assert phys.read(top, PAGE_SIZE - 3, 3) == b"end"


def test_load_frames_zeroes_every_frame_outside_the_image():
    phys = PhysicalMemory(n_frames=16)
    frames = [phys.alloc_frame() for _ in range(6)]
    for frame in frames:
        phys.write(frame, 0, bytes([frame + 1]) * PAGE_SIZE)
    image = {3: b"\x33" * PAGE_SIZE, 9: b"\x99" * PAGE_SIZE}
    phys.load_frames(image)
    for frame in range(phys.n_frames):
        expect = image.get(frame, b"\x00" * PAGE_SIZE)
        assert phys.read(frame, 0, PAGE_SIZE) == expect, frame
