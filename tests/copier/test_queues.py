"""Ring queue and descriptor unit tests (§4.1, §5.1.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.copier.descriptor import Descriptor
from repro.copier.queues import ClientQueues, QueueFull, RingQueue
from repro.sim import Environment


class TestRingQueue:
    def test_fifo_order(self):
        ring = RingQueue(8)
        for i in range(5):
            ring.submit(i)
        assert ring.drain() == [0, 1, 2, 3, 4]

    def test_len_tracks_occupancy(self):
        ring = RingQueue(8)
        assert ring.is_empty
        ring.submit("a")
        ring.submit("b")
        assert len(ring) == 2
        ring.pop()
        assert len(ring) == 1

    def test_full_queue_raises(self):
        ring = RingQueue(2)
        ring.submit(1)
        ring.submit(2)
        with pytest.raises(QueueFull):
            ring.submit(3)

    def test_wraparound_reuses_slots(self):
        ring = RingQueue(4)
        for round_no in range(5):
            for i in range(4):
                ring.submit((round_no, i))
            assert ring.drain() == [(round_no, i) for i in range(4)]
        assert ring.epoch == 5

    def test_acquire_without_publish_blocks_consumer(self):
        """The publish protocol: an acquired-but-unfilled slot stalls the
        tail (the consumer never skips unpublished slots)."""
        ring = RingQueue(8)
        idx_a = ring.acquire()
        idx_b = ring.acquire()
        ring.publish(idx_b, "second")  # published out of order
        assert ring.pop() is None       # head slot not yet valid
        ring.publish(idx_a, "first")
        assert ring.pop() == "first"
        assert ring.pop() == "second"

    def test_interleaved_producers_order_by_acquisition(self):
        """Order follows acquire order, not publish order (§5.1.1)."""
        ring = RingQueue(8)
        slots = [ring.acquire() for _ in range(3)]
        for idx in reversed(slots):
            ring.publish(idx, "task-%d" % idx)
        assert ring.drain() == ["task-0", "task-1", "task-2"]

    def test_publish_none_rejected(self):
        """``None`` marks a slot acquired but not yet published, so it
        cannot be an item."""
        ring = RingQueue(4)
        index = ring.acquire()
        with pytest.raises(ValueError):
            ring.publish(index, None)
        assert ring.pop() is None
        ring.publish(index, "item")
        assert ring.pop() == "item"

    def test_capacity_one(self):
        ring = RingQueue(1)
        ring.submit("x")
        with pytest.raises(QueueFull):
            ring.submit("y")
        assert ring.pop() == "x"
        ring.submit("y")

    def test_epoch_is_derived_from_head(self):
        """Regression: epoch must equal ``head // capacity`` at every point,
        for every capacity — a stateful counter bumped at ``head % capacity
        == 0`` counts a capacity-1 ring's every acquire as a wrap and
        drifts on partial fills."""
        for capacity in (1, 2, 3, 8):
            ring = RingQueue(capacity)
            assert ring.epoch == 0
            for _ in range(4 * capacity + 1):
                ring.acquire()
                ring.tail = ring.head  # consume without touching head
                assert ring.epoch == ring.head // capacity
            assert ring.epoch == 4 + (1 if capacity == 1 else 0)

    def test_epoch_partial_fill_does_not_wrap(self):
        """Filling and draining below capacity never advances the epoch."""
        ring = RingQueue(8)
        for round_no in range(5):
            for i in range(3):
                ring.submit(i)
            ring.drain()
        # 15 acquires on a capacity-8 ring = 1 full wrap, not 5.
        assert ring.epoch == 1

    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(st.booleans(), min_size=1, max_size=200))
    def test_property_never_loses_or_duplicates(self, ops):
        """Any submit/pop interleaving preserves exactly-once FIFO delivery."""
        ring = RingQueue(16)
        submitted = []
        popped = []
        counter = [0]
        for is_submit in ops:
            if is_submit:
                if len(ring) < ring.capacity:
                    ring.submit(counter[0])
                    submitted.append(counter[0])
                    counter[0] += 1
            else:
                item = ring.pop()
                if item is not None:
                    popped.append(item)
        popped.extend(ring.drain())
        assert popped == submitted


class TestClientQueues:
    def test_triple_is_independent(self):
        q = ClientQueues(8, "test")
        q.copy.submit("c")
        q.sync.submit("s")
        assert q.handler.is_empty
        assert q.copy.pop() == "c"
        assert q.sync.pop() == "s"


class TestDescriptor:
    def test_segment_count(self):
        assert Descriptor(4096, 1024).n_segments == 4
        assert Descriptor(4097, 1024).n_segments == 5
        assert Descriptor(100, 1024).n_segments == 1

    def test_mark_and_range_ready(self):
        d = Descriptor(4096, 1024)
        d.mark(0)
        d.mark(1)
        assert d.range_ready(0, 2048)
        assert not d.range_ready(0, 2049)
        assert not d.all_ready
        d.mark(2)
        d.mark(3)
        assert d.all_ready

    def test_mark_is_idempotent(self):
        d = Descriptor(2048, 1024)
        d.mark(0)
        d.mark(0)
        assert d.ready_segments == 1

    def test_mark_out_of_range_rejected(self):
        d = Descriptor(2048, 1024)
        with pytest.raises(IndexError):
            d.mark(2)

    def test_range_outside_descriptor_rejected(self):
        d = Descriptor(2048, 1024)
        with pytest.raises(ValueError):
            d.range_ready(1024, 2048)

    def test_ready_bytes_handles_partial_tail(self):
        d = Descriptor(2500, 1024)  # segments: 1024, 1024, 452
        d.mark(2)
        assert d.ready_bytes() == 452

    def test_waiter_fires_when_range_completes(self):
        env = Environment()
        d = Descriptor(4096, 1024)
        ev = d.wait_range(env, 0, 2048)
        d.mark(0)
        assert not ev.triggered
        d.mark(1)
        assert ev.triggered

    def test_waiter_on_ready_range_fires_immediately(self):
        env = Environment()
        d = Descriptor(2048, 1024)
        d.mark(0)
        d.mark(1)
        assert d.wait_range(env, 0, 2048).triggered

    def test_abort_wakes_waiters(self):
        env = Environment()
        d = Descriptor(2048, 1024)
        ev = d.wait_range(env, 0, 2048)
        d.abort()
        assert ev.triggered
        assert d.aborted

    @settings(max_examples=50, deadline=None)
    @given(
        length=st.integers(min_value=1, max_value=1 << 20),
        seg=st.sampled_from([256, 512, 1024, 4096]),
    )
    def test_property_all_marks_means_all_ready(self, length, seg):
        d = Descriptor(length, seg)
        for i in range(d.n_segments):
            d.mark(i)
        assert d.all_ready
        assert d.ready_bytes() == length
        assert d.range_ready(0, length)

