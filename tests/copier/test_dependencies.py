"""Order/data dependency and promotion tests (§4.2)."""

import pytest

from repro.copier.deps import (
    BarrierBookkeeping,
    PendingTasks,
    k_order_key,
    u_order_key,
)
from repro.copier.descriptor import Descriptor
from repro.copier.queues import RingQueue
from repro.copier.task import CopyTask, Region
from repro.mem import PAGE_SIZE, AddressSpace, PhysicalMemory
from repro.sim import Compute, Timeout
from tests.copier.conftest import Setup


# ---------------------------------------------------------------- unit level


def _mk_task(aspace, src, dst, n, key, kind="u", lazy=False):
    from repro.copier import task as task_mod

    t = CopyTask(
        None,
        kind,
        Region(aspace, src, n),
        Region(aspace, dst, n),
        Descriptor(n, 1024),
        task_type=task_mod.TYPE_LAZY if lazy else task_mod.TYPE_NORMAL,
    )
    t.order_key = key
    return t


@pytest.fixture
def aspace():
    return AddressSpace(PhysicalMemory(128))


class TestOrderKeys:
    def test_k_tasks_ordered_after_witnessed_u_tasks(self):
        """Fig. 6-a: K1-K4 land after U1-U2 and before U5."""
        u2 = u_order_key(1)   # second u task (position 1)
        k1 = k_order_key(2, 1)  # barrier saw 2 acquired u tasks
        u5 = u_order_key(4)
        assert u2 < k1 < u5

    def test_k_wins_the_concurrent_race(self):
        """U3/U4 submitted during the syscall: k-mode prioritized."""
        k = k_order_key(2, 1)
        u3 = u_order_key(2)  # acquired while kernel was in the syscall
        assert u3 < k or k < u3  # total order exists
        # u3's key is (3, 0, 2); k's is (2, 1, 1): k comes first.
        assert k < u3

    def test_barrier_bookkeeping_snapshots_queue_head(self):
        ring = RingQueue(16)
        barriers = BarrierBookkeeping(ring)
        ring.submit("u1")
        ring.submit("u2")
        barriers.on_trap()
        key_a = barriers.next_k_key()
        ring.submit("u3")  # concurrent thread during syscall
        key_b = barriers.next_k_key()
        barriers.on_return()
        ring.submit("u4")
        # Both k tasks witnessed exactly 2 u tasks.
        assert key_a[0] == 2 and key_b[0] == 2
        assert key_a < key_b  # k-mode FIFO among themselves
        # u4 (position 3 -> key (4,0,3)) comes after both k tasks.
        assert key_b < u_order_key(3)


class TestPendingTasks:
    def test_merged_order_iteration(self, aspace):
        pending = PendingTasks()
        t_u1 = _mk_task(aspace, 0x1000_0000, 0x1100_0000, 1024, u_order_key(0))
        t_k = _mk_task(aspace, 0x1200_0000, 0x1300_0000, 1024, k_order_key(1, 1), "k")
        t_u2 = _mk_task(aspace, 0x1400_0000, 0x1500_0000, 1024, u_order_key(1))
        for t in (t_u2, t_k, t_u1):  # insert out of order
            pending.add(t)
        assert [t.task_id for t in pending] == [
            t_u1.task_id, t_k.task_id, t_u2.task_id]

    def test_raw_dependency_detected(self, aspace):
        pending = PendingTasks()
        a_to_b = _mk_task(aspace, 0x1000_0000, 0x1100_0000, 4096, u_order_key(0))
        b_to_c = _mk_task(aspace, 0x1100_0000, 0x1200_0000, 4096, u_order_key(1))
        pending.add(a_to_b)
        pending.add(b_to_c)
        assert pending.dependencies_of(b_to_c) == [a_to_b]
        # a_to_b is b_to_c's nearest producer (the absorbable RAW source).
        assert pending.earlier(b_to_c, pending.index.writers(b_to_c.src)) \
            == [a_to_b]

    def test_war_dependency_detected(self, aspace):
        pending = PendingTasks()
        reader = _mk_task(aspace, 0x1100_0000, 0x1200_0000, 4096, u_order_key(0))
        writer = _mk_task(aspace, 0x1000_0000, 0x1100_0000, 4096, u_order_key(1))
        pending.add(reader)
        pending.add(writer)
        # writer's dst overlaps reader's src: WAR hazard.
        assert pending.dependencies_of(writer) == [reader]
        assert pending.earlier(writer, pending.index.writers(writer.src)) == []

    def test_independent_tasks_have_no_deps(self, aspace):
        pending = PendingTasks()
        t1 = _mk_task(aspace, 0x1000_0000, 0x1100_0000, 1024, u_order_key(0))
        t2 = _mk_task(aspace, 0x1200_0000, 0x1300_0000, 1024, u_order_key(1))
        pending.add(t1)
        pending.add(t2)
        assert pending.dependencies_of(t2) == []

    def test_runnable_head_skips_lazy(self, aspace):
        pending = PendingTasks()
        lazy = _mk_task(aspace, 0x1000_0000, 0x1100_0000, 1024, u_order_key(0),
                        lazy=True)
        normal = _mk_task(aspace, 0x1200_0000, 0x1300_0000, 1024, u_order_key(1))
        pending.add(lazy)
        pending.add(normal)
        assert pending.runnable_head() is normal


# ---------------------------------------------------------- integration level


def test_cross_privilege_order_respected():
    """A k-mode copy (A→B) followed by a u-mode copy (B→C) across a syscall
    return must observe A's data in C (the recv() pattern, §4.2.1)."""
    setup = Setup()
    aspace, client = setup.aspace, setup.client
    kernel_as = AddressSpace(setup.phys, name="kernel")
    a = kernel_as.mmap(PAGE_SIZE, populate=True)
    b = aspace.mmap(PAGE_SIZE, populate=True)
    c = aspace.mmap(PAGE_SIZE, populate=True)
    kernel_as.write(a, b"from-kernel!")

    from repro.copier.task import Region

    def app():
        # Kernel enters recv(): trap, k-mode submit A→B, return.
        client.on_trap()
        yield from client.k_amemcpy(
            Region(kernel_as, a, 12), Region(aspace, b, 12))
        client.on_return()
        # App immediately chains B→C (no csync in between!).
        yield from client.amemcpy(c, b, 12)
        yield from client.csync(c, 12)
        return aspace.read(c, 12)

    assert setup.run_process(app()) == b"from-kernel!"


def test_promotion_solves_head_of_line_blocking():
    """A Sync Task pulls a later small task ahead of a huge earlier one."""
    setup = Setup()
    aspace, client, params = setup.aspace, setup.client, setup.params
    big = 1 << 20  # 1 MB head-of-line blocker
    src_big = aspace.mmap(big, populate=True)
    dst_big = aspace.mmap(big, populate=True)
    src_small = aspace.mmap(PAGE_SIZE, populate=True)
    dst_small = aspace.mmap(PAGE_SIZE, populate=True)
    aspace.write(src_small, b"urgent")

    def app():
        yield from client.amemcpy(dst_big, src_big, big)
        yield from client.amemcpy(dst_small, src_small, 6)
        t0 = setup.env.now
        yield from client.csync(dst_small, 6)
        wait = setup.env.now - t0
        return wait, aspace.read(dst_small, 6)

    wait, data = setup.run_process(app())
    assert data == b"urgent"
    # Promotion made the small task jump the 1 MB queue: far faster than
    # copying the blocker first.
    assert wait < params.cpu_copy_cycles(big, engine="avx") / 2


def test_promotion_respects_raw_dependency():
    """Syncing C in A→B, B→C chains yields A's data even out of order."""
    setup = Setup()
    aspace, client = setup.aspace, setup.client
    n = 8 * 1024
    a = aspace.mmap(n, populate=True)
    b = aspace.mmap(n, populate=True)
    c = aspace.mmap(n, populate=True)
    aspace.write(a, b"\x42" * n)

    def app():
        yield from client.amemcpy(b, a, n)
        yield from client.amemcpy(c, b, n)
        yield from client.csync(c, n)
        return aspace.read(c, n)

    assert setup.run_process(app()) == b"\x42" * n


def test_promotion_respects_war_dependency():
    """Promoting a task whose dst overwrites an earlier task's src must let
    the earlier read happen first."""
    setup = Setup()
    aspace, client = setup.aspace, setup.client
    n = 4 * 1024
    a = aspace.mmap(n, populate=True)
    b = aspace.mmap(n, populate=True)
    c = aspace.mmap(n, populate=True)
    aspace.write(a, b"old-" * (n // 4))
    aspace.write(c, b"new-" * (n // 4))

    def app():
        yield from client.amemcpy(b, a, n)       # reads A
        yield from client.amemcpy(a, c, n)       # overwrites A
        yield from client.csync(a, n)            # promote the overwrite
        yield from client.csync(b, n)
        return aspace.read(b, n), aspace.read(a, n)

    b_data, a_data = setup.run_process(app())
    assert b_data == b"old-" * (n // 4)  # read happened before overwrite
    assert a_data == b"new-" * (n // 4)


def test_memmove_style_overlapping_via_two_tasks():
    """libCopier splits overlapping copies; here we verify WAW ordering of
    two overlapping destination writes lands the later task's data."""
    setup = Setup()
    aspace, client = setup.aspace, setup.client
    n = 2 * 1024
    s1 = aspace.mmap(n, populate=True)
    s2 = aspace.mmap(n, populate=True)
    d = aspace.mmap(n, populate=True)
    aspace.write(s1, b"\x01" * n)
    aspace.write(s2, b"\x02" * n)

    def app():
        yield from client.amemcpy(d, s1, n)
        yield from client.amemcpy(d, s2, n)
        yield from client.csync(d, n)
        return aspace.read(d, n)

    assert setup.run_process(app()) == b"\x02" * n
