"""Copy absorption tests (§4.4): layered resolution, lazy tasks, proxies."""

import pytest

from repro.copier.absorption import absorbed_bytes, resolve_sources
from repro.copier.deps import PendingTasks, u_order_key
from repro.copier.descriptor import Descriptor
from repro.copier.task import CopyTask, Region
from repro.faultinject import FaultPlan
from repro.mem import PAGE_SIZE, AddressSpace, PhysicalMemory
from repro.sim import Timeout
from tests.copier.conftest import Setup


def _mk_task(aspace, src, dst, n, key, seg=1024):
    t = CopyTask(None, "u", Region(aspace, src, n), Region(aspace, dst, n),
                 Descriptor(n, seg))
    t.order_key = key
    return t


@pytest.fixture
def aspace():
    return AddressSpace(PhysicalMemory(256))


class TestResolver:
    def test_no_producer_returns_direct_span(self, aspace):
        pending = PendingTasks()
        t = _mk_task(aspace, 0x1000_0000, 0x1100_0000, 4096, u_order_key(0))
        pending.add(t)
        spans = resolve_sources(pending, t, t.src)
        assert len(spans) == 1
        assert spans[0].va == 0x1000_0000
        assert not spans[0].absorbed

    def test_unmarked_producer_fully_absorbed(self, aspace):
        """B untouched: all of B→C reads straight from A."""
        pending = PendingTasks()
        a, b = 0x1000_0000, 0x1100_0000
        a_to_b = _mk_task(aspace, a, b, 4096, u_order_key(0))
        b_to_c = _mk_task(aspace, b, 0x1200_0000, 4096, u_order_key(1))
        pending.add(a_to_b)
        pending.add(b_to_c)
        spans = resolve_sources(pending, b_to_c, b_to_c.src)
        assert absorbed_bytes(spans) == 4096
        assert spans[0].va == a

    def test_layered_split_marked_vs_unmarked(self, aspace):
        """Fig. 8-b: marked segments come from B, unmarked from A."""
        pending = PendingTasks()
        a, b = 0x1000_0000, 0x1100_0000
        a_to_b = _mk_task(aspace, a, b, 4096, u_order_key(0))
        b_to_c = _mk_task(aspace, b, 0x1200_0000, 4096, u_order_key(1))
        pending.add(a_to_b)
        pending.add(b_to_c)
        # First 3 of 4 segments of A→B already copied (client may have
        # modified them): those bytes must come from B.
        for seg in range(3):
            a_to_b.descriptor.mark(seg)
        spans = resolve_sources(pending, b_to_c, b_to_c.src)
        assert absorbed_bytes(spans) == 1024  # only the last segment
        assert spans[0].va == b and spans[0].nbytes == 3072
        assert spans[1].va == a + 3072 and spans[1].absorbed

    def test_chain_absorption_recurses(self, aspace):
        """A→B→C→D with nothing marked resolves D's source to A."""
        pending = PendingTasks()
        a, b, c, d = (0x1000_0000, 0x1100_0000, 0x1200_0000, 0x1300_0000)
        t1 = _mk_task(aspace, a, b, 2048, u_order_key(0))
        t2 = _mk_task(aspace, b, c, 2048, u_order_key(1))
        t3 = _mk_task(aspace, c, d, 2048, u_order_key(2))
        for t in (t1, t2, t3):
            pending.add(t)
        spans = resolve_sources(pending, t3, t3.src)
        assert len(spans) == 1
        assert spans[0].va == a
        assert spans[0].absorbed

    def test_partial_overlap_with_producer(self, aspace):
        """Reader range straddling the producer's dst boundary."""
        pending = PendingTasks()
        a, b = 0x1000_0000, 0x1100_0000
        a_to_b = _mk_task(aspace, a, b, 2048, u_order_key(0))
        # Reader reads 1 KB before B plus B's first 1 KB.
        reader = _mk_task(aspace, b - 1024, 0x1200_0000, 2048, u_order_key(1))
        pending.add(a_to_b)
        pending.add(reader)
        spans = resolve_sources(pending, reader, reader.src)
        assert spans[0].va == b - 1024 and not spans[0].absorbed
        assert spans[1].va == a and spans[1].absorbed

    def test_disabled_resolver_passthrough(self, aspace):
        pending = PendingTasks()
        a, b = 0x1000_0000, 0x1100_0000
        a_to_b = _mk_task(aspace, a, b, 2048, u_order_key(0))
        b_to_c = _mk_task(aspace, b, 0x1200_0000, 2048, u_order_key(1))
        pending.add(a_to_b)
        pending.add(b_to_c)
        spans = resolve_sources(pending, b_to_c, b_to_c.src, enabled=False)
        assert absorbed_bytes(spans) == 0

    def test_finished_producer_not_absorbed(self, aspace):
        from repro.copier import task as task_mod

        pending = PendingTasks()
        a, b = 0x1000_0000, 0x1100_0000
        a_to_b = _mk_task(aspace, a, b, 2048, u_order_key(0))
        a_to_b.state = task_mod.DONE
        b_to_c = _mk_task(aspace, b, 0x1200_0000, 2048, u_order_key(1))
        pending.add(a_to_b)
        pending.add(b_to_c)
        spans = resolve_sources(pending, b_to_c, b_to_c.src)
        assert absorbed_bytes(spans) == 0


# ---------------------------------------------------------------- end to end


def test_proxy_pattern_lazy_absorb_abort():
    """The §4.4 proxy scenario: read K1→U lazy, send U→K2, abort K1→U.

    The forwarded message must land in K2 with the correct bytes while the
    intermediate user buffer is never materialized.
    """
    setup = Setup()
    aspace, client = setup.aspace, setup.client
    kernel_as = AddressSpace(setup.phys, name="kernel")
    n = 32 * 1024
    k1 = kernel_as.mmap(n, populate=True)
    k2 = kernel_as.mmap(n, populate=True)
    u = aspace.mmap(n, populate=True)
    message = bytes([i % 199 for i in range(n)])
    kernel_as.write(k1, message)

    from repro.copier.task import Region

    def proxy():
        # recv: kernel submits K1→U as lazy (proxy only reads the header).
        client.on_trap()
        yield from client.k_amemcpy(Region(kernel_as, k1, n),
                                    Region(aspace, u, n), lazy=True)
        client.on_return()
        # Proxy reads the header only.
        yield from client.csync(u, 128)
        header = aspace.read(u, 128)
        # send: app submits U→K2.
        client.on_trap()
        yield from client.k_amemcpy(Region(aspace, u, n),
                                    Region(kernel_as, k2, n))
        client.on_return()
        yield from client.csync_region(Region(kernel_as, k2, n))
        # Discard the rest of the intermediate copy.
        yield from client.abort(u, n)
        yield Timeout(50_000)
        return header, kernel_as.read(k2, n)

    header, forwarded = setup.run_process(proxy())
    assert header == message[:128]
    assert forwarded == message
    # The bulk of the message was absorbed (short-circuited K1→K2).
    assert client.stats.bytes_absorbed >= n - 1024


def _modify_intermediate_program(**service_kwargs):
    """Fig. 8-a's hazard: client modifies part of B between the two copies."""
    setup = Setup(**service_kwargs)
    aspace, client = setup.aspace, setup.client
    n = 4 * 1024
    a = aspace.mmap(n, populate=True)
    b = aspace.mmap(n, populate=True)
    c = aspace.mmap(n, populate=True)
    aspace.write(a, b"A" * n)

    def app():
        yield from client.amemcpy(b, a, n)
        # Client syncs then modifies the first KB of B (guideline-compliant).
        yield from client.csync(b, 1024)
        aspace.write(b, b"M" * 1024)
        yield from client.amemcpy(c, b, n)
        yield from client.csync(c, n)
        return aspace.read(c, n)

    result = setup.run_process(app())
    assert result == b"M" * 1024 + b"A" * (n - 1024)


def test_absorption_correct_after_client_modifies_intermediate():
    _modify_intermediate_program()


@pytest.mark.parametrize("fault_seed", range(3))
def test_client_write_after_csync_survives_e2e_crc(fault_seed):
    """The end-to-end CRC must not "repair" bytes a csync handed back.

    The csync over B's first KB verifies that segment on the way out;
    retirement then checks only what no csync returned.  With the CRC
    checked at retirement over the whole destination, the client's later
    write to B read as corruption and was overwritten from A whenever
    faults delayed retirement past it.
    """
    _modify_intermediate_program(e2e_crc=True,
                                 fault_plan=FaultPlan.mixed(fault_seed))


def test_absorption_accounting_visible_in_stats():
    setup = Setup()
    aspace, client = setup.aspace, setup.client
    n = 16 * 1024
    a = aspace.mmap(n, populate=True)
    b = aspace.mmap(n, populate=True)
    c = aspace.mmap(n, populate=True)
    aspace.write(a, b"\x77" * n)

    def app():
        yield from client.amemcpy(b, a, n, lazy=True)
        yield from client.amemcpy(c, b, n)
        yield from client.csync(c, n)
        return aspace.read(c, n)

    assert setup.run_process(app()) == b"\x77" * n
    assert client.stats.bytes_absorbed > 0
    assert setup.service.bytes_absorbed == client.stats.bytes_absorbed


def test_ablation_no_absorption_still_correct():
    """With absorption disabled the chain still produces correct data
    (the lazy producer is force-executed instead)."""
    setup = Setup(use_absorption=False)
    aspace, client = setup.aspace, setup.client
    n = 8 * 1024
    a = aspace.mmap(n, populate=True)
    b = aspace.mmap(n, populate=True)
    c = aspace.mmap(n, populate=True)
    aspace.write(a, b"\x33" * n)

    def app():
        yield from client.amemcpy(b, a, n, lazy=True)
        yield from client.amemcpy(c, b, n)
        yield from client.csync(c, n)
        return aspace.read(c, n)

    assert setup.run_process(app()) == b"\x33" * n
    assert client.stats.bytes_absorbed == 0
