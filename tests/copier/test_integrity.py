"""End-to-end copy-path integrity: the CRC lifecycle and poison aborts.

The silent-corruption *repair* paths (dma_bitflip / engine_torn_write
under ``e2e_crc``) are stressed in :mod:`tests.copier.test_fault_injection`;
here we pin the rest of the contract: a poisoned frame surfaces as a
typed :class:`~repro.copier.errors.TaskPoisoned` at csync (never as
silent data), the ``"integrity"`` stats section has the documented shape
and stays *absent* on unarmed clean runs (byte-identity discipline), and
a clean run with the CRC armed counts checks but zero mismatches.
"""

import pytest

from repro.copier.errors import CopyAborted, TaskPoisoned
from repro.faultinject import FaultPlan
from tests.copier.conftest import Setup

BUF_BYTES = 32 * 1024
RUN_LIMIT = 500_000_000_000


def _two_buffers(setup):
    aspace = setup.aspace
    src = aspace.mmap(BUF_BYTES, populate=True, contiguous=True)
    dst = aspace.mmap(BUF_BYTES, populate=True, contiguous=True)
    aspace.write(src, bytes((7 + i) % 251 for i in range(BUF_BYTES)))
    return src, dst


def test_frame_poison_delivers_typed_error_at_csync():
    plan = FaultPlan.single("frame_poison", seed=1, rate=1.0)
    setup = Setup(n_frames=8192, fault_plan=plan)
    src, dst = _two_buffers(setup)
    client = setup.client
    caught = []

    def app():
        yield from client.amemcpy(dst, src, BUF_BYTES)
        try:
            yield from client.csync(dst, BUF_BYTES)
        except TaskPoisoned as exc:
            caught.append(exc)

    setup.run_process(app(), limit=RUN_LIMIT)
    assert len(caught) == 1
    assert isinstance(caught[0], CopyAborted)  # poison is an abort subtype
    assert client.stats.poisoned_tasks == 1
    snap = setup.service.stats_snapshot()
    assert snap["integrity"]["poisoned_tasks"] == 1
    # Poison aborts the task; nothing pins, nothing leaks.
    leaked = sum(p.pin_count for p in setup.aspace.page_table.values())
    assert leaked == 0


def test_integrity_section_shape_and_clean_armed_run():
    setup = Setup(n_frames=8192, e2e_crc=True)
    src, dst = _two_buffers(setup)
    client = setup.client

    def app():
        yield from client.amemcpy(dst, src, BUF_BYTES)
        # csync_all (not a ranged csync) so the task actually *retires*
        # — the CRC verification runs at retirement, not at readiness.
        yield from client.csync_all()

    setup.run_process(app(), limit=RUN_LIMIT)
    assert setup.aspace.read(dst, BUF_BYTES) == \
        setup.aspace.read(src, BUF_BYTES)
    integ = setup.service.stats_snapshot()["integrity"]
    assert integ["e2e_crc"] is True
    assert integ["crc_checks"] >= 1
    assert integ["crc_mismatches"] == 0
    assert integ["reexec_tasks"] == 0
    assert integ["reexec_bytes"] == 0
    assert integ["poisoned_tasks"] == 0
    assert integ["quarantines"] == 0
    assert integ["overlap_skips"] == 0
    assert integ["dma_bitflips"] == 0


def test_unarmed_clean_run_has_no_integrity_section():
    # Explicit False: this must hold even when the suite runs under
    # COPIER_E2E_CRC=1 (the CI integrity-soak job).
    setup = Setup(n_frames=8192, e2e_crc=False)
    src, dst = _two_buffers(setup)
    client = setup.client

    def app():
        yield from client.amemcpy(dst, src, BUF_BYTES)
        yield from client.csync_all()

    setup.run_process(app(), limit=RUN_LIMIT)
    assert "integrity" not in setup.service.stats_snapshot()


def test_e2e_crc_env_knob(monkeypatch):
    monkeypatch.setenv("COPIER_E2E_CRC", "1")
    assert Setup(n_frames=4096).service.e2e_crc is True
    monkeypatch.setenv("COPIER_E2E_CRC", "0")
    assert Setup(n_frames=4096).service.e2e_crc is False


def test_segments_a_csync_returned_are_not_rechecked_at_retirement():
    """A csync verifies the segments it hands back; the client may then
    rewrite them, and retirement checks only the rest (a retirement-time
    check of the whole destination read the client's write as corruption
    and "repaired" it from the source)."""
    setup = Setup(n_frames=8192, e2e_crc=True)
    src, dst = _two_buffers(setup)
    client, aspace = setup.client, setup.aspace

    def app():
        yield from client.amemcpy(dst, src, BUF_BYTES)
        yield from client.csync(dst, 4096)
        aspace.write(dst, b"\xee" * 4096)
        yield from client.csync_all()

    setup.run_process(app(), limit=RUN_LIMIT)
    assert aspace.read(dst, 4096) == b"\xee" * 4096
    assert aspace.read(dst + 4096, BUF_BYTES - 4096) == \
        aspace.read(src + 4096, BUF_BYTES - 4096)
    integ = setup.service.integrity
    assert integ.crc_checks == 1
    assert integ.crc_mismatches == 0


def test_poison_with_e2e_crc_still_aborts_loudly():
    # Poison wins over repair: a poisoned frame is not silently "fixed"
    # by the CRC machinery — it is an abort, surfaced as such.
    plan = FaultPlan.single("frame_poison", seed=2, rate=1.0)
    setup = Setup(n_frames=8192, fault_plan=plan, e2e_crc=True)
    src, dst = _two_buffers(setup)
    client = setup.client

    def app():
        yield from client.amemcpy(dst, src, BUF_BYTES)
        with pytest.raises(TaskPoisoned):
            yield from client.csync(dst, BUF_BYTES)

    setup.run_process(app(), limit=RUN_LIMIT)
    assert setup.service.integrity.poisoned_tasks == 1
