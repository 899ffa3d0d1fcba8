"""Fault-injection stress: the copy path must degrade, never corrupt.

Seeded random workloads run with every fault plan armed; afterwards the
final memory must equal the synchronous-baseline oracle
(:func:`repro.baselines.synccopy.user_memcpy` on a fault-free system)
byte for byte — no torn copies — and every page pin must have been
released.  The mixed plan additionally must show the acceptance-criteria
signals: at least one engine fallback and at least one successful retry
in ``stats_snapshot()``.

Also unit-tests the :mod:`repro.faultinject` primitives themselves:
plan parsing, per-kind seeded determinism, and the ``max_consecutive``
cap that keeps every retry loop in the copy path live.
"""

import random

import pytest

from repro.baselines.synccopy import user_memcpy
from repro.faultinject import (FAULT_KINDS, PLAN_NAMES, FaultInjector,
                               FaultPlan, FaultSpec)
from repro.kernel.system import System
from repro.sim import Timeout
from tests.copier.conftest import Setup

N_BUFFERS = 3
BUF_BYTES = 32 * 1024
RUN_LIMIT = 500_000_000_000


def _initial(i):
    buf = bytearray(BUF_BYTES)
    for j in range(0, BUF_BYTES, 128):
        buf[j] = (i * 43 + j // 128) % 251
    return bytes(buf)


def _make_ops(seed, n_ops):
    rng = random.Random(("faultstress", seed).__repr__())
    ops = []
    for _ in range(n_ops):
        offset = rng.randrange(0, BUF_BYTES - 4096, 64)
        length = rng.randrange(2048, min(12 * 1024, BUF_BYTES - offset))
        if rng.random() < 0.75:
            src = rng.randrange(N_BUFFERS)
            dst = rng.choice([i for i in range(N_BUFFERS) if i != src])
            ops.append(("copy", src, dst, offset, length))
        else:
            ops.append(("csync", rng.randrange(N_BUFFERS), offset, length))
    return ops


def _oracle(ops):
    """The same ops on a fault-free baseline system via sync user memcpy."""
    system = System(n_cores=2, copier=False, phys_frames=8192)
    proc = system.create_process("oracle")
    bases = [proc.mmap(BUF_BYTES, populate=True, contiguous=True)
             for _ in range(N_BUFFERS)]
    for i, base in enumerate(bases):
        proc.write(base, _initial(i))

    def app():
        for op in ops:
            if op[0] == "copy":
                _k, src, dst, offset, length = op
                yield from user_memcpy(system, proc, bases[dst] + offset,
                                       bases[src] + offset, length)

    sim = proc.spawn(app(), affinity=0)
    system.env.run_until(sim.terminated, limit=RUN_LIMIT)
    return [proc.read(base, BUF_BYTES) for base in bases]


#: Kinds that corrupt silently — the engines report success, so plain
#: recovery machinery cannot preserve correctness; only the opt-in
#: end-to-end CRC (or the typed poison abort) defends against them.
SILENT_KINDS = ("dma_bitflip", "engine_torn_write", "frame_poison")


def _run_faulted(plan, ops, **setup_kwargs):
    """Run ``ops`` on a Copier service with ``plan`` armed; returns
    ``(setup, final_buffers)``."""
    setup = Setup(n_frames=8192, fault_plan=plan, **setup_kwargs)
    aspace, client = setup.aspace, setup.client
    bases = [aspace.mmap(BUF_BYTES, populate=True, contiguous=True)
             for _ in range(N_BUFFERS)]
    for i, base in enumerate(bases):
        aspace.write(base, _initial(i))

    def app():
        for op in ops:
            if op[0] == "copy":
                _k, src, dst, offset, length = op
                # Bracket each submission like a syscall would, so the
                # trap/return barrier path (delayed_trap_return's site)
                # is exercised too.
                client.on_trap()
                yield from client.amemcpy(bases[dst] + offset,
                                          bases[src] + offset, length)
                client.on_return()
            else:
                _k, idx, offset, length = op
                yield from client.csync(bases[idx] + offset, length)
        yield from client.csync_all()

    setup.run_process(app(), limit=RUN_LIMIT)
    return setup, [aspace.read(base, BUF_BYTES) for base in bases]


def _leaked_pins(aspace):
    return sum(pte.pin_count for pte in aspace.page_table.values())


# ----------------------------------------------------------------- stress


class TestFaultedWorkloads:
    def test_mixed_plan_degrades_gracefully(self):
        """The acceptance run: mixed plan, oracle-equal memory, no leaked
        pins, and the recovery machinery demonstrably engaged."""
        ops = _make_ops(seed=1, n_ops=60)
        setup, bufs = _run_faulted(FaultPlan.mixed(1), ops)
        assert bufs == _oracle(ops)
        assert _leaked_pins(setup.aspace) == 0
        snap = setup.service.stats_snapshot()
        rec = snap["faults"]["recovery"]
        assert rec["engine_fallbacks"] >= 1
        assert rec["retries_ok"] >= 1
        assert sum(snap["faults"]["injected"].values()) >= 1

    @pytest.mark.parametrize("kind",
                             [k for k in FAULT_KINDS
                              if k not in SILENT_KINDS])
    def test_each_fault_kind_preserves_correctness(self, kind):
        ops = _make_ops(seed=3, n_ops=30)
        plan = FaultPlan.single(kind, seed=2, rate=0.3)
        setup, bufs = _run_faulted(plan, ops)
        assert bufs == _oracle(ops), "torn copy under %s" % kind
        assert _leaked_pins(setup.aspace) == 0, "leaked pins under %s" % kind
        assert setup.service.stats_snapshot()["faults"]["plan"] == kind

    @pytest.mark.parametrize("kind", ["dma_bitflip", "engine_torn_write"])
    def test_silent_corruption_caught_by_e2e_crc(self, kind):
        """The silent kinds lie about success; with the end-to-end CRC
        armed the mismatch is caught at retirement and repaired, so the
        final memory still equals the fault-free oracle."""
        ops = _make_ops(seed=3, n_ops=30)
        plan = FaultPlan.single(kind, seed=2, rate=0.3)
        setup, bufs = _run_faulted(plan, ops, e2e_crc=True)
        assert bufs == _oracle(ops), "corruption survived e2e crc (%s)" % kind
        assert _leaked_pins(setup.aspace) == 0, "leaked pins under %s" % kind
        integ = setup.service.stats_snapshot()["integrity"]
        assert integ["crc_checks"] >= 1
        assert integ["crc_mismatches"] >= 1, "fault never fired (%s)" % kind
        assert integ["reexec_tasks"] >= 1

    def test_persistent_submit_failure_quarantines_dma(self):
        ops = _make_ops(seed=5, n_ops=40)
        setup, bufs = _run_faulted(FaultPlan.dma_submit_persistent(0), ops)
        assert bufs == _oracle(ops)
        assert _leaked_pins(setup.aspace) == 0
        snap = setup.service.stats_snapshot()
        rec = snap["faults"]["recovery"]
        assert rec["dma_submit_exhausted"] >= 2
        assert rec["engine_fallbacks"] >= 1
        assert snap["faults"]["dma_quarantined"]
        assert snap["dma"]["submit_failures"] >= rec["dma_submit_failures"]

    def test_abort_racing_dma_abort_releases_pins_once(self):
        """A client ``abort()`` racing in-flight tasks whose DMA engine
        keeps aborting must release every pin exactly once: the run ends
        with no leaked pins and no pin count ever driven negative by a
        double unpin on the abort/fallback seam."""
        plan = FaultPlan.single("dma_abort", seed=4, rate=0.8)
        setup = Setup(n_frames=8192, fault_plan=plan)
        aspace, client = setup.aspace, setup.client
        src = aspace.mmap(BUF_BYTES, populate=True, contiguous=True)
        dst = aspace.mmap(BUF_BYTES, populate=True, contiguous=True)
        aspace.write(src, _initial(0))

        def app():
            for _ in range(8):
                yield from client.amemcpy(dst, src, BUF_BYTES)
                # Let the worker ingest, pin, and launch (and, per the
                # plan, abort) DMA before yanking the task out from under
                # it; vary nothing else so the race window is the plan's.
                yield Timeout(300)
                yield from client.abort(dst, BUF_BYTES)
                yield Timeout(50_000)
            yield from client.csync_all()

        setup.run_process(app(), limit=RUN_LIMIT)
        pin_counts = [pte.pin_count for pte in aspace.page_table.values()]
        assert min(pin_counts, default=0) >= 0
        assert _leaked_pins(setup.aspace) == 0
        snap = setup.service.stats_snapshot()
        assert snap["clients"]["app"]["aborted"] >= 1
        assert snap["faults"]["injected"].get("dma_abort", 0) >= 1

    @pytest.mark.faultfree  # must stay unarmed even under the CI soak env
    def test_unarmed_run_matches_oracle_and_records_nothing(self):
        ops = _make_ops(seed=7, n_ops=30)
        setup, bufs = _run_faulted(None, ops)
        assert bufs == _oracle(ops)
        assert _leaked_pins(setup.aspace) == 0
        faults = setup.service.stats_snapshot()["faults"]
        assert faults["armed"] is False and faults["plan"] is None
        assert not faults["injected"]
        assert all(v == 0 for v in faults["recovery"].values())

    def test_armed_runs_are_deterministic(self):
        """Same plan, same seed, same workload → identical final cycle
        count and identical fault counters (the determinism guarantee)."""
        ops = _make_ops(seed=9, n_ops=30)
        setup_a, bufs_a = _run_faulted(FaultPlan.mixed(4), ops)
        setup_b, bufs_b = _run_faulted(FaultPlan.mixed(4), ops)
        assert bufs_a == bufs_b
        assert setup_a.env.now == setup_b.env.now
        snap_a = setup_a.service.stats_snapshot()["faults"]
        snap_b = setup_b.service.stats_snapshot()["faults"]
        assert snap_a["injected"] == snap_b["injected"]
        assert snap_a["recovery"] == snap_b["recovery"]


# ------------------------------------------------------------- primitives


class TestFaultPlan:
    def test_named_covers_every_registered_plan(self):
        for name in PLAN_NAMES:
            plan = FaultPlan.named(name, seed=3)
            assert plan.name == name and plan.seed == 3

    def test_named_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            FaultPlan.named("cosmic_rays")

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("cosmic_rays", 0.5)
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("dma_abort", 0.0)
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("dma_abort", 1.5)
        with pytest.raises(ValueError, match="max_consecutive"):
            FaultSpec("dma_abort", 0.5, max_consecutive=0)

    def test_from_env_unset_or_off_is_none(self):
        for env in ({}, {"COPIER_FAULT_PLAN": ""},
                    {"COPIER_FAULT_PLAN": "none"},
                    {"COPIER_FAULT_PLAN": "off"},
                    {"COPIER_FAULT_PLAN": "0"}):
            assert FaultPlan.from_env(env) is None

    def test_from_env_parses_plan_and_seed(self):
        plan = FaultPlan.from_env({"COPIER_FAULT_PLAN": "mixed",
                                   "COPIER_FAULT_SEED": "17"})
        assert plan.name == "mixed" and plan.seed == 17
        plan = FaultPlan.from_env({"COPIER_FAULT_PLAN": "dma_abort"})
        assert plan.name == "dma_abort" and plan.seed == 0


class TestFaultInjector:
    def _sequence(self, plan, kind, n=300):
        inj = FaultInjector(plan)
        return [inj.fire(kind) for _ in range(n)]

    def test_same_seed_same_sequence(self):
        a = self._sequence(FaultPlan.mixed(11), "dma_submit_fail")
        b = self._sequence(FaultPlan.mixed(11), "dma_submit_fail")
        assert a == b and any(a)

    def test_different_seeds_diverge(self):
        a = self._sequence(FaultPlan.mixed(11), "dma_submit_fail")
        b = self._sequence(FaultPlan.mixed(12), "dma_submit_fail")
        assert a != b

    def test_kinds_draw_independently(self):
        """Interleaving calls for one kind must not perturb another —
        the per-kind RNG split that makes runs replayable."""
        inj = FaultInjector(FaultPlan.mixed(2))
        solo = self._sequence(FaultPlan.mixed(2), "pin_fail", 100)
        interleaved = []
        for _ in range(100):
            inj.fire("dma_submit_fail")
            interleaved.append(inj.fire("pin_fail"))
            inj.fire("engine_stall")
        assert interleaved == solo

    def test_max_consecutive_caps_runs(self):
        plan = FaultPlan("always", 0,
                         [FaultSpec("pin_fail", 1.0, max_consecutive=3)])
        fires = self._sequence(plan, "pin_fail", 12)
        # rate=1.0 fires until the cap forces a miss: 3 on, 1 off.
        assert fires == [True, True, True, False] * 3

    def test_stall_cycles_within_spec_bounds(self):
        plan = FaultPlan.single("engine_stall", seed=1, rate=1.0,
                                max_consecutive=2, min_cycles=100,
                                max_cycles=200)
        inj = FaultInjector(plan)
        stalls = [inj.stall_cycles() for _ in range(50)]
        fired = [s for s in stalls if s]
        assert fired and all(100 <= s <= 200 for s in fired)
        assert 0 in stalls  # the cap forces non-firing gaps

    def test_unarmed_injector_is_inert(self):
        inj = FaultInjector(None)
        assert inj.armed is False
        assert inj.fire("dma_abort") is False
        assert inj.stall_cycles() == 0
        assert inj.as_dict() == {"plan": None, "seed": None,
                                 "armed": False, "injected": {}}
