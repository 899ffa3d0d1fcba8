"""System bundle and OSProcess tests."""

import pytest

from repro.ckpt import checkpoint, restore
from repro.kernel import System
from repro.mem import AddressSpace
from repro.mem.pagewalk import PageWalkAddressSpace
from repro.mem.phys import PAGE_SIZE
from repro.sim import Compute, Environment
from repro.sim.heapengine import HeapEnvironment


class TestSystemConstruction:
    def test_copier_enabled_reserves_last_core(self):
        system = System(n_cores=4, copier=True)
        assert system.copier is not None
        assert system.copier.dedicated_cores == [3]

    def test_copier_disabled(self):
        system = System(n_cores=2, copier=False)
        assert system.copier is None
        proc = system.create_process("p")
        assert proc.client is None

    def test_create_process_registers_client(self):
        system = System(n_cores=2, copier=True)
        proc = system.create_process("p", cgroup="root")
        assert proc.client in system.copier.clients
        assert proc in system.processes


class TestTiming:
    def test_trap_and_sysret_charge_and_mark_barriers(self):
        system = System(n_cores=2, copier=True)
        proc = system.create_process("p")
        before = proc.client.barriers.barriers_recorded

        def gen():
            t0 = system.env.now
            yield from proc.trap()
            yield from proc.sysret()
            return system.env.now - t0

        p = proc.spawn(gen(), affinity=0)
        system.env.run_until(p.terminated, limit=10_000_000)
        assert p.result == (system.params.syscall_trap_cycles
                            + system.params.syscall_return_cycles)
        assert proc.client.barriers.barriers_recorded == before + 2

    def test_ub_trap_cost_override(self):
        system = System(n_cores=2, copier=False)
        proc = system.create_process("p")

        def gen():
            t0 = system.env.now
            yield from proc.trap(cost=120)
            return system.env.now - t0

        p = proc.spawn(gen(), affinity=0)
        system.env.run_until(p.terminated, limit=10_000_000)
        assert p.result == 120

    def test_app_compute_inflates_after_pollution(self):
        system = System(n_cores=2, copier=False)
        proc = system.create_process("p")
        clean = system.app_compute(proc, 10_000)
        system.cache.pollute(proc.cache_key, system.params.l1l2_bytes)
        dirty = system.app_compute(proc, 10_000)
        assert dirty.cycles > clean.cycles
        # Instructions stay at the base count: CPI rises.
        assert dirty.instructions == 10_000

    def test_sync_copy_charges_demand_faults(self):
        system = System(n_cores=2, copier=False)
        proc = system.create_process("p")
        src = proc.mmap(PAGE_SIZE, populate=True)
        dst_cold = proc.mmap(PAGE_SIZE)      # unpopulated: will fault
        dst_warm = proc.mmap(PAGE_SIZE, populate=True)

        def timed(dst):
            def gen():
                t0 = system.env.now
                yield from system.sync_copy(proc, proc.aspace, src,
                                            proc.aspace, dst, 512,
                                            engine="avx")
                return system.env.now - t0
            p = proc.spawn(gen(), affinity=0)
            system.env.run_until(p.terminated, limit=10_000_000)
            return p.result

        cold = timed(dst_cold)
        warm = timed(dst_warm)
        assert cold > warm  # the fault cost landed on the critical path


class TestKernelBuffers:
    def test_alloc_free_roundtrip(self):
        system = System(n_cores=1, copier=False, phys_frames=64)
        before = system.phys.frames_in_use
        va = system.alloc_kernel_buffer(PAGE_SIZE * 3)
        assert system.phys.frames_in_use == before + 3
        system.free_kernel_buffer(va, PAGE_SIZE * 3)
        assert system.phys.frames_in_use == before

    def test_falls_back_when_no_contiguous_run(self):
        system = System(n_cores=1, copier=False, phys_frames=16,
                        fragmented=True)
        # Fragmented allocator can't give a 4-frame run easily, but the
        # fallback still returns usable memory.
        va = system.alloc_kernel_buffer(PAGE_SIZE * 4)
        system.kernel_as.write(va, b"ok")
        assert system.kernel_as.read(va, 2) == b"ok"


class TestRunAll:
    def test_run_all_collects_results(self):
        system = System(n_cores=2, copier=False)
        p1 = system.create_process("a")
        p2 = system.create_process("b")

        def gen(val):
            yield Compute(100)
            return val

        procs = [p1.spawn(gen(1), affinity=0), p2.spawn(gen(2), affinity=1)]
        assert system.run_all(procs) == [1, 2]


@pytest.mark.parametrize("knob", ["COPIER_SLOWHEAP", "COPIER_SLOWPATH"],
                         ids=["slowheap", "slowpath"])
def test_oracle_knob_selects_reference_classes(monkeypatch, knob):
    """Each oracle knob swaps in its reference class wherever a machine
    is built: the system, its processes, their forks, and a restore."""
    for name in ("COPIER_SLOWHEAP", "COPIER_SLOWPATH"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv(knob, "1")
    env_cls = HeapEnvironment if knob == "COPIER_SLOWHEAP" else Environment
    aspace_cls = (PageWalkAddressSpace if knob == "COPIER_SLOWPATH"
                  else AddressSpace)

    system = System(n_cores=2, phys_frames=1024)
    proc = system.create_process("app")
    assert type(system.env) is env_cls
    assert type(system.kernel_as) is aspace_cls
    assert type(proc.aspace) is aspace_cls
    assert type(proc.aspace.fork()) is aspace_cls

    va = proc.aspace.mmap(PAGE_SIZE * 2, populate=True)
    proc.aspace.write(va, b"walk")
    assert proc.aspace.read(va, 4) == b"walk"
    # The page walk never fills the run cache; the fast path does.
    assert (proc.aspace._run_cache == {}) == (aspace_cls is PageWalkAddressSpace)

    restored, _stores = restore(checkpoint(system).to_bytes())
    assert type(restored.env) is env_cls
    assert type(restored.kernel_as) is aspace_cls
    assert [type(p.aspace) for p in restored.processes] == [aspace_cls]
    assert restored.processes[0].aspace.read(va, 4) == b"walk"
