"""The pin's translation, reused by the data path, versus a fresh walk.

A Copy Task's pin walks both ranges once and the task keeps the frame
runs (``CopyTask.runs``) until unpin.  The AVX path (``write_spans``)
and DMA candidate discovery (``Dispatcher._split_group``) slice those
runs instead of translating again, as long as neither address space's
mapping generation has moved since the pin.  Every mapping change bumps
the generation (``AddressSpace._invalidate``), so after one the task
must fall back to ``copy_range``/``translate_run`` with their EFAULT and
copy-on-write semantics.

Each program here runs twice: as built, and with ``pinned_runs``
forced to ``None`` — the data path every task took before the runs were
kept.  Bytes, the service snapshot, the clock and the event count must
match.  In the first run every handed-out run list is also compared
with a fresh translation of the task's ranges.

Under ``COPIER_SLOWPATH=1`` the machine uses the per-page reference
address space, which never keeps runs: the same programs then check
that no task ever gets any.
"""

import random

import pytest

from repro.ckpt import checkpoint, restore
from repro.copier.errors import CopyAborted, TaskEFault
from repro.copier.executor import CopyExecutor
from repro.copier.task import CopyTask
from repro.faultinject import FaultPlan
from repro.kernel import System
from repro.kernel.cow import cow_write
from repro.kernel.system import machine_classes
from repro.kernel.tiermem import TieredMemoryManager
from repro.mem.faults import MemoryFault
from repro.mem import PAGE_SIZE, AddressSpace, PhysicalMemory
from repro.mem.addrspace import slice_runs
from repro.sim import Compute
from tests.copier.conftest import Setup

#: True when the oracle knob builds the per-page reference address space.
PAGE_WALK = machine_classes()[1].page_walk

_ORIGINAL = CopyTask.pinned_runs


class _Probe:
    """Wraps ``CopyTask.pinned_runs``: counts reuses and fallbacks, and
    counts every reused run list that a fresh translation of the task's
    ranges disagrees with (without disturbing the program)."""

    def __init__(self):
        self.cached = 0      # tasks that kept their pin's runs
        self.reused = 0      # run lists handed to the data path
        self.fallbacks = 0   # stale generations seen
        self.mismatches = 0  # reused runs a fresh walk disagrees with

    def __call__(self, task):
        had = task.runs is not None
        runs = _ORIGINAL(task)
        if runs is None:
            self.fallbacks += had
            return None
        self.reused += 1
        src, dst = task.src, task.dst
        try:
            fresh = (src.aspace.translate_run(src.start, src.length),
                     dst.aspace.translate_run(dst.start, dst.length,
                                              write=True))
        except MemoryFault:
            fresh = None
        self.mismatches += fresh != runs[:2]
        return runs


def _install(monkeypatch, cached):
    """Patch the data path: a probe around kept runs (returned), or the
    fresh-walk reference."""
    if not cached:
        monkeypatch.setattr(CopyTask, "pinned_runs", lambda task: None)
        return None
    probe = _Probe()
    monkeypatch.setattr(CopyTask, "pinned_runs", lambda task: probe(task))
    pin_task = CopyExecutor._pin_task

    def counted(self, task):
        pin_task(self, task)
        if task.runs is not None:
            probe.cached += 1
            assert not (task.src.aspace.page_walk
                        or task.dst.aspace.page_walk)

    monkeypatch.setattr(CopyExecutor, "_pin_task", counted)
    return probe


def _both(monkeypatch, program):
    """Run ``program`` with kept runs and with fresh walks; return the
    probe of the first run after checking the two agree."""
    with monkeypatch.context() as m:
        probe = _install(m, cached=True)
        cached = program()
    with monkeypatch.context() as m:
        _install(m, cached=False)
        reference = program()
    assert cached == reference
    assert probe.mismatches == 0
    if PAGE_WALK:
        assert probe.cached == probe.reused == 0
    return probe


def _machine_state(env, service):
    return {"now": env.now, "events": env.events_executed,
            "snapshot": service.stats_snapshot()}


# ------------------------------------------------------------ slice_runs


@pytest.mark.parametrize("seed", range(4))
def test_slice_runs_is_translate_run_of_the_subrange(seed):
    rng = random.Random(seed)
    aspace = AddressSpace(PhysicalMemory(2048, fragmented=True))
    length = rng.randrange(1, 40) * PAGE_SIZE
    va = aspace.mmap(length, populate=True)
    for _ in range(200):
        start = rng.randrange(0, length - 1)
        end = rng.randrange(start + 1, length + 1)
        runs = aspace.translate_run(va + start, end - start)
        off = rng.randrange(0, end - start)
        n = rng.randrange(1, end - start - off + 1)
        assert slice_runs(runs, off, n) == \
            aspace.translate_run(va + start + off, n)


def test_pin_returns_the_runs_translate_run_would():
    aspace = machine_classes()[1](PhysicalMemory(1024, fragmented=True))
    va = aspace.mmap(9 * PAGE_SIZE)  # demand-zero: the pin faults it in
    runs = aspace.pin(va + 100, 8 * PAGE_SIZE, write=True)
    assert runs == aspace.translate_run(va + 100, 8 * PAGE_SIZE, write=True)
    assert aspace.fault_counts["demand_zero"] == 9
    aspace.unpin(va + 100, 8 * PAGE_SIZE)


# -------------------------------------------------------- seeded programs

_PLANS = {
    "plain": {},
    "mixed": {"fault_plan": "mixed"},
    "integrity": {"fault_plan": "integrity", "e2e_crc": True},
}


def _seeded_program(seed, plan):
    def program():
        kwargs = dict(_PLANS[plan])
        if "fault_plan" in kwargs:
            kwargs["fault_plan"] = FaultPlan.named(kwargs["fault_plan"],
                                                   seed=seed)
        setup = Setup(n_frames=4096, fragmented=True, **kwargs)
        rng = random.Random(seed)
        aspace, client = setup.aspace, setup.client
        size = 96 * 1024
        bufs = [aspace.mmap(size, populate=rng.random() < 0.7)
                for _ in range(4)]
        for buf in bufs:
            aspace.write(buf, bytes(rng.randrange(256) for _ in range(64))
                         * (size // 64))

        errors = []

        def app():
            for _ in range(40):
                n = rng.choice((rng.randrange(1, 4096),
                                rng.randrange(4096, 48 * 1024)))
                # Sometimes one buffer on both sides: the ranges may
                # overlap, and a task whose frames alias keeps no runs.
                src, dst = rng.choice(bufs), rng.choice(bufs)
                src += rng.randrange(0, size - n)
                dst += rng.randrange(0, size - n)
                yield from client.amemcpy(dst, src, n,
                                          lazy=rng.random() < 0.2)
                if rng.random() < 0.3:
                    try:
                        yield from client.csync(dst, n)
                    except CopyAborted as exc:  # a poisoned frame
                        errors.append(type(exc).__name__)
                if rng.random() < 0.3:
                    yield Compute(rng.randrange(100, 20_000))
            yield from client.csync_all()

        setup.run_process(app())
        state = _machine_state(setup.env, setup.service)
        state["errors"] = errors
        state["bytes"] = [aspace.read(buf, size) for buf in bufs]
        return state

    return program


@pytest.mark.parametrize("plan", sorted(_PLANS))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_seeded_program_writes_what_fresh_walks_write(monkeypatch, seed,
                                                      plan):
    probe = _both(monkeypatch, _seeded_program(seed, plan))
    if not PAGE_WALK:
        assert probe.cached > 0 and probe.reused > 0


# ------------------------------------------- changes that bump a generation

BUF = 8 * 1024  # below the DMA floor: the AVX path writes every byte


def _lazy_then(setup, src, dst, change, n=BUF):
    """Submit a lazy copy, let the Copier pin it, run ``change()`` (a
    generator) and csync; returns the csync's error or ``None``."""
    client = setup.client
    outcome = {}

    def app():
        yield from client.amemcpy(dst, src, n, lazy=True)
        yield Compute(50_000)  # ingested and pinned, not yet executed
        yield from change()
        try:
            yield from client.csync(dst, n)
            outcome["error"] = None
        except TaskEFault as exc:
            outcome["error"] = exc

    setup.run_process(app())
    return outcome["error"]


def _fill(aspace, va, n, byte):
    aspace.write(va, bytes([byte]) * n)


def test_munmap_of_a_pinned_dst_still_retires_efault(monkeypatch):
    def program():
        setup = Setup()
        aspace = setup.aspace
        src = aspace.mmap(BUF, populate=True)
        dst = aspace.mmap(BUF, populate=True)
        _fill(aspace, src, BUF, 0x5A)

        def change():
            aspace.munmap(dst, BUF)
            yield Compute(10)

        error = _lazy_then(setup, src, dst, change)
        assert isinstance(error, TaskEFault)
        assert aspace.pins_outstanding() == 0
        return _machine_state(setup.env, setup.service)

    probe = _both(monkeypatch, program)
    if not PAGE_WALK:
        assert probe.cached == 1 and probe.fallbacks == 1


def test_owner_write_to_a_cow_shared_pinned_source(monkeypatch):
    def program():
        setup = Setup()
        aspace = setup.aspace
        src = aspace.mmap(BUF, populate=True)
        _fill(aspace, src, BUF, 0x11)
        child = aspace.fork()  # src pages are now CoW-shared
        dst = aspace.mmap(BUF, populate=True)

        def change():
            _fill(aspace, src, BUF, 0x22)  # breaks CoW: new src frames
            yield Compute(10)

        assert _lazy_then(setup, src, dst, change) is None
        # The copy reads the source as it is when it executes.
        assert aspace.read(dst, BUF) == b"\x22" * BUF
        assert child.read(src, BUF) == b"\x11" * BUF
        state = _machine_state(setup.env, setup.service)
        state["dst"] = aspace.read(dst, BUF)
        return state

    probe = _both(monkeypatch, program)
    if not PAGE_WALK:
        assert probe.cached == 1 and probe.fallbacks == 1


def test_fork_while_pinned(monkeypatch):
    def program():
        setup = Setup()
        aspace = setup.aspace
        src = aspace.mmap(BUF, populate=True)
        dst = aspace.mmap(BUF, populate=True)
        spare = aspace.mmap(BUF, populate=True)  # write-protected by fork
        _fill(aspace, src, BUF, 0x33)
        forks = []

        def change():
            forks.append(aspace.fork())
            _fill(aspace, spare, BUF, 0x44)
            yield Compute(10)

        assert _lazy_then(setup, src, dst, change) is None
        assert aspace.read(dst, BUF) == b"\x33" * BUF
        state = _machine_state(setup.env, setup.service)
        state["child_dst"] = forks[0].read(dst, BUF)
        return state

    probe = _both(monkeypatch, program)
    if not PAGE_WALK:
        assert probe.cached == 1 and probe.fallbacks == 1


def test_tiermem_migration_while_pinned(monkeypatch):
    def program():
        system = System(n_cores=3, phys_frames=2048)
        manager = TieredMemoryManager(system, fast_frames=256)
        proc = system.create_process("tier-app")
        src = proc.mmap(BUF, populate=True)
        dst = proc.mmap(BUF, populate=True)
        other = proc.mmap(PAGE_SIZE, populate=True)
        proc.write(src, b"\x66" * BUF)
        proc.write(other, b"\x77" * PAGE_SIZE)
        to_fast = manager.tier_of(manager.frame_of(proc.aspace,
                                                   other)) == "slow"

        def app():
            yield from proc.client.amemcpy(dst, src, BUF, lazy=True)
            yield Compute(50_000)
            yield from manager.migrate_batch(proc, [other], to_fast)
            yield from proc.client.csync(dst, BUF)

        p = proc.spawn(app(), affinity=0)
        system.env.run_until(p.terminated, limit=50_000_000)
        assert manager.promoted + manager.demoted == 1
        assert proc.read(dst, BUF) == b"\x66" * BUF
        assert proc.read(other, PAGE_SIZE) == b"\x77" * PAGE_SIZE
        return _machine_state(system.env, system.copier)

    probe = _both(monkeypatch, program)
    if not PAGE_WALK:
        assert probe.cached >= 1 and probe.fallbacks >= 1


def test_cow_split_copy_while_pinned(monkeypatch):
    def program():
        system = System(n_cores=3, phys_frames=4096)
        proc = system.create_process("cow-app")
        shared = proc.mmap(4 * PAGE_SIZE, populate=True)
        proc.write(shared, b"\x88" * (4 * PAGE_SIZE))
        child = proc.aspace.fork()
        src = proc.mmap(BUF, populate=True)
        dst = proc.mmap(BUF, populate=True)
        proc.write(src, b"\x99" * BUF)
        huge = 2 * PAGE_SIZE
        cow_va = shared + (-shared) % huge  # a whole 8 KiB page inside
        assert cow_va + huge <= shared + 4 * PAGE_SIZE

        def app():
            yield from proc.client.amemcpy(dst, src, BUF, lazy=True)
            yield Compute(50_000)
            yield from cow_write(system, proc, cow_va, b"new", mode="copier",
                                 page_bytes=huge)
            yield from proc.client.csync(dst, BUF)

        p = proc.spawn(app(), affinity=0)
        system.env.run_until(p.terminated, limit=50_000_000)
        assert proc.read(dst, BUF) == b"\x99" * BUF
        assert proc.read(cow_va, huge) == b"new" + b"\x88" * (huge - 3)
        assert child.read(cow_va, huge) == b"\x88" * huge
        return _machine_state(system.env, system.copier)

    probe = _both(monkeypatch, program)
    if not PAGE_WALK:
        # The split copy's own kernel task reuses its runs; the pinned
        # user task falls back after the PTE flip.
        assert probe.cached >= 2 and probe.fallbacks >= 1


def test_ckpt_restore_mid_flight(monkeypatch):
    def phase(system, proc, bufs, byte):
        def app():
            for i in range(3):
                src, dst = bufs[i % 3], bufs[(i + 1) % 3]
                yield from proc.client.amemcpy(dst + 100 * i, src + 7,
                                               BUF, lazy=(i == 1))
            yield Compute(20_000)

        proc.write(bufs[0], bytes([byte]) * (2 * BUF))
        p = proc.spawn(app(), affinity=0)
        system.env.run_until(p.terminated, limit=50_000_000)

    def program():
        system = System(n_cores=3, phys_frames=4096)
        proc = system.create_process("ckpt-app")
        bufs = [proc.mmap(2 * BUF, populate=True) for _ in range(3)]
        phase(system, proc, bufs, 0xA1)
        # Copies are in flight here: the checkpoint quiesces them.
        blob = checkpoint(system).to_bytes()
        system, = restore(blob)[:1]
        tasks = [t for c in system.copier.clients
                 for t in list(c.task_index) + list(c.pending)]
        assert all(t.runs is None for t in tasks)
        proc = next(p for p in system.processes if p.name == "ckpt-app")
        phase(system, proc, bufs, 0xB2)

        def drain():
            yield from proc.client.csync_all()

        p = proc.spawn(drain(), affinity=0)
        system.env.run_until(p.terminated, limit=50_000_000)
        state = _machine_state(system.env, system.copier)
        state["bytes"] = [proc.read(b, 2 * BUF) for b in bufs]
        return state

    probe = _both(monkeypatch, program)
    if not PAGE_WALK:
        assert probe.cached > 0 and probe.reused > 0
