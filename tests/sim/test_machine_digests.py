"""Pinned machine-level determinism digests.

Each program below builds a whole :class:`~repro.kernel.System`, runs a
seeded workload on it and hashes what the simulated machine did:
``(env.now, events_executed, CycleStats, copier stats_snapshot())``.
The digests were recorded before the core scheduler's and the worker
loop's fast paths were written, so any drift in simulated time, in the
number or order of events, or in the copier's counters shows up here.

The programs cover paths the benchmark workloads do not: a deep
``amemcpy`` window with chained copies, a copier-mode Redis run with
auto-scaling across two Copier threads, floating application
processes that contend with the Copier thread on two cores so that
timeslices rotate, and a deep window mixing u- and k-mode, lazy,
DMA-sized, deadline'd and cancelled copies (the overload reap,
completion sweep and e-piggyback fusion all find work in it; its digest
was recorded before the copier's round bookkeeping was made
differential).  When the descriptor pool was deleted, the client
snapshot lost its ``descriptor_pool`` key; all four pins were then
re-recorded on the commit before the deletion, with only that key
removed from each client snapshot before hashing.

The digests hold on both event loops (``COPIER_SLOWHEAP=1`` is the
historic heap oracle) and under ``COPIER_SLOWPATH=1``; knobs that change
the simulated machine (fault plans, admission, the end-to-end CRC) skip
the comparison but still require two runs to agree.
"""

import hashlib
import os
import random

import pytest

from repro.apps.rediskv import run_benchmark
from repro.copier.errors import CopyAborted
from repro.copier.task import Region
from repro.kernel import System
from repro.sim.process import Process

#: Knobs under which the simulated machine is unchanged by design.
_ORACLE_KNOBS = {"COPIER_SLOWHEAP", "COPIER_SLOWPATH"}

PINNED_DIGESTS = {
    "amemcpy_window":
        "638c25ece4df412e5a7c1b9734369c89da6b9f80c9e92655ff2bafb3e480ee67",
    "redis_autoscale":
        "f779b0825bb543f51d0f2fba00a4eb0675ff9134615abda7a6a10c9569f2ed6d",
    "floating_contention":
        "fcb4df60833f6167d7c0eb477666c4875018d2c91d980d6a6435c47b9362fcb1",
    "overload_window":
        "71be15772e428c0ff9de16f1256089f38a9c4c4646ef67885731a1e6e1f982b6",
}


def _relabel(per_key, base):
    return sorted((key - base, sorted(tags.items()))
                  for key, tags in per_key.items())


def machine_digest(system, pid_base):
    """sha256 over the machine's clock, event count, cycle accounting and
    copier snapshot.  Simulated pids are process-global counters, so they
    are taken relative to the first pid the program spawned."""
    env = system.env
    stats = env.stats
    snapshot = (
        env.now,
        env.events_executed,
        _relabel(stats.cycles, pid_base),
        _relabel(stats.instructions, pid_base),
        sorted((core, sorted(tags.items()))
               for core, tags in stats.core_cycles.items()),
        [core.busy_cycles for core in env.cores.cores],
        system.copier.stats_snapshot(),
    )
    return hashlib.sha256(repr(snapshot).encode()).hexdigest()


def _amemcpy_window(seed=3, n_copies=240, depth=24):
    """One process keeps ``depth`` copies in flight; about a third read a
    prefix of an in-flight destination (chained copies)."""
    rng = random.Random(seed)
    system = System(n_cores=4, copier=True, phys_frames=16384)
    proc = system.create_process("window")
    client = proc.client
    slot = 32 * 1024
    blob = rng.randbytes(256 * 1024)
    src_base = proc.mmap(len(blob), populate=True)
    proc.write(src_base, blob)
    n_slots = 3 * depth
    dst_base = proc.mmap(n_slots * slot, populate=True)

    def run():
        window = []
        for i in range(n_copies):
            if len(window) >= depth:
                dst, n = window.pop(0)
                yield from client.csync(dst, n)
            n = rng.choice((64, 700, 4096, 9000, 20000, slot))
            dst = dst_base + (i % n_slots) * slot
            chained = [w for w in window if w[1] >= n]
            if chained and rng.random() < 1 / 3:
                src = chained[-1][0]
            else:
                src = src_base + rng.randrange(len(blob) - n + 1)
            yield from client.amemcpy(dst, src, n)
            window.append((dst, n))
            yield system.app_compute(proc, rng.randrange(0, 600))
        for dst, n in window:
            yield from client.csync(dst, n)

    sim_proc = proc.spawn(run(), affinity=0)
    system.env.run_until(sim_proc.terminated, limit=10_000_000_000)
    return system


def _overload_window(seed=7, n_copies=300, depth=40):
    """A deep window of u-mode copies with k-mode copies keyed between
    them (each submitted inside a trap/sysret pair), DMA-sized copies,
    lazy and chained copies, copies that carry a deadline and copies
    cancelled while in flight: the paths where the Copier's overload
    reap, out-of-band completion sweep and e-piggyback fusion find
    work."""
    rng = random.Random(seed)
    system = System(n_cores=4, copier=True, phys_frames=16384)
    env = system.env
    proc = system.create_process("overload-window")
    client = proc.client
    slot = 64 * 1024
    blob = rng.randbytes(512 * 1024)
    src_base = proc.mmap(len(blob), populate=True)
    proc.write(src_base, blob)
    n_slots = 2 * depth
    dst_base = proc.mmap(n_slots * slot, populate=True)

    def sync(dst, n):
        try:
            yield from client.csync(dst, n)
        except CopyAborted:
            pass  # a cancelled or deadline-missed copy decides the range

    def run():
        window = []
        for i in range(n_copies):
            if len(window) >= depth:
                yield from sync(*window.pop(0))
            n = rng.choice((64, 700, 4096, 9000, 20000, 49152, slot))
            dst = dst_base + (i % n_slots) * slot
            chained = [w for w in window if w[1] >= n]
            if chained and rng.random() < 0.25:
                src = chained[-1][0]
            else:
                src = src_base + rng.randrange(len(blob) - n + 1)
            roll = rng.random()
            deadline = None
            if roll < 0.2:
                deadline = env.now + rng.randrange(2_000, 60_000)
            if roll >= 0.8:
                yield from proc.trap()
                yield from client.k_amemcpy(Region(proc.aspace, src, n),
                                            Region(proc.aspace, dst, n),
                                            deadline=deadline)
                yield from proc.sysret()
            else:
                yield from client.amemcpy(dst, src, n,
                                          lazy=0.7 <= roll < 0.8,
                                          deadline=deadline)
            window.append((dst, n))
            if rng.random() < 0.08:
                yield from client.cancel(*rng.choice(window))
            yield system.app_compute(proc, rng.randrange(0, 400))
        for dst, n in window:
            yield from sync(dst, n)

    sim_proc = proc.spawn(run(), affinity=0)
    env.run_until(sim_proc.terminated, limit=10_000_000_000)
    return system


def _redis_autoscale():
    """Copier-mode Redis with auto-scaling over two Copier threads."""
    system = System(n_cores=4, copier=True, phys_frames=65536,
                    copier_kwargs=dict(autoscale=True, n_threads=1,
                                       max_threads=2,
                                       dedicated_cores=[3, 2]))
    run_benchmark(system, "copier", "SET", 131072, n_requests=4,
                  n_clients=6)
    run_benchmark(system, "copier", "GET", 4096, n_requests=6,
                  n_clients=4)
    return system


def _floating_contention(seed=5):
    """Floating app processes share two cores with the Copier thread under
    a short timeslice, so slices rotate between them."""
    rng = random.Random(seed)
    system = System(n_cores=2, copier=True, phys_frames=16384,
                    timeslice=5_000)
    env = system.env
    procs = []
    for k in range(3):
        proc = system.create_process("float-%d" % k)
        src = proc.mmap(64 * 1024, populate=True)
        dst = proc.mmap(64 * 1024, populate=True)
        proc.write(src, rng.randbytes(64 * 1024))
        lengths = [rng.choice((0, 1_000, 5_000, 12_000)) for _ in range(12)]
        sizes = [rng.choice((256, 4096, 65536)) for _ in range(12)]

        def run(proc=proc, src=src, dst=dst, lengths=lengths, sizes=sizes):
            for cycles, n in zip(lengths, sizes):
                yield system.app_compute(proc, cycles)
                yield from proc.client.amemcpy(dst, src, n)
                yield from proc.client.csync(dst, n)

        procs.append(proc.spawn(run(), affinity=None))
    for sim_proc in procs:
        env.run_until(sim_proc.terminated, limit=10_000_000_000)
    return system


PROGRAMS = {
    "amemcpy_window": _amemcpy_window,
    "redis_autoscale": _redis_autoscale,
    "floating_contention": _floating_contention,
    "overload_window": _overload_window,
}


def _run(name):
    base = Process._next_pid[0]
    return machine_digest(PROGRAMS[name](), base)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_machine_digest_is_pinned(name):
    digest = _run(name)
    assert _run(name) == digest
    knobs = {k for k in os.environ if k.startswith("COPIER_")}
    if knobs - _ORACLE_KNOBS:
        return
    assert digest == PINNED_DIGESTS[name]
