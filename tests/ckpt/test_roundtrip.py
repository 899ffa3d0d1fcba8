"""Differential restore oracle: a restored machine IS the machine.

Each scenario runs its workload in four phases with checkpoints taken at
three quiesce points (after phases 1, 2 and 3).  Run A checkpoints and
*resumes in place* at every point and finishes the workload; then, for
every saved blob, a second machine is restored from it and runs only the
remaining phases.  The restored machine must finish with an identical
virtual clock, event count, full ``stats_snapshot()``, byte-identical
data plane and zero leaked pins — the gem5/Ramulator fidelity bar from
ROADMAP item 4.  A third, never-quiesced run pins the data plane: the
checkpointed run's store content must match it byte for byte.

Scenarios cover the states ISSUE 8 names: fault-plan armed (mixed),
``COPIER_SLOWPATH=1``, and mid-overload (queue-depth admission with
small rings under concurrent bursts).
"""

import pytest

from repro.ckpt import checkpoint, restore
from repro.faultinject import FaultPlan
from repro.fleet.store import KVStore
from repro.kernel.system import System

QUANTUM = 20_000
N_PHASES = 4
QUIESCE_POINTS = (1, 2, 3)

SCENARIOS = {
    "plain": {"plan": None, "slowpath": False, "admission": None},
    "mixed-faults": {"plan": "mixed", "slowpath": False, "admission": None},
    "slowpath": {"plan": None, "slowpath": True, "admission": None},
    "overload": {"plan": None, "slowpath": False,
                 "admission": "queue-depth"},
    "e2e-crc": {"plan": None, "slowpath": False, "admission": None,
                "e2e_crc": True},
}


def _build(spec):
    kwargs = {}
    if spec["plan"] is not None:
        kwargs["fault_plan"] = FaultPlan.named(spec["plan"], seed=1)
    if spec["admission"] is not None:
        kwargs["admission"] = spec["admission"]
    if spec.get("e2e_crc"):
        kwargs["e2e_crc"] = True
    system = System(copier_kwargs=kwargs)
    store = KVStore(system, name="oracle-store",
                    queue_capacity=64 if spec["admission"] else 2048)
    return system, store


def _phase_ops(phase):
    ops = []
    for i in range(5):
        key = b"rk%d" % ((phase * 3 + i) % 4)
        ops.append((key, bytes([phase * 50 + i + 1]) * (2000 + 777 * i)))
    return ops


def _settle(env, done, count):
    horizon = env.now
    while len(done) < count:
        horizon += QUANTUM
        env.step(max_cycles=horizon - env.now)


def _run_phase(system, store, phase, overload):
    env = system.env
    done = []
    ops = _phase_ops(phase)
    if overload:
        # Burst: every op in flight at once through one client, so the
        # queue-depth valve actually sheds under the tiny rings.
        for key, value in ops:
            def runner(key=key, value=value, out=done):
                yield from store.set_op(key, value)
                out.append((yield from store.get_op(key)))

            env.spawn(runner(), name="burst-op")
        _settle(env, done, len(ops))
    else:
        for key, value in ops:
            out = []

            def runner(key=key, value=value, out=out):
                yield from store.set_op(key, value)
                out.append((yield from store.get_op(key)))

            env.spawn(runner(), name="oracle-op")
            _settle(env, out, 1)
            done.extend(out)
    assert all(r is not None for r in done)


def _final_state(system, store):
    return {
        "now": system.env.now,
        "events": system.env.events_executed,
        "snapshot": system.copier.stats_snapshot(),
        "digest": store.digest(),
        "store": store.snapshot(),
        "leaked": system.leaked_pins(),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_restore_is_differentially_identical(name, monkeypatch, tmp_path):
    spec = SCENARIOS[name]
    if spec["slowpath"]:
        monkeypatch.setenv("COPIER_SLOWPATH", "1")
    else:
        monkeypatch.delenv("COPIER_SLOWPATH", raising=False)
    overload = spec["admission"] is not None

    # Run A: checkpoint at every quiesce point, resume in place, finish.
    system_a, store_a = _build(spec)
    blobs = {}
    for phase in range(N_PHASES):
        _run_phase(system_a, store_a, phase, overload)
        point = phase + 1
        if point in QUIESCE_POINTS:
            ck = checkpoint(system_a, stores=[store_a])
            blobs[point] = ck.to_bytes()
            system_a.copier.resume()
    final_a = _final_state(system_a, store_a)
    assert final_a["leaked"] == 0

    # Run C: never quiesced — the data plane must be unperturbed by
    # checkpointing (counters legitimately differ: quiesce steps the
    # clock through parked wakeups).
    system_c, store_c = _build(spec)
    for phase in range(N_PHASES):
        _run_phase(system_c, store_c, phase, overload)
    assert store_c.digest() == final_a["digest"]
    assert store_c.snapshot()["keys"] == final_a["store"]["keys"]

    # Every saved blob restores into a machine whose future is identical.
    # The restored run repeats run A's *later* checkpoints too (quiesce
    # advances the clock, so both timelines must pause at the same
    # points) — and the checkpoint a restored machine takes at point j
    # must decode to the very payload run A saved there.
    assert sorted(blobs) == sorted(QUIESCE_POINTS)
    from repro.ckpt import Checkpoint
    for point, blob in sorted(blobs.items()):
        system_b, (store_b,) = restore(blob)
        for phase in range(point, N_PHASES):
            _run_phase(system_b, store_b, phase, overload)
            later = phase + 1
            if later in QUIESCE_POINTS:
                ck_b = checkpoint(system_b, stores=[store_b])
                assert (ck_b.payload
                        == Checkpoint.from_bytes(blobs[later]).payload), (
                    "checkpoint at point %d diverged when taken by the "
                    "machine restored from point %d" % (later, point))
                system_b.copier.resume()
        final_b = _final_state(system_b, store_b)
        assert final_b == final_a, "diverged from quiesce point %d" % point
        assert system_b.copier.shutdown()["drained"]

    assert system_a.copier.shutdown()["drained"]


def test_checkpoint_of_restored_machine_is_the_same_checkpoint():
    """restore(ckpt) → checkpoint() reproduces the exact payload: the
    serialization is a fixed point, so nothing is silently dropped."""
    system, store = _build(SCENARIOS["mixed-faults"])
    for phase in range(2):
        _run_phase(system, store, phase, overload=False)
    ck = checkpoint(system, stores=[store])
    system2, stores2 = restore(ck, resume=False)
    ck2 = checkpoint(system2, stores=stores2)
    assert ck2.payload == ck.payload


def test_restore_from_file_and_bytes(tmp_path):
    system, store = _build(SCENARIOS["plain"])
    _run_phase(system, store, 0, overload=False)
    ck = checkpoint(system, stores=[store])
    path = tmp_path / "machine.rckp"
    ck.save(path)

    from_file, (store_f,) = restore(str(path))
    from_bytes, (store_b,) = restore(ck.to_bytes())
    assert from_file.env.now == from_bytes.env.now == system.env.now
    assert store_f.digest() == store_b.digest() == store.digest()
