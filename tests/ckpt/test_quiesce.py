"""Quiesce refuses un-checkpointable machines with typed state errors.

A checkpoint never captures a half-machine: queued FUNC handlers
(closures), custom sigsegv callbacks, foreign blocked processes, shared
segments and already-shut-down services all raise
:class:`CheckpointStateError` *before* any bytes are produced, and an
in-place ``resume()`` after a successful quiesce leaves a fully working
service behind.
"""

import pytest

from repro.ckpt import CheckpointStateError, checkpoint
from repro.kernel.system import System
from repro.mem.phys import PAGE_SIZE

QUANTUM = 20_000


@pytest.fixture
def machine():
    system = System(n_cores=2, phys_frames=4096)
    proc = system.create_process("app")
    return system, proc


def _settle(env, out, count=1):
    horizon = env.now
    while len(out) < count:
        horizon += QUANTUM
        env.step(max_cycles=horizon - env.now)


def _copy(proc, nbytes=1024, handler=None, post=False):
    client = proc.client
    aspace = proc.aspace
    src = aspace.mmap(PAGE_SIZE, populate=True)
    dst = aspace.mmap(PAGE_SIZE, populate=True)
    out = []

    def op():
        yield from client.amemcpy(dst, src, nbytes, handler=handler)
        yield from client.csync(dst, nbytes)
        if post:
            yield from client.post_handlers()
        out.append(dst)

    proc.system.env.spawn(op(), name="quiesce-op")
    _settle(proc.system.env, out)


def test_queued_func_handler_blocks_checkpoint(machine):
    system, proc = machine
    ran = []
    _copy(proc, handler=("ufunc", ran.append, ("x",)))
    with pytest.raises(CheckpointStateError, match="post_handlers"):
        checkpoint(system)
    # The refusal is actionable: run the handlers, checkpoint succeeds.
    out = []

    def drain():
        yield from proc.client.post_handlers()
        out.append(True)

    # The refused quiesce left the service running (admission thawed).
    assert system.copier.running and not system.copier.draining
    system.env.spawn(drain(), name="drain-handlers")
    _settle(system.env, out)
    assert ran == ["x"]
    checkpoint(system)


def test_sigsegv_callback_blocks_checkpoint(machine):
    system, proc = machine
    _copy(proc)
    proc.client.sigsegv_handler = lambda task, exc: None
    with pytest.raises(CheckpointStateError, match="sigsegv"):
        checkpoint(system)
    proc.client.sigsegv_handler = None
    system.copier.resume()
    checkpoint(system)


def test_foreign_blocked_process_blocks_checkpoint(machine):
    system, proc = machine
    _copy(proc)
    never = system.env.event()

    def stuck():
        yield never

    system.env.spawn(stuck(), name="stuck-app")
    with pytest.raises(CheckpointStateError, match="alive"):
        checkpoint(system)


def test_shared_segment_blocks_checkpoint(machine):
    system, proc = machine
    _copy(proc)
    proc.aspace.vmas[-1].shared_segment = object()
    with pytest.raises(CheckpointStateError, match="shared-segment"):
        checkpoint(system)


@pytest.mark.parametrize("deadline, refusal", [
    (None, "wedged: backlog remains but nothing can run"),
    (0, "deadline passed with work outstanding"),
])
def test_quiesce_refuses_a_backlog_it_cannot_drain(machine, deadline,
                                                   refusal):
    system, proc = machine
    src = proc.aspace.mmap(PAGE_SIZE, populate=True)
    dst = proc.aspace.mmap(PAGE_SIZE, populate=True)
    submit = proc.client.amemcpy(dst, src, 1024)
    with pytest.raises(StopIteration):
        while True:
            next(submit)  # queue the copy without running the loop
    system.copier.stop()  # no worker left to drain it
    with pytest.raises(CheckpointStateError, match=refusal):
        system.copier.quiesce(deadline=deadline)


def test_checkpoint_after_shutdown_raises(machine):
    system, proc = machine
    _copy(proc)
    assert system.copier.shutdown()["drained"]
    with pytest.raises(CheckpointStateError, match="shut down"):
        checkpoint(system)


def test_quiesce_is_idempotent_and_resume_restores_service(machine):
    system, proc = machine
    _copy(proc)
    svc = system.copier
    svc.quiesce()
    svc.quiesce()  # second call is a no-op on a parked service
    assert svc.quiesced and not svc.running
    svc.resume()
    assert svc.running and not svc.quiesced
    _copy(proc)  # the resumed service still copies
    assert svc.shutdown()["drained"]
    assert system.leaked_pins() == 0


def test_resume_requires_quiesced(machine):
    system, _ = machine
    with pytest.raises(CheckpointStateError):
        system.copier.resume()
