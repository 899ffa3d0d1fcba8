"""AsyncCopier: the coroutine-facing copy API.

Wraps one :class:`~repro.copier.client.CopierClient` so ordinary asyncio
code can use the Copier service with ``await`` instead of ``yield
from``::

    copier = AsyncCopier(driver, proc.client)
    await copier.amemcpy(dst, src, nbytes, session=sess)
    await copier.csync(dst, nbytes, session=sess)

Each call builds a simulator generator plus an asyncio future, hands the
pair to :meth:`~repro.serve.driver.SimDriver.call`, and parks the caller
on the future:

* ``amemcpy`` resolves at *task retirement* via the task's ``on_retire``
  hook — ``done``/``shed`` deliver the task, every other outcome raises
  (``efault`` → the task's :class:`~repro.copier.errors.TaskEFault`,
  ``deadline-miss`` → :class:`~repro.copier.errors.DeadlineMissed`,
  cancel/reap → :class:`~repro.copier.errors.CopyAborted`).
* ``csync`` / ``acancel`` / ``acall`` resolve when their generator
  finishes, delivering its return value.
* Submission-time failures (:class:`~repro.copier.errors.AdmissionReject`,
  ``QueueFull``) raise out of the generator and are delivered into the
  awaiting coroutine the same way.

Pass ``session=`` so the gate pacing policy can order the op; relative
``timeout_cycles`` are converted to absolute deadlines at *injection*
time (inside the generator), not at staging time.
"""

import asyncio

from repro.copier.errors import (AdmissionReject, CopierSecurityError,
                                 CopyAborted, DeadlineMissed,
                                 TransientCopierError)
from repro.copier.queues import QueueFull
from repro.fleet.errors import FleetError
from repro.mem.errors import MemoryLifecycleError
from repro.mem.faults import MemoryFault
from repro.mem.phys import OutOfMemory

#: The simulated kernel/copier failure surface an op generator may raise.
#: These are *results* of the submitted operation and belong in its
#: future; anything else (a TypeError in user code, a bug in the sim)
#: must unwind the driver loudly, not masquerade as an op failure.
SIM_OP_ERRORS = (CopyAborted, AdmissionReject, DeadlineMissed,
                 CopierSecurityError, TransientCopierError, QueueFull,
                 MemoryFault, MemoryLifecycleError, OutOfMemory, FleetError)


def _retire_error(task, outcome):
    """Map a non-success retirement outcome to the exception to raise."""
    if task.error is not None:
        return task.error
    if outcome == "deadline-miss":
        return DeadlineMissed(
            "copy task #%d missed its deadline" % task.task_id)
    return CopyAborted("copy task #%d retired: %s" % (task.task_id, outcome))


class AsyncCopier:
    """``await``-able amemcpy/csync/acancel over one Copier client."""

    def __init__(self, driver, client):
        self.driver = driver
        self.client = client

    # ------------------------------------------------------------ operations

    async def amemcpy(self, dst_va, src_va, nbytes, handler=None,
                      segment_bytes=None, lazy=False, deadline=None,
                      timeout_cycles=None, session=None):
        """Submit an async copy; resolves when the task *retires*.

        Returns the retired :class:`~repro.copier.task.CopyTask` on
        ``done``/``shed``; raises the mapped error otherwise.
        """
        client = self.client
        future = asyncio.get_running_loop().create_future()

        def on_retire(task, outcome):
            if future.done():
                return
            if outcome in ("done", "shed"):
                future.set_result(task)
            else:
                future.set_exception(_retire_error(task, outcome))

        def gen():
            dl = deadline
            if dl is None and timeout_cycles is not None:
                dl = client.env.now + timeout_cycles
            yield from client.amemcpy(dst_va, src_va, nbytes,
                                      handler=handler,
                                      segment_bytes=segment_bytes,
                                      lazy=lazy, deadline=dl,
                                      on_retire=on_retire)

        return await self._submit(gen, future, session,
                                  resolve_on_exit=False, kind="amemcpy")

    async def csync(self, va, nbytes, queue_kind="u", deadline=None,
                    timeout_cycles=None, session=None):
        """Wait until [va, va+nbytes) from prior async copies is ready."""
        client = self.client
        future = asyncio.get_running_loop().create_future()

        def gen():
            dl = deadline
            if dl is None and timeout_cycles is not None:
                dl = client.env.now + timeout_cycles
            yield from client.csync(va, nbytes, queue_kind=queue_kind,
                                    deadline=dl)
            return nbytes

        return await self._submit(gen, future, session,
                                  resolve_on_exit=True, kind="csync")

    async def acancel(self, va, nbytes, queue_kind=None, session=None):
        """Cancel unfinished copies over the range; returns the count."""
        client = self.client

        future = asyncio.get_running_loop().create_future()

        def gen():
            return (yield from client.cancel(va, nbytes,
                                             queue_kind=queue_kind))

        return await self._submit(gen, future, session,
                                  resolve_on_exit=True, kind="acancel")

    async def csync_all(self, session=None):
        """Drain every outstanding copy on this client."""
        client = self.client
        future = asyncio.get_running_loop().create_future()

        def gen():
            yield from client.csync_all()

        return await self._submit(gen, future, session,
                                  resolve_on_exit=True, kind="csync-all")

    async def acall(self, factory, session=None, kind="call"):
        """Escape hatch: run any sim generator, await its return value.

        ``factory`` is a zero-argument callable returning a fresh
        generator (so the gate can stage the op before it first runs).
        """
        future = asyncio.get_running_loop().create_future()
        return await self._submit(factory, future, session,
                                  resolve_on_exit=True, kind=kind)

    # -------------------------------------------------------------- plumbing

    async def _submit(self, factory, future, session, resolve_on_exit, kind):
        env = self.driver.env

        def wrapped():
            try:
                value = yield from factory()
            except SIM_OP_ERRORS as exc:
                # Deliver sim-side failures (AdmissionReject, QueueFull,
                # DeadlineMissed...) into the awaiting coroutine instead
                # of letting them unwind the driver's stepping loop.
                # Non-sim exceptions (a bug in a handler, a TypeError in
                # user code) deliberately propagate: swallowing them into
                # the future would disguise broken code as a failed copy.
                if not future.done():
                    future.set_exception(exc)
                return
            if resolve_on_exit and not future.done():
                future.set_result(value)

        return await self.driver.call(
            lambda name: env.spawn(wrapped(), name=name), future, session,
            kind)
