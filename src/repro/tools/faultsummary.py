"""FaultSummary: run a canned stress workload under an armed fault plan
and report how the copy path degraded.

CI's fault-injection job runs this after the test suite and uploads the
output as an artifact: a human-readable record of which faults fired and
which recovery paths (retry, engine fallback, quarantine) absorbed them.
It doubles as a smoke check — the workload's final memory is compared
against a pure-Python reference and pins are checked for leaks, so a
non-zero exit means graceful degradation actually broke.

Usage::

    PYTHONPATH=src python -m repro.tools.faultsummary [--plan mixed]
        [--seed 1] [--ops 120]

``--plan``/``--seed`` default to ``COPIER_FAULT_PLAN``/``COPIER_FAULT_SEED``
(falling back to ``mixed`` / 0), so the CI job just exports the same
variables it runs the suite with.  ``--e2e-crc`` (or ``COPIER_E2E_CRC=1``)
arms the end-to-end copy CRC; with it on, the silent-corruption kinds in
``--plan integrity`` are detected and repaired, so the memory oracle still
holds.  ``frame_poison`` is the one exception: a poisoned copy aborts
loudly (that is its contract), the workload tolerates the
:class:`~repro.copier.errors.TaskPoisoned` at csync, and the byte-equality
check is skipped for that run — pins are still audited.
"""

import argparse
import os
import random
import sys

from repro.copier import CopierService
from repro.copier.errors import CopyAborted
from repro.faultinject import PLAN_NAMES, FaultPlan
from repro.hw import MachineParams
from repro.kernel.system import machine_classes
from repro.mem import PhysicalMemory
from repro.sim import DEFAULT_RUN_LIMIT
from repro.tools import copierstat

N_BUFFERS = 4
BUF_BYTES = 32 * 1024
MAX_COPY_BYTES = 16 * 1024


def _initial(i):
    buf = bytearray(BUF_BYTES)
    for j in range(0, BUF_BYTES, 128):
        buf[j] = (i * 41 + j // 128) % 251
    return bytes(buf)


def _make_ops(seed, n_ops):
    """A deterministic op list: mostly large copies (so DMA runs form),
    with csyncs sprinkled in per the §5.1.1 guidelines."""
    rng = random.Random(("faultsummary", seed).__repr__())
    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        offset = rng.randrange(0, BUF_BYTES - 4096, 64)
        length = rng.randrange(2048, min(MAX_COPY_BYTES, BUF_BYTES - offset))
        if roll < 0.75:
            src = rng.randrange(N_BUFFERS)
            dst = rng.choice([i for i in range(N_BUFFERS) if i != src])
            ops.append(("copy", src, dst, offset, length))
        else:
            ops.append(("csync", rng.randrange(N_BUFFERS), offset, length))
    return ops


def _reference(ops):
    bufs = [bytearray(_initial(i)) for i in range(N_BUFFERS)]
    for op in ops:
        if op[0] == "copy":
            _k, src, dst, offset, length = op
            bufs[dst][offset:offset + length] = \
                bufs[src][offset:offset + length]
    return [bytes(b) for b in bufs]


def run_workload(plan, n_ops=120, admission=None, e2e_crc=None):
    """Execute the canned workload under ``plan``; returns
    ``(service, aspace, bases, ops)`` after the run completes."""
    env_cls, aspace_cls = machine_classes()
    env = env_cls(n_cores=2)
    params = MachineParams()
    phys = PhysicalMemory(8192)
    service = CopierService(env, params, fault_plan=plan,
                            admission=admission, e2e_crc=e2e_crc)
    aspace = aspace_cls(phys, name="app")
    client = service.create_client(aspace, name="app")
    bases = [aspace.mmap(BUF_BYTES, populate=True, contiguous=True)
             for i in range(N_BUFFERS)]
    for i, base in enumerate(bases):
        aspace.write(base, _initial(i))
    ops = _make_ops(plan.seed if plan is not None else 0, n_ops)

    def app():
        # A poisoned copy aborts with TaskPoisoned at the csync covering
        # its range; the workload shrugs and moves on (the service already
        # counted it), the same way a real app would field the signal.
        for op in ops:
            try:
                if op[0] == "copy":
                    _k, src, dst, offset, length = op
                    yield from client.amemcpy(bases[dst] + offset,
                                              bases[src] + offset, length)
                else:
                    _k, idx, offset, length = op
                    yield from client.csync(bases[idx] + offset, length)
            except CopyAborted:
                pass
        yield from client.csync_all()

    proc = env.spawn(app(), name="app", affinity=0)
    env.run_until(proc.terminated, limit=DEFAULT_RUN_LIMIT)
    return service, aspace, bases, ops


def check(service, aspace, bases, ops):
    """Return a list of failure strings (empty = degraded gracefully).

    A run that retired tasks poisoned skips the byte-equality oracle —
    those copies aborted by contract, so the buffers legitimately differ
    from the all-copies-land reference.  Pin audits always apply.
    """
    failures = []
    if not service.integrity.poisoned_tasks:
        expected = _reference(ops)
        for i, base in enumerate(bases):
            if aspace.read(base, BUF_BYTES) != expected[i]:
                failures.append("buffer %d diverged from the sync reference"
                                % i)
    leaked = aspace.pins_outstanding()
    if leaked:
        failures.append("%d page pins leaked" % leaked)
    lifecycle = service.stats_snapshot()["lifecycle"]
    if lifecycle["pins_outstanding"]:
        failures.append("%d pins outstanding service-wide"
                        % lifecycle["pins_outstanding"])
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="faultsummary", description=__doc__.split("\n\n")[0])
    parser.add_argument("--plan", choices=PLAN_NAMES,
                        default=os.environ.get("COPIER_FAULT_PLAN") or "mixed")
    parser.add_argument("--seed", type=int,
                        default=int(os.environ.get("COPIER_FAULT_SEED", "0")))
    parser.add_argument("--ops", type=int, default=120,
                        help="workload length (copies + csyncs)")
    parser.add_argument("--admission", default=None,
                        help="admission policy (default: COPIER_ADMISSION "
                             "or 'always')")
    parser.add_argument("--e2e-crc", action="store_true",
                        default=os.environ.get("COPIER_E2E_CRC", "") == "1",
                        help="arm the end-to-end copy CRC (default: "
                             "COPIER_E2E_CRC)")
    args = parser.parse_args(argv)

    plan = FaultPlan.named(args.plan, args.seed)
    service, aspace, bases, ops = run_workload(plan, n_ops=args.ops,
                                               admission=args.admission,
                                               e2e_crc=args.e2e_crc)
    print("faultsummary: %d ops under plan=%s seed=%d admission=%s" % (
        len(ops), args.plan, args.seed, service.admission.policy.name))
    print(copierstat.report(service))
    lifecycle = service.stats_snapshot()["lifecycle"]
    print("lifecycle: exit_reaped=%d efault_tasks=%d deferred_unmaps=%d "
          "drain_requeued=%d pins_outstanding=%d" % (
              lifecycle["exit_reaped"], lifecycle["efault_tasks"],
              lifecycle["deferred_unmaps"], lifecycle["drain_requeued"],
              lifecycle["pins_outstanding"]))
    failures = check(service, aspace, bases, ops)
    for failure in failures:
        print("FAIL: %s" % failure)
    if not failures:
        if service.integrity.poisoned_tasks:
            print("OK: %d poisoned tasks aborted cleanly, no leaked pins "
                  "(byte oracle skipped)" % service.integrity.poisoned_tasks)
        else:
            print("OK: memory matches the sync reference, no leaked pins")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
