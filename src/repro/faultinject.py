"""Seeded, deterministic fault injection for the copy path.

The paper's dependability claim (§4.5.4, §7) is that asynchronous copy can
be a *service*: engines fail, stall and get preempted mid-copy, and the
kernel — not the application — absorbs the damage.  This module is the
simulator's fault model.  A :class:`FaultPlan` names a set of fault kinds
with per-site firing rates; a :class:`FaultInjector` armed on a
:class:`~repro.copier.service.CopierService` consults the plan at each
injection site and the copy path degrades gracefully:

==========================  ==================================================
fault kind                  site and degradation
==========================  ==================================================
``engine_stall``            copy engine (AVX stream or the DMA device) stalls
                            for a drawn number of cycles — pure slowdown
``dma_submit_fail``         :meth:`DMAEngine.submit` raises
                            :class:`~repro.copier.errors.DMASubmitError`; the
                            executor retries with exponential backoff, and
                            falls back to the CPU engine when retries exhaust
``dma_abort``               the device aborts a batch mid-transfer (nothing
                            committed for the aborted subtask); unfinished
                            segments are re-copied on the CPU engine
``pin_fail``                page pinning during ingest raises
                            :class:`~repro.copier.errors.PagePinError`; the
                            executor retries (unpinning any partial pin),
                            dropping the task only on persistent failure
``queue_overflow``          a CSH ring acquire reports full; the client
                            backs off and retries before re-raising
``spurious_wakeup``         a sleeping Copier thread is woken with no work
``delayed_trap_return``     the kernel's return-to-user barrier snapshot is
                            delayed by a drawn number of cycles
``dma_bitflip``             the DMA engine silently flips one destination
                            bit after a subtask lands; only the opt-in
                            end-to-end CRC (``COPIER_E2E_CRC=1``) catches
                            it, re-executes on the CPU and quarantines
``engine_torn_write``       an engine writes only part of a segment yet
                            marks it complete — silent torn write, same
                            E2E-CRC detect/re-execute defense
``frame_poison``            an uncorrectable memory error under the copy:
                            the engine raises :class:`FramePoisonError`
                            and the task retires *loudly* with a typed
                            ``TaskPoisoned`` delivered at csync
==========================  ==================================================

Determinism: each fault kind draws from its own ``random.Random`` seeded
with ``(plan.seed, kind)``, so firing decisions depend only on the plan
seed and the per-site call sequence — both reproducible because the
simulator is single-threaded and event-ordered.  A per-site
``max_consecutive`` cap bounds how many times a site can fire in a row,
which guarantees every retry loop in the copy path makes progress.

Arm a plan explicitly (``CopierService(..., fault_plan=FaultPlan.mixed(1))``)
or through the environment (``COPIER_FAULT_PLAN=mixed COPIER_FAULT_SEED=1``),
which is how CI runs the whole tier-1 suite under injected faults.
"""

import os
import random


class TransientCopierError(Exception):
    """A recoverable infrastructure hiccup: retry with backoff.

    Handlers in the copy path must either retry these (recording the
    attempt in the service's recovery stats) or escalate after a bounded
    number of attempts — never swallow them silently.
    """


class DMASubmitError(TransientCopierError):
    """The DMA doorbell was lost / the device queue rejected a batch."""


class DMAAbortError(Exception):
    """The DMA device aborted a batch mid-transfer.

    Nothing from the aborted subtask was committed; the unfinished
    segments must be re-executed on a CPU engine (engine fallback).
    """


class PagePinError(TransientCopierError):
    """Pinning a task's pages failed transiently during ingest (§4.5.4)."""


class FramePoisonError(Exception):
    """An uncorrectable (poisoned) frame was hit mid-copy.

    Raised by the engine layer; the executor retires the task with a
    typed ``TaskPoisoned`` (a ``CopyAborted`` sibling) delivered to the
    submitter at csync — loud, attributable, never silent corruption.
    """

    def __init__(self, va=0):
        self.va = va
        super().__init__("poisoned frame at 0x%x" % va)


#: Every fault kind a plan may name, in documentation order.
FAULT_KINDS = (
    "engine_stall",
    "dma_submit_fail",
    "dma_abort",
    "pin_fail",
    "queue_overflow",
    "spurious_wakeup",
    "delayed_trap_return",
    "dma_bitflip",
    "engine_torn_write",
    "frame_poison",
)


class FaultSpec:
    """One fault kind's firing behaviour within a plan."""

    __slots__ = ("kind", "rate", "max_consecutive", "min_cycles", "max_cycles")

    def __init__(self, kind, rate, max_consecutive=2,
                 min_cycles=200, max_cycles=4000):
        if kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind %r (have: %s)"
                             % (kind, ", ".join(FAULT_KINDS)))
        if not 0.0 < rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        if max_consecutive < 1:
            raise ValueError("max_consecutive must be >= 1")
        self.kind = kind
        self.rate = rate
        self.max_consecutive = max_consecutive
        self.min_cycles = min_cycles
        self.max_cycles = max_cycles

    def __repr__(self):
        return "FaultSpec(%s, rate=%.2f, max_consecutive=%d)" % (
            self.kind, self.rate, self.max_consecutive)


class FaultPlan:
    """A named, seeded set of :class:`FaultSpec` entries."""

    def __init__(self, name, seed, specs):
        self.name = name
        self.seed = seed
        self.specs = {spec.kind: spec for spec in specs}

    def __repr__(self):
        return "FaultPlan(%r, seed=%d, kinds=[%s])" % (
            self.name, self.seed, ", ".join(sorted(self.specs)))

    # ------------------------------------------------------------ factories

    @classmethod
    def mixed(cls, seed=0):
        """Every fault kind at moderate rates — the CI soak plan.

        Rates are chosen so recovery paths all exercise within one stress
        run: submit failures mostly succeed on retry (``max_consecutive``
        below the executor's retry budget), while aborts force at least
        occasional CPU fallback.
        """
        return cls("mixed", seed, [
            FaultSpec("engine_stall", 0.05, max_consecutive=2,
                      min_cycles=500, max_cycles=5000),
            FaultSpec("dma_submit_fail", 0.25, max_consecutive=2),
            FaultSpec("dma_abort", 0.10, max_consecutive=1),
            FaultSpec("pin_fail", 0.10, max_consecutive=2),
            FaultSpec("queue_overflow", 0.05, max_consecutive=2),
            FaultSpec("spurious_wakeup", 0.20, max_consecutive=2,
                      min_cycles=1000, max_cycles=20000),
            FaultSpec("delayed_trap_return", 0.10, max_consecutive=2,
                      min_cycles=200, max_cycles=2000),
        ])

    @classmethod
    def single(cls, kind, seed=0, rate=0.25, max_consecutive=2, **kwargs):
        """A plan firing only ``kind`` (stress one recovery path)."""
        return cls(kind, seed,
                   [FaultSpec(kind, rate, max_consecutive=max_consecutive,
                              **kwargs)])

    @classmethod
    def dma_submit_persistent(cls, seed=0):
        """Submit failures that outlast the executor's retry budget,
        forcing the persistent-failure path: CPU fallback and, after
        repeated episodes, DMA quarantine.  ``rate=1.0`` makes every
        submit episode exhaust deterministically (``max_consecutive``
        is set well above the executor's retry budget)."""
        return cls("dma_submit_persistent", seed,
                   [FaultSpec("dma_submit_fail", 1.0, max_consecutive=16)])

    @classmethod
    def integrity(cls, seed=0):
        """The silent-corruption plan: bit flips, torn writes, poison.

        Kept out of :meth:`mixed` on purpose — mixed's rates are pinned
        by the differential suites, and silent corruption without the
        E2E-CRC defense armed would (correctly) fail any data check.
        Arm this plan together with ``COPIER_E2E_CRC=1``.
        """
        return cls("integrity", seed, [
            FaultSpec("dma_bitflip", 0.08, max_consecutive=2),
            FaultSpec("engine_torn_write", 0.05, max_consecutive=2),
            FaultSpec("frame_poison", 0.02, max_consecutive=1),
        ])

    @classmethod
    def named(cls, name, seed=0):
        """Build a plan from its registered name (see :data:`PLAN_NAMES`)."""
        if name == "mixed":
            return cls.mixed(seed)
        if name == "dma_submit_persistent":
            return cls.dma_submit_persistent(seed)
        if name == "integrity":
            return cls.integrity(seed)
        if name in FAULT_KINDS:
            return cls.single(name, seed)
        raise ValueError("unknown fault plan %r (have: %s)"
                         % (name, ", ".join(PLAN_NAMES)))

    @classmethod
    def from_env(cls, environ=None):
        """Plan named by ``COPIER_FAULT_PLAN`` / ``COPIER_FAULT_SEED``.

        Returns ``None`` when no plan is requested, so services stay
        fault-free (and overhead-free) by default.
        """
        environ = os.environ if environ is None else environ
        name = environ.get("COPIER_FAULT_PLAN", "").strip()
        if not name or name in ("none", "off", "0"):
            return None
        seed = int(environ.get("COPIER_FAULT_SEED", "0"))
        return cls.named(name, seed)


#: Names accepted by :meth:`FaultPlan.named` (and the CI env var).
PLAN_NAMES = ("mixed", "dma_submit_persistent", "integrity") + FAULT_KINDS


class IntegrityStats:
    """Counters for the end-to-end copy-integrity defense.

    ``crc_checks`` counts armed tasks checked at retirement and
    ``crc_mismatches`` the mismatching checks, by a csync or at
    retirement; ``reexec_tasks`` / ``reexec_bytes`` the CPU repairs;
    ``overlap_skips`` newer writes that dropped an older task's
    expected CRC over the same bytes (re-executing it would clobber
    them);
    ``quarantines`` DMA engines benched for corrupting; and
    ``poisoned_tasks`` the loud frame-poison retirements.
    """

    __slots__ = ("crc_checks", "crc_mismatches", "reexec_tasks",
                 "reexec_bytes", "overlap_skips", "quarantines",
                 "poisoned_tasks")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def interesting(self):
        """True once any counter moved (or checking is armed)."""
        return any(getattr(self, name) for name in self.__slots__)

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class RecoveryStats:
    """Counters for the copy path's degradation machinery.

    ``*_failures`` count faults the path absorbed; ``*_retries_ok`` count
    retry loops that subsequently succeeded — the acceptance signal that
    degradation is graceful rather than silent.
    """

    __slots__ = ("dma_submit_failures", "dma_submit_retries_ok",
                 "dma_submit_exhausted", "dma_aborts", "engine_fallbacks",
                 "fallback_bytes", "pin_failures", "pin_retries_ok",
                 "spurious_wakeups")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def retries_ok(self):
        """Total successful retries across all recovery loops."""
        return self.dma_submit_retries_ok + self.pin_retries_ok

    def as_dict(self):
        snap = {name: getattr(self, name) for name in self.__slots__}
        snap["retries_ok"] = self.retries_ok
        return snap


class FaultInjector:
    """Consults a :class:`FaultPlan` at each injection site.

    One injector per service.  ``plan=None`` leaves it unarmed: every
    site guard is a single attribute check, so an unarmed service pays
    nothing measurable (the Fig-11 "unchanged within noise" requirement).
    """

    def __init__(self, plan=None, env=None, trace=None, stages=None):
        self.plan = plan
        #: Every injection site tests this before consulting the plan.
        self.armed = plan is not None
        self.env = env
        self.trace = trace
        #: The service's :class:`~repro.sim.trace.StageAggregator`, which
        #: counts every ``fault-injected`` event whether or not the bus
        #: has a subscriber to build it for.
        self.stages = stages
        self.injected = {}
        self._rngs = {}
        self._consecutive = {}
        if plan is not None:
            for kind, spec in plan.specs.items():
                self._rngs[kind] = random.Random((plan.seed, kind).__repr__())
                self._consecutive[kind] = 0
                self.injected[kind] = 0

    @property
    def plan_name(self):
        return self.plan.name if self.plan is not None else None

    @property
    def seed(self):
        return self.plan.seed if self.plan is not None else None

    # -------------------------------------------------------------- firing

    def fire(self, kind):
        """True when ``kind`` fires at this call site.

        Never fires more than the spec's ``max_consecutive`` times in a
        row, so bounded retry loops always terminate.
        """
        if self.plan is None:
            return False
        spec = self.plan.specs.get(kind)
        if spec is None:
            return False
        if self._consecutive[kind] >= spec.max_consecutive:
            self._consecutive[kind] = 0
            return False
        if self._rngs[kind].random() >= spec.rate:
            self._consecutive[kind] = 0
            return False
        self._consecutive[kind] += 1
        self.injected[kind] += 1
        self._trace(kind)
        return True

    def stall_cycles(self, kind="engine_stall"):
        """Cycles of injected stall/delay; 0 when the site does not fire."""
        if not self.fire(kind):
            return 0
        spec = self.plan.specs[kind]
        return self._rngs[kind].randint(spec.min_cycles, spec.max_cycles)

    #: ``delayed_trap_return`` / ``spurious_wakeup`` draw durations the
    #: same way stalls do.
    delay_cycles = stall_cycles

    def draw_int(self, kind, n):
        """A deterministic draw in ``[0, n)`` from ``kind``'s stream.

        Corruption sites use this to pick *where* to damage (byte
        offset, bit index) from the same seeded stream that decided
        *whether* to fire, keeping campaigns replayable bit-for-bit.
        """
        return self._rngs[kind].randrange(n)

    def _trace(self, kind):
        if self.env is None:
            return
        if self.stages is not None:
            self.stages.seen()
        trace = self.trace
        if trace is not None and trace.active:
            from repro.sim.trace import FaultInjected
            trace.emit(FaultInjected(self.env.now, kind))

    def as_dict(self):
        return {
            "plan": self.plan_name,
            "seed": self.seed,
            "armed": self.armed,
            "injected": dict(self.injected),
        }
