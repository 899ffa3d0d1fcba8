"""The Copier OS service: the composition root of the copy path (§4.5).

One :class:`CopierService` per machine — it wires the layers together:

* :mod:`repro.copier.client` — submission API (clients, barriers, csync);
* :mod:`repro.copier.polling` — pluggable polling policies (§4.5.1, §5.3);
* :mod:`repro.copier.worker` — per-thread loops, sleep/wake, auto-scaling;
* :mod:`repro.copier.executor` — ingest, fault handling, round execution;
* :mod:`repro.copier.completion` — task retirement and FUNC handlers.

Each stage boundary calls ``service.stage_stats`` (a
:class:`~repro.sim.trace.StageAggregator`) with plain values, folding the
latency breakdown :mod:`repro.tools.copierstat` renders, and emits a
typed event on the machine-wide trace bus (:mod:`repro.sim.trace`) only
while something outside the service subscribes to it.
"""

from repro.copier.admission import AdmissionController
from repro.copier.client import ClientStats, CopierClient  # noqa: F401
from repro.copier.completion import CompletionHandler
from repro.copier.dispatch import Dispatcher
from repro.copier.executor import CopyExecutor
from repro.copier.polling import make_policy
from repro.copier.watchdog import CopierWatchdog
from repro.copier.worker import AutoScaler, CopierWorker
from repro.copier.atcache import ATCache
from repro.copier.sched import CopierScheduler
import os

from repro.faultinject import (FaultInjector, FaultPlan, IntegrityStats,
                               RecoveryStats)
from repro.hw.dma import DMAEngine
from repro.sim.trace import ProcessReaped, ServiceDrained, StageAggregator

#: Event-loop slice the shutdown drain advances per iteration.
_DRAIN_STEP_CYCLES = 20_000

#: Consecutive drain slices with executing events but a frozen backlog
#: (no queue, state, or segment movement) before shutdown declares the
#: service wedged — spinners (csync backoff loops) keep the clock busy
#: without ever draining anything, so ``executed == 0`` never fires.
_DRAIN_STALL_STEPS = 4

#: Why :meth:`CopierService.quiesce` refuses, per drain stop reason.
_QUIESCE_STOPS = {
    "deadline": "quiesce deadline passed with work outstanding",
    "idle": "quiesce wedged: backlog remains but nothing can run",
    "stalled": "quiesce wedged: events fire but nothing drains",
}


class LifecycleStats:
    """Counters for the lifecycle layer (exit reaping, EFAULT, drain)."""

    __slots__ = ("exit_reaped", "efault_tasks", "drain_requeued",
                 "processes_reaped", "drains")

    def __init__(self):
        self.exit_reaped = 0       # tasks force-completed by process exit
        self.efault_tasks = 0      # tasks retired with a TaskEFault
        self.drain_requeued = 0    # unfinished tasks at shutdown entry
        self.processes_reaped = 0  # clients reaped by exit/kill
        self.drains = 0            # shutdown() drains completed

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class CopierService:
    """The OS service: owns threads, dispatcher, scheduler, DMA and ATCache."""

    def __init__(self, env, params, phys=None, polling="napi",
                 use_dma=True, use_absorption=True, dma_engine=None,
                 n_threads=1, max_threads=4, dedicated_cores=None,
                 lazy_period_cycles=2_000_000, autoscale=False, trace=None,
                 fault_plan=None, admission=None, watchdog_cycles=None,
                 watchdog_starvation_cycles=None, e2e_crc=None):
        self.env = env
        self.params = params
        self.policy = make_policy(polling)
        self.trace = trace if trace is not None else env.trace
        self.stage_stats = StageAggregator()
        self.scheduler = CopierScheduler(params)
        self.atcache = ATCache(params)
        self.dispatcher = Dispatcher(params, use_dma=use_dma,
                                     use_absorption=use_absorption,
                                     atcache=self.atcache)
        # Fault injection (repro.faultinject): an explicit plan wins, else
        # COPIER_FAULT_PLAN/COPIER_FAULT_SEED from the environment; neither
        # leaves the injector unarmed (every site guards on ``faults.armed``,
        # so the unarmed path costs one attribute check).
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        self.faults = FaultInjector(fault_plan, env=env, trace=self.trace,
                                    stages=self.stage_stats)
        self.fault_stats = RecoveryStats()
        # End-to-end copy-path integrity (opt-in): checksum each task's
        # intended bytes as they are produced and verify the destination
        # at retirement.  Explicit argument wins over COPIER_E2E_CRC=1.
        if e2e_crc is None:
            e2e_crc = os.environ.get("COPIER_E2E_CRC", "") == "1"
        self.e2e_crc = bool(e2e_crc)
        self.integrity = IntegrityStats()
        self.dma = dma_engine if dma_engine is not None else (
            DMAEngine(env, params,
                      injector=self.faults if self.faults.armed else None)
            if use_dma else None)
        if (self.dma is not None and self.faults.armed
                and self.dma.injector is None):
            self.dma.injector = self.faults
        self.completion = CompletionHandler(self)
        self.executor = CopyExecutor(self, self.completion)
        self.autoscaler = AutoScaler(self)
        # Overload protection: the admission valve (explicit policy wins
        # over COPIER_ADMISSION), the liveness watchdog, and the global
        # retirement counter that serves as the watchdog's progress signal.
        self.admission = AdmissionController(self, admission)
        self.tasks_retired = 0
        self.watchdog = CopierWatchdog(
            self, period_cycles=watchdog_cycles,
            starvation_cycles=watchdog_starvation_cycles)
        self.lazy_period_cycles = lazy_period_cycles
        self.autoscale = autoscale
        self.clients = []
        # Bumped whenever ``clients`` changes; workers cache their share.
        self.clients_epoch = 0
        # Set by repro.serve.SimDriver when an async driver owns the
        # event loop; surfaces its stats under stats_snapshot()["serve"].
        self.serve_driver = None
        self.lifecycle = LifecycleStats()
        self.draining = False
        self.quiesced = False
        self._shutdown_report = None
        self._departed_aspaces = []  # kept so counters survive client reaping
        self.running = True
        self.scenario_active = self.policy.name != "scenario"
        self._wake_events = {}
        self.workers = []
        self.threads = []
        self.active_threads = n_threads
        self.peak_threads = n_threads
        self.max_threads = max_threads
        self.rounds_executed = 0
        self.tasks_dropped = 0
        spawn_count = max_threads if autoscale else n_threads
        if dedicated_cores is None:
            dedicated_cores = [env.cores.n_cores - 1 - i for i in range(spawn_count)]
        self.dedicated_cores = dedicated_cores
        for tid in range(spawn_count):
            core = dedicated_cores[tid % len(dedicated_cores)]
            worker = CopierWorker(self, tid)
            self.workers.append(worker)
            proc = env.spawn(worker.loop(), name="copier-%d" % tid,
                             affinity=core)
            self.threads.append(proc)

    # -------------------------------------------------------------- polling

    @property
    def polling(self):
        """The polling mode name; assigning swaps the policy object."""
        return self.policy.name

    @polling.setter
    def polling(self, value):
        self.policy = make_policy(value)

    # ------------------------------------------------------------- clients

    def create_client(self, aspace, name="", cgroup="root", process=None,
                      queue_capacity=1024, segment_bytes=None):
        client = CopierClient(self, aspace, name=name, process=process,
                              queue_capacity=queue_capacity,
                              segment_bytes=segment_bytes)
        self.clients.append(client)
        self.clients_epoch += 1
        self.scheduler.register(client, cgroup)
        return client

    def remove_client(self, client):
        self.clients.remove(client)
        self.clients_epoch += 1
        self.scheduler.unregister(client)
        self.admission.forget(client)

    # ------------------------------------------------------------ lifecycle

    def reap_client(self, client, outcome="exit-reap"):
        """Reap a client whose process exited or was killed.

        Drains its CSH rings, force-completes every in-flight task with
        clean unpin (``completion.reap_exit``), and detaches the client
        from the scheduler, admission controller and cgroup.  The aspace
        is *not* torn down here — the caller does that after the reap, so
        unpin always finds live (or lazily-deferred) PTEs.  Returns the
        number of tasks reaped.
        """
        if client not in self.clients:
            return 0
        count = self._reap_tasks(client, outcome)
        # UFUNC handlers queued for a dead process will never run.
        client.u_queues.handler.drain()
        self._departed_aspaces.append(client.aspace)
        self.remove_client(client)
        self.lifecycle.processes_reaped += 1
        self.stage_stats.seen()
        if self.trace.active:
            self.trace.emit(ProcessReaped(self.env.now, client.name, count))
        return count

    def _reap_tasks(self, client, outcome):
        """Force-complete every unfinished task a client owns; returns
        how many were reaped.  Ring entries behind a wedged (acquired but
        never published) slot stay unpoppable but are still reaped through
        the task index, which records every submission."""
        completion = self.completion
        count = 0
        for queue in (client.u_queues.copy, client.k_queues.copy):
            for task in queue.drain():
                if not task.is_finished:
                    completion.reap_exit(client, task, outcome)
                    count += 1
        client.u_queues.sync.drain()
        client.k_queues.sync.drain()
        seen = set()
        for task in list(client.pending) + list(client.task_index):
            if id(task) in seen:
                continue
            seen.add(id(task))
            if not task.is_finished:
                completion.reap_exit(client, task, outcome)
                count += 1
        return count

    def _outstanding(self):
        """True while any client still has unfinished copy work."""
        for client in self.clients:
            if len(client.u_queues.copy) or len(client.k_queues.copy):
                return True
            if any(not t.is_finished for t in client.task_index):
                return True
            if any(not t.is_finished for t in client.pending):
                return True
        return False

    def _drain_signature(self):
        """Progress fingerprint of the backlog the shutdown drain waits on.

        Two equal signatures across a full drain slice mean no queue
        shrank, no task changed state, and no segment landed — only
        busy-waiters (csync spin loops) are keeping the clock alive.
        """
        sig = []
        for client in self.clients:
            tasks = tuple(
                (t.task_id, t.state, len(t.segments_pending()),
                 t.absorbed_bytes)
                for t in list(client.task_index) + list(client.pending)
                if not t.is_finished)
            sig.append((len(client.u_queues.copy), len(client.k_queues.copy),
                        client.stats.bytes_copied, tasks))
        return tuple(sig)

    def _all_aspaces(self):
        seen = {}
        for client in self.clients:
            seen[client.aspace.asid] = client.aspace
        for aspace in self._departed_aspaces:
            seen[aspace.asid] = aspace
        return list(seen.values())

    def leaked_pins(self):
        """Outstanding pin count across every aspace the service touched."""
        return sum(a.pins_outstanding() for a in self._all_aspaces())

    def _drain(self, pending, deadline):
        """Step the loop until ``pending()`` is false; returns ``None``,
        or why it stopped: ``deadline`` (relative cycles) passed —
        ``"deadline"``; an idle slice, nothing can run — ``"idle"``; or
        ``_DRAIN_STALL_STEPS`` slices of events under a frozen
        :meth:`_drain_signature`, only busy-waiters (a csync spinning on
        a copy wedged on a dead fleet link) running — ``"stalled"``.

        Lazy tasks are deferred-until-convenient work and a drain is the
        convenient moment: kick them in first, so a copy only waiting out
        its lazy period is executed, not reaped or read as a wedge.
        """
        env = self.env
        for client in self.clients:
            for task in client.task_index:
                if task.lazy and not task.is_finished and \
                        task.lazy_deadline is not None:
                    task.lazy_deadline = min(task.lazy_deadline, env.now)
        limit = None if deadline is None else env.now + deadline
        stalled = 0
        last_sig = None
        while pending():
            if limit is not None and env.now >= limit:
                return "deadline"
            self.awaken()
            budget = _DRAIN_STEP_CYCLES
            if limit is not None and env.now + budget > limit:
                budget = limit - env.now
            if env.step(max_cycles=budget).executed == 0:
                return "idle"
            sig = self._drain_signature()
            if sig == last_sig:
                stalled += 1
                if stalled >= _DRAIN_STALL_STEPS:
                    return "stalled"
            else:
                stalled = 0
                last_sig = sig
        return None

    def shutdown(self, deadline=None):
        """Drain and stop the service; returns a report dict.

        Stops admission (submissions raise ``AdmissionReject("draining")``),
        then runs :meth:`_drain` until the backlog drains, ``deadline``
        (relative cycles) passes, or the drain detects a wedge — work
        parked behind a quarantined DMA engine drains too, because
        rounds fall back to the AVX stream.  Stragglers at the wedge or
        deadline are force-reaped (``drain-reap``), the workers are
        stopped, and zero leaked pins is asserted.  Call from outside the
        event loop (a driver, not a simulated process); the stepping API's
        re-entrancy guard enforces that, and also means the drain can
        never fight an async :class:`~repro.serve.driver.SimDriver` for
        the run loop — stop the driver first, then drain.
        """
        if self._shutdown_report is not None:
            return self._shutdown_report
        env = self.env
        start = env.now
        self.draining = True
        requeued = sum(1 for c in self.clients
                       for t in c.task_index if not t.is_finished)
        self.lifecycle.drain_requeued += requeued
        self._drain(self._outstanding, deadline)
        force_reaped = 0
        for client in list(self.clients):
            force_reaped += self._reap_tasks(client, "drain-reap")
        drained = force_reaped == 0
        self.stop()
        leaked = self.leaked_pins()
        self.lifecycle.drains += 1
        report = {
            "drained": drained,
            "requeued": requeued,
            "force_reaped": force_reaped,
            "cycles": env.now - start,
            "leaked_pins": leaked,
        }
        self._shutdown_report = report
        self.stage_stats.seen()
        if self.trace.active:
            self.trace.emit(ServiceDrained(env.now, drained, requeued,
                                           force_reaped, report["cycles"]))
        if leaked:
            raise RuntimeError("shutdown leaked %d pins" % leaked)
        return report

    # ------------------------------------------------------ quiesce/resume

    def _quiesce_pending(self):
        """True while anything short of a checkpointable standstill remains:
        unfinished copy work, or sync entries the workers still must drain."""
        if self._outstanding():
            return True
        for client in self.clients:
            if len(client.u_queues.sync) or len(client.k_queues.sync):
                return True
        return False

    def quiesce(self, deadline=None):
        """Drain the service to a checkpointable standstill — pause, not reap.

        The same :meth:`_drain` as :meth:`shutdown`, with pause
        semantics: admission freezes (``draining``), every in-flight task
        retires normally, the sync rings empty, the workers park (their
        loop generators exit), the DMA device process is killed and the
        event heap drains to idle.  Nothing is force-reaped and no
        shutdown report is recorded; :meth:`resume` restarts the service
        in place.  Raises :class:`~repro.ckpt.errors.CheckpointStateError`
        when the machine cannot reach a quiescent point (wedged backlog,
        queued FUNC handlers whose owning process never ran them).
        """
        from repro.ckpt.errors import CheckpointStateError

        if self._shutdown_report is not None:
            raise CheckpointStateError("service already shut down")
        if self.quiesced:
            return
        env = self.env
        self.draining = True
        stop = self._drain(self._quiesce_pending, deadline)
        if stop is not None:
            raise CheckpointStateError(_QUIESCE_STOPS[stop])
        for client in self.clients:
            if len(client.u_queues.handler) or len(client.k_queues.handler):
                # Refusal, not a wedge: the drain finished, so thaw
                # admission and let the caller run post_handlers().
                self.draining = False
                raise CheckpointStateError(
                    "client %r has queued FUNC handlers; run post_handlers()"
                    " before checkpointing" % client.name)
        # Park: stop the worker loops and the DMA device process, then step
        # the heap (parked wakeups, watchdog ticks and lazy timers firing as
        # no-ops) down to a truly idle event loop.
        self.running = False
        self.watchdog.stop()
        self._wake_all()
        if self.dma is not None and self.dma._proc.is_alive:
            self.dma._proc.kill()
        for _ in range(256):
            if env.idle:
                break
            env.step(max_cycles=_DRAIN_STEP_CYCLES)
        if not env.idle:
            raise CheckpointStateError("event heap did not drain to idle")
        for proc in self.threads:
            if proc.is_alive:
                raise CheckpointStateError("worker %s failed to park"
                                           % proc.name)
        if self._wake_events:
            raise CheckpointStateError("parked workers left wake events")
        # Canonical parked shape — identical on the resume-in-place path
        # and the restore-from-blob path: retired tasks compacted away.
        for client in self.clients:
            client._prune_index(force=True)
            for task in [t for t in client.pending if t.is_finished]:
                client.pending.remove(task)
        self.quiesced = True

    def resume(self):
        """Restart a quiesced service in place: respawn workers and DMA.

        Reverses :meth:`quiesce` — admission thaws, the watchdog re-arms
        from the current retirement count, the DMA device process is
        respawned and every worker loop restarts on its dedicated core
        (paying the same SIMD state-save cost as at boot, so a resumed
        machine and a restored one advance identically).
        """
        from repro.ckpt.errors import CheckpointStateError

        if not self.quiesced:
            raise CheckpointStateError("service is not quiesced")
        env = self.env
        self.quiesced = False
        self.draining = False
        self.running = True
        wd = self.watchdog
        wd._stopped = False
        wd._armed = False
        wd._last_retired = self.tasks_retired
        wd._last_progress_at = env.now
        wd._stall_streak = 0
        wd._flagged_starved.clear()
        self._wake_events = {}
        if self.dma is not None:
            self.dma.restart()
        threads = []
        for tid, worker in enumerate(self.workers):
            core = self.dedicated_cores[tid % len(self.dedicated_cores)]
            proc = env.spawn(worker.loop(), name="copier-%d" % tid,
                             affinity=core)
            threads.append(proc)
        self.threads = threads

    # ----------------------------------------------------------- wake/sleep

    def notify_submit(self, client):
        """Client published work; wake a sleeping *active* thread if needed."""
        self.watchdog.kick()
        if not self.policy.wake_on_submit(self):
            return  # stays asleep until the scenario activates (§5.3)
        for tid, event in list(self._wake_events.items()):
            if tid < self.active_threads and not event.triggered:
                event.succeed()

    def scenario_begin(self):
        """Activate scenario-driven Copier threads (e.g. video decode starts)."""
        self.scenario_active = True
        self._wake_all()

    def scenario_end(self):
        self.scenario_active = False

    def awaken(self):
        """The ``copier_awaken`` syscall: force-wake sleeping threads."""
        self._wake_all()

    def _wake_all(self):
        for tid, event in list(self._wake_events.items()):
            if not event.triggered:
                event.succeed()

    def stop(self):
        self.running = False
        self.watchdog.stop()
        self._wake_all()

    # -------------------------------------------------------------- metrics

    @property
    def bytes_absorbed(self):
        """Total short-circuited bytes across all clients (§4.4)."""
        return sum(c.stats.bytes_absorbed for c in self.clients)

    @property
    def bytes_copied(self):
        return sum(c.stats.bytes_copied for c in self.clients)

    def _my_clients(self, tid):
        """Clients served by thread ``tid`` (see CopierWorker.my_clients)."""
        if tid >= len(self.workers):
            return []
        return self.workers[tid].my_clients()

    @property
    def _load_window(self):
        """Auto-scaling load observations (kept for introspection)."""
        return self.autoscaler.window

    # ------------------------------------------------------------- snapshot

    def stats_snapshot(self):
        """Plain-dict snapshot of the whole service (see copierstat)."""
        dispatcher, atcache = self.dispatcher, self.atcache
        snap = {
            "now": self.env.now,
            "polling": self.polling,
            "scenario_active": self.scenario_active,
            "threads": {
                "active": self.active_threads,
                "peak": self.peak_threads,
                "spawned": len(self.threads),
                "sleeping": sorted(self._wake_events),
            },
            "dispatcher": {
                "rounds": dispatcher.rounds_planned,
                "bytes_to_dma": dispatcher.bytes_to_dma,
                "bytes_to_avx": dispatcher.bytes_to_avx,
                "use_dma": dispatcher.use_dma,
                "use_absorption": dispatcher.use_absorption,
            },
            "atcache": {
                "hits": atcache.hits,
                "misses": atcache.misses,
                "hit_rate": atcache.hit_rate,
                "invalidations": atcache.invalidations,
            },
            "dma": None,
            "tasks_dropped": self.tasks_dropped,
            "cgroups": {
                name: {"shares": g.shares,
                       "total_copy_length": g.total_copy_length,
                       "clients": len(g.clients)}
                for name, g in self.scheduler.cgroups.items()
            },
            "clients": {c.name: c.stats_snapshot() for c in self.clients},
            "overload": dict(self.admission.snapshot(),
                             tasks_retired=self.tasks_retired,
                             watchdog=self.watchdog.snapshot()),
            "stages": self.stage_stats.as_dict(),
            "faults": dict(
                self.faults.as_dict(),
                dma_quarantined=dispatcher.dma_quarantined,
                recovery=self.fault_stats.as_dict(),
            ),
            "lifecycle": dict(
                self.lifecycle.as_dict(),
                draining=self.draining,
                deferred_unmaps=sum(a.deferred_unmaps
                                    for a in self._all_aspaces()),
                deferred_reclaimed=sum(a.deferred_reclaimed
                                       for a in self._all_aspaces()),
                pins_outstanding=self.leaked_pins(),
            ),
        }
        if self.e2e_crc or self.integrity.interesting():
            # Presence-gated: the key appears only when the end-to-end
            # CRC is armed (or something tripped it), so unarmed snapshots
            # stay byte-identical to pre-integrity builds.
            snap["integrity"] = dict(
                self.integrity.as_dict(),
                e2e_crc=self.e2e_crc,
                dma_bitflips=self.dma.bitflips if self.dma is not None else 0,
            )
        if self.serve_driver is not None:
            snap["serve"] = self.serve_driver.snapshot()
        if self.dma is not None:
            snap["dma"] = {
                "bytes_copied": self.dma.bytes_copied,
                "batches": self.dma.batches,
                "busy_cycles": self.dma.busy_cycles,
                "submit_failures": self.dma.submit_failures,
                "aborted_batches": self.dma.aborted_batches,
                "stall_cycles": self.dma.stall_cycles,
                "efaults": self.dma.efaults,
            }
        return snap
