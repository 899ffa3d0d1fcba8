"""The per-thread Copier loop: polling, sleep/wake, and auto-scaling.

Each Copier thread is a :class:`CopierWorker` running as a simulator
process pinned to a dedicated core.  Per iteration it ingests published
tasks, serves Sync Tasks (k-mode before u-mode, §4.2.2), asks the
scheduler for a client and executes one dispatcher round for it — all via
the service's shared :class:`~repro.copier.executor.CopyExecutor`.  The
*between-sweeps* behaviour (poll gaps, when to block, whether submissions
wake it) is delegated to the service's pluggable
:class:`~repro.copier.polling.PollingPolicy`.

A sweep that yields nothing observes nothing new.  When none of the
thread's clients has a pending task or a published entry in its copy and
sync rings, the iteration skips the sweep and goes straight to the idle
poll — the common case of a busy-polling thread.  Otherwise each stage
skips a client whose ring or pending list is empty at that moment; the
check is per stage, because a Sync Task can land while the thread yields
in an earlier stage.  The thread's client share (:meth:`my_clients`) is
cached until the service's clients or active thread count change.

:class:`AutoScaler` implements §4.5.1's load-watching: thread 0 records
its busy-time fraction per decision window and wakes/sheds sibling
threads to keep it between ``low_load`` and ``high_load``.
"""

from repro.sim import Compute, Timeout, WaitEvent
from repro.sim.trace import ThreadSleep, ThreadWake

#: Bookkeeping cycles charged per task retired by the overload reap.
_REAP_CYCLES_PER_TASK = 15


def _quiet(clients):
    """True when no client has a pending task or a published entry in its
    copy and sync rings (``head == tail``): a sweep would find nothing."""
    for client in clients:
        if client.pending:
            return False
        u, k = client.u_queues, client.k_queues
        if (u.copy.head != u.copy.tail or k.copy.head != k.copy.tail
                or u.sync.head != u.sync.tail or k.sync.head != k.sync.tail):
            return False
    return True


class AutoScaler:
    """Busy-fraction-driven thread scaling for one service (§4.5.1)."""

    #: Loop iterations per auto-scaling decision window.
    LOAD_WINDOW = 24

    #: Consecutive low-load observations before shedding a thread.
    LOW_STREAK = 3

    def __init__(self, service):
        self.service = service
        self.window = []
        self._low_streak = 0

    def record(self, load, tid=0):
        """Thread 0 watches its busy-time fraction over each decision
        window and keeps it between low_load and high_load by waking or
        sleeping sibling threads.  Scale-down needs a streak of low
        observations (hysteresis) so brief inter-request gaps don't shed
        threads under sustained load."""
        service = self.service
        if not service.autoscale or tid != 0:
            return
        self.window.append(load)
        if load > service.params.high_load:
            self._low_streak = 0
            if service.active_threads < service.max_threads:
                service.active_threads += 1
                service.peak_threads = max(service.peak_threads,
                                           service.active_threads)
                service._wake_all()
        elif load < service.params.low_load:
            self._low_streak += 1
            if self._low_streak >= self.LOW_STREAK and service.active_threads > 1:
                service.active_threads -= 1
                self._low_streak = 0
        else:
            self._low_streak = 0


class CopierWorker:
    """One Copier thread: owns the loop generator spawned by the service."""

    def __init__(self, service, tid):
        self.service = service
        self.tid = tid
        self._clients = []
        self._clients_key = None

    def my_clients(self):
        """Clients served by this thread: round-robin over the active
        thread count, so scaling up immediately re-spreads clients (the
        NUMA-local preference is a no-op in this single-node model).

        Cached until the service's client list or its active thread count
        changes; a change builds a new list, so a sweep holding the old
        one is unaffected.  Callers must not mutate the result."""
        service = self.service
        key = (service.clients_epoch, service.active_threads)
        if key != self._clients_key:
            self._clients_key = key
            active = service.active_threads
            if self.tid >= active:
                self._clients = []
            else:
                self._clients = [c for i, c in enumerate(service.clients)
                                 if i % active == self.tid]
        return self._clients

    # ------------------------------------------------------------ main loop

    def loop(self):
        service = self.service
        params = service.params
        # Save SIMD state once on activation instead of per copy (§4.3).
        yield Compute(params.simd_state_cycles, tag="copier-mgmt")
        idle_streak = 0
        win_start = service.env.now
        win_busy = 0
        win_iters = 0
        while service.running:
            if not service.policy.ready(service) or \
                    self.tid >= service.active_threads:
                yield from self._sleep()
                win_start, win_busy, win_iters = service.env.now, 0, 0
                continue
            iter_start = service.env.now
            clients = self.my_clients()
            if _quiet(clients):
                # Nothing pending, nothing published: a sweep would
                # drain empty rings and pick no client, so skip it.
                did_work = False
            else:
                did_work = yield from self._sweep(clients)

            if did_work:
                win_busy += service.env.now - iter_start
            win_iters += 1
            if win_iters >= AutoScaler.LOAD_WINDOW:
                elapsed = max(1, service.env.now - win_start)
                service.autoscaler.record(win_busy / elapsed, tid=self.tid)
                win_start, win_busy, win_iters = service.env.now, 0, 0
            if did_work:
                idle_streak = 0
                service.rounds_executed += 1
            else:
                idle_streak += 1
                yield Compute(params.queue_poll_cycles, tag="poll")
                if service.policy.should_block(idle_streak):
                    # Brief busy-poll burst, then block until a client's
                    # doorbell (or, in scenario mode, until the scenario
                    # begins) — instant wakeup, no idle burn.  Going idle
                    # is itself a low-load observation for auto-scaling.
                    service.autoscaler.record(0.0, tid=self.tid)
                    self._arm_lazy_timer(clients)
                    yield from self._sleep(wake_cost=100)
                    idle_streak = 0
                    win_start, win_busy, win_iters = service.env.now, 0, 0
                else:
                    yield Timeout(service.policy.poll_gap(idle_streak))

    def _sweep(self, clients):
        """Ingest, reap, serve Sync Tasks and run one dispatcher round;
        returns whether any of it did work.  Each stage skips a client
        whose ring or pending list is empty at that moment (a Sync Task
        may land while the thread yields in an earlier stage)."""
        service = self.service
        executor = service.executor
        did_work = False
        ingest_cost = 0
        for client in clients:
            u, k = client.u_queues.copy, client.k_queues.copy
            if u.head != u.tail or k.head != k.tail:
                ingest_cost += executor.ingest(client)
        if ingest_cost:
            yield Compute(ingest_cost, tag="copier-mgmt")

        # Retire cancelled/deadline-expired work before planning any
        # rounds — no cycles are spent copying bytes nobody wants.
        reaped = 0
        for client in clients:
            if client.pending:
                reaped += service.completion.reap_overload(client)
        if reaped:
            did_work = True
            yield Compute(reaped * _REAP_CYCLES_PER_TASK,
                          tag="copier-mgmt")

        # Sync Tasks first — k-mode before u-mode (§4.2.2).
        for kind in ("k", "u"):
            for client in clients:
                queues = client.k_queues if kind == "k" else client.u_queues
                sync = queues.sync
                if sync.head == sync.tail:
                    continue
                for task in sync.drain():
                    did_work = True
                    yield from executor.handle_sync(client, task)

        heads = {}
        for client in clients:
            if client.pending:
                head = executor.next_head(client)
                if head is not None:
                    heads[client] = head
        client = service.scheduler.pick(heads)
        if client is not None:
            plan = service.dispatcher.build_round(
                client.pending, service.scheduler.copy_slice_bytes,
                head=heads[client])
            if plan is not None and (plan.avx_jobs or plan.dma_runs):
                did_work = True
                yield from executor.execute_plan(client, plan)
            service.completion.sweep(client)
        return did_work

    # ----------------------------------------------------------- sleep/wake

    def _arm_lazy_timer(self, clients):
        """Before sleeping, arm a wakeup at the earliest lazy deadline so
        deferred tasks still run when their period elapses (§4.4) — and
        at the earliest task deadline, so expired tasks are reaped (and
        their pins released) even when no new submission rings the
        doorbell."""
        service = self.service
        deadlines = [t.lazy_deadline for c in clients for t in c.pending
                     if t.lazy and t.lazy_deadline is not None]
        deadlines += [t.deadline for c in clients for t in c.pending
                      if t.deadline is not None]
        if not deadlines:
            return
        delay = max(0, min(deadlines) - service.env.now)
        tid = self.tid

        def fire():
            event = service._wake_events.get(tid)
            if event is not None and not event.triggered:
                event.succeed()

        service.env.schedule(delay, fire)

    def _sleep(self, wake_cost=None):
        service = self.service
        event = service.env.event()
        service._wake_events[self.tid] = event
        # Re-check after publishing the wake slot: a client may have
        # submitted between our last drain and here (the classic lost
        # wakeup), in which case we skip the sleep entirely.  An inactive
        # scenario sleeps unconditionally — only scenario_begin wakes it.
        if service.policy.ready(service) and self._has_published_work():
            service._wake_events.pop(self.tid, None)
            return
        inj = service.faults
        if inj.armed:
            # Spurious wakeup: the doorbell rings with no work behind it.
            # The loop absorbs it — an empty sweep, then back to sleep.
            delay = inj.delay_cycles("spurious_wakeup")
            if delay:
                def spurious():
                    if not event.triggered:
                        service.fault_stats.spurious_wakeups += 1
                        event.succeed()
                service.env.schedule(delay, spurious)
        stages = service.stage_stats
        trace = service.trace
        slept_at = service.env.now
        stages.slept()
        if trace.active:
            trace.emit(ThreadSleep(slept_at, self.tid))
        yield WaitEvent(event)
        service._wake_events.pop(self.tid, None)
        now = service.env.now
        stages.woke(now - slept_at)
        if trace.active:
            trace.emit(ThreadWake(now, self.tid, now - slept_at))
        if wake_cost is None:
            wake_cost = service.params.scenario_wake_cycles
        yield Compute(wake_cost, tag="copier-mgmt")

    def _has_published_work(self):
        executor = self.service.executor
        for client in self.my_clients():
            if (not client.u_queues.copy.is_empty
                    or not client.k_queues.copy.is_empty
                    or not client.u_queues.sync.is_empty
                    or not client.k_queues.sync.is_empty
                    or executor.next_head(client) is not None):
                return True
        return False
