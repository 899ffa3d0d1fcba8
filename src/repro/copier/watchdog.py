"""Liveness watchdog for the copy path (§4.5's "first-class service" bar).

A wedged worker, a starved client or a backlog piling up behind a
quarantined DMA engine is invisible to applications — copies just stop
retiring.  The watchdog runs on the simulated clock (it costs no core:
its checks are scheduled callbacks, not a thread) and periodically
compares the service's retirement progress against its backlog:

* **stall** — the service retired nothing over ``stall_checks``
  consecutive windows while queues or pending lists were nonempty;
* **starvation** — some client's oldest outstanding task is older than
  ``starvation_cycles``;
* **quarantine pile-up** — the dispatcher quarantined the DMA engine and
  backlog is still growing behind the CPU stream.

Each detection emits a typed trace-bus event (``watchdog-stall`` /
``watchdog-starved`` / ``watchdog-quarantine``) and bumps a counter
surfaced through ``stats_snapshot()["overload"]["watchdog"]`` —
``copierstat`` and ``faultsummary`` render the block.

The watchdog is quiescent-by-design: it only ticks while there is
backlog to watch (armed by ``notify_submit``, disarmed when the service
drains or after ``GIVE_UP_CHECKS`` windows of total stall), so an idle
machine schedules no events and ``Environment.run()`` still drains.
``COPIER_WATCHDOG_CYCLES`` overrides the check period machine-wide;
``0``/``off`` disables the watchdog entirely.
"""

import os

from repro.sim.trace import (WatchdogQuarantine, WatchdogStall,
                             WatchdogStarvation)

#: Default cycles between liveness checks.
DEFAULT_PERIOD_CYCLES = 50_000

#: Consecutive no-progress checks before a stall alert fires.
DEFAULT_STALL_CHECKS = 4

#: Outstanding-task age (cycles) that counts as client starvation.
DEFAULT_STARVATION_CYCLES = 1_000_000


def _period_from_env(environ=None):
    environ = os.environ if environ is None else environ
    raw = environ.get("COPIER_WATCHDOG_CYCLES", "").strip()
    if not raw:
        return DEFAULT_PERIOD_CYCLES
    if raw.lower() in ("0", "off", "none"):
        return 0
    return int(raw)


class WatchdogStats:
    """Alert counters plus the latest liveness observations."""

    __slots__ = ("checks", "stall_alerts", "starvation_alerts",
                 "quarantine_alerts", "last_progress_age",
                 "oldest_pending_age", "starved_clients")

    def __init__(self):
        self.checks = 0
        self.stall_alerts = 0
        self.starvation_alerts = 0
        self.quarantine_alerts = 0
        self.last_progress_age = 0
        self.oldest_pending_age = 0
        self.starved_clients = []

    def as_dict(self):
        return {
            "checks": self.checks,
            "stall_alerts": self.stall_alerts,
            "starvation_alerts": self.starvation_alerts,
            "quarantine_alerts": self.quarantine_alerts,
            "last_progress_age": self.last_progress_age,
            "oldest_pending_age": self.oldest_pending_age,
            "starved_clients": list(self.starved_clients),
        }


class CopierWatchdog:
    """Liveness monitor for one :class:`~repro.copier.service.CopierService`."""

    #: Consecutive fully-stalled checks after which the watchdog stops
    #: re-arming (the service is presumed dead; a new submission re-arms
    #: it).  Keeps a wedged simulation from ticking forever.
    GIVE_UP_CHECKS = 16

    def __init__(self, service, period_cycles=None, stall_checks=None,
                 starvation_cycles=None):
        self.service = service
        self.period_cycles = (_period_from_env() if period_cycles is None
                              else period_cycles)
        self.stall_checks = (DEFAULT_STALL_CHECKS if stall_checks is None
                             else stall_checks)
        self.starvation_cycles = (DEFAULT_STARVATION_CYCLES
                                  if starvation_cycles is None
                                  else starvation_cycles)
        self.stats = WatchdogStats()
        self._armed = False
        self._stopped = False
        self._last_retired = 0
        self._last_progress_at = service.env.now
        self._stall_streak = 0
        self._flagged_starved = set()

    @property
    def enabled(self):
        return self.period_cycles > 0 and not self._stopped

    # ------------------------------------------------------------- arm/stop

    def kick(self):
        """Arm the next check if backlog may exist (cheap, idempotent)."""
        if not self.enabled or self._armed:
            return
        self._armed = True
        self.service.env.schedule(self.period_cycles, self._tick)

    def stop(self):
        """Stop ticking for good (service shutdown)."""
        self._stopped = True

    # ---------------------------------------------------------------- check

    def _backlog(self):
        """(tasks, oldest_submitted_at, starved_names) over all clients."""
        now = self.service.env.now
        tasks = 0
        oldest = None
        starved = []
        for client in self.service.clients:
            client_oldest = None
            for task in client.task_index:
                if task.is_finished:
                    continue
                tasks += 1
                at = task.submitted_at
                if at is not None and (client_oldest is None
                                       or at < client_oldest):
                    client_oldest = at
            tasks += len(client.u_queues.sync) + len(client.k_queues.sync)
            if client_oldest is not None:
                if oldest is None or client_oldest < oldest:
                    oldest = client_oldest
                if now - client_oldest > self.starvation_cycles:
                    starved.append((client.name, now - client_oldest))
        return tasks, oldest, starved

    def _tick(self):
        self._armed = False
        if not self.enabled or not self.service.running:
            return
        stats = self.stats
        stats.checks += 1
        env = self.service.env
        now = env.now
        retired = self.service.tasks_retired
        if retired != self._last_retired:
            self._last_retired = retired
            self._last_progress_at = now
            self._stall_streak = 0
        stats.last_progress_age = now - self._last_progress_at

        backlog_tasks, oldest, starved = self._backlog()
        stats.oldest_pending_age = (now - oldest) if oldest is not None else 0
        trace = self.service.trace
        stages = self.service.stage_stats

        if backlog_tasks == 0:
            # Quiescent: nothing to watch; a submission re-arms us.
            self._stall_streak = 0
            self._flagged_starved.clear()
            return

        if stats.last_progress_age >= self.period_cycles:
            self._stall_streak += 1
        if self._stall_streak >= self.stall_checks:
            stats.stall_alerts += 1
            stages.alert(WatchdogStall.kind)
            if trace.active:
                trace.emit(WatchdogStall(now, backlog_tasks,
                                         stats.last_progress_age))
            self._stall_streak = 0

        for name, age in starved:
            # One alert per starvation episode, not per check.
            if name not in self._flagged_starved:
                self._flagged_starved.add(name)
                stats.starvation_alerts += 1
                stages.alert(WatchdogStarvation.kind)
                if trace.active:
                    trace.emit(WatchdogStarvation(now, name, age))
        starved_names = [name for name, _age in starved]
        stats.starved_clients = starved_names
        self._flagged_starved &= set(starved_names)

        if (self.service.dispatcher.dma_quarantined
                and stats.last_progress_age >= self.period_cycles):
            stats.quarantine_alerts += 1
            stages.alert(WatchdogQuarantine.kind)
            if trace.active:
                trace.emit(WatchdogQuarantine(now, backlog_tasks))

        if stats.last_progress_age >= self.period_cycles * self.GIVE_UP_CHECKS:
            return  # presumed dead — stop ticking until the next kick
        self.kick()

    # -------------------------------------------------------------- export

    def snapshot(self):
        return dict(self.stats.as_dict(), period_cycles=self.period_cycles,
                    enabled=self.enabled,
                    starvation_cycles=self.starvation_cycles)
