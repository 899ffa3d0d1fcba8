"""Copier: the coordinated asynchronous copy OS service (the paper's §4).

Subpackage map — the copy path is layered by pipeline stage:

- :mod:`repro.copier.task` — Copy/Sync/Barrier tasks and memory regions.
- :mod:`repro.copier.descriptor` — segment progress bitmaps (§4.1).
- :mod:`repro.copier.queues` — CSH ring queues, u-mode and k-mode (§4.1).
- :mod:`repro.copier.deps` — order & data dependency tracking (§4.2).
- :mod:`repro.copier.client` — the submission stage: CopierClient,
  barriers, csync/abort, per-client stats (§4.1, §4.2).
- :mod:`repro.copier.atcache` — address-translation cache (§4.3).
- :mod:`repro.copier.dispatch` — hybrid subtasks + piggyback dispatcher (§4.3).
- :mod:`repro.copier.absorption` — layered copy absorption (§4.4).
- :mod:`repro.copier.sched` — copy-length CFS + cgroup copier controller (§4.5).
- :mod:`repro.copier.polling` — pluggable polling policies: NAPI,
  scenario-driven, adaptive gap-widening (§4.5.1, §5.3).
- :mod:`repro.copier.worker` — the per-thread loop, sleep/wake, lazy
  timers, auto-scaling (§4.5.1).
- :mod:`repro.copier.executor` — the execution stage: ingest, proactive
  fault handling, promotion, round execution (§4.2.2, §4.5.4).
- :mod:`repro.copier.completion` — the completion stage: retirement,
  unpinning, FUNC handler dispatch (§4.1).
- :mod:`repro.copier.admission` — overload valve: admit/shed/reject
  policies and share-weighted token buckets (§4.5).
- :mod:`repro.copier.watchdog` — liveness watchdog: stall, starvation
  and quarantine pile-up detection on the simulated clock.
- :mod:`repro.copier.service` — the composition root wiring the layers.

Stage boundaries emit typed events on the machine's trace bus
(:mod:`repro.sim.trace`), which is how ``copierstat`` and the benchmark
reports derive per-stage latency breakdowns.
"""

from repro.copier.task import CopyTask, SyncTask, BarrierTask, Region
from repro.copier.descriptor import Descriptor
from repro.copier.queues import RingQueue, ClientQueues, QueueFull
from repro.copier.atcache import ATCache
from repro.copier.polling import (AdaptivePolicy, NapiPolicy, PollingPolicy,
                                  ScenarioPolicy, make_policy)
from repro.copier.sched import CopierScheduler, CopierCgroup
from repro.copier.admission import (AdmissionController, AdmissionPolicy,
                                    AlwaysAdmit, DeadlineFeasiblePolicy,
                                    QueueDepthPolicy, TokenBucket,
                                    make_admission)
from repro.copier.errors import AdmissionReject, DeadlineMissed
from repro.copier.watchdog import CopierWatchdog
from repro.copier.client import ClientStats, CopierClient
from repro.copier.service import CopierService

__all__ = [
    "CopyTask",
    "SyncTask",
    "BarrierTask",
    "Region",
    "Descriptor",
    "RingQueue",
    "ClientQueues",
    "QueueFull",
    "ATCache",
    "PollingPolicy",
    "NapiPolicy",
    "ScenarioPolicy",
    "AdaptivePolicy",
    "make_policy",
    "CopierScheduler",
    "CopierCgroup",
    "AdmissionController",
    "AdmissionPolicy",
    "AlwaysAdmit",
    "QueueDepthPolicy",
    "DeadlineFeasiblePolicy",
    "TokenBucket",
    "make_admission",
    "AdmissionReject",
    "DeadlineMissed",
    "CopierWatchdog",
    "ClientStats",
    "CopierService",
    "CopierClient",
]
