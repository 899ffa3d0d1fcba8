"""Checkpoint/restore of a whole simulated machine.

Strategy: **quiesce to idle, serialize pure data**.  Event-heap entries
are Python closures and cannot be serialized faithfully, so
:func:`checkpoint` first drives the machine to a quiescent point —
:meth:`CopierService.quiesce` drains every in-flight task with
shutdown's wedge-aware bounded stepping, parks the worker loops, kills
the DMA device process and steps the heap to idle — and then captures
*state*, never *code*: physical frames, page tables and VMAs with pin
counts and deferred-unmap bookkeeping, ring positions, cgroup shares,
admission buckets, fault-injector RNG streams, every counter the stats
snapshots report, and the virtual clock.  The payload is plain data
(dicts/lists/tuples/bytes) framed by :mod:`repro.ckpt.format`.

:func:`restore` rebuilds a fresh :class:`~repro.kernel.system.System`
shell, overlays the saved state without executing a single event, pins
the global id counters (sim pids, OS pids, asids, task ids) to their
saved positions, and resumes.  Because a resumed machine and a restored
machine re-spawn workers/DMA through the *same* :meth:`resume` path,
their futures are event-for-event identical — the differential oracle
in ``tests/ckpt`` holds them to that.

Not serialized (and rejected with :class:`CheckpointStateError` when
present): live simulated processes other than the service's own, queued
FUNC handlers (closures — run ``post_handlers()`` first), custom
``sigsegv_handler`` callbacks, shared-segment VMAs, and an attached
async serve driver (detach it first).
"""

import random
from collections import OrderedDict, defaultdict, deque
from dataclasses import fields as dataclass_fields

from repro.ckpt import format as ckpt_format
from repro.ckpt.errors import CheckpointStateError
from repro.copier import task as task_mod
from repro.copier.admission import TokenBucket, make_admission
from repro.copier.polling import make_policy
from repro.copier.service import CopierService
from repro.faultinject import FaultInjector, FaultPlan, FaultSpec
from repro.hw.params import MachineParams
from repro.kernel.process import OSProcess
from repro.kernel.system import System
from repro.mem import addrspace as addrspace_mod
from repro.mem.addrspace import PTE, AddressSpace
from repro.mem.vma import VMA
from repro.sim.process import Process


def _slots_dict(obj):
    return {name: getattr(obj, name) for name in type(obj).__slots__}


def _set_slots(obj, data):
    for name, value in data.items():
        setattr(obj, name, value)


class Checkpoint:
    """A decoded checkpoint: the plain-data payload plus file helpers."""

    __slots__ = ("payload",)

    def __init__(self, payload):
        self.payload = payload

    def to_bytes(self):
        return ckpt_format.dump_bytes(self.payload)

    @classmethod
    def from_bytes(cls, data):
        return cls(ckpt_format.load_bytes(data))

    def save(self, path):
        """Write the envelope to ``path``; returns bytes written."""
        return ckpt_format.dump_file(self.payload, path)

    @classmethod
    def load(cls, path):
        return cls(ckpt_format.load_file(path))

    @property
    def meta(self):
        """Small summary dict for CLI listings."""
        p = self.payload
        return {
            "now": p["env"]["now"],
            "events_executed": p["env"]["events_executed"],
            "n_cores": p["system"]["n_cores"],
            "processes": len(p["processes"]),
            "clients": (len(p["copier"]["clients"])
                        if p["copier"] is not None else 0),
            "stores": len(p["stores"]),
        }


# --------------------------------------------------------------- serialize


def _serialize_aspace(aspace):
    for vma in aspace.vmas:
        if vma.shared_segment is not None:
            raise CheckpointStateError(
                "aspace %r has a shared-segment VMA %r; shared segments are"
                " not checkpointable" % (aspace.name, vma.name))
    return {
        "asid": aspace.asid,
        "name": aspace.name,
        "page_table": {
            vpn: (pte.frame, pte.writable, pte.cow, pte.pin_count)
            for vpn, pte in aspace.page_table.items()
        },
        "vmas": [(v.start, v.end, v.readable, v.writable, v.name)
                 for v in aspace.vmas],
        "mmap_cursor": aspace._mmap_cursor,
        "fault_counts": dict(aspace.fault_counts),
        "fastpath": aspace._fastpath,
        "lazy_teardown": [
            (vpn, pte.frame, pte.writable, pte.cow, pte.pin_count)
            for vpn, pte in aspace._lazy_teardown
        ],
        "deferred_unmaps": aspace.deferred_unmaps,
        "deferred_reclaimed": aspace.deferred_reclaimed,
        "pinned_fork_copies": aspace.pinned_fork_copies,
        "unmap_log": list(aspace._unmap_log),
    }


def _serialize_client(service, client):
    if client.sigsegv_handler is not None:
        raise CheckpointStateError(
            "client %r has a custom sigsegv handler (a callback); clear it"
            " before checkpointing" % client.name)
    for queues in (client.u_queues, client.k_queues):
        for kind in ("copy", "sync", "handler"):
            queue = getattr(queues, kind)
            if not queue.is_empty:
                raise CheckpointStateError(
                    "client %r ring %s not empty after quiesce"
                    % (client.name, queue.name))
    if client.outstanding_bytes:
        raise CheckpointStateError(
            "client %r still counts %d outstanding bytes after quiesce"
            % (client.name, client.outstanding_bytes))
    if client.task_index or len(client.pending):
        raise CheckpointStateError(
            "client %r still indexes tasks after quiesce" % client.name)
    barriers = client.barriers
    return {
        "name": client.name,
        "asid": client.aspace.asid,
        "cgroup": service.scheduler._client_group[client].name,
        "queue_capacity": client.u_queues.copy.capacity,
        "segment_bytes": client.segment_bytes,
        "rings": {
            "u_copy": client.u_queues.copy.head,
            "u_sync": client.u_queues.sync.head,
            "u_handler": client.u_queues.handler.head,
            "k_copy": client.k_queues.copy.head,
            "k_sync": client.k_queues.sync.head,
            "k_handler": client.k_queues.handler.head,
        },
        "barriers": (barriers._current_barrier_pos, barriers._barrier_epoch,
                     barriers._k_sequence, barriers.barriers_recorded),
        "desc_pool": {
            "hits": client.desc_pool.hits,
            "misses": client.desc_pool.misses,
            "free": {cls: len(lst)
                     for cls, lst in client.desc_pool._free.items()},
        },
        "stats": _slots_dict(client.stats),
        "scheduler_length": service.scheduler._client_length[client],
    }


def _serialize_copier(service):
    if service.serve_driver is not None:
        raise CheckpointStateError(
            "an async serve driver is attached; detach it before"
            " checkpointing")
    agg = service.stage_stats
    if agg._submitted or agg._ingested or agg._first_exec:
        raise CheckpointStateError(
            "stage aggregator still tracks in-flight tasks after quiesce")
    if service._wake_events:
        raise CheckpointStateError("parked workers left wake events")
    faults = service.faults
    plan = None
    if faults.plan is not None:
        plan = {
            "name": faults.plan.name,
            "seed": faults.plan.seed,
            "specs": [(s.kind, s.rate, s.max_consecutive,
                       s.min_cycles, s.max_cycles)
                      for s in faults.plan.specs.values()],
        }
    clients = [_serialize_client(service, c) for c in service.clients]
    client_order = {c: i for i, c in enumerate(service.clients)}
    wd = service.watchdog
    return {
        "polling": {"name": service.policy.name,
                    "attrs": dict(vars(service.policy))},
        "scenario_active": service.scenario_active,
        "n_workers": len(service.workers),
        "active_threads": service.active_threads,
        "peak_threads": service.peak_threads,
        "max_threads": service.max_threads,
        "autoscale": service.autoscale,
        "dedicated_cores": list(service.dedicated_cores),
        "lazy_period_cycles": service.lazy_period_cycles,
        "rounds_executed": service.rounds_executed,
        "tasks_dropped": service.tasks_dropped,
        "tasks_retired": service.tasks_retired,
        "autoscaler": {"window": list(service.autoscaler.window),
                       "low_streak": service.autoscaler._low_streak},
        "lifecycle": _slots_dict(service.lifecycle),
        "dispatcher": {
            "use_dma": service.dispatcher.use_dma,
            "use_absorption": service.dispatcher.use_absorption,
            "dma_quarantined": service.dispatcher.dma_quarantined,
            "rounds_planned": service.dispatcher.rounds_planned,
            "bytes_to_dma": service.dispatcher.bytes_to_dma,
            "bytes_to_avx": service.dispatcher.bytes_to_avx,
            "bytes_absorbed": service.dispatcher.bytes_absorbed,
        },
        "atcache": {
            "entries": [(key, frame)
                        for key, frame in service.atcache._entries.items()],
            "hits": service.atcache.hits,
            "misses": service.atcache.misses,
            "invalidations": service.atcache.invalidations,
            "hooked_asids": sorted(service.atcache._hooked_asids),
        },
        "scheduler": {
            "cgroups": [(g.name, g.shares, g.total_copy_length)
                        for g in service.scheduler.cgroups.values()],
        },
        "admission": {
            "policy": {"name": service.admission.policy.name,
                       "attrs": dict(vars(service.admission.policy))},
            "stats": _slots_dict(service.admission.stats),
            "cgroup_buckets": {
                name: (b.rate, b.burst, b.tokens, b.last_refill)
                for name, b in service.admission._cgroup_buckets.items()
            },
            "client_buckets": {
                client_order[c]: (b.rate, b.burst, b.tokens, b.last_refill)
                for c, b in service.admission._client_buckets.items()
                if c in client_order
            },
        },
        "watchdog": {
            "period_cycles": wd.period_cycles,
            "stall_checks": wd.stall_checks,
            "starvation_cycles": wd.starvation_cycles,
            "stats": _slots_dict(wd.stats),
            "last_retired": wd._last_retired,
            "last_progress_at": wd._last_progress_at,
            "stall_streak": wd._stall_streak,
            "flagged_starved": sorted(wd._flagged_starved),
        },
        "faults": {
            "plan": plan,
            "injected": dict(faults.injected),
            "consecutive": dict(faults._consecutive),
            "rng_state": {kind: rng.getstate()
                          for kind, rng in faults._rngs.items()},
        },
        "fault_stats": _slots_dict(service.fault_stats),
        "e2e_crc": service.e2e_crc,
        "integrity": _slots_dict(service.integrity),
        "dma": None if service.dma is None else {
            "check_contiguity": service.dma.check_contiguity,
            "busy_cycles": service.dma.busy_cycles,
            "bytes_copied": service.dma.bytes_copied,
            "batches": service.dma.batches,
            "submit_failures": service.dma.submit_failures,
            "aborted_batches": service.dma.aborted_batches,
            "stall_cycles": service.dma.stall_cycles,
            "efaults": service.dma.efaults,
            "bitflips": service.dma.bitflips,
        },
        "clients": clients,
        "departed_asids": [a.asid for a in service._departed_aspaces],
    }


def _serialize_trace(service):
    agg = service.stage_stats
    return {
        "stages": {name: (lat.count, lat.total, lat.max)
                   for name, lat in agg.stages.items()},
        "outcomes": dict(agg.outcomes),
        "thread_sleeps": agg.thread_sleeps,
        "thread_wakes": agg.thread_wakes,
        "slept_cycles": agg.slept_cycles,
        "rounds": agg.rounds,
        "engine_fallbacks": agg.engine_fallbacks,
        "fallback_bytes": agg.fallback_bytes,
        "faults_injected": dict(agg.faults_injected),
        "shed_tasks": agg.shed_tasks,
        "shed_bytes": agg.shed_bytes,
        "admission_rejects": agg.admission_rejects,
        "watchdog_alerts": dict(agg.watchdog_alerts),
        "processes_reaped": agg.processes_reaped,
        "drains": agg.drains,
        "events_seen": agg.events_seen,
    }


def _serialize_store(system, store):
    return {
        "name": store.name,
        "pid": store.proc.pid,
        "staging": store.staging,
        "out": store.out,
        "staging_bytes": store.staging_bytes,
        "arena": store.arena,
        "arena_bytes": store.arena_bytes,
        "cursor": store._cursor,
        "db": {key: tuple(entry) for key, entry in store.db.items()},
        "sets": store.sets,
        "gets": store.gets,
        "misses": store.misses,
    }


def _check_quiescent(system):
    env = system.env
    if not env.idle:
        raise CheckpointStateError(
            "event heap is not idle; quiesce the machine first")
    for proc in env.processes:
        if proc.is_alive:
            raise CheckpointStateError(
                "simulated process %r is still alive; only a fully-settled"
                " machine can be checkpointed" % proc.name)
    for core in env.cores.cores:
        if core.current is not None or core.pinned_queue:
            raise CheckpointStateError(
                "core %d still has scheduled compute" % core.core_id)
    if env.cores.shared_queue:
        raise CheckpointStateError("shared run queue is not empty")
    svc = system.copier
    if svc is not None and not svc.quiesced:
        raise CheckpointStateError("copier service is not quiesced")


def checkpoint(system, stores=(), deadline=None):
    """Quiesce ``system`` and serialize it into a :class:`Checkpoint`.

    ``stores`` lists the :class:`~repro.fleet.store.KVStore` instances
    riding on this system, serialized alongside and rebuilt by
    :func:`restore`.  The service is left quiesced — call
    :meth:`CopierService.resume` (or :func:`resume`) to keep running the
    *same* machine after taking the snapshot.
    """
    svc = system.copier
    if svc is not None:
        svc.quiesce(deadline=deadline)
    _check_quiescent(system)
    env = system.env
    init = system._init_kwargs
    aspaces = {system.kernel_as.asid: system.kernel_as}
    for proc in system.processes:
        aspaces[proc.aspace.asid] = proc.aspace
    if svc is not None:
        for aspace in svc._all_aspaces():
            aspaces[aspace.asid] = aspace
    client_index = ({c: i for i, c in enumerate(svc.clients)}
                    if svc is not None else {})
    processes = []
    for proc in system.processes:
        idx = client_index.get(proc.client) if proc.client is not None else None
        if proc.client is not None and idx is None:
            raise CheckpointStateError(
                "process %r references an unregistered client" % proc.name)
        processes.append({"pid": proc.pid, "name": proc.name,
                          "asid": proc.aspace.asid, "exited": proc.exited,
                          "client": idx})
    payload = {
        "system": {
            "n_cores": init["n_cores"],
            "timeslice": init["timeslice"],
            "phys_frames": init["phys_frames"],
            "fragmented": init["fragmented"],
            "kernel_asid": system.kernel_as.asid,
            "params": {f.name: getattr(system.params, f.name)
                       for f in dataclass_fields(system.params)},
        },
        "env": {
            "now": env.now,
            "seq": env._seq,
            "events_executed": env.events_executed,
            "cycles": {pid: dict(tags)
                       for pid, tags in env.stats.cycles.items()},
            "instructions": {pid: dict(tags)
                             for pid, tags in env.stats.instructions.items()},
            "core_cycles": {cid: dict(tags)
                            for cid, tags in env.stats.core_cycles.items()},
            "core_busy": [core.busy_cycles for core in env.cores.cores],
        },
        "counters": {
            "sim_pid": Process._next_pid[0],
            "os_pid": OSProcess._next_pid[0],
            "asid": AddressSpace._next_asid[0],
            "task_id": task_mod._task_ids.next_value,
        },
        "phys": {
            "data": system.phys.snapshot_frames(),
            "refcount": dict(system.phys._refcount),
            "free": list(system.phys._free),
            "free_sorted": system.phys._free_sorted,
            "alloc_parity": system.phys._alloc_parity,
        },
        "cache": {"pollution": dict(system.cache._pollution)},
        "aspaces": [_serialize_aspace(aspaces[asid])
                    for asid in sorted(aspaces)],
        "copier": _serialize_copier(svc) if svc is not None else None,
        "trace": _serialize_trace(svc) if svc is not None else None,
        "processes": processes,
        "stores": [_serialize_store(system, s) for s in stores],
    }
    return Checkpoint(payload)


# ----------------------------------------------------------------- restore


def _restore_aspace(aspace, data):
    aspace.asid = data["asid"]
    aspace.name = data["name"]
    aspace.page_table = {}
    for vpn, (frame, writable, cow, pins) in data["page_table"].items():
        pte = PTE(frame, writable, cow=cow)
        pte.pin_count = pins
        aspace.page_table[vpn] = pte
    vmas = []
    for start, end, readable, writable, name in data["vmas"]:
        vma = VMA.__new__(VMA)
        vma.start = start
        vma.end = end
        vma.readable = readable
        vma.writable = writable
        vma.shared_segment = None
        vma.name = name
        vmas.append(vma)
    aspace.vmas = vmas
    aspace._mmap_cursor = data["mmap_cursor"]
    aspace.fault_counts = dict(data["fault_counts"])
    aspace._invalidation_hooks = []
    aspace._fastpath = data["fastpath"]
    aspace._run_cache = {}
    teardown = []
    for vpn, frame, writable, cow, pins in data["lazy_teardown"]:
        pte = PTE(frame, writable, cow=cow)
        pte.pin_count = pins
        teardown.append((vpn, pte))
    aspace._lazy_teardown = teardown
    aspace.deferred_unmaps = data["deferred_unmaps"]
    aspace.deferred_reclaimed = data["deferred_reclaimed"]
    aspace.pinned_fork_copies = data["pinned_fork_copies"]
    aspace._unmap_log = deque(data["unmap_log"],
                              maxlen=addrspace_mod._UNMAP_LOG_LIMIT)
    return aspace


def _rebuild_plan(data):
    if data is None:
        return None
    specs = [FaultSpec(kind, rate, max_consecutive=max_consecutive,
                       min_cycles=min_cycles, max_cycles=max_cycles)
             for kind, rate, max_consecutive, min_cycles, max_cycles
             in data["specs"]]
    return FaultPlan(data["name"], data["seed"], specs)


def _restore_copier(system, cp, trace_data, asid_map):
    env = system.env
    policy = make_policy(cp["polling"]["name"])
    vars(policy).update(cp["polling"]["attrs"])
    adm_policy = make_admission(cp["admission"]["policy"]["name"])
    vars(adm_policy).update(cp["admission"]["policy"]["attrs"])
    plan = _rebuild_plan(cp["faults"]["plan"])
    svc = CopierService(
        env, system.params,
        polling=policy,
        use_dma=cp["dma"] is not None,
        use_absorption=cp["dispatcher"]["use_absorption"],
        n_threads=cp["n_workers"],
        max_threads=cp["max_threads"],
        dedicated_cores=list(cp["dedicated_cores"]),
        lazy_period_cycles=cp["lazy_period_cycles"],
        autoscale=cp["autoscale"],
        fault_plan=plan,
        e2e_crc=cp["e2e_crc"],
        admission=adm_policy,
        watchdog_cycles=cp["watchdog"]["period_cycles"],
        watchdog_starvation_cycles=cp["watchdog"]["starvation_cycles"],
    )
    system.copier = svc
    # Discard the constructor's spawned workers/DMA and their start
    # events; resume() respawns them against the restored clock.
    env.clear_pending()
    env.processes.clear()
    svc.threads = []
    svc._wake_events = {}
    svc.running = False
    svc.draining = True
    svc.quiesced = True
    if plan is None and svc.faults.armed:
        # The saved machine ran fault-free; COPIER_FAULT_PLAN in the
        # restoring process's environment must not arm it retroactively.
        svc.faults = FaultInjector(None, env=env, trace=svc.trace)
        if svc.dma is not None:
            svc.dma.injector = None
    svc.scenario_active = cp["scenario_active"]
    svc.active_threads = cp["active_threads"]
    svc.peak_threads = cp["peak_threads"]
    svc.rounds_executed = cp["rounds_executed"]
    svc.tasks_dropped = cp["tasks_dropped"]
    svc.tasks_retired = cp["tasks_retired"]
    svc.autoscaler.window = list(cp["autoscaler"]["window"])
    svc.autoscaler._low_streak = cp["autoscaler"]["low_streak"]
    _set_slots(svc.lifecycle, cp["lifecycle"])
    disp = svc.dispatcher
    disp.dma_quarantined = cp["dispatcher"]["dma_quarantined"]
    disp.rounds_planned = cp["dispatcher"]["rounds_planned"]
    disp.bytes_to_dma = cp["dispatcher"]["bytes_to_dma"]
    disp.bytes_to_avx = cp["dispatcher"]["bytes_to_avx"]
    disp.bytes_absorbed = cp["dispatcher"]["bytes_absorbed"]
    wd = svc.watchdog
    wd.stall_checks = cp["watchdog"]["stall_checks"]
    _set_slots(wd.stats, cp["watchdog"]["stats"])
    wd._last_retired = cp["watchdog"]["last_retired"]
    wd._last_progress_at = cp["watchdog"]["last_progress_at"]
    wd._stall_streak = cp["watchdog"]["stall_streak"]
    wd._flagged_starved = set(cp["watchdog"]["flagged_starved"])
    wd._armed = False
    wd._stopped = True
    faults = svc.faults
    faults.injected = dict(cp["faults"]["injected"])
    faults._consecutive = dict(cp["faults"]["consecutive"])
    for kind, state in cp["faults"]["rng_state"].items():
        rng = random.Random()
        rng.setstate(state)
        faults._rngs[kind] = rng
    _set_slots(svc.fault_stats, cp["fault_stats"])
    _set_slots(svc.integrity, cp["integrity"])
    if svc.dma is not None:
        dma_data = cp["dma"]
        svc.dma.check_contiguity = dma_data["check_contiguity"]
        svc.dma.busy_cycles = dma_data["busy_cycles"]
        svc.dma.bytes_copied = dma_data["bytes_copied"]
        svc.dma.batches = dma_data["batches"]
        svc.dma.submit_failures = dma_data["submit_failures"]
        svc.dma.aborted_batches = dma_data["aborted_batches"]
        svc.dma.stall_cycles = dma_data["stall_cycles"]
        svc.dma.efaults = dma_data["efaults"]
        svc.dma.bitflips = dma_data["bitflips"]
    # Scheduler groups before clients, so create_client finds its cgroup.
    for name, shares, total in cp["scheduler"]["cgroups"]:
        group = (svc.scheduler.cgroups.get(name)
                 or svc.scheduler.create_cgroup(name, shares))
        group.shares = shares
        group.total_copy_length = total
    for rec in cp["clients"]:
        client = svc.create_client(
            asid_map[rec["asid"]], name=rec["name"], cgroup=rec["cgroup"],
            queue_capacity=rec["queue_capacity"],
            segment_bytes=rec["segment_bytes"])
        for ring_name, head in rec["rings"].items():
            side, kind = ring_name.split("_")
            queues = client.u_queues if side == "u" else client.k_queues
            queue = getattr(queues, kind)
            queue.head = queue.tail = head
        barriers = client.barriers
        (barriers._current_barrier_pos, barriers._barrier_epoch,
         barriers._k_sequence, barriers.barriers_recorded) = rec["barriers"]
        pool = client.desc_pool
        pool.hits = rec["desc_pool"]["hits"]
        pool.misses = rec["desc_pool"]["misses"]
        for cls, count in rec["desc_pool"]["free"].items():
            free = pool._free[cls]
            while len(free) > count:
                free.pop()
            while len(free) < count:
                free.append(_fresh_descriptor(cls, pool))
        _set_slots(client.stats, rec["stats"])
        svc.scheduler._client_length[client] = rec["scheduler_length"]
    adm = svc.admission
    _set_slots(adm.stats, cp["admission"]["stats"])
    for name, (rate, burst, tokens, refill) in (
            cp["admission"]["cgroup_buckets"].items()):
        adm._cgroup_buckets[name] = _rebuild_bucket(env, rate, burst,
                                                    tokens, refill)
    for idx, (rate, burst, tokens, refill) in (
            cp["admission"]["client_buckets"].items()):
        adm._client_buckets[svc.clients[idx]] = _rebuild_bucket(
            env, rate, burst, tokens, refill)
    atc = svc.atcache
    atc._entries = OrderedDict(
        (tuple(key), frame) for key, frame in cp["atcache"]["entries"])
    atc.hits = cp["atcache"]["hits"]
    atc.misses = cp["atcache"]["misses"]
    atc.invalidations = cp["atcache"]["invalidations"]
    for asid in cp["atcache"]["hooked_asids"]:
        if asid in asid_map:
            atc.attach(asid_map[asid])
    atc._hooked_asids = set(cp["atcache"]["hooked_asids"])
    svc._departed_aspaces = [asid_map[a] for a in cp["departed_asids"]]
    agg = svc.stage_stats
    for name, (count, total, peak) in trace_data["stages"].items():
        lat = agg.stages[name]
        lat.count, lat.total, lat.max = count, total, peak
    agg.outcomes = dict(trace_data["outcomes"])
    agg.thread_sleeps = trace_data["thread_sleeps"]
    agg.thread_wakes = trace_data["thread_wakes"]
    agg.slept_cycles = trace_data["slept_cycles"]
    agg.rounds = trace_data["rounds"]
    agg.engine_fallbacks = trace_data["engine_fallbacks"]
    agg.fallback_bytes = trace_data["fallback_bytes"]
    agg.faults_injected = dict(trace_data["faults_injected"])
    agg.shed_tasks = trace_data["shed_tasks"]
    agg.shed_bytes = trace_data["shed_bytes"]
    agg.admission_rejects = trace_data["admission_rejects"]
    agg.watchdog_alerts = dict(trace_data["watchdog_alerts"])
    agg.processes_reaped = trace_data["processes_reaped"]
    agg.drains = trace_data["drains"]
    agg.events_seen = trace_data["events_seen"]
    return svc


def _fresh_descriptor(cls, pool):
    from repro.copier.descriptor import Descriptor

    return Descriptor(cls, pool.segment_bytes, pool=pool, size_class=cls)


def _rebuild_bucket(env, rate, burst, tokens, refill):
    bucket = TokenBucket(env, rate, burst)
    bucket.tokens = tokens
    bucket.last_refill = refill
    return bucket


def _restore_store(system, rec):
    from repro.fleet.netpath import SimLock
    from repro.fleet.store import KVStore

    proc = next(p for p in system.processes if p.pid == rec["pid"])
    store = KVStore.__new__(KVStore)
    store.system = system
    store.name = rec["name"]
    store.proc = proc
    store.client = proc.client
    store.staging = rec["staging"]
    store.out = rec["out"]
    store.staging_bytes = rec["staging_bytes"]
    store.arena = rec["arena"]
    store.arena_bytes = rec["arena_bytes"]
    store._cursor = rec["cursor"]
    store.lock = SimLock(system.env)
    store.db = {key: tuple(entry) for key, entry in rec["db"].items()}
    store.sets = rec["sets"]
    store.gets = rec["gets"]
    store.misses = rec["misses"]
    return store


def restore(source, resume=True):
    """Rebuild a machine from a checkpoint; returns ``(system, stores)``.

    ``source`` is a :class:`Checkpoint`, raw envelope bytes, or a file
    path.  With ``resume=True`` (default) the returned system is live —
    workers and DMA respawned, admission open; with ``resume=False`` it
    is left in the quiesced state for inspection.
    """
    if isinstance(source, Checkpoint):
        ckpt = source
    elif isinstance(source, (bytes, bytearray)):
        ckpt = Checkpoint.from_bytes(bytes(source))
    else:
        ckpt = Checkpoint.load(source)
    p = ckpt.payload
    sys_sec = p["system"]
    params = MachineParams(**sys_sec["params"])
    system = System(n_cores=sys_sec["n_cores"], params=params,
                    phys_frames=sys_sec["phys_frames"],
                    fragmented=sys_sec["fragmented"], copier=False,
                    timeslice=sys_sec["timeslice"])
    env = system.env
    env.clear_pending()
    env.processes.clear()
    e = p["env"]
    env.now = e["now"]
    env._seq = e["seq"]
    env.events_executed = e["events_executed"]
    cycles = defaultdict(lambda: defaultdict(int))
    for pid, tags in e["cycles"].items():
        cycles[pid].update(tags)
    env.stats.cycles = cycles
    instructions = defaultdict(lambda: defaultdict(float))
    for pid, tags in e["instructions"].items():
        instructions[pid].update(tags)
    env.stats.instructions = instructions
    core_cycles = defaultdict(lambda: defaultdict(int))
    for cid, tags in e["core_cycles"].items():
        core_cycles[cid].update(tags)
    env.stats.core_cycles = core_cycles
    for core, busy in zip(env.cores.cores, e["core_busy"]):
        core.busy_cycles = busy
    phys = system.phys
    phys.load_frames(p["phys"]["data"])
    phys._refcount = dict(p["phys"]["refcount"])
    phys._free = list(p["phys"]["free"])
    phys._free_sorted = p["phys"]["free_sorted"]
    phys._alloc_parity = p["phys"]["alloc_parity"]
    system.cache._pollution = dict(p["cache"]["pollution"])
    asid_map = {}
    kernel_asid = sys_sec["kernel_asid"]
    for data in p["aspaces"]:
        if data["asid"] == kernel_asid:
            aspace = system.kernel_as
        else:
            aspace = AddressSpace(phys, name=data["name"])
        asid_map[data["asid"]] = _restore_aspace(aspace, data)
    svc = None
    if p["copier"] is not None:
        svc = _restore_copier(system, p["copier"], p["trace"], asid_map)
        # Service construction scheduled (and discarded) start events,
        # bumping the event sequence; re-pin it so post-restore heap
        # tie-breaks replay exactly as the saved machine's would.
        env._seq = e["seq"]
    for rec in p["processes"]:
        client = (svc.clients[rec["client"]]
                  if svc is not None and rec["client"] is not None else None)
        proc = OSProcess(system, asid_map[rec["asid"]], client,
                         name=rec["name"])
        proc.pid = rec["pid"]
        proc.exited = rec["exited"]
        system.processes.append(proc)
    stores = [_restore_store(system, rec) for rec in p["stores"]]
    counters = p["counters"]
    Process._next_pid[0] = counters["sim_pid"]
    OSProcess._next_pid[0] = counters["os_pid"]
    AddressSpace._next_asid[0] = counters["asid"]
    task_mod._task_ids.next_value = counters["task_id"]
    if resume and svc is not None:
        svc.resume()
    return system, stores
