"""Episode loop, metric computation and the traced run's attribution.

An episode is built (timed as set-up), run (timed as the measured
phase) and audited (not timed).  ``measure`` repeats episodes of one
seed until the requested seconds have passed, then reduces them:

* set-up time is the median over episodes;
* the timed loop's host time is cut into chunks of equal op counts, and
  each chunk is charged its fastest time over the run's episodes (see
  ``host_seconds``);
* simulated numbers come from one episode, after asserting that every
  episode of the seed produced exactly the same simulated counters.

With tracing on, untraced and traced episodes alternate.  A traced
episode runs under ``cProfile`` and with a stage sampler subscribed to
every machine's trace bus; its simulated counters must still match the
untraced ones.
"""

import cProfile
import gc
import hashlib
import json
import math
import pstats
import resource
import statistics
import time

from repro.sim.trace import STAGE_NAMES, StageAggregator, StageLatency

#: Host-time layers: the ``repro`` packages, with the trace bus split out
#: of ``sim``.  Everything else (the benchmark itself, asyncio, ``api``,
#: ``bench``, the standard library) is ``other``.
LAYERS = ("sim", "sim.trace", "mem", "hw", "copier", "kernel", "apps",
          "serve", "fleet", "ckpt", "other")

#: Driver counters that depend on host scheduling, not on the simulation;
#: they are reported but left out of the determinism fingerprint.
HOST_COUNTERS = ("serve_idle_polls",)


def percentile(samples, q):
    """Nearest-rank percentile of a sorted list."""
    rank = max(1, math.ceil(q * len(samples)))
    return samples[rank - 1]


def layer_of(filename):
    """Map a profiled function's source file to its layer."""
    path = filename.replace("\\", "/")
    at = path.rfind("/repro/")
    if at < 0:
        return "other"
    parts = path[at + len("/repro/"):].split("/")
    if parts[0] == "sim" and parts[-1] == "trace.py":
        return "sim.trace"
    if len(parts) > 1 and parts[0] in LAYERS:
        return parts[0]
    return "other"


def self_seconds(profiler):
    """Profiler self time summed per layer.

    A built-in (C) function has no source file; its self time is charged
    to the layers of its callers, in proportion to the time each call
    site spent in it.
    """
    out = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), entry in pstats.Stats(profiler).stats.items():
        self_time, callers = entry[2], entry[4]
        if filename == "~":
            via = sum(edge[2] for edge in callers.values())
            if via > 0:
                for caller, edge in callers.items():
                    out[layer_of(caller[0])] += self_time * edge[2] / via
                continue
        out[layer_of(filename)] += self_time
    return out


class _SampledStage(StageLatency):
    __slots__ = ("samples",)

    def __init__(self):
        super().__init__()
        self.samples = []

    def add(self, delta):
        super().add(delta)
        self.samples.append(delta)


class StageSampler(StageAggregator):
    """The copier's stage aggregator, keeping every sample for tails."""

    def __init__(self, bus):
        super().__init__()
        self.stages = {name: _SampledStage() for name in STAGE_NAMES}
        bus.subscribe(self)


class EpisodeRecord:
    __slots__ = ("setup_s", "run_s", "chunks", "counters", "fingerprint",
                 "traced", "layers", "stages", "ok", "failures")


def fingerprint(counters):
    sim = {k: v for k, v in counters.items() if k not in HOST_COUNTERS}
    blob = json.dumps(sim, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_episode(workload, seed, scale, checker, traced):
    rec = EpisodeRecord()
    gc.collect()
    t0 = time.perf_counter()
    episode = workload.build(seed, scale, checker)
    rec.setup_s = time.perf_counter() - t0
    samplers = []
    profiler = None
    if traced:
        samplers = [StageSampler(system.env.trace)
                    for system in episode.systems]
        episode.on_new_env = lambda env: samplers.append(
            StageSampler(env.trace))
        profiler = cProfile.Profile()
    gc.collect()
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        episode.run()
    finally:
        if profiler is not None:
            profiler.disable()
    t_end = time.perf_counter()
    rec.run_s = t_end - t0
    marks = [t0] + episode.host_marks + [t_end]
    rec.chunks = [b - a for a, b in zip(marks, marks[1:])]
    # Snapshot before the audit: its drain and read-backs step the
    # machines further.
    rec.counters = episode.counters()
    rec.fingerprint = fingerprint(rec.counters)
    rec.ok = episode.audit() and not episode.failed
    rec.failures = list(episode.failures)
    rec.counters["attempted"] = episode.attempted
    rec.counters["failed"] = episode.failed
    rec.traced = traced
    rec.layers = self_seconds(profiler) if traced else None
    rec.stages = None
    if traced:
        rec.stages = {name: sorted(s for sampler in samplers
                                   for s in sampler.stages[name].samples)
                      for name in STAGE_NAMES}
    return rec


#: Fewest set-ups a run times; short runs add set-ups that are not run.
MIN_SETUPS = 10


def measure(workload, seed, seconds, trace, scale, checker):
    """Run episodes for ``seconds``.

    Returns the episode records and the set-up times.  Stops at the first
    episode whose checks fail.  With ``trace``, episodes alternate
    untraced/traced and the run ends on a traced one.
    """
    records = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = bool(trace) and len(records) % 2 == 1
        rec = run_episode(workload, seed, scale, checker, traced)
        records.append(rec)
        if not rec.ok:
            break
        paired = not trace or traced
        if paired and time.perf_counter() >= deadline:
            break
    setups = [r.setup_s for r in records]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        t0 = time.perf_counter()
        workload.build(seed, scale, checker)
        setups.append(time.perf_counter() - t0)
    return records, setups


# ------------------------------------------------------------------ metrics

def _ratio(num, den):
    return num / den if den else 0.0


def host_seconds(records):
    """Host seconds of one episode's timed loop, with interference
    filtered out.

    The episodes of a run repeat the same work, chunk for chunk.  Other
    load on the host slows some chunks of some episodes; taking each
    chunk's fastest time and summing keeps the run's figure steady where
    a median of whole episodes drifts with the host's load.
    """
    return sum(min(times) for times in zip(*(r.chunks for r in records)))


def end_to_end(records, setups):
    """End-to-end metrics: host figures over the run's episodes and
    set-ups, simulated numbers from the (identical) episodes of the
    seed."""
    plain = [r for r in records if not r.traced]
    c = plain[0].counters
    ops = c["ops"]
    lat = sorted(c["latencies"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "host_ops_per_s": (ops / host_seconds(plain), "ops/s"),
        "host_peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0, "MB"),
        "sim_op_p50_cycles": (percentile(lat, 0.50), "cycles"),
        "sim_op_p99_cycles": (percentile(lat, 0.99), "cycles"),
        "sim_ops_per_mcycle": (_ratio(ops * 1e6, c["makespan"]),
                               "ops/Mcycle"),
        "sim_cpu_cycles_per_op": (_ratio(sum(c["tag_cycles"].values()), ops),
                                  "cycles/op"),
    }


def per_layer(records):
    """Per-layer metrics: host self seconds from the traced episodes,
    simulated counters from the seed's episodes.  A run that failed
    before its first traced episode reports 0 for the traced metrics."""
    plain = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    c = plain[0].counters
    ops = c["ops"]
    tags = c["tag_cycles"]
    out = {}
    for layer in LAYERS:
        out[layer + ".self_s"] = (
            statistics.median(r.layers[layer] for r in traced)
            if traced else 0.0, "s")
    out["bench.trace_overhead_ratio"] = (
        statistics.median(r.run_s for r in traced)
        / statistics.median(r.run_s for r in plain) if traced else 0.0,
        "ratio")
    out["sim.events_per_op"] = (_ratio(c["events"], ops), "events/op")
    stages = traced[0].stages if traced else {}
    for name in STAGE_NAMES[:3]:
        samples = stages.get(name)
        out["copier.%s_p99_cycles" % name] = (
            percentile(samples, 0.99) if samples else 0, "cycles")
    out.update({
        "copier.absorbed_byte_ratio": (
            _ratio(c["bytes_absorbed"], c["bytes_copied"]), "ratio"),
        "copier.atcache_hit_ratio": (
            _ratio(c["atcache_hits"], c["atcache_hits"] + c["atcache_misses"]),
            "ratio"),
        "copier.sync_tasks_per_op": (_ratio(c["sync_tasks"], ops), "tasks/op"),
        "copier.csync_cycles_per_op": (_ratio(tags.get("csync", 0), ops),
                                       "cycles/op"),
        "copier.submit_cycles_per_op": (
            _ratio(tags.get("copier-submit", 0), ops), "cycles/op"),
        "hw.dma_byte_share": (
            _ratio(c["bytes_to_dma"], c["bytes_to_dma"] + c["bytes_to_avx"]),
            "ratio"),
        "hw.dma_busy_cycles": (c["dma_busy_cycles"], "cycles"),
        "mem.fault_cycles_per_op": (_ratio(tags.get("fault", 0), ops),
                                    "cycles/op"),
        "kernel.syscall_cycles_per_op": (_ratio(tags.get("syscall", 0), ops),
                                         "cycles/op"),
        "apps.app_cycles_per_op": (_ratio(tags.get("app", 0), ops),
                                   "cycles/op"),
        "fleet.retransmit_ratio": (
            _ratio(c.get("retransmits", 0), c.get("frames_sent", 0)),
            "ratio"),
        "fleet.attempts_per_op": (
            _ratio(c.get("fleet_attempts", 0), ops), "attempts/op"),
        "fleet.crc_dropped": (c.get("crc_dropped", 0), "count"),
        "ckpt.recovery_cycles": (c.get("recovery_cycles", 0), "cycles"),
        "ckpt.recovered_keys": (c.get("recovered_keys", 0), "count"),
        "serve.events_per_step": (
            _ratio(c.get("serve_events", 0), c.get("serve_steps", 0)),
            "events/step"),
        "serve.idle_polls_per_op": (
            _ratio(c.get("serve_idle_polls", 0), ops), "polls/op"),
    })
    return out
