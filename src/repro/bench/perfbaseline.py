"""Wall-clock perf baseline for the simulator substrate.

The repro's correctness story lives in simulated cycles, but the ROADMAP
north-star also demands the *host* substrate run "as fast as the hardware
allows".  This harness pins that down: it runs a fixed, deterministic
scenario suite (no wall-clock-dependent control flow, fixed seeds, fixed
sizes) and records, per scenario:

* ``wall_s``            — best-of-N wall-clock seconds for the scenario;
* ``sim_cycles``        — simulated cycles consumed (must not drift when a
                          host-side fast path lands — the determinism oracle);
* ``events``            — simulator events executed;
* ``sim_bytes``         — simulated bytes moved by the scenario;
* ``events_per_s``      — host-side event-loop throughput;
* ``sim_bytes_per_s``   — host-side copy-plane throughput.

``python -m repro.bench.perfbaseline -o BENCH_perf.json`` writes the
committed baseline; ``repro.tools.perfdiff`` compares two baseline files
and gates CI on wall-clock regressions (sim-side drift is reported as a
determinism warning, not a perf failure).

Scenario suite (keep this list stable — CI diffs by scenario name):

* ``raw_copy_64k`` / ``raw_copy_256k`` — the Fig. 9 raw-copy-throughput
  driver through the full Copier path (the acceptance scenario);
* ``raw_copy_sync_avx`` — the synchronous baseline path (exercises
  ``sync_copy``/``user_memcpy`` rather than the service);
* ``redis_set_16k`` — a Fig. 11 Redis slice (SET, 16 KB values);
* ``overload_burst_2x`` — the open-loop overload driver at 2x load with
  the deadline-feasible admission valve;
* ``async_redis_1k_gate`` — 1000 real asyncio client coroutines over
  localhost sockets driving the serving frontend under the
  deterministic ``gate`` pacing policy (``bench/async_load.py``); the
  sim counters double as the lockstep-determinism oracle.
* ``fleet_failover`` — closed-loop sharded SET/GET streams against a
  3-node fleet with a forced node kill halfway through: aggregate p99
  latency in cycles spans organic failure detection, backup promotion
  and resync (pure sim — no sockets, explicit fleet knobs so
  ``COPIER_FLEET_*`` env cannot perturb the pinned counters).
* ``fleet_lossy_links`` — the same sharded traffic over links that
  drop/dup/reorder/corrupt at fixed rates, carried by the reliable
  exactly-once transport: pins the goodput, retransmit overhead ratio
  and p99 cost of surviving a hostile wire.
"""

import argparse
import json
import sys
import time


#: Bump when scenario definitions change incompatibly.
SCHEMA = 1

#: Fixed seed recorded in the metadata: every scenario is deterministic by
#: construction (fault injection disarmed, no host-randomness), the seed
#: documents that contract for future stochastic scenarios.
SEED = 0


def _scenario_raw_copy(mode, task_bytes, n_tasks):
    from repro.bench.workloads import raw_copy_throughput

    def run(recorder):
        bytes_per_cycle = raw_copy_throughput(mode, task_bytes, n_tasks)
        recorder["sim_bytes"] = task_bytes * n_tasks
        recorder["bytes_per_cycle"] = bytes_per_cycle
    return run


def _scenario_redis(op, value_len):
    from repro.apps.rediskv import run_benchmark
    from repro.kernel import System

    def run(recorder):
        system = System(n_cores=4, copier=True, phys_frames=262144)
        _server, merged, _elapsed = run_benchmark(
            system, "copier", op, value_len, n_requests=8, n_clients=4)
        recorder["sim_bytes"] = merged.count * value_len
        recorder["requests"] = merged.count
    return run


def _scenario_overload(load):
    from repro.bench.workloads import overload_burst

    def run(recorder):
        res = overload_burst(policy="deadline-feasible", load=load,
                             n_tasks=96, task_bytes=64 * 1024)
        recorder["sim_bytes"] = 96 * 64 * 1024
        recorder["served"] = (len(res["done_latencies"])
                              + len(res["shed_latencies"]))
    return run


def _scenario_async_load(n_clients, n_requests, value_len):
    from repro.bench.async_load import run_async_load

    def run(recorder):
        res = run_async_load(n_clients=n_clients, n_requests=n_requests,
                             value_len=value_len, pacing="gate")
        recorder["sim_bytes"] = res["sim_bytes"]
        recorder["requests"] = res["requests_served"]
    return run


def _scenario_fleet_failover(n_nodes=3, n_streams=4, n_ops=10,
                             value_bytes=8 * 1024):
    def run(recorder):
        from repro.fleet import Fleet

        fleet = Fleet(n_nodes=n_nodes, link_latency_cycles=20_000,
                      link_bytes_per_cycle=16.0, lfd_period_cycles=100_000,
                      gfd_timeout_cycles=400_000)
        total = n_streams * n_ops
        kill_after = total // 2
        victim = n_nodes - 1
        streams = [{"done": 0, "pending": None, "idx": 0}
                   for _ in range(n_streams)]
        latencies = []
        completed = abandoned = sim_bytes = rounds = 0
        killed = False

        while any(s["done"] < n_ops or s["pending"] is not None
                  for s in streams):
            rounds += 1
            if rounds > 400_000:
                raise RuntimeError("fleet_failover scenario stalled")
            for sid, s in enumerate(streams):
                op = s["pending"]
                if op is not None:
                    if op.done:
                        s["pending"] = None
                        s["done"] += 1
                        completed += 1
                        if op.latency_cycles is not None:
                            latencies.append(op.latency_cycles)
                    elif not fleet.nodes[op.gateway_id].alive:
                        # Connection to the killed gateway dropped.
                        s["pending"] = None
                        s["done"] += 1
                        abandoned += 1
                    else:
                        continue
                if s["done"] >= n_ops or s["pending"] is not None:
                    continue
                idx = s["idx"]
                s["idx"] += 1
                key = b"p%d-k%d" % (sid, idx % 4)
                live = fleet.live_nodes
                gw = live[(sid + idx) % len(live)].node_id
                if idx % 3 == 2:
                    s["pending"] = fleet.get(key, gateway=gw)
                else:
                    value = bytes([(sid * 31 + idx) % 251]) * value_bytes
                    sim_bytes += value_bytes
                    s["pending"] = fleet.set(key, value, gateway=gw)
            if not killed and completed >= kill_after:
                fleet.kill_node(victim)
                killed = True
            fleet.stepper.step_round()

        fleet.stepper.settle(100)  # let the post-promotion resync finish
        if not fleet.promotions:
            raise RuntimeError("forced kill was never detected")
        if fleet.leaked_pins():
            raise RuntimeError("fleet leaked page pins")
        latencies.sort()
        recorder["sim_bytes"] = sim_bytes
        recorder["requests"] = completed
        recorder["abandoned"] = abandoned
        recorder["promotions"] = len(fleet.promotions)
        recorder["p99_cycles"] = latencies[int(0.99 * (len(latencies) - 1))]
    return run


def _scenario_fleet_restart_recovery(n_nodes=4, n_keys=24,
                                     value_bytes=8 * 1024):
    """Kill → declare → restart → rejoin, measured end to end.

    The victim's recovery time (restart to resync-drained, the fleet's
    MTTR) is the headline sim-side number; the scenario also pins the
    disk-replay and delta-resync counters so a regression in either
    shows up as a strict-sim diff.
    """
    def run(recorder):
        from repro.fleet import Fleet

        fleet = Fleet(n_nodes=n_nodes, link_latency_cycles=20_000,
                      link_bytes_per_cycle=16.0, lfd_period_cycles=100_000,
                      gfd_timeout_cycles=400_000, ckpt_period=64)
        keys = [b"r-k%d" % i for i in range(n_keys)]
        sim_bytes = 0
        ops = []
        for i, key in enumerate(keys):
            value = bytes([(i * 37) % 251]) * value_bytes
            sim_bytes += value_bytes
            ops.append(fleet.set(key, value))
        fleet.run_ops(ops)
        victim = n_nodes - 1
        fleet.kill_node(victim)
        fleet.stepper.run_until(
            lambda: any(n == victim for _v, n in fleet.promotions))
        # Half the keys move forward while the victim is down, so the
        # rejoin has a real delta to push, not just a no-op handshake.
        ops = []
        for i, key in enumerate(keys[:n_keys // 2]):
            value = bytes([(i * 41 + 1) % 251]) * value_bytes
            sim_bytes += value_bytes
            ops.append(fleet.set(key, value))
        fleet.run_ops(ops)
        fleet.stepper.run_until(lambda: not fleet.resyncs_active)

        node = fleet.restart_node(victim)
        fleet.stepper.run_until(lambda: not fleet.recovering_nodes
                                and not fleet.resyncs_active)
        gets = fleet.run_ops([fleet.get(key) for key in keys])
        if any(op.error is not None or op.result is None for op in gets):
            raise RuntimeError("restart recovery lost data")
        if fleet.leaked_pins():
            raise RuntimeError("fleet leaked page pins")
        recorder["sim_bytes"] = sim_bytes
        recorder["requests"] = len(keys) + n_keys // 2 + len(gets)
        recorder["promotions"] = len(fleet.promotions)
        recorder["restarts"] = len(fleet.restarts)
        recorder["recovered_keys"] = node.counters["recovered_keys"]
        recorder["rejoin_pushed"] = sum(
            peer.counters.get("rejoin_pushed", 0) for peer in fleet.nodes)
        recorder["mttr_cycles"] = node.counters["recovery_cycles"]
    return run


def _scenario_fleet_lossy_links(n_nodes=3, n_streams=4, n_ops=12,
                                value_bytes=8 * 1024):
    """Sharded SET/GET traffic over a fixed-rate lossy wire.

    Every link drops, duplicates, reorders and corrupts frames at the
    pinned rates below; the reliable exactly-once channel absorbs it.
    The recorded retransmit ratio and CRC-drop count are the overhead
    of surviving the hostile wire — a transport regression (extra
    retransmits, wedged streams) moves them and fails the strict-sim
    gate.
    """
    def run(recorder):
        from repro.fleet import Fleet
        from repro.fleet.interconnect import LinkFaultPlan

        plan = LinkFaultPlan("perf", seed=0, drop_rate=0.10, dup_rate=0.05,
                             reorder_rate=0.10, reorder_window=4,
                             corrupt_rate=0.05)
        fleet = Fleet(n_nodes=n_nodes, link_latency_cycles=20_000,
                      link_bytes_per_cycle=16.0, lfd_period_cycles=100_000,
                      gfd_timeout_cycles=400_000, link_fault_plan=plan,
                      backoff_jitter_seed=0)
        sim_bytes = 0
        sets, gets = [], []
        values = {}
        for sid in range(n_streams):
            for idx in range(n_ops):
                # Unique key per op: concurrent rewrites of one key have
                # no deterministic winner to assert against.
                key = b"l%d-k%d" % (sid, idx)
                gw = (sid + idx) % n_nodes
                value = bytes([(sid * 29 + idx) % 251]) * value_bytes
                values[key] = value
                sim_bytes += value_bytes
                sets.append(fleet.set(key, value, gateway=gw))
        fleet.run_ops(sets)
        if not all(op.acked for op in sets):
            raise RuntimeError("lossy wire lost an acknowledged write")
        for i, key in enumerate(sorted(values)):
            gets.append(fleet.get(key, gateway=i % n_nodes))
        fleet.run_ops(gets)
        for op in gets:
            if op.result != values[op.key]:
                raise RuntimeError("lossy wire served a wrong value")
        if fleet.leaked_pins():
            raise RuntimeError("fleet leaked page pins")
        latencies = sorted(op.latency_cycles for op in sets + gets
                           if op.latency_cycles is not None)
        transport = fleet.netpath_stats()
        totals = fleet.interconnect.stats()["totals"]
        recorder["sim_bytes"] = sim_bytes
        recorder["requests"] = len(sets) + len(gets)
        recorder["retransmits"] = transport["retransmits"]
        recorder["frames_sent"] = transport["frames_sent"]
        recorder["crc_dropped"] = transport["crc_dropped"]
        recorder["wire_lost"] = totals["lossy_dropped"]
        recorder["p99_cycles"] = latencies[int(0.99 * (len(latencies) - 1))]
    return run


def scenario_suite():
    """Ordered (name, runner) pairs; names are the CI diff keys."""
    return [
        ("raw_copy_64k", _scenario_raw_copy("copier", 64 * 1024, 48)),
        ("raw_copy_256k", _scenario_raw_copy("copier", 256 * 1024, 24)),
        ("raw_copy_sync_avx", _scenario_raw_copy("avx", 64 * 1024, 48)),
        ("redis_set_16k", _scenario_redis("SET", 16 * 1024)),
        ("overload_burst_2x", _scenario_overload(2.0)),
        ("async_redis_1k_gate", _scenario_async_load(1000, 2, 4096)),
        ("fleet_failover", _scenario_fleet_failover()),
        ("fleet_restart_recovery", _scenario_fleet_restart_recovery()),
        ("fleet_lossy_links", _scenario_fleet_lossy_links()),
    ]


def _measure(runner, repeat):
    """Run ``runner`` ``repeat`` times; wall-clock is the best (min) run.

    Sim-side numbers come from the last run — they are identical across
    runs by construction, and ``run_scenario`` asserts that.
    """
    import gc

    from repro.sim.engine import Environment

    best = None
    recorder = {}
    sim_signature = None
    for _ in range(repeat):
        recorder = {}
        gc.collect()
        events_before = _global_event_count()
        t0 = time.perf_counter()
        runner(recorder)
        wall = time.perf_counter() - t0
        recorder["events"] = _global_event_count() - events_before
        recorder["sim_cycles"] = _last_env_now()
        signature = (recorder.get("sim_cycles"), recorder.get("sim_bytes"))
        if sim_signature is None:
            sim_signature = signature
        elif signature != sim_signature:
            raise RuntimeError(
                "scenario is not deterministic across repeats: %r vs %r"
                % (signature, sim_signature))
        if best is None or wall < best:
            best = wall
    recorder["wall_s"] = best
    # Reset the interposer state for the next scenario.
    Environment._perf_last_now = 0
    return recorder


# ---------------------------------------------------------------- plumbing
#
# Scenario drivers construct their own Environment internally, so the
# harness observes them through two tiny interposers installed on the
# class: a global event counter and the last environment's final clock.

_orig_env_init = None


def _install_interposers():
    global _orig_env_init
    from repro.sim.engine import Environment

    if _orig_env_init is not None:
        return
    _orig_env_init = Environment.__init__
    Environment._perf_event_base = 0
    Environment._perf_last_now = 0
    Environment._perf_open = []

    def patched_init(self, *args, **kwargs):
        _orig_env_init(self, *args, **kwargs)
        Environment._perf_open.append(self)

    Environment.__init__ = patched_init


def _global_event_count():
    from repro.sim.engine import Environment

    live = Environment._perf_open
    total = Environment._perf_event_base + sum(
        env.events_executed for env in live)
    return total


def _last_env_now():
    from repro.sim.engine import Environment

    live = Environment._perf_open
    if not live:
        return Environment._perf_last_now
    # Fold finished environments into the base so the list stays short.
    last = live[-1]
    Environment._perf_last_now = last.now
    Environment._perf_event_base += sum(env.events_executed for env in live)
    del live[:]
    return Environment._perf_last_now


# -------------------------------------------------------------------- main

def run_suite(repeat=3, quick=False, names=None):
    """Run the scenario suite; returns the baseline dict.

    Fault-injection and admission env knobs are disarmed for the duration
    (they would perturb the pinned scenarios); the oracle knobs
    ``COPIER_SLOWHEAP`` and ``COPIER_SLOWPATH`` are honored so the
    reference classes can be measured differentially.
    """
    import os

    from repro.kernel.system import machine_classes
    from repro.mem.pagewalk import PageWalkAddressSpace

    _install_interposers()
    saved = {}
    for knob in ("COPIER_FAULT_PLAN", "COPIER_FAULT_SEED",
                 "COPIER_ADMISSION", "COPIER_CKPT_PERIOD",
                 "COPIER_LINK_FAULT_PLAN", "COPIER_LINK_FAULT_SEED",
                 "COPIER_E2E_CRC"):
        saved[knob] = os.environ.pop(knob, None)
    try:
        results = {}
        for name, runner in scenario_suite():
            if names and name not in names:
                continue
            rec = _measure(runner, 1 if quick else repeat)
            wall = rec["wall_s"]
            rec["events_per_s"] = rec["events"] / wall if wall else 0.0
            sim_bytes = rec.get("sim_bytes", 0)
            rec["sim_bytes_per_s"] = sim_bytes / wall if wall else 0.0
            results[name] = rec
    finally:
        for knob, value in saved.items():
            if value is not None:
                os.environ[knob] = value
    return {
        "schema": SCHEMA,
        "seed": SEED,
        "repeat": 1 if quick else repeat,
        "python": sys.version.split()[0],
        "slowpath": machine_classes()[1] is PageWalkAddressSpace,
        "scenarios": results,
    }


def render(baseline):
    from repro.bench.report import ResultTable

    table = ResultTable(
        "Perf baseline (wall-clock, best of %d)" % baseline["repeat"],
        ["scenario", "wall s", "sim Mcyc", "events/s", "sim MB/s"])
    for name, rec in baseline["scenarios"].items():
        table.add(name, rec["wall_s"], rec["sim_cycles"] / 1e6,
                  rec["events_per_s"], rec["sim_bytes_per_s"] / 1e6)
    return table.render()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Record the wall-clock perf baseline suite.")
    parser.add_argument("-o", "--output", default=None,
                        help="write the baseline JSON here")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per scenario; wall-clock is the best")
    parser.add_argument("--quick", action="store_true",
                        help="single run per scenario (CI smoke)")
    parser.add_argument("--scenario", action="append", default=None,
                        help="run only this scenario (repeatable)")
    args = parser.parse_args(argv)
    baseline = run_suite(repeat=args.repeat, quick=args.quick,
                         names=args.scenario)
    print(render(baseline))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("\nwrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
