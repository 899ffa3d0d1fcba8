"""Node-level chaos: kill/partition/slow storms against a live fleet.

The campaign drives seeded closed-loop client streams while firing
node-level faults, then audits the fleet against a shadow-model
oracle.  Each stream owns a disjoint set of write keys and runs one op
at a time, so per key the acknowledged writes form a strict sequence —
the oracle records every issued value and the index of the last one
the fleet *acknowledged*.  The final audit (after healing and
settling) demands that every key with an acknowledged write reads back
a value at least as new as the last ack: **zero lost acknowledged
writes**.  Unacknowledged writes may or may not have committed; both
outcomes are legal.

Fault kinds (all fired on the deterministic op-completion tick, like
the single-node :class:`~repro.chaos.ChaosController`):

* ``node_kill`` — a machine drops dead; detection is organic (missed
  heartbeats), promotion and resync follow.  Kills are gated on the
  previous death having been detected and resynced, matching the
  replication factor of two: the storm stays within what the protocol
  tolerates, which is exactly what the oracle proves.
* ``link_partition`` — a node pair (or a node's GFD control link, which
  manufactures a false-positive promotion) drops traffic for a seeded
  number of ticks, then heals.
* ``link_slow`` — a pair's latency/bandwidth degrade by a seeded factor
  for a while.  Slow links delay, never drop: acks still flow.

Every campaign — this one, the lossy one and the restart storms of
:class:`RestartChaosController` — runs through one loop and one audit;
a controller owns only its storms, its ``finish`` quiesce step and its
``result_extras``.

The lossy campaign (``lossy=True``) arms the per-link fault plan and
layers two more storm kinds on top via
:class:`LossyChaosController`:

* ``link_lossy`` — a pair's drop/dup/reorder/corrupt rates burst to
  seeded values for a while, then fall back to the plan's baseline.
  The reliable channel must deliver exactly-once anyway.
* ``bitflip_storm`` — every live node's Copier service swaps in an
  ``integrity`` fault injector (silent DMA bit flips, torn engine
  writes, poisoned frames) with the end-to-end CRC armed.  The oracle's
  phantom-read and final-audit checks double as the *no corrupted
  payload is ever acked or served* proof.
"""

import random

from repro.faultinject import FaultInjector, FaultPlan
from repro.fleet.fleet import Fleet
from repro.fleet.interconnect import GFD_ENDPOINT, LinkFaultPlan


def _value(stream_id, key, idx, base_bytes):
    """Deterministic, per-(key, idx) unique value with varying length."""
    seedbytes = b"%d:%s:%d" % (stream_id, key, idx)
    pattern = bytes((sum(seedbytes) + i) % 251 for i in range(97))
    length = base_bytes + (idx % 5) * 128
    reps = length // len(pattern) + 1
    return (seedbytes + b"|" + pattern * reps)[:length]


class _Stream:
    """One closed-loop client: seeded ops, single-writer keys."""

    def __init__(self, stream_id, fleet, seed, n_ops, n_keys, value_bytes,
                 all_keys):
        self.stream_id = stream_id
        self.fleet = fleet
        self.rng = random.Random(repr(("fleet-stream", seed, stream_id)))
        self.n_ops = n_ops
        self.value_bytes = value_bytes
        self.keys = [b"s%d-k%d" % (stream_id, k) for k in range(n_keys)]
        self.all_keys = all_keys
        self.write_idx = {key: 0 for key in self.keys}
        self.ops_done = 0
        self.acked = 0
        self.failed = 0
        self.abandoned = 0
        self.get_checked = 0
        self.pending = None       # (op, kind, key, idx)
        self.violations = []

    @property
    def finished(self):
        return self.ops_done >= self.n_ops and self.pending is None

    def _gateway(self):
        live = self.fleet.live_nodes
        return live[self.rng.randrange(len(live))].node_id

    def submit_next(self, oracle):
        if self.ops_done + (1 if self.pending else 0) >= self.n_ops:
            return
        rng = self.rng
        if rng.random() < 0.7:
            key = self.keys[rng.randrange(len(self.keys))]
            idx = self.write_idx[key]
            value = _value(self.stream_id, key, idx, self.value_bytes)
            oracle[key]["issued"].append(value)
            op = self.fleet.set(key, value, gateway=self._gateway())
            self.pending = (op, "set", key, idx)
        else:
            key = self.all_keys[rng.randrange(len(self.all_keys))]
            op = self.fleet.get(key, gateway=self._gateway())
            self.pending = (op, "get", key, None)

    def poll(self, oracle):
        """Returns True when an op completed this round (a chaos tick)."""
        if self.pending is None:
            return False
        op, kind, key, idx = self.pending
        if not op.done and self.fleet.nodes[op.gateway_id].alive:
            return False
        self.pending = None
        self.ops_done += 1
        if not op.done:
            # The gateway died under the op: the client sees a
            # connection drop, never an ack.
            self.abandoned += 1
        elif kind == "set":
            if op.acked:
                self.acked += 1
                entry = oracle[key]
                entry["acked_idx"] = max(entry["acked_idx"], idx)
            else:
                # Unacked: may or may not have committed.
                self.failed += 1
            # Reuse of an index would make "which commit won"
            # ambiguous, so the writer always moves on.
            self.write_idx[key] = idx + 1
        else:
            if op.error is None and op.result is not None:
                entry = oracle.get(key)
                if entry is not None and op.result not in entry["issued"]:
                    self.violations.append(
                        ("phantom-read", key, len(op.result)))
                self.get_checked += 1
            elif op.error is not None:
                self.failed += 1
        return True


def _pick_peer(rng, node_ids, a):
    """A seeded node id other than ``a``."""
    b = node_ids[rng.randrange(len(node_ids))]
    if a == b:
        b = node_ids[(node_ids.index(a) + 1) % len(node_ids)]
    return b


class FleetChaosController:
    """Fires node-level faults on the deterministic op-completion tick."""

    def __init__(self, fleet, seed, n_events, total_ops):
        self.fleet = fleet
        self.rng = random.Random(repr(("fleet-chaos-controller", seed)))
        self.events = []
        self.kills = 0
        self.max_kills = max(len(fleet.nodes) - 2, 0)
        self.tick_count = 0
        self.last_kill_tick = -100
        self.heal_at = []  # (tick, kind, a, b)
        window = max(n_events + 5, int(total_ops * 0.6))
        self.schedule = sorted(self.rng.sample(range(3, 3 + window),
                                               min(n_events, window)))

    def tick(self):
        self.tick_count += 1
        while self.heal_at and self.heal_at[0][0] <= self.tick_count:
            _, kind, a, b = self.heal_at.pop(0)
            self._heal_one(kind, a, b)
            self.events.append((self.tick_count, "heal-" + kind,
                                "%s/%s" % (a, b)))
        while self.schedule and self.schedule[0] <= self.tick_count:
            self.schedule.pop(0)
            self._fire()

    def _heal_one(self, kind, a, b):
        if kind == "partition":
            self.fleet.interconnect.heal(a, b)
        else:
            self.fleet.interconnect.slow(a, b, 1.0)

    def _membership_settled(self):
        """No declared death is still resyncing, no real kill is still
        undetected, and the control plane is settled — the windows in
        which losing another owner would exceed the replication
        factor."""
        fleet = self.fleet
        if fleet.resyncs_active:
            return False
        declared = {node_id for _view, node_id in fleet.promotions}
        if any(k not in declared for k in fleet.kills):
            return False
        return self._control_plane_settled()

    def _control_plane_settled(self):
        """No GFD control-link partition is pending, and no live node is
        silent long enough to be halfway to declaration (a promotion in
        the making; wait it out)."""
        if any(kind == "partition" and GFD_ENDPOINT in (a, b)
               for _tick, kind, a, b in self.heal_at):
            return False
        fleet = self.fleet
        if fleet.gfd is None:
            return True
        horizon = fleet.stepper.horizon
        return not any(fleet.nodes[node_id].alive
                       and horizon - fleet.gfd.last_beat[node_id]
                       > 3 * fleet.lfd_period
                       for node_id in fleet.gfd.alive)

    def _kill_allowed(self):
        return (self.kills < self.max_kills
                and len(self.fleet.live_nodes) > 2
                and self._membership_settled()
                and self.tick_count - self.last_kill_tick >= 20)

    def _fire(self):
        rng = self.rng
        fleet = self.fleet
        roll = rng.random()
        if roll < 0.3 and self._kill_allowed():
            live = fleet.live_nodes
            victim = live[rng.randrange(len(live))].node_id
            fleet.kill_node(victim)
            self.kills += 1
            self.last_kill_tick = self.tick_count
            self.events.append((self.tick_count, "node_kill", victim))
            return
        node_ids = [node.node_id for node in fleet.nodes]
        a = node_ids[rng.randrange(len(node_ids))]
        if roll < 0.65:
            if rng.random() < 0.3 and self._membership_settled():
                b = GFD_ENDPOINT  # false-positive promotion fuel
            else:
                b = _pick_peer(rng, node_ids, a)
            fleet.interconnect.partition(a, b)
            self._storm(rng.randrange(8, 25), "partition", a, b,
                        "link_partition", "%s/%s" % (a, b))
        else:
            b = _pick_peer(rng, node_ids, a)
            factor = rng.choice([2.0, 4.0, 8.0])
            fleet.interconnect.slow(a, b, factor)
            self._storm(rng.randrange(10, 30), "slow", a, b,
                        "link_slow", "%s/%s x%g" % (a, b, factor))

    def _storm(self, duration, kind, a, b, event, detail):
        """Log a storm that heals ``duration`` ticks from now."""
        self.heal_at.append((self.tick_count + duration, kind, a, b))
        self.heal_at.sort()
        self.events.append((self.tick_count, event, detail))

    def finish(self, settle_rounds, max_rounds):
        """Quiesce once the streams drain; returns audit failures found.

        Pending storms and every link heal, then detections/resyncs
        settle.  A link plan's baseline stays armed through the audit:
        the final reads cross the same lossy wire as the campaign."""
        for _tick, kind, a, b in list(self.heal_at):
            self._heal_one(kind, a, b)
        self.heal_at.clear()
        self.fleet.interconnect.heal_all()
        self.fleet.stepper.settle(settle_rounds)
        return []

    def result_extras(self):
        """Controller-specific keys added to the campaign result."""
        return {}


class LossyChaosController(FleetChaosController):
    """Adds lossy-link bursts and node-local bitflip storms to the mix.

    All extra draws come from a dedicated ``fleet-lossy`` RNG stream so
    arming the controller never perturbs the base controller's kill /
    partition / slow sequences for the same seed.  Lossy bursts require
    the fleet's :class:`~repro.fleet.interconnect.LinkFaultPlan` to be
    armed (the burst is ``set_link_faults`` on top of the plan's
    baseline; healing is ``reset_link_faults`` back to it).  Bitflip
    storms swap an ``integrity`` fault plan into every live node's
    Copier service — with the end-to-end CRC armed, so the silent
    corruption is caught and repaired before anything is acked.
    """

    def __init__(self, fleet, seed, n_events, total_ops):
        super().__init__(fleet, seed, n_events, total_ops)
        self.rng_lossy = random.Random(repr(("fleet-lossy", seed)))
        self.seed = seed
        self.bitflip_storms = 0
        self.lossy_bursts = 0
        self._armed_nodes = {}   # node_id -> (copier, prev_faults, prev_e2e)

    def _heal_one(self, kind, a, b):
        if kind == "lossy":
            self.fleet.interconnect.reset_link_faults(a, b)
        elif kind == "bitflip":
            self._disarm_bitflips()
        else:
            super()._heal_one(kind, a, b)

    def _fire(self):
        roll = self.rng_lossy.random()
        if roll < 0.45:
            super()._fire()
            return
        rng = self.rng_lossy
        fleet = self.fleet
        node_ids = [node.node_id for node in fleet.nodes]
        if roll < 0.8:
            a = node_ids[rng.randrange(len(node_ids))]
            b = _pick_peer(rng, node_ids, a)
            rates = {
                "drop_rate": rng.uniform(0.05, 0.30),
                "dup_rate": rng.uniform(0.0, 0.20),
                "reorder_rate": rng.uniform(0.0, 0.25),
                "reorder_window": rng.randint(1, 4),
                "corrupt_rate": rng.uniform(0.0, 0.15),
            }
            fleet.interconnect.set_link_faults(a, b, **rates)
            self.lossy_bursts += 1
            self._storm(rng.randrange(8, 25), "lossy", a, b, "link_lossy",
                        "%s/%s drop=%.2f dup=%.2f reorder=%.2f corrupt=%.2f"
                        % (a, b, rates["drop_rate"], rates["dup_rate"],
                           rates["reorder_rate"], rates["corrupt_rate"]))
        else:
            self._arm_bitflips()
            self._storm(rng.randrange(10, 30), "bitflip", "fleet", "fleet",
                        "bitflip_storm", "%d nodes" % len(self._armed_nodes))

    def _arm_bitflips(self):
        self.bitflip_storms += 1
        plan = FaultPlan.integrity(
            seed=(self.seed, self.bitflip_storms).__repr__())
        for node in self.fleet.live_nodes:
            copier = node.system.copier
            if copier is None or node.node_id in self._armed_nodes:
                continue
            inj = FaultInjector(plan, env=copier.env, trace=copier.trace,
                                stages=copier.stage_stats)
            self._armed_nodes[node.node_id] = (copier, copier.faults,
                                               copier.e2e_crc)
            copier.faults = inj
            copier.e2e_crc = True
            if copier.dma is not None:
                copier.dma.injector = inj

    def _disarm_bitflips(self):
        for node_id, (copier, prev_faults, prev_e2e) in (
                self._armed_nodes.items()):
            node = self.fleet.nodes[node_id]
            if node.system.copier is not copier:
                continue  # the node restarted mid-storm with a fresh machine
            copier.faults = prev_faults
            copier.e2e_crc = prev_e2e
            if copier.dma is not None:
                copier.dma.injector = (prev_faults if prev_faults.armed
                                       else None)
        self._armed_nodes.clear()

    def result_extras(self):
        if self.fleet.link_fault_plan is None:
            return {}
        return {"lossy_bursts": self.lossy_bursts,
                "bitflip_storms": self.bitflip_storms}


class RestartChaosController(FleetChaosController):
    """Kill → restart → rejoin storms on top of the base fault mix.

    Every kill is eventually answered by a restart: ``on-declare``
    restarts the node at the first tick after the GFD declares it dead
    — the death resyncs have just been spawned, so the rejoin lands
    *mid-resync*, the nastiest window.  ``delayed`` waits a seeded
    number of ticks after declaration first.  A seeded fraction of
    restarts wipe the node's disk and recover peer-assisted over the
    checkpoint-shipping path.  With ``double_crash`` armed, once the
    fleet is whole and settled the controller kills *both* current
    owners of a seeded key in the same tick — acked data for that shard
    survives only through the disks and the version-reconciled rejoin.
    """

    def __init__(self, fleet, seed, n_events, total_ops, all_keys,
                 restart_policy="on-declare", restart_delay=(5, 15),
                 wipe_prob=0.25, double_crash=False):
        super().__init__(fleet, seed, n_events, total_ops)
        self.rng_restart = random.Random(repr(("fleet-restart", seed)))
        self.restart_policy = restart_policy
        self.restart_delay = restart_delay
        self.wipe_prob = wipe_prob
        self.all_keys = all_keys
        # Nodes come back, so the storm can afford more kills than the
        # one-shot campaign without ever dropping below two live nodes.
        self.max_kills = 2 * max(len(fleet.nodes) - 2, 1)
        self.restart_due = {}    # node_id -> tick (delayed policy)
        self.restart_log = []    # (tick, node_id, during_resync, wiped)
        self.double_crash_armed = double_crash and len(fleet.nodes) >= 4
        # Don't fire into an empty store: wait until a good fraction of
        # the streams' writes have been acknowledged, so the crashed
        # pair actually holds data the oracle will come asking about.
        self.double_crash_after = max(10, total_ops // 4)
        self.double_crashes = []  # (tick, key, owners)

    def tick(self):
        super().tick()
        self._restart_pass()
        self._double_crash_pass()

    def _membership_settled(self):
        """Restart-aware settling: a kill is resolved once the node is
        back alive *or* currently declared dead (the base campaign's
        declared-set check breaks as soon as a node is killed twice),
        and a recovering node counts as an owner in flight."""
        fleet = self.fleet
        if fleet.recovering_nodes or fleet.resyncs_active:
            return False
        if fleet.gfd is not None and any(
                not fleet.nodes[node_id].alive and node_id in fleet.gfd.alive
                for node_id in set(fleet.kills)):
            return False  # killed, not yet declared
        return self._control_plane_settled()

    def _restart_pass(self):
        fleet = self.fleet
        for node in fleet.nodes:
            node_id = node.node_id
            if node.alive:
                self.restart_due.pop(node_id, None)
                continue
            if fleet.gfd is not None and node_id in fleet.gfd.alive:
                continue  # not declared yet; rejoin would be a non-event
            if self.restart_policy == "delayed":
                due = self.restart_due.get(node_id)
                if due is None:
                    lo, hi = self.restart_delay
                    self.restart_due[node_id] = (
                        self.tick_count + self.rng_restart.randrange(lo, hi))
                    continue
                if self.tick_count < due:
                    continue
                self.restart_due.pop(node_id, None)
            during_resync = fleet.resyncs_active
            # Disk loss is only survivable while every *other* replica
            # holder is whole: wiping a second disk inside one
            # overlapping outage destroys both durable copies, which no
            # replication-factor-2 protocol can recover from.  The roll
            # is drawn unconditionally to keep the rng stream stable.
            roll = self.rng_restart.random()
            others_whole = all(peer.alive and not peer.recovering
                               for peer in fleet.nodes if peer is not node)
            wiped = others_whole and roll < self.wipe_prob
            if wiped:
                node.disk.wipe()
            fleet.restart_node(node_id, peer_assist=wiped)
            self.restart_log.append((self.tick_count, node_id,
                                     during_resync, wiped))
            self.events.append(
                (self.tick_count, "node_restart",
                 "%s%s%s" % (node_id,
                             "/mid-resync" if during_resync else "",
                             "/wiped" if wiped else "")))

    def _double_crash_pass(self):
        fleet = self.fleet
        if (not self.double_crash_armed
                or self.tick_count < self.double_crash_after
                or not all(node.alive for node in fleet.nodes)
                or not self._membership_settled()
                or self.tick_count - self.last_kill_tick < 20):
            return
        key = self.all_keys[self.rng_restart.randrange(len(self.all_keys))]
        owners = list(fleet.ring.owners(key)[:2])
        for node_id in owners:
            fleet.kill_node(node_id)
        self.kills += len(owners)
        self.last_kill_tick = self.tick_count
        self.double_crash_armed = False
        self.double_crashes.append((self.tick_count, key, tuple(owners)))
        self.events.append((self.tick_count, "double_crash",
                            "%r -> %s" % (key, owners)))

    def finish(self, settle_rounds, max_rounds):
        """Heal, bring every dead node home, and drain recovery fully;
        the audit then runs against the *whole* fleet."""
        fleet = self.fleet
        fleet.interconnect.heal_all()
        for node in fleet.nodes:
            if not node.alive:
                fleet.restart_node(node.node_id)
                self.restart_log.append((self.tick_count, node.node_id,
                                         False, False))
                self.events.append((self.tick_count, "node_restart",
                                    "%s/final" % node.node_id))
        fleet.stepper.run_until(
            lambda: not fleet.resyncs_active and not fleet.recovering_nodes,
            max_rounds=max_rounds)
        fleet.stepper.settle(settle_rounds)
        live_ids = sorted(node.node_id for node in fleet.live_nodes)
        return ([] if len(live_ids) == len(fleet.nodes)
                else ["not every node rejoined: %r" % (live_ids,)])

    def result_extras(self):
        nodes = self.fleet.nodes
        cycles = [node.counters["recovery_cycles"] for node in nodes
                  if node.counters.get("recovery_cycles")]
        return {"restarts": list(self.fleet.restarts),
                "restart_log": list(self.restart_log),
                "double_crashes": list(self.double_crashes),
                "recoveries": sum(node.counters.get("recoveries", 0)
                                  for node in nodes),
                "mttr_cycles": sum(cycles) // len(cycles) if cycles else 0}


def _campaign_keys(n_streams, n_keys):
    return [b"s%d-k%d" % (s, k)
            for s in range(n_streams) for k in range(n_keys)]


def _run_campaign(fleet, controller, seed, n_streams, n_ops, n_keys,
                  value_bytes, max_rounds, settle_rounds):
    """The one campaign loop and audit behind every fleet storm.

    Runs the closed-loop streams (each completed op is a chaos tick),
    hands off to ``controller.finish`` to quiesce, then reads every key
    back through the fleet and classifies it against the shadow oracle
    as lost (missing/stale) or phantom.  The result carries the fault
    log, promotion history, per-stream outcomes, the audit, leak checks,
    the armed link plan's transport counters and the controller's own
    ``result_extras``.
    """
    all_keys = _campaign_keys(n_streams, n_keys)
    oracle = {key: {"issued": [], "acked_idx": -1} for key in all_keys}
    streams = [_Stream(sid, fleet, seed, n_ops, n_keys, value_bytes, all_keys)
               for sid in range(n_streams)]

    rounds = 0
    while not all(stream.finished for stream in streams):
        if rounds >= max_rounds:
            raise RuntimeError("fleet chaos campaign stalled after %d rounds"
                               % rounds)
        for stream in streams:
            if stream.poll(oracle):
                controller.tick()
            if stream.pending is None and not stream.finished:
                stream.submit_next(oracle)
        fleet.stepper.step_round()
        rounds += 1

    failures = controller.finish(settle_rounds, max_rounds)
    lost_acked = []
    audited = 0
    live_ids = sorted(node.node_id for node in fleet.live_nodes)
    audit_ops = []
    for i, key in enumerate(sorted(oracle)):
        gateway = live_ids[i % len(live_ids)]
        audit_ops.append((key, fleet.get(key, gateway=gateway)))
    fleet.run_ops([op for _, op in audit_ops])
    for key, op in audit_ops:
        entry = oracle[key]
        if op.error is not None:
            failures.append("final GET of %r failed: %r" % (key, op.error))
            continue
        audited += 1
        issued, acked_idx = entry["issued"], entry["acked_idx"]
        got_idx = issued.index(op.result) if op.result in issued else None
        if op.result is not None and got_idx is None:
            lost_acked.append(("phantom", key))
        elif acked_idx >= 0 and op.result is None:
            lost_acked.append(("missing", key, acked_idx))
        elif acked_idx >= 0 and got_idx < acked_idx:
            lost_acked.append(("stale", key, got_idx, acked_idx))
    if lost_acked:
        failures.append("lost acknowledged writes: %r" % (lost_acked,))

    for stream in streams:
        if stream.violations:
            failures.append("stream %d consistency violations: %r"
                            % (stream.stream_id, stream.violations))

    leaked = fleet.leaked_pins()
    if leaked:
        failures.append("%d page pins leaked across the fleet" % leaked)

    snap = fleet.snapshot()
    result = {
        "seed": seed,
        "n_nodes": len(fleet.nodes),
        "events": controller.events,
        "kills": controller.kills,
        "promotions": list(fleet.promotions),
        "rounds": rounds,
        "streams": {s.stream_id: {"ops_done": s.ops_done, "acked": s.acked,
                                  "failed": s.failed,
                                  "abandoned": s.abandoned,
                                  "gets_checked": s.get_checked}
                    for s in streams},
        "ops": snap["ops"],
        "interconnect": {"messages": snap["interconnect"]["messages"],
                         "bytes": snap["interconnect"]["bytes"],
                         "dropped": snap["interconnect"]["dropped"]},
        "nodes": snap["nodes"],
        "store_digests": {node.node_id: node.store.digest()
                          for node in fleet.live_nodes},
        "audited_keys": audited,
        "lost_acked": lost_acked,
        "leaked_pins": leaked,
        "failures": failures,
    }
    if fleet.link_fault_plan is not None:
        result["link_faults"] = fleet.interconnect.stats()["totals"]
        result["netpath"] = fleet.netpath_stats()
        result["integrity"] = {
            node.node_id: node.system.copier.integrity.as_dict()
            for node in fleet.live_nodes
            if node.system.copier is not None}
    result.update(controller.result_extras())
    return result


def run_fleet_campaign(seed=0, n_nodes=4, n_streams=6, n_ops=12, n_keys=3,
                       n_events=10, value_bytes=4096, max_rounds=400_000,
                       settle_rounds=400, fleet_kwargs=None, lossy=False):
    """Run one fleet chaos campaign; returns a result dict.

    Kill/partition/slow storms against the closed-loop streams, audited
    by :func:`_run_campaign` — everything the fleet soak job and
    ``tests/fleet`` assert on.

    With ``lossy=True`` the fleet runs with the per-link fault plan
    armed (``mixed`` baseline unless ``fleet_kwargs`` overrides it),
    the reliable channel carrying every fleet message, and the storm
    mix extended with lossy bursts and bitflip storms — the audit then
    additionally proves no corrupted payload was ever acked or served.
    """
    fleet_kwargs = dict(fleet_kwargs or {})
    if lossy:
        fleet_kwargs.setdefault("link_fault_plan",
                                LinkFaultPlan.named("mixed", seed))
        fleet_kwargs.setdefault("backoff_jitter_seed", seed)
    fleet = Fleet(n_nodes=n_nodes, **fleet_kwargs)
    controller_cls = LossyChaosController if lossy else FleetChaosController
    controller = controller_cls(fleet, seed, n_events,
                                total_ops=n_streams * n_ops)
    return _run_campaign(fleet, controller, seed, n_streams, n_ops, n_keys,
                         value_bytes, max_rounds, settle_rounds)


def run_restart_campaign(seed=0, n_nodes=4, n_streams=6, n_ops=12, n_keys=3,
                         n_events=10, value_bytes=4096, max_rounds=400_000,
                         settle_rounds=400, restart_policy="on-declare",
                         wipe_prob=0.25, double_crash=False,
                         fleet_kwargs=None):
    """Crash-recovery chaos: kill → restart → rejoin storms, audited.

    Same streams, shadow oracle and audit as :func:`run_fleet_campaign`,
    but every killed node comes back from its disk (or a peer's shipped
    checkpoint when the seed wipes the disk) and rejoins the ring
    mid-campaign.  :meth:`RestartChaosController.finish` restarts any
    still-dead node and drains every resync and recovery before the
    audit, which must also find every node rejoined; the result adds the
    restart log and per-node recovery (MTTR) counters for the bench
    scenario.
    """
    fleet = Fleet(n_nodes=n_nodes, **(fleet_kwargs or {}))
    controller = RestartChaosController(
        fleet, seed, n_events, total_ops=n_streams * n_ops,
        all_keys=_campaign_keys(n_streams, n_keys),
        restart_policy=restart_policy, wipe_prob=wipe_prob,
        double_crash=double_crash)
    return _run_campaign(fleet, controller, seed, n_streams, n_ops, n_keys,
                         value_bytes, max_rounds, settle_rounds)


def fleet_determinism_fingerprint(result):
    """The parts of a fleet campaign result that must be identical
    run-to-run for the same seed."""
    fingerprint = {
        "events": result["events"],
        "promotions": result["promotions"],
        "rounds": result["rounds"],
        "streams": result["streams"],
        "ops": result["ops"],
        "interconnect": result["interconnect"],
        "nodes": result["nodes"],
        "store_digests": result["store_digests"],
    }
    for key in ("restarts", "restart_log", "double_crashes",
                "link_faults", "netpath", "integrity",
                "lossy_bursts", "bitflip_storms"):
        if key in result:
            fingerprint[key] = result[key]
    return fingerprint
