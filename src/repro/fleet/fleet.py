"""The fleet composition root: N machines, one deterministic clock.

Stepping model (conservative parallel discrete-event simulation): every
node owns an independent :class:`~repro.sim.engine.Environment`; the
:class:`FleetStepper` advances them round-robin, each round pushing
every live node to a common horizon ``rounds * quantum`` with
``env.step(max_cycles=...)``.  Determinism requires exactly one rule:
**the quantum never exceeds the smallest interconnect latency** (data
or control).  Then any cross-node message computed against the
sender's clock arrives strictly in the receiver's future regardless of
the order nodes step within a round, so the fleet behaves as one
machine with a single virtual clock.  The GFD ticks at each horizon,
after all nodes — membership changes happen at deterministic times, in
sorted node order.

Data path: keys shard on the consistent-hash ring.  A gateway node
serves a key it owns locally, otherwise forwards over the per-pair
:class:`~repro.fleet.netpath.Channel`.  A SET is acknowledged only
after the primary has committed *and* every other current owner has
applied a synchronous replica — together with the re-check of the
owner set after replication and post-promotion resync, that is what
makes acknowledged writes survive any storm that leaves a current
owner standing.
"""

import os
import random

from repro.ckpt import format as ckpt_format
from repro.ckpt.errors import CheckpointError
from repro.copier.errors import AdmissionReject, CopyAborted, DeadlineMissed
from repro.fleet.errors import (FleetError, FleetTimeout, FleetUnavailable,
                                MessageTooLarge, NotOwner, StoreFull)
from repro.fleet.gfd import GlobalFaultDetector
from repro.fleet.interconnect import (GFD_ENDPOINT, Interconnect,
                                      LinkFaultPlan)
from repro.fleet.lfd import LocalFaultDetector
from repro.fleet.netpath import MAX_MSG, Channel
from repro.fleet.node import FleetNode
from repro.fleet.sharding import HashRing
from repro.kernel.system import System
from repro.sim import Timeout, WaitEvent

# Message types on the inter-node wire.
MSG_SET = 1
MSG_GET = 2
MSG_GET_ANY = 3   # owner-check-free read (backup fallback / read repair)
MSG_REPL = 4
MSG_CKPT = 5      # checkpoint shipping: key = chunk offset, reply = chunk
ACK_OK = 16
ACK_MISS = 17
ACK_ERR = 18
_ACKS = (ACK_OK, ACK_MISS, ACK_ERR)

#: Checkpoint-shipping chunk size; headroom under MAX_MSG for the header.
CKPT_CHUNK = MAX_MSG - 4096

_COPY_ERRORS = (CopyAborted, DeadlineMissed, AdmissionReject)

#: Bytes :func:`encode_msg` adds around key and value: type, op id, key
#: length and value length.
_MSG_FRAMING = 15

#: Bytes of the in-payload version header (see :func:`_pack_version`).
_VERSION_BYTES = 8


def encode_msg(mtype, op_id, key, value=b""):
    if isinstance(key, str):
        key = key.encode()
    return (bytes([mtype]) + op_id.to_bytes(8, "little")
            + len(key).to_bytes(2, "little") + key
            + len(value).to_bytes(4, "little") + value)


def decode_msg(data):
    mtype = data[0]
    op_id = int.from_bytes(data[1:9], "little")
    key_len = int.from_bytes(data[9:11], "little")
    key = bytes(data[11:11 + key_len])
    pos = 11 + key_len
    value_len = int.from_bytes(data[pos:pos + 4], "little")
    value = bytes(data[pos + 4:pos + 4 + value_len])
    return mtype, op_id, key, value


def _pack_version(version):
    """In-payload version header for SET/REPL under the reliable
    transport.  The ``_wire_versions`` side-channel is swept by the RPC
    expiry timer, but a reliable frame can outlive its RPC and be
    delivered later — the version must ride *inside* the message so a
    zombie delivery still carries its (stale, discardable) version."""
    return version.to_bytes(_VERSION_BYTES, "little")


def _unpack_version(value):
    return (int.from_bytes(value[:_VERSION_BYTES], "little"),
            value[_VERSION_BYTES:])


def _env_int(name, default):
    raw = os.environ.get(name)
    return default if not raw else int(raw)


def _env_float(name, default):
    raw = os.environ.get(name)
    return default if not raw else float(raw)


class FleetOp:
    """A client-visible fleet operation and its outcome."""

    __slots__ = ("kind", "key", "value", "gateway_id", "done", "result",
                 "error", "acked", "attempts", "t_start", "t_end",
                 "callbacks", "version")

    def __init__(self, kind, key, value, gateway_id):
        self.kind = kind
        self.key = key
        self.value = value
        self.gateway_id = gateway_id
        self.version = None
        self.done = False
        self.result = None
        self.error = None
        self.acked = False
        self.attempts = 0
        self.t_start = None
        self.t_end = None
        self.callbacks = []

    @property
    def latency_cycles(self):
        if self.t_start is None or self.t_end is None:
            return None
        return self.t_end - self.t_start

    def add_done_callback(self, fn):
        if self.done:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _settle(self):
        self.done = True
        callbacks, self.callbacks = self.callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self):
        state = "done" if self.done else "pending"
        return "<FleetOp %s %r %s>" % (self.kind, self.key, state)


class FleetStepper:
    """Round-robins ``Environment.step`` across live nodes (see module
    docstring for the determinism rule it enforces)."""

    def __init__(self, fleet, quantum):
        self.fleet = fleet
        self.quantum = quantum
        self.horizon = 0
        self.rounds = 0
        self.events = 0

    def step_round(self):
        self.horizon += self.quantum
        executed = 0
        for node in self.fleet.nodes:
            if not node.alive:
                continue
            budget = self.horizon - node.env.now
            if budget > 0:
                executed += node.env.step(max_cycles=budget).executed
        if self.fleet.gfd is not None:
            self.fleet.gfd.tick(self.horizon)
        self.rounds += 1
        self.events += executed
        period = self.fleet.ckpt_period
        if period and self.rounds % period == 0:
            # Periodic durability point at the round boundary: each live
            # node snapshots its store to local disk (host-side work —
            # free in simulated cycles) and truncates its WAL.
            for node in self.fleet.nodes:
                if node.alive:
                    node.disk.take_checkpoint(node.store, node.versions)
        return executed

    def run_until(self, predicate, max_rounds=200_000):
        start = self.rounds
        while not predicate():
            if self.rounds - start >= max_rounds:
                raise RuntimeError(
                    "fleet made no progress in %d rounds" % max_rounds)
            self.step_round()

    def settle(self, rounds):
        for _ in range(rounds):
            self.step_round()


class Fleet:
    """N sharded, replicated Copier machines behind one virtual clock."""

    def __init__(self, n_nodes=None, system_kwargs=None, store_kwargs=None,
                 link_latency_cycles=None, link_bytes_per_cycle=None,
                 quantum=None, detectors=True, lfd_period_cycles=None,
                 gfd_timeout_cycles=None, reply_timeout_cycles=600_000,
                 max_attempts=8, vnodes=32, ckpt_period=None,
                 link_fault_plan=None, backoff_jitter_seed=0):
        if n_nodes is None:
            n_nodes = _env_int("COPIER_FLEET_NODES", 3)
        if n_nodes < 1:
            raise ValueError("a fleet needs at least one node")
        link_latency = (link_latency_cycles if link_latency_cycles is not None
                        else _env_int("COPIER_FLEET_LINK_LATENCY", 20_000))
        link_bpc = (link_bytes_per_cycle if link_bytes_per_cycle is not None
                    else _env_float("COPIER_FLEET_LINK_BPC", 16.0))
        self.quantum = quantum if quantum is not None else min(link_latency,
                                                               20_000)
        if self.quantum > link_latency:
            raise ValueError(
                "stepping quantum (%d) must not exceed the link latency "
                "(%d): cross-node deliveries could land in a receiver's "
                "past and break determinism" % (self.quantum, link_latency))
        self.lfd_period = (lfd_period_cycles if lfd_period_cycles is not None
                           else _env_int("COPIER_FLEET_LFD_PERIOD", 100_000))
        self.gfd_timeout = (gfd_timeout_cycles
                            if gfd_timeout_cycles is not None
                            else _env_int("COPIER_FLEET_GFD_TIMEOUT", 400_000))
        self.reply_timeout = reply_timeout_cycles
        self.max_attempts = max_attempts
        self.ckpt_period = (ckpt_period if ckpt_period is not None
                            else _env_int("COPIER_CKPT_PERIOD", 256))
        # Seeded retry jitter: deterministic per fleet instance, but
        # concurrent ops draw different offsets so colliding retries
        # desynchronize instead of hammering in lock-step.
        self._backoff_rng = random.Random(
            repr(("fleet-backoff", backoff_jitter_seed)))

        system_kwargs = dict(system_kwargs or {})
        self.nodes = [FleetNode(i, lambda: System(**system_kwargs),
                                store_kwargs=store_kwargs)
                      for i in range(n_nodes)]
        if link_fault_plan is None:
            link_fault_plan = LinkFaultPlan.from_env()
        self.link_fault_plan = link_fault_plan
        self.interconnect = Interconnect(latency_cycles=link_latency,
                                         bytes_per_cycle=link_bpc,
                                         fault_plan=link_fault_plan)
        for node in self.nodes:
            self.interconnect.attach(node.node_id, node.env)
        self.ring = HashRing(range(n_nodes), vnodes=vnodes)

        # A lossy wire needs the reliable exactly-once transport; a
        # lossless one must stay byte-identical to the raw datagram
        # path, so reliability arms with (and only with) the plan.
        reliable = link_fault_plan is not None
        self.channels = []
        for src in self.nodes:
            for dst in self.nodes:
                if src is dst:
                    continue
                channel = Channel(self.interconnect, src, dst,
                                  reliable=reliable)
                self.channels.append(channel)
                src.wire_peer(dst.node_id, out_channel=channel)
                dst.wire_peer(src.node_id, in_channel=channel)
                dst.spawn(self._channel_loop(dst, src.node_id, channel),
                          name="n%s-rx-%s" % (dst.node_id, src.node_id))

        self.detectors = detectors and n_nodes > 1
        self.gfd = None
        self.lfds = []
        if self.detectors:
            self.gfd = GlobalFaultDetector(self.ring, self.gfd_timeout,
                                           on_death=self._on_death)
            for node in self.nodes:
                lfd = LocalFaultDetector(node, self.interconnect, self.gfd,
                                         self.lfd_period, link_latency)
                self.lfds.append(lfd)
                node.spawn(lfd.loop(), name="n%s-lfd" % node.node_id)

        self.stepper = FleetStepper(self, self.quantum)
        self.promotions = []   # (view_id, dead node) in declaration order
        self.restarts = []     # (view_id, node id) in rejoin order
        self._resync_procs = []
        self.kills = []        # node ids killed through kill_node
        self.ops_submitted = 0
        self.ops_acked = 0
        self.ops_failed = 0
        self.read_repairs = 0
        self._op_seq = 0
        # Commit versioning: one fleet-wide sequencer orders every
        # committed write; commit_versions is the control-plane digest
        # table of the newest committed version per key (shared state,
        # like the ring — see the module docstring on split-brain).
        # _wire_versions models the per-message version header: same
        # op-id on both ends, zero modeled wire bytes.
        self.commit_versions = {}
        self._version_seq = 0
        self._wire_versions = {}

    # ------------------------------------------------------------ topology

    @property
    def live_nodes(self):
        return [node for node in self.nodes if node.alive]

    def node(self, node_id):
        return self.nodes[node_id]

    def kill_node(self, node_id):
        """Node-level fault: the machine drops off the interconnect.

        Detection stays organic — the GFD only learns through missed
        heartbeats, so promotion happens a detection-timeout later.
        """
        node = self.nodes[node_id]
        if not node.alive:
            return
        node.kill()
        self.kills.append(node_id)

    def _on_death(self, node_id, view_id):
        self.promotions.append((view_id, node_id))
        for node in self.nodes:
            if node.alive:
                proc = node.spawn(self._resync(node),
                                  name="n%s-resync-v%d" % (node.node_id,
                                                           view_id))
                self._resync_procs.append(proc)

    @property
    def resyncs_active(self):
        """True while any post-promotion re-replication is still running.

        The chaos controller consults this to keep the storm within the
        replication factor: a second owner must not disappear before
        the previous membership change finished re-propagating."""
        self._resync_procs = [p for p in self._resync_procs if p.is_alive]
        return bool(self._resync_procs)

    @property
    def recovering_nodes(self):
        """Node ids restarted but not yet fully resynced."""
        return [node.node_id for node in self.nodes if node.recovering]

    def restart_node(self, node_id, from_checkpoint=True, peer_assist=False):
        """Bring a killed node back from its last durable state.

        The machine-local half (:meth:`FleetNode.restart`) boots a fresh
        ``System`` and replays the node's disk checkpoint + WAL tail;
        this method does the fleet half of the rejoin protocol:

        1. fast-forward the fresh clock to the stepper horizon (stepped,
           never assigned — boot events replay beneath it);
        2. re-home the rx sockets (:meth:`Channel.reopen`) and respawn
           the per-peer receive loops and the LFD on the new machine;
        3. rejoin the membership view — ``declare_alive`` restores the
           ring entry and bumps ``view_id`` if the node had been
           declared dead, and resets its heartbeat clock either way;
        4. optionally fetch a peer's checkpoint over the data plane
           (``peer_assist`` — the disk-loss path; the blob ships in
           ``MSG_CKPT`` chunks through the same NIC discipline as every
           other message);
        5. start the checkpoint-aware delta resync: peers push any key
           the rejoined node owns whose version is newer than what its
           checkpoint announced, and every node re-runs the ordinary
           primary→backup resync for the remapped shards.  Stale pushes
           from the rejoined node itself are version-discarded at apply.

        The node serves immediately but stays ``recovering`` until the
        resync fleet drains; recovering primaries answer reads through
        the backup-consult path whenever their local version lags the
        commit table, so a stale pre-crash value is never returned for
        a key that took writes while the node was down.
        """
        node = self.nodes[node_id]
        if node.alive:
            return
        node.restart(from_checkpoint=from_checkpoint)
        if self.stepper.horizon > node.env.now:
            node.env.step(max_cycles=self.stepper.horizon - node.env.now)
        self.interconnect.attach(node_id, node.env)
        for peer_id, channel in node.channels_in.items():
            channel.reopen()
            node.spawn(self._channel_loop(node, peer_id, channel),
                       name="n%s-rx-%s" % (node_id, peer_id))
        if self.link_fault_plan is not None:
            # Reliable channels whose *source* is the rebooted machine
            # lost their retransmit timers with the old env — re-arm
            # them so in-flight frames from before the crash still land.
            for channel in node.channels_out.values():
                channel.resume_tx()
        view = -1
        if self.gfd is not None:
            view = self.gfd.declare_alive(node_id, self.stepper.horizon)
            lfd = LocalFaultDetector(node, self.interconnect, self.gfd,
                                     self.lfd_period,
                                     self.interconnect.latency_cycles)
            for i, old in enumerate(self.lfds):
                if old.node is node:
                    self.lfds[i] = lfd
                    break
            node.spawn(lfd.loop(), name="n%s-lfd" % node_id)
        self.restarts.append((view, node_id))
        node.recovering = True
        started_at = node.env.now
        announced = dict(node.versions)
        procs = []
        if peer_assist:
            # A recovering peer may itself be mid-fetch with an empty
            # store — never elect one as donor.
            donors = sorted(n.node_id for n in self.live_nodes
                            if n is not node and not n.recovering)
            if donors:
                procs.append(node.spawn(
                    self._fetch_peer_checkpoint(node, donors[0]),
                    name="n%s-ckptfetch" % node_id))
        for peer in self.nodes:
            if not peer.alive:
                continue
            if peer is not node:
                procs.append(peer.spawn(
                    self._rejoin_resync(peer, node, announced),
                    name="n%s-rejoinsync-%s" % (peer.node_id, node_id)))
            procs.append(peer.spawn(
                self._resync(peer),
                name="n%s-resync-r%s" % (peer.node_id, node_id)))
        self._resync_procs.extend(procs)
        node.spawn(self._recovery_watch(node, procs, started_at),
                   name="n%s-recovery" % node_id)
        return node

    def _recovery_watch(self, node, procs, started_at):
        while any(p.is_alive for p in procs):
            yield Timeout(50_000)
        node.recovering = False
        node.counters["recoveries"] += 1
        node.counters["recovery_cycles"] = node.env.now - started_at

    def _rejoin_resync(self, node, target, announced):
        """Checkpoint-aware delta push to a freshly rejoined node.

        ``announced`` is the version map the target recovered from its
        own disk — anything it already has at that version is skipped
        (the delta), anything ``node`` holds newer is pushed, whether
        ``node`` is an owner or the orphaned interim primary whose
        shard just moved back.  Apply-side version checks discard any
        push that loses the race to a fresher one.
        """
        pushed = 0
        for key in sorted(node.store.db):
            attempt = 0
            while target.alive:
                owners = self.ring.owners(key)
                if target.node_id not in owners:
                    break
                version = node.versions.get(key, 0)
                if version <= announced.get(key, 0):
                    break
                ok = yield from self._replicate(node, target.node_id, key,
                                                node.store.value_bytes(key),
                                                version)
                if ok:
                    pushed += 1
                    break
                attempt += 1
                node.counters["rejoin_retries"] += 1
                yield Timeout(100_000)
        node.counters["rejoin_pushed"] += pushed

    def _fetch_peer_checkpoint(self, node, donor_id):
        """Disk-loss recovery: pull a whole-store checkpoint off a peer.

        The donor snapshots its store into a :mod:`repro.ckpt.format`
        envelope on the first chunk request and serves it in
        ``CKPT_CHUNK`` slices; every chunk rides the ordinary channel
        send/recv path, paying trap, skb, copy and wire costs like any
        data message.  A damaged blob is refused typed, never half
        applied.
        """
        parts = []
        offset = 0
        attempt = 0
        while True:
            reply = yield from self._request(node, donor_id, MSG_CKPT,
                                             offset.to_bytes(8, "little"),
                                             b"")
            if reply is None or reply[0] != ACK_OK:
                attempt += 1
                if (attempt > self.max_attempts
                        or not self.nodes[donor_id].alive):
                    node.counters["ckpt_fetch_failed"] += 1
                    return
                yield from self._backoff(attempt)
                parts = []
                offset = 0
                continue
            chunk = reply[1]
            parts.append(chunk)
            offset += len(chunk)
            if len(chunk) < CKPT_CHUNK:
                break
        blob = b"".join(parts)
        try:
            payload = ckpt_format.load_bytes(blob)
        except CheckpointError:
            node.counters["ckpt_fetch_corrupt"] += 1
            return
        applied = 0
        for key, (version, value) in sorted(payload["db"].items()):
            if version and version <= node.versions.get(key, 0):
                continue
            yield from self._commit(node, key, value, version)
            applied += 1
        node.counters["ckpt_fetch_keys"] = applied
        node.counters["ckpt_fetch_bytes"] = len(blob)

    # ----------------------------------------------------------- client API

    def submit(self, kind, key, value=None, gateway=None):
        size = _MSG_FRAMING + len(key) + len(value or b"")
        if self.link_fault_plan is not None:
            size += _VERSION_BYTES
        if size > MAX_MSG:
            raise MessageTooLarge(
                "%s of a %d-byte key and %d-byte value encodes to %d bytes,"
                " over the %d-byte message limit"
                % (kind, len(key), len(value or b""), size, MAX_MSG))
        if gateway is None:
            live = self.live_nodes
            if not live:
                raise FleetUnavailable("no live nodes")
            gateway = live[0].node_id
        node = self.nodes[gateway]
        if not node.alive:
            raise FleetUnavailable("gateway %r is dead" % (gateway,))
        op = FleetOp(kind, key, value, gateway)
        self.ops_submitted += 1
        node.spawn(self._gateway(op), name="n%s-op-%d" % (gateway,
                                                          self._next_op_id()))
        return op

    def set(self, key, value, gateway=None):
        return self.submit("set", key, value=value, gateway=gateway)

    def get(self, key, gateway=None):
        return self.submit("get", key, gateway=gateway)

    def run_ops(self, ops, max_rounds=200_000):
        """Step the fleet until every op in ``ops`` settles."""
        ops = list(ops)
        self.stepper.run_until(lambda: all(op.done for op in ops),
                               max_rounds=max_rounds)
        return ops

    # ------------------------------------------------------------- op flow

    def _next_op_id(self):
        self._op_seq += 1
        return self._op_seq

    def _next_version(self):
        self._version_seq += 1
        return self._version_seq

    def _commit(self, node, key, value, version):
        """Apply one versioned write on ``node``: store, version map,
        commit table, and the node's durable WAL (generator)."""
        yield from node.store.set_op(key, value)
        if version:
            node.versions[key] = version
            if version > self.commit_versions.get(key, 0):
                self.commit_versions[key] = version
        node.disk.log(version or 0, key, value)

    def _finish(self, op, node, result, acked=False):
        op.result = result
        op.acked = acked
        op.t_end = node.env.now
        if acked:
            self.ops_acked += 1
        op._settle()

    def _fail(self, op, node, exc):
        op.error = exc
        op.t_end = node.env.now
        self.ops_failed += 1
        op._settle()

    def _backoff(self, attempt):
        # Linear base plus a bounded seeded jitter (under one stepping
        # quantum): two ops that failed in the same round otherwise
        # retry in lock-step forever, re-colliding on every attempt.
        base = min(25_000 * attempt, 150_000)
        yield Timeout(base + self._backoff_rng.randrange(self.quantum))

    def _gateway(self, op):
        node = self.nodes[op.gateway_id]
        op.t_start = node.env.now
        if op.kind == "set" and self.link_fault_plan is not None:
            # With the reliable transport armed, a forwarded SET can be
            # delivered arbitrarily late (retransmits outlive the RPC
            # timeout).  Its commit version is therefore allocated once
            # per *op* and shipped in the message, so a zombie delivery
            # of an already-superseded attempt is version-discarded at
            # the owner instead of stamped newest-ever.
            op.version = self._next_version()
        try:
            while op.attempts < self.max_attempts:
                op.attempts += 1
                owners = self.ring.owners(op.key)
                if not owners:
                    raise FleetUnavailable("ring is empty")
                if owners[0] == node.node_id:
                    try:
                        if op.kind == "set":
                            yield from self._serve_set(node, op.key, op.value,
                                                       version=op.version)
                            self._finish(op, node, True, acked=True)
                        else:
                            value = yield from self._serve_get(node, op.key)
                            self._finish(op, node, value)
                        return
                    except (NotOwner, FleetTimeout):
                        node.counters["local_retries"] += 1
                        yield from self._backoff(op.attempts)
                        continue
                if op.kind == "set":
                    wire_value = (op.value if op.version is None
                                  else _pack_version(op.version) + op.value)
                else:
                    wire_value = b""
                reply = yield from self._request(
                    node, owners[0],
                    MSG_SET if op.kind == "set" else MSG_GET,
                    op.key, wire_value)
                if reply is None:
                    node.counters["fwd_timeouts"] += 1
                    yield from self._backoff(op.attempts)
                    continue
                mtype, payload, _version = reply
                if mtype == ACK_OK:
                    if op.kind == "set":
                        self._finish(op, node, True, acked=True)
                    else:
                        self._finish(op, node, payload)
                    return
                if mtype == ACK_MISS:
                    self._finish(op, node, None)
                    return
                node.counters["fwd_errors"] += 1
                yield from self._backoff(op.attempts)
            self._fail(op, node, FleetUnavailable(
                "%s %r gave up after %d attempts" % (op.kind, op.key,
                                                     op.attempts)))
        except (FleetError,) + _COPY_ERRORS as exc:
            self._fail(op, node, exc)

    # -------------------------------------------------------- server paths

    def _serve_set(self, node, key, value, version=None):
        """Commit + synchronously replicate to every other current owner.

        The owner set is re-read after replication: if a membership
        change landed mid-op the loop replicates against the new view
        before acknowledging, so an acked value always lives on the
        owners a subsequent GET will be routed to.

        ``version`` is the op-scoped commit version under the reliable
        transport (allocated once at the gateway); a serve whose version
        the key has already moved past is a zombie — a late redelivery
        of an attempt the writer superseded long ago — and is discarded
        as a success, like any other stale-version apply.
        """
        for _attempt in range(3):
            owners = self.ring.owners(key)
            if not owners or owners[0] != node.node_id:
                raise NotOwner("node %s is not primary for %r"
                               % (node.node_id, key))
            if version is not None and node.versions.get(key, 0) > version:
                node.counters["set_stale_discarded"] += 1
                return
            commit_version = (version if version is not None
                              else self._next_version())
            yield from self._commit(node, key, value, commit_version)
            node.counters["serve_sets"] += 1
            for target in owners[1:]:
                ok = yield from self._replicate(node, target, key, value,
                                                commit_version)
                if not ok:
                    raise FleetTimeout("replica ack from %s for %r"
                                       % (target, key))
            if self.ring.owners(key) == owners:
                return
            node.counters["view_races"] += 1
        raise FleetTimeout("owner view kept changing for %r" % (key,))

    def _get_checked(self, node, key):
        """Local read, downgrading an integrity abort to a miss.

        A read whose copy path detects corruption (a poisoned frame
        under the store buffer, surfacing as :class:`CopyAborted` at
        csync) must not fail the GET outright: the caller treats the
        miss like any untrusted local copy and falls back to the
        backup via ``MSG_GET_ANY`` read-repair.
        """
        try:
            value = yield from node.store.get_op(key)
        except CopyAborted:
            node.counters["get_integrity_fallbacks"] += 1
            return None
        return value

    def _serve_get(self, node, key):
        owners = self.ring.owners(key)
        if not owners or owners[0] != node.node_id:
            raise NotOwner("node %s is not primary for %r"
                           % (node.node_id, key))
        value = yield from self._get_checked(node, key)
        read_version = node.versions.get(key, 0)
        node.counters["serve_gets"] += 1
        # Consult the backup when the local copy cannot be trusted:
        # a freshly promoted primary racing resync (miss), or a
        # recovering restarted primary whose checkpointed version lags
        # the commit table (stale — returning it would un-acknowledge a
        # write that landed while this node was down).
        stale = (node.recovering
                 and read_version < self.commit_versions.get(key, 0))
        if (value is None or stale) and len(owners) > 1:
            reply = yield from self._request(node, owners[1], MSG_GET_ANY,
                                             key, b"")
            if reply is not None and reply[0] == ACK_OK:
                version = reply[2]
                if value is None or (version or 0) > node.versions.get(key, 0):
                    value = reply[1]
                    self.read_repairs += 1
                    yield from self._commit(node, key, value, version or 0)
                    return value
            if node.versions.get(key, 0) > read_version:
                # A fresher commit (a rejoin push landing mid-consult)
                # raced us: the pre-consult bytes are stale, re-read.
                value = yield from self._get_checked(node, key)
        return value

    def _replicate(self, node, target, key, value, version=None):
        if not self.nodes[target].alive:
            # Known-dead peer (the membership view just hasn't caught
            # up): the ack can never come, so don't burn a timeout.
            return False
        node.counters["repl_sent"] += 1
        if self.link_fault_plan is not None:
            # In-payload version header: survives RPC expiry, so even a
            # zombie redelivery is version-checked at apply (the
            # side-channel header would have been swept by then).
            reply = yield from self._request(
                node, target, MSG_REPL, key,
                _pack_version(version or 0) + value)
        else:
            reply = yield from self._request(node, target, MSG_REPL, key,
                                             value, version=version)
        return reply is not None and reply[0] == ACK_OK

    # -------------------------------------------------------- wire plumbing

    def _send_msg(self, node, dst_id, mtype, op_id, key, value=b""):
        message = encode_msg(mtype, op_id, key, value)
        lock = node.tx_locks[dst_id]
        channel = node.channels_out[dst_id]
        yield from lock.acquire()
        try:
            node.store.proc.write(node.tx_bufs[dst_id], message)
            try:
                ok = yield from channel.send(node.store.proc,
                                             node.tx_bufs[dst_id],
                                             len(message))
            except CopyAborted:
                # Poisoned frame while marshalling into the kernel buffer:
                # nothing trustworthy reached the wire, so report the send
                # like a link drop — the RPC timeout/retry re-drives it.
                node.counters["tx_poisoned"] += 1
                ok = False
        finally:
            lock.release()
        node.counters["msgs_out"] += 1
        return ok

    def _request(self, node, dst_id, mtype, key, value, version=None):
        """Send a request and wait for its ack.

        Returns ``None`` on timeout, else ``(mtype, payload, version)``
        where ``version`` is the commit version the replier attached (or
        ``None``).  ``version=`` attaches a commit version to the
        *outgoing* request — the modeled per-message header that REPL
        carries (see ``_wire_versions``); the expiry timer sweeps the
        entry if the message never lands.
        """
        op_id = self._next_op_id()
        if version is not None:
            self._wire_versions[op_id] = version
        event = node.env.event()
        node.pending_replies[op_id] = event

        def expire():
            self._wire_versions.pop(op_id, None)
            pending = node.pending_replies.pop(op_id, None)
            if pending is not None and not pending.triggered:
                pending.succeed(None)

        node.env.schedule(self.reply_timeout, expire)
        ok = yield from self._send_msg(node, dst_id, mtype, op_id, key, value)
        if not ok:
            # Dropped at the link: the expiry timer still owns the event.
            node.counters["msgs_dropped"] += 1
        reply = yield WaitEvent(event)
        if reply is None:
            return None
        return reply + (self._wire_versions.pop(op_id, None),)

    def _channel_loop(self, node, src_id, channel):
        proc = node.store.proc
        rx_va = node.rx_bufs[src_id]
        while True:
            try:
                got = yield from channel.recv(proc, rx_va, MAX_MSG)
            except CopyAborted:
                # The copy landing the message in the rx buffer hit a
                # poisoned frame: the message is untrustworthy, so it is
                # treated exactly like a frame the wire lost — dropped
                # here, re-driven by the requester's RPC timeout/retry.
                node.counters["rx_poisoned"] += 1
                continue
            node.counters["msgs_in"] += 1
            mtype, op_id, key, value = decode_msg(bytes(proc.read(rx_va,
                                                                  got)))
            if mtype in _ACKS:
                event = node.pending_replies.pop(op_id, None)
                if event is not None and not event.triggered:
                    event.succeed((mtype, value))
                else:
                    # Stale ack (request already expired): drop any
                    # version header the replier attached for it.
                    self._wire_versions.pop(op_id, None)
            elif mtype == MSG_REPL:
                node.spawn(self._handle_repl(node, src_id, op_id, key, value),
                           name="n%s-repl-%d" % (node.node_id, op_id))
            else:
                node.spawn(self._handle_fwd(node, src_id, mtype, op_id, key,
                                            value),
                           name="n%s-fwd-%d" % (node.node_id, op_id))

    def _reply(self, node, dst_id, op_id, mtype, key, value=b""):
        yield from self._send_msg(node, dst_id, mtype, op_id, key, value)

    def _handle_fwd(self, node, src_id, mtype, op_id, key, value):
        try:
            if mtype == MSG_SET:
                version = None
                if self.link_fault_plan is not None:
                    version, value = _unpack_version(value)
                yield from self._serve_set(node, key, value, version=version)
                reply = (ACK_OK, b"")
            elif mtype == MSG_GET:
                got = yield from self._serve_get(node, key)
                reply = (ACK_OK, got) if got is not None else (ACK_MISS, b"")
            elif mtype == MSG_GET_ANY:
                got = yield from self._get_checked(node, key)
                if got is not None:
                    # Attach the local commit version so the consulting
                    # primary can judge freshness against its own copy.
                    self._wire_versions[op_id] = node.versions.get(key, 0)
                    reply = (ACK_OK, got)
                else:
                    reply = (ACK_MISS, b"")
            elif mtype == MSG_CKPT:
                reply = (ACK_OK, self._ckpt_chunk(node, src_id, key))
            else:
                reply = (ACK_ERR, b"badmsg")
        except NotOwner:
            reply = (ACK_ERR, b"notowner")
        except (FleetError,) + _COPY_ERRORS:
            reply = (ACK_ERR, b"error")
        yield from self._reply(node, src_id, op_id, reply[0], key, reply[1])

    def _ckpt_chunk(self, node, src_id, key):
        """Serve one checkpoint-shipping chunk (key = offset, LE64).

        Offset 0 snapshots the whole store into a fresh envelope cached
        per requester, so a multi-chunk transfer reads one consistent
        image even while the donor keeps committing.
        """
        offset = int.from_bytes(key[:8], "little")
        if offset == 0:
            db = {k: (node.versions.get(k, 0), node.store.value_bytes(k))
                  for k in sorted(node.store.db)}
            node.ckpt_ship[src_id] = ckpt_format.dump_bytes(
                {"node": node.node_id, "lsn": node.disk.lsn, "db": db})
            node.counters["ckpt_shipped"] += 1
        blob = node.ckpt_ship.get(src_id, b"")
        chunk = blob[offset:offset + CKPT_CHUNK]
        if offset + len(chunk) >= len(blob):
            node.ckpt_ship.pop(src_id, None)
        return chunk

    def _handle_repl(self, node, src_id, op_id, key, value):
        if self.link_fault_plan is not None:
            version, value = _unpack_version(value)
            version = version or None  # 0 marks an unversioned push
        else:
            version = self._wire_versions.pop(op_id, None)
        if version is not None and version < node.versions.get(key, 0):
            # Stale push (a rejoined node re-offering pre-crash data
            # that a newer commit superseded): the wire cost is already
            # paid — discard the apply, ack so the pusher moves on.
            node.counters["repl_stale_discarded"] += 1
            yield from self._reply(node, src_id, op_id, ACK_OK, key)
            return
        try:
            yield from self._commit(node, key, value, version or 0)
        except (FleetError,) + _COPY_ERRORS:
            yield from self._reply(node, src_id, op_id, ACK_ERR, key,
                                   b"error")
            return
        node.counters["repl_applied"] += 1
        yield from self._reply(node, src_id, op_id, ACK_OK, key)

    def _resync(self, node):
        """After a membership change, push primary-owned keys to their
        (possibly new) backups.  Replica application is idempotent, so
        re-pushing keys that were already current is harmless.

        Pushes retry (with backoff) until they land, the target dies,
        or the key moves: an acked value must not sit on a single owner
        just because a transient partition swallowed its resync — the
        storm controller holds further kills while this runs.
        """
        pushed = 0
        for key in sorted(node.store.db):
            while True:
                owners = self.ring.owners(key)
                if not owners or owners[0] != node.node_id:
                    break
                value = node.store.value_bytes(key)
                version = node.versions.get(key)
                results = []
                for target in owners[1:]:
                    if not self.nodes[target].alive:
                        results.append(True)  # their death gets its own view
                        continue
                    results.append((yield from self._replicate(
                        node, target, key, value, version)))
                if all(results):
                    pushed += len(results)
                    break
                node.counters["resync_retries"] += 1
                yield Timeout(100_000)
        node.counters["resync_pushed"] += pushed

    # -------------------------------------------------------------- audits

    def leaked_pins(self):
        return sum(node.leaked_pins() for node in self.nodes)

    def shard_map(self, keys):
        return self.ring.shard_map(keys)

    def netpath_stats(self):
        """Aggregate reliable-transport counters across every channel."""
        totals = {}
        for channel in self.channels:
            for field, count in channel.transport_stats().items():
                totals[field] = totals.get(field, 0) + count
        return totals

    def snapshot(self):
        snap = {
            "nodes": [node.snapshot() for node in self.nodes],
            "interconnect": self.interconnect.snapshot(),
            "gfd": self.gfd.snapshot() if self.gfd is not None else None,
            "promotions": list(self.promotions),
            "kills": list(self.kills),
            "restarts": list(self.restarts),
            "rounds": self.stepper.rounds,
            "horizon": self.stepper.horizon,
            "ops": {"submitted": self.ops_submitted,
                    "acked": self.ops_acked,
                    "failed": self.ops_failed,
                    "read_repairs": self.read_repairs},
        }
        if self.link_fault_plan is not None:
            # Armed-only so lossless snapshots stay byte-identical to
            # the pre-reliable shape pinned by differential suites.
            snap["netpath"] = self.netpath_stats()
        return snap
