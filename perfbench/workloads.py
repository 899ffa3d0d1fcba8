"""The four benchmark workloads, each built from a seed.

A workload is a class with a ``build(seed, scale, checker)`` method that
does all set-up (machines, processes, buffers, the seeded op plan) and
returns an episode.  ``episode.run()`` is the timed closed loop; ``episode.audit()``
runs the end-of-run correctness checks; ``episode.counters()`` returns
the simulated counters the metrics are computed from.  Every episode of
one seed is the same deterministic simulation, so the benchmark can
repeat episodes to fill its measuring time and assert that their
simulated counters agree exactly.

Only public surfaces are driven: ``kernel.System``, ``apps.rediskv``,
``fleet.Fleet``, ``serve.RedisSocketServer``/``SimDriver`` and
``bench.distributions``.  No class is patched.
"""

import asyncio
import collections
import random
import time

from repro.apps.common import HEADER_LEN, encode_get, encode_set
from repro.apps.rediskv import RedisClient, RedisServer
from repro.bench.distributions import TWITTER_CACHE, SizeDistribution
from repro.fleet import Fleet
from repro.fleet.interconnect import LinkFaultPlan
from repro.fleet.netpath import MAX_MSG
from repro.kernel import System
from repro.kernel.net import recv, send, socket_pair
from repro.serve import RedisSocketServer, SimDriver, encode_hello

#: Cycle limit for any single ``run_until``: a simulator hang fails the
#: run instead of spinning forever.
SIM_LIMIT = 10 ** 12

#: Bytes of seeded random data every value and copy source is cut from.
BLOB_BYTES = 1 << 20

#: Fleet values must fit one ``netpath.MAX_MSG`` frame with its headers
#: (the same 4 KiB headroom ``fleet.CKPT_CHUNK`` keeps): a 64 KiB value
#: makes the gateway write past its tx buffer (see NOTES.md, "Known
#: defects"), so the fleet mix is the Twitter mix without its 128 KiB class.
FLEET_SIZES = SizeDistribution(
    [(size, hi - lo) for size, lo, hi in zip(TWITTER_CACHE.sizes,
                                             [0.0] + TWITTER_CACHE.cdf,
                                             TWITTER_CACHE.cdf)
     if size + 4096 <= MAX_MSG],
    name="twitter-memcached-one-frame")


def stratified_sizes(dist, n, rng, block=None):
    """``n`` sizes at the midpoints of equal CDF strata of ``dist``, in a
    seeded order.  Every seed gets the same size multiset, so the seed
    moves which op or key gets which size, not the size mix and the tail
    it sets.  With ``block``, every run of ``block`` consecutive sizes
    holds the whole mix, so large sizes cannot cluster by chance."""
    block = block or n
    sizes = []
    while len(sizes) < n:
        m = min(block, n - len(sizes))
        part = [dist.sample((i + 0.5) / m) for i in range(m)]
        rng.shuffle(part)
        sizes.extend(part)
    return sizes


def dealt_sizes(dist, owners, per_owner, rng):
    """Stratified key sizes dealt like cards: each of ``owners`` gets one
    size from every band of ``owners`` adjacent sizes, so every client
    or stream holds nearly the same mix and none carries the whole tail.
    Returns one list of ``per_owner`` sizes per owner, in seeded order."""
    sizes = sorted(stratified_sizes(dist, owners * per_owner, rng))
    hands = [[] for _ in range(owners)]
    for band in range(per_owner):
        dealt = sizes[band * owners:(band + 1) * owners]
        rng.shuffle(dealt)
        for hand, size in zip(hands, dealt):
            hand.append(size)
    for hand in hands:
        rng.shuffle(hand)
    return hands


def balanced_flags(n, share, rng):
    """``n`` booleans, ``round(n * share)`` of them true, in seeded order."""
    flags = [i < round(n * share) for i in range(n)]
    rng.shuffle(flags)
    return flags


def key_value_plan(keys, n_ops, rng):
    """A closed-loop stream's ops over its private ``keys``.

    Each key is written once up front, so no read misses; then keys are
    visited in seeded rounds (every key once per round) and exactly half
    of those visits are writes.  Returns ``(is_set, key, size)`` tuples.
    """
    plan = [(True, key, n) for key, n in keys]
    rest = n_ops - len(plan)
    writes = balanced_flags(rest, 0.5, rng)
    order = []
    while len(order) < rest:
        visit = list(keys)
        rng.shuffle(visit)
        order.extend(visit)
    for is_set, (key, n) in zip(writes, order):
        plan.append((is_set, key, n))
    return plan


class Checker:
    """Compares read-backs with the values written.

    ``corrupt=True`` flips one bit of the first value read back, before
    it is compared: the self-test uses it to show a wrong read fails the
    run.
    """

    def __init__(self, corrupt=False):
        self.corrupt = corrupt

    def mismatch(self, got, expected, what):
        """None when ``got`` equals ``expected`` byte for byte, else a
        description of the difference."""
        got = bytes(got)
        if self.corrupt and got:
            self.corrupt = False
            got = bytes([got[0] ^ 1]) + got[1:]
        if got == expected:
            return None
        return "%s: read %d bytes, expected %d%s" % (
            what, len(got), len(expected),
            "" if len(got) != len(expected) else " (content differs)")


#: Host-time marks per episode: the timed loop is cut into this many
#: chunks of equal op counts (see ``measure.host_seconds``).
CHUNKS = 100


class Episode:
    """State common to every episode: ops, latencies, failures, systems."""

    def __init__(self, checker, n_ops):
        self.checker = checker
        self.systems = []       # every System the episode ran, dead or alive
        self.latencies = []     # simulated cycles per completed op
        self.chunk_ops = max(1, n_ops // CHUNKS)
        self.host_marks = []    # host clock after every chunk_ops-th op
        self.attempted = 0
        self.failed = 0
        self.failures = []      # human-readable reasons, for the report
        self.makespan = 0
        self.on_new_env = None  # traced runs hook machines booted mid-run

    def completed(self, latency):
        """Record one completed op and its simulated latency."""
        self.latencies.append(latency)
        if len(self.latencies) % self.chunk_ops == 0:
            self.host_marks.append(time.perf_counter())

    def fail(self, reason):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def verify(self, got, expected, what):
        problem = self.checker.mismatch(got, expected, what)
        if problem is not None:
            self.fail("read-back mismatch: " + problem)
        return problem is None

    def audit_system(self, system, label, settle=True):
        """Post-run machine invariants: the copier drains without
        force-reaping anything, and then no page pin is left.

        The drain comes first: a copy whose bytes a ``csync`` already
        saw may still hold its pins until the service retires it.  With
        ``settle``, the machine first runs for one lazy period, so a Lazy
        Task the last request left behind reaches its deadline and
        executes: ``shutdown()`` alone force-reaps such a task (NOTES.md,
        "Known defects").
        """
        if settle:
            system.env.step(max_cycles=system.copier.lazy_period_cycles)
        try:
            report = system.copier.shutdown()
        except RuntimeError as exc:   # shutdown's own leaked-pin check
            self.failures.append("%s: %s" % (label, exc))
            return False
        if not report["drained"]:
            self.failures.append("%s copier shutdown force-reaped %d tasks"
                                 % (label, report["force_reaped"]))
            return False
        leaked = system.leaked_pins()
        if leaked:
            self.failures.append("%s leaked %d pins" % (label, leaked))
            return False
        return True

    # ------------------------------------------------------------ counters

    def extra_counters(self):
        """Workload-specific simulated counters (fleet, serve)."""
        return {}

    def counters(self):
        """Simulated totals of the episode (deterministic per seed)."""
        events = 0
        tags = collections.Counter()
        sync_tasks = copied = absorbed = hits = misses = 0
        to_dma = to_avx = dma_busy = 0
        for system in self.systems:
            env = system.env
            events += env.events_executed
            for per_tag in env.stats.cycles.values():
                tags.update(per_tag)
            copier = system.copier
            for client in copier.clients:
                sync_tasks += client.stats.sync_tasks
                copied += client.stats.bytes_copied
                absorbed += client.stats.bytes_absorbed
            hits += copier.atcache.hits
            misses += copier.atcache.misses
            to_dma += copier.dispatcher.bytes_to_dma
            to_avx += copier.dispatcher.bytes_to_avx
            if copier.dma is not None:
                dma_busy += copier.dma.busy_cycles
        out = {
            "ops": len(self.latencies),
            "attempted": self.attempted,
            "failed": self.failed,
            "makespan": self.makespan,
            "events": events,
            "latencies": self.latencies,
            "tag_cycles": dict(sorted(tags.items())),
            "sync_tasks": sync_tasks,
            "bytes_copied": copied,
            "bytes_absorbed": absorbed,
            "atcache_hits": hits,
            "atcache_misses": misses,
            "bytes_to_dma": to_dma,
            "bytes_to_avx": to_avx,
            "dma_busy_cycles": dma_busy,
        }
        out.update(self.extra_counters())
        return out


# --------------------------------------------------------------- copy_window

class CopyWindowEpisode(Episode):
    def __init__(self, checker, system, proc, blob, plan, depth):
        super().__init__(checker, len(plan))
        self.systems = [system]
        self.system = system
        self.proc = proc
        self.blob = blob
        self.plan = plan
        self.depth = depth

    def run(self):
        env, proc, blob = self.system.env, self.proc, self.blob
        client = proc.client
        window = collections.deque()

        def sync_oldest():
            t0, dst, n, off = window.popleft()
            yield from client.csync(dst, n)
            self.completed(env.now - t0)
            self.verify(proc.read(dst, n), blob[off:off + n],
                        "copy of %d bytes" % n)

        def loop():
            for src, dst, n, off in self.plan:
                if len(window) >= self.depth:
                    yield from sync_oldest()
                t0 = env.now
                self.attempted += 1
                yield from client.amemcpy(dst, src, n)
                window.append((t0, dst, n, off))
            while window:
                yield from sync_oldest()

        start = env.now
        sim_proc = proc.spawn(loop(), affinity=0)
        env.run_until(sim_proc.terminated, limit=SIM_LIMIT)
        if sim_proc.is_alive:
            raise RuntimeError("copy_window did not finish within %d cycles"
                               % SIM_LIMIT)
        self.makespan = env.now - start

    def audit(self):
        return self.audit_system(self.system, "copy_window")


class CopyWindow:
    """One process, a deep window of in-flight ``amemcpy``s.

    Sources come from a pre-populated read-only pool or, for about a
    third of the copies, from the destination of a copy still in flight
    (a chained copy: Copier must order it after its producer).  A
    destination slot is reused only once neither an in-flight copy nor
    a chained reader refers to it, so every read-back has one exact
    expected value.
    """

    name = "copy_window"
    SLOT = 128 * 1024
    SIZES = {"full": (6000, 64), "tiny": (120, 16)}   # (copies, depth)
    #: Every 67 consecutive copies hold the whole size mix: the smallest
    #: block whose strata keep the 128 KiB class (1.5 % of the mix).
    BLOCK = 67

    def build(self, seed, scale, checker):
        n_ops, depth = self.SIZES[scale]
        rng = random.Random(repr(("copy_window", seed)))
        system = System(n_cores=4, copier=True, phys_frames=65536)
        proc = system.create_process("copy-window")
        blob = rng.randbytes(BLOB_BYTES)
        src_base = proc.mmap(BLOB_BYTES, populate=True, name="cw-src")
        proc.write(src_base, blob)
        n_slots = 2 * depth
        dst_base = proc.mmap(n_slots * self.SLOT, populate=True,
                             name="cw-dst")
        free = list(range(n_slots))
        refs = [0] * n_slots
        window = collections.deque()   # plan indices in flight
        plan, held = [], []
        sizes = stratified_sizes(TWITTER_CACHE, n_ops, rng, self.BLOCK)
        chained = balanced_flags(n_ops, 1 / 3, rng)
        for i, n in enumerate(sizes):
            if len(window) >= depth:
                for slot in held[window.popleft()]:
                    refs[slot] -= 1
                    if refs[slot] == 0:
                        free.append(slot)
            slot = free.pop(0)
            # A chained copy reads a prefix of the newest in-flight
            # destination that is at least as large, so chaining never
            # changes the copy's size.
            parent = None
            if chained[i]:
                parent = next((j for j in reversed(window)
                               if plan[j][2] >= n), None)
            if parent is not None:
                _src, src, _n, off = plan[parent]   # its destination
                slots = (slot, held[parent][0])
            else:
                off = rng.randrange(BLOB_BYTES - n + 1)
                src = src_base + off
                slots = (slot,)
            for s in slots:
                refs[s] += 1
            plan.append((src, dst_base + slot * self.SLOT, n, off))
            held.append(slots)
            window.append(i)
        return CopyWindowEpisode(checker, system, proc, blob, plan, depth)


# ------------------------------------------------------------------ redis_kv

class RedisEpisode(Episode):
    def __init__(self, checker, system, server, clients, server_sock,
                 reply_socks, plans, blob):
        super().__init__(checker, sum(len(plan) for plan in plans))
        self.systems = [system]
        self.system = system
        self.server = server
        self.clients = clients
        self.server_sock = server_sock
        self.reply_socks = reply_socks
        self.plans = plans
        self.blob = blob

    def _client_loop(self, client, plan):
        system, proc, env = self.system, client.proc, self.system.env
        blob, cid = self.blob, client.client_id
        for op, key, n, off in plan:
            request = bytearray(encode_set(key, n) if op == "SET"
                                else encode_get(key))
            request[4] = cid   # the reply socket the server answers on
            if op == "SET":
                request += blob[off:off + n]
            proc.write(client.tx, bytes(request))
            self.attempted += 1
            t0 = env.now
            yield from send(system, proc, client.server_sock, client.tx,
                            len(request))
            got = yield from recv(system, proc, client.reply_sock,
                                  client.rx, 1 << 20)
            self.completed(env.now - t0)
            reply = proc.read(client.rx, got)
            if op == "SET":
                if reply[:3] != b"+OK":
                    self.fail("client %d SET %r: reply %r" % (cid, key,
                                                              reply[:3]))
                continue
            status = reply[:3]
            length = int.from_bytes(reply[HEADER_LEN - 8:HEADER_LEN],
                                    "little")
            if status != b"+OK" or length != n:
                self.fail("client %d GET %r: reply %r len %d" % (
                    cid, key, status, length))
                continue
            self.verify(reply[HEADER_LEN:HEADER_LEN + n], blob[off:off + n],
                        "client %d GET %r" % (cid, key))

    def run(self):
        env = self.system.env
        start = env.now
        total = sum(len(plan) for plan in self.plans)
        server_proc = self.server.proc.spawn(
            self.server.serve(self.server_sock, self.reply_socks, total),
            affinity=0)
        procs = []
        for i, (client, plan) in enumerate(zip(self.clients, self.plans)):
            procs.append(client.proc.spawn(self._client_loop(client, plan),
                                           affinity=1 + i % 2))
        for p in procs + [server_proc]:
            env.run_until(p.terminated, limit=SIM_LIMIT)
            if p.is_alive:
                raise RuntimeError("redis_kv did not finish within %d cycles"
                                   % SIM_LIMIT)
        self.makespan = env.now - start

    def audit(self):
        return self.audit_system(self.system, "redis_kv")


class RedisKV:
    """The paper's redis-benchmark setup: one copier-mode ``RedisServer``,
    8 closed-loop clients with private keys and a seeded SET/GET mix.

    Every key keeps one value size for the whole run (sizes follow the
    Twitter mix across keys), so the server's same-size slot reuse
    applies and its bump arena never wraps over a live value.
    """

    name = "redis_kv"
    N_CLIENTS = 8

    SIZES = {"full": (16, 160), "tiny": (3, 10)}   # (keys, ops) per client

    def build(self, seed, scale, checker):
        keys_per_client, ops_per_client = self.SIZES[scale]
        rng = random.Random(repr(("redis_kv", seed)))
        blob = rng.randbytes(BLOB_BYTES)
        hands = dealt_sizes(TWITTER_CACHE, self.N_CLIENTS, keys_per_client,
                            rng)
        plans = []
        for cid, hand in enumerate(hands):
            keys = [(b"c%d-k%d" % (cid, k), n) for k, n in enumerate(hand)]
            latest = {}
            plan = []
            for is_set, key, n in key_value_plan(keys, ops_per_client, rng):
                if is_set:
                    latest[key] = rng.randrange(BLOB_BYTES - n + 1)
                plan.append(("SET" if is_set else "GET", key, n, latest[key]))
            plans.append(plan)
        system = System(n_cores=4, copier=True, phys_frames=65536)
        server = RedisServer(system, mode="copier")
        server_sock, client_side = socket_pair(system, "redis-listen")
        clients, reply_socks = [], {}
        for cid in range(self.N_CLIENTS):
            reply_a, reply_b = socket_pair(system, "reply-%d" % cid)
            clients.append(RedisClient(system, cid, client_side, reply_b))
            reply_socks[cid] = reply_a
        return RedisEpisode(checker, system, server, clients, server_sock,
                            reply_socks, plans, blob)


# ------------------------------------------------------------------ fleet_kv

class FleetEpisode(Episode):
    VICTIM = 2
    MAX_ROUNDS = 2_000_000

    def __init__(self, checker, fleet, streams, key_sizes, blob, kill_at,
                 restart_at):
        super().__init__(checker, sum(len(plan) for plan in streams))
        self.fleet = fleet
        self.systems = [node.system for node in fleet.nodes]
        self.streams = streams
        self.key_sizes = key_sizes
        self.blob = blob
        self.kill_at = kill_at
        self.restart_at = restart_at
        self.attempts = 0
        self.recovered = None
        self.latest = []   # per stream: key -> blob offset of its last ack

    def _gateway(self, sid, idx, avoid):
        live = [n.node_id for n in self.fleet.nodes
                if n.alive and not n.recovering and n.node_id != avoid]
        return live[(sid + idx) % len(live)]

    def run(self):
        fleet, blob = self.fleet, self.blob
        victim = self.VICTIM
        n_streams = len(self.streams)
        pending = [None] * n_streams
        cursor = [0] * n_streams
        latest = [dict() for _ in range(n_streams)]  # key -> blob offset
        completed = 0
        phase = "up"   # up -> draining -> down -> restarted
        rounds = 0
        start = fleet.stepper.horizon
        while True:
            for sid, plan in enumerate(self.streams):
                entry = pending[sid]
                if entry is not None:
                    op, kind, key, n, off = entry
                    if not op.done:
                        continue
                    pending[sid] = None
                    completed += 1
                    self.attempts += op.attempts
                    if op.error is not None or op.latency_cycles is None:
                        self.fail("%s %r: %r" % (kind, key, op.error))
                    else:
                        self.completed(op.latency_cycles)
                        if kind == "set":
                            latest[sid][key] = off
                        else:
                            self.verify(op.result or b"",
                                        blob[off:off + n],
                                        "fleet GET %r" % key)
                if cursor[sid] >= len(plan):
                    continue
                kind, key, n, off = plan[cursor[sid]]
                avoid = victim if phase in ("draining", "down") else None
                gw = self._gateway(sid, cursor[sid], avoid)
                cursor[sid] += 1
                self.attempted += 1
                if kind == "set":
                    op = fleet.set(key, blob[off:off + n], gateway=gw)
                else:
                    off = latest[sid][key]
                    op = fleet.get(key, gateway=gw)
                pending[sid] = (op, kind, key, n, off)
            if all(p is None for p in pending):
                break
            phase = self._fault_schedule(phase, completed, pending)
            fleet.stepper.step_round()
            rounds += 1
            if rounds > self.MAX_ROUNDS:
                raise RuntimeError("fleet_kv made no progress")
        if phase != "restarted":
            raise RuntimeError("fleet_kv ended before the victim restarted "
                               "(phase %s): too few ops" % phase)
        fleet.stepper.run_until(lambda: not fleet.recovering_nodes
                                and not fleet.resyncs_active)
        self.makespan = fleet.stepper.horizon - start
        self.latest = latest

    def _fault_schedule(self, phase, completed, pending):
        """Kill the victim once its gateway connections drained, restart
        it once its death was declared and the resync finished."""
        fleet, victim = self.fleet, self.VICTIM
        if phase == "up" and completed >= self.kill_at:
            return "draining"
        if phase == "draining":
            if any(p is not None and p[0].gateway_id == victim
                   for p in pending):
                return phase
            fleet.kill_node(victim)
            return "down"
        if (phase == "down" and completed >= self.restart_at
                and any(dead == victim for _v, dead in fleet.promotions)
                and not fleet.resyncs_active):
            node = fleet.restart_node(victim)
            self.systems.append(node.system)
            self.recovered = node
            if self.on_new_env is not None:
                self.on_new_env(node.env)
            return "restarted"
        return phase

    def audit(self):
        """Read back the last acknowledged value of every key, then drain
        every live machine and check the fleet holds no pin."""
        fleet, blob = self.fleet, self.blob
        ops = []
        for sid, keys in enumerate(self.latest):
            for i, (key, off) in enumerate(sorted(keys.items())):
                gw = self._gateway(sid, i, None)
                ops.append((fleet.get(key, gateway=gw), key, off))
        fleet.run_ops([op for op, _k, _o in ops])
        ok = True
        for op, key, off in ops:
            n = self.key_sizes[key]
            self.attempted += 1
            if op.error is not None:
                self.fail("audit GET %r: %r" % (key, op.error))
                ok = False
            elif not self.verify(op.result or b"", blob[off:off + n],
                                 "audit GET %r" % key):
                ok = False
        for node in fleet.nodes:
            if node.alive:
                # Fleet nodes only step together; their copy paths
                # submit no Lazy Task, so there is nothing to settle.
                ok = self.audit_system(node.system,
                                       "fleet node %d" % node.node_id,
                                       settle=False) and ok
        leaked = fleet.leaked_pins()
        if leaked:
            self.failures.append("fleet leaked %d pins" % leaked)
            return False
        return ok

    def extra_counters(self):
        fleet = self.fleet
        net = fleet.netpath_stats()
        node = self.recovered
        return {
            "fleet_attempts": self.attempts,
            "frames_sent": net["frames_sent"],
            "retransmits": net["retransmits"],
            "crc_dropped": net["crc_dropped"],
            "promotions": len(fleet.promotions),
            "recovery_cycles": node.counters["recovery_cycles"] if node else 0,
            "recovered_keys": node.counters["recovered_keys"] if node else 0,
        }


class FleetKV:
    """A 3-node fleet over lossy links, 4 closed-loop streams, and one
    node killed, restarted from its disk and rejoined mid-run.

    Streams own their keys, so each GET has one correct answer: the
    stream's own last acknowledged SET.  Before the kill, new ops stop
    using the victim as gateway and the kill waits for the victim's
    in-flight gateway ops to settle, so no op is abandoned with its
    connection; ops the victim owns as primary or backup still fail
    over through the fleet.
    """

    name = "fleet_kv"
    N_STREAMS = 4

    SIZES = {"full": (8, 500), "tiny": (3, 24)}   # (keys, ops) per stream
    #: Per-frame fault rates on every link.  Low enough that retransmits
    #: and the failover together stay under 1 % of the 2000 ops, so the
    #: p99 sits in the body of the latency distribution on every seed and
    #: a transport regression that fattens the tail moves it.
    LINK_FAULTS = dict(drop_rate=0.005, dup_rate=0.0025, reorder_rate=0.005,
                       reorder_window=4, corrupt_rate=0.0025)

    def build(self, seed, scale, checker):
        keys_per_stream, ops_per_stream = self.SIZES[scale]
        rng = random.Random(repr(("fleet_kv", seed)))
        blob = rng.randbytes(BLOB_BYTES)
        hands = dealt_sizes(FLEET_SIZES, self.N_STREAMS, keys_per_stream, rng)
        streams, key_sizes = [], {}
        for sid, hand in enumerate(hands):
            keys = [(b"s%d-k%d" % (sid, k), n) for k, n in enumerate(hand)]
            key_sizes.update(keys)
            plan = []
            for is_set, key, n in key_value_plan(keys, ops_per_stream, rng):
                if is_set:
                    plan.append(("set", key, n,
                                 rng.randrange(BLOB_BYTES - n + 1)))
                else:
                    plan.append(("get", key, n, None))
            streams.append(plan)
        plan = LinkFaultPlan("bench", seed=seed, **self.LINK_FAULTS)
        fleet = Fleet(n_nodes=3, link_latency_cycles=20_000,
                      link_bytes_per_cycle=16.0, lfd_period_cycles=100_000,
                      gfd_timeout_cycles=400_000, ckpt_period=64,
                      link_fault_plan=plan, backoff_jitter_seed=seed)
        total = self.N_STREAMS * ops_per_stream
        return FleetEpisode(checker, fleet, streams, key_sizes, blob,
                            kill_at=total // 4, restart_at=total // 2)


# -------------------------------------------------------------- serve_socket

class ServeEpisode(Episode):
    def __init__(self, checker, system, driver, server, plans, blob):
        super().__init__(checker, 2 * sum(len(plan) for plan in plans))
        self.systems = [system]
        self.system = system
        self.driver = driver
        self.server = server
        self.plans = plans
        self.blob = blob

    async def _client(self, port, cid, plan):
        env, blob = self.system.env, self.blob
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(encode_hello(cid))
            for key, n, off in plan:
                value = blob[off:off + n]
                for request, expected in ((encode_set(key, n) + value, b""),
                                          (encode_get(key), value)):
                    self.attempted += 1
                    t0 = env.now
                    writer.write(request)
                    await writer.drain()
                    status = await reader.readexactly(1)
                    length = int.from_bytes(await reader.readexactly(8),
                                            "little")
                    data = await reader.readexactly(length) if length else b""
                    self.completed(env.now - t0)
                    if status != b"+":
                        self.fail("conn %d %r: status %r" % (cid, key,
                                                             status))
                        return
                    self.verify(data, expected, "conn %d %r" % (cid, key))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass   # the server may tear the socket down first

    async def _main(self):
        env = self.system.env
        start = env.now
        async with self.driver:
            port = await self.server.start()
            try:
                await asyncio.gather(*[
                    self._client(port, cid, plan)
                    for cid, plan in enumerate(self.plans)])
            finally:
                await self.server.stop()
        self.makespan = env.now - start

    def run(self):
        asyncio.run(self._main())

    def audit(self):
        ok = True
        if self.driver.parked_ops:
            self.failures.append("%d serve ops still parked"
                                 % self.driver.parked_ops)
            ok = False
        return self.audit_system(self.system, "serve_socket") and ok

    def extra_counters(self):
        snap = self.driver.snapshot()
        return {"serve_steps": snap["steps"], "serve_events": snap["events"],
                "serve_rounds": snap["rounds"],
                "serve_idle_polls": snap["idle_polls"]}


class ServeSocket:
    """``RedisSocketServer`` + ``SimDriver`` under ``gate`` pacing, with 2
    real localhost connections doing closed-loop SET+GET pairs.

    Each connection owns its keys and each key keeps one value size, so
    the per-connection store arena never recycles a live slot.
    """

    name = "serve_socket"
    N_CONNS = 2

    SIZES = {"full": (18, 700), "tiny": (3, 8)}  # (keys, SET+GET pairs)

    def build(self, seed, scale, checker):
        keys_per_conn, pairs_per_conn = self.SIZES[scale]
        rng = random.Random(repr(("serve_socket", seed)))
        blob = rng.randbytes(BLOB_BYTES)
        hands = dealt_sizes(TWITTER_CACHE, self.N_CONNS, keys_per_conn, rng)
        plans, store_bytes = [], 0
        for cid, hand in enumerate(hands):
            keys = [(b"conn%d-k%d" % (cid, k), n) for k, n in enumerate(hand)]
            store_bytes = max(store_bytes, sum((n + 4095) & ~4095
                                               for _k, n in keys))
            plans.append([(key, n, rng.randrange(BLOB_BYTES - n + 1))
                          for _set, key, n in key_value_plan(
                              keys, pairs_per_conn, rng)])
        system = System(n_cores=4, copier=True, phys_frames=65536)
        driver = SimDriver(system=system, pacing="gate",
                           expected_sessions=self.N_CONNS)
        server = RedisSocketServer(system, driver, max_conns=self.N_CONNS,
                                   conn_buf_bytes=max(TWITTER_CACHE.sizes),
                                   store_bytes=store_bytes)
        return ServeEpisode(checker, system, driver, server, plans, blob)


WORKLOADS = {w.name: w for w in (CopyWindow(), RedisKV(), FleetKV(),
                                 ServeSocket())}
