"""Fleet-aware serving: one asyncio frontend over N simulated machines.

:class:`FleetDriver` plays the :class:`~repro.serve.driver.SimDriver`
role for a :class:`~repro.fleet.fleet.Fleet`: it is the only code that
advances the fleet clock (``stepper.step_round()``), and it bridges
each :class:`~repro.fleet.fleet.FleetOp` to an asyncio future so
connection handlers can ``await`` cross-node sharded operations the
same way single-node handlers await facade copies.  Stepping is
free-running only — a fleet round advances *every* node, so the
single-machine gate policy has no meaning here; closed-loop fleet
determinism is exercised sim-side by ``tests/fleet`` instead.

:class:`FleetRedisServer` speaks the exact
:class:`~repro.serve.frontends.RedisSocketServer` wire protocol (hello
id, ``apps.common`` framing, ``status + len + value`` replies) but
routes each connection to a gateway node by hello id.  If a client's
gateway dies mid-request the op can never settle on that machine; the
driver fails the future with
:class:`~repro.fleet.errors.FleetUnavailable`, the client gets an
error reply, and the *next* request transparently re-homes to a live
gateway — a connection survives the death of its node.
"""

import asyncio

from repro.fleet.errors import FleetError, FleetUnavailable
from repro.serve.driver import PARKED, RUNNING, AsyncSession, ServeStats
from repro.serve.frontends import (
    HELLO_LEN,
    LEN_BYTES,
    REQ_META,
    STATUS_ERR,
    STATUS_MISS,
    STATUS_OK,
    _SocketFrontend,
)

from repro.apps.common import decode_header


class FleetDriver:
    """The asyncio task that steps a fleet and settles fleet ops.

    Rounds only advance while ops are in flight (an idle fleet holds
    its virtual clock still, like an idle ``SimDriver``); tests that
    need detection/promotion to progress without client load call
    :meth:`settle`.
    """

    def __init__(self, fleet, rounds_per_tick=4, idle_sleep=0.0005,
                 max_rounds_per_op=200_000):
        self.fleet = fleet
        self.rounds_per_tick = rounds_per_tick
        self.idle_sleep = idle_sleep
        self.max_rounds_per_op = max_rounds_per_op
        self.stats = ServeStats()
        self._sessions = {}
        self._inflight = []  # (FleetOp, future, submit_round)
        self._stop = False
        self._task = None
        self._wakeup = asyncio.Event()

    # ------------------------------------------------------------- sessions

    def session(self, key):
        if key in self._sessions:
            raise ValueError("duplicate session key %r" % (key,))
        sess = AsyncSession(self, key)
        self._sessions[key] = sess
        self.stats.sessions_opened += 1
        self.kick()
        return sess

    @property
    def sessions_live(self):
        return len(self._sessions)

    @property
    def parked_ops(self):
        return self.stats.ops_submitted - self.stats.ops_resolved

    def kick(self):
        self._wakeup.set()

    # ----------------------------------------------------------- submission

    def submit(self, kind, key, value=None, gateway=None, session=None):
        """Submit a fleet op; returns a future resolving to the FleetOp.

        The fleet settles ops synchronously inside ``step_round()``,
        which only ever runs in this driver's task on the same event
        loop — resolving the future from the callback is loop-safe.
        """
        future = asyncio.get_event_loop().create_future()
        try:
            op = self.fleet.submit(kind, key, value=value, gateway=gateway)
        except FleetError as exc:
            future.set_exception(exc)
            return future
        self.stats.ops_submitted += 1
        if session is not None:
            session.state = PARKED
            session.waiting = op

        def on_done(op, future=future, session=session):
            self.stats.ops_resolved += 1
            if session is not None and session.waiting is op:
                session.waiting = None
                if session.state == PARKED:
                    session.state = RUNNING
            if not future.done():
                future.set_result(op)

        op.add_done_callback(on_done)
        if not op.done:
            self._inflight.append((op, future, self.fleet.stepper.rounds))
        self.kick()
        return future

    def _sweep(self):
        """Fail futures whose op can no longer settle (dead gateway) or
        has been in flight implausibly long (wedged fleet)."""
        if not self._inflight:
            return
        keep = []
        for entry in self._inflight:
            op, future, submit_round = entry
            if op.done or future.done():
                continue
            if not self.fleet.nodes[op.gateway_id].alive:
                self.stats.ops_resolved += 1
                future.set_exception(FleetUnavailable(
                    "gateway %r died under %s %r"
                    % (op.gateway_id, op.kind, op.key)))
                continue
            if self.fleet.stepper.rounds - submit_round > self.max_rounds_per_op:
                self.stats.ops_resolved += 1
                future.set_exception(RuntimeError(
                    "fleet op %r unresolved after %d rounds"
                    % (op, self.max_rounds_per_op)))
                continue
            keep.append(entry)
        self._inflight = keep

    # ------------------------------------------------------------ lifecycle

    def stop(self):
        self._stop = True
        self.kick()

    async def run(self):
        self._stop = False
        while not self._stop:
            if not self._inflight:
                self.stats.idle_polls += 1
                self._wakeup.clear()
                try:
                    await asyncio.wait_for(self._wakeup.wait(),
                                           self.idle_sleep)
                except asyncio.TimeoutError:
                    pass
                continue
            executed = 0
            for _ in range(self.rounds_per_tick):
                executed += self.fleet.stepper.step_round()
            self._sweep()
            self.stats.steps += 1
            self.stats.events += executed
            await asyncio.sleep(0)

    async def settle(self, rounds):
        """Advance the fleet clock without client load (detection,
        promotion and resync need rounds to pass)."""
        for _ in range(rounds):
            self.fleet.stepper.step_round()
            if _ % 64 == 63:
                await asyncio.sleep(0)
        self._sweep()

    async def __aenter__(self):
        self._task = asyncio.ensure_future(self.run())
        return self

    async def __aexit__(self, exc_type, exc, tb):
        self.stop()
        if self._task is not None:
            await self._task
            self._task = None
        return False

    # -------------------------------------------------------------- exports

    def snapshot(self):
        s = self.stats
        return {
            "pacing": "fleet-free",
            "steps": s.steps,
            "events": s.events,
            "idle_polls": s.idle_polls,
            "rounds": self.fleet.stepper.rounds,
            "ops_submitted": s.ops_submitted,
            "ops_resolved": s.ops_resolved,
            "parked": self.parked_ops,
            "sessions_opened": s.sessions_opened,
            "sessions_closed": s.sessions_closed,
            "sessions_live": self.sessions_live,
        }

    def __repr__(self):
        return "<FleetDriver nodes=%d parked=%d>" % (len(self.fleet.nodes),
                                                     self.parked_ops)


class FleetRedisServer(_SocketFrontend):
    """The Redis-like wire protocol, sharded across the fleet.

    A connection's home gateway is ``cid % n_nodes``; every request
    re-checks liveness and falls over to the next live node, so the
    shard router (not the client) absorbs node deaths.
    """

    def __init__(self, fleet, driver, max_conns=16, name="fleet-redis"):
        super().__init__(None, driver, max_conns, name)
        self.fleet = fleet
        self.failovers = 0

    def _gateway(self, cid):
        n = len(self.fleet.nodes)
        home = cid % n
        if self.fleet.nodes[home].alive:
            return home
        for offset in range(1, n):
            candidate = (home + offset) % n
            if self.fleet.nodes[candidate].alive:
                self.failovers += 1
                return candidate
        raise FleetUnavailable("no live gateway for connection %d" % cid)

    async def _serve(self, session, cid, reader, writer):
        while True:
            try:
                meta = await session.external(reader.readexactly(REQ_META))
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            op_name, key, value_len = decode_header(meta)
            key = bytes(key)
            if op_name == "SET":
                try:
                    value = await session.external(
                        reader.readexactly(value_len))
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                reply = await self._do(session, "set", key, value)
            elif op_name == "GET":
                reply = await self._do(session, "get", key)
            else:
                return  # protocol error: drop the connection
            writer.write(reply)
            await session.external(writer.drain())
            self.requests_served += 1

    async def _do(self, session, kind, key, value=None):
        try:
            gateway = self._gateway(session.key[1])
            future = self.driver.submit(kind, key, value=value,
                                        gateway=gateway, session=session)
            op = await future
        except (FleetError, RuntimeError):
            self.timeouts += 1
            return STATUS_ERR + (0).to_bytes(LEN_BYTES, "little")
        if op.error is not None:
            self.timeouts += 1
            return STATUS_ERR + (0).to_bytes(LEN_BYTES, "little")
        if kind == "set":
            return STATUS_OK + (0).to_bytes(LEN_BYTES, "little")
        if op.result is None:
            return STATUS_MISS + (0).to_bytes(LEN_BYTES, "little")
        return (STATUS_OK + len(op.result).to_bytes(LEN_BYTES, "little")
                + bytes(op.result))


__all__ = ["FleetDriver", "FleetRedisServer", "HELLO_LEN"]
