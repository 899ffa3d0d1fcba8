"""Fleet-aware serving: one asyncio frontend over N simulated machines.

:class:`FleetClock` lets the ordinary :class:`~repro.serve.driver.SimDriver`
drive a :class:`~repro.fleet.fleet.Fleet`.  It gives the fleet the three
things the driver needs from a clock — ``step``, ``now`` and ``idle`` —
by running ``stepper.step_round()``, and it bridges each
:class:`~repro.fleet.fleet.FleetOp` to an asyncio future so connection
handlers ``await`` cross-node sharded operations the same way
single-node handlers await facade copies.  The driver stays the only
code that advances the fleet clock, and every pacing policy applies: a
``gate``-paced fleet starts each round's ops in sorted session order,
so closed-loop fleet serving is run-to-run deterministic.

:class:`FleetRedisServer` speaks the exact
:class:`~repro.serve.frontends.RedisSocketServer` wire protocol (hello
id, ``apps.common`` framing, ``status + len + value`` replies) but
routes each connection to a gateway node by hello id.  If a client's
gateway dies mid-request the op can never settle on that machine; the
clock fails the future with
:class:`~repro.fleet.errors.FleetUnavailable`, the client gets an
error reply, and the *next* request transparently re-homes to a live
gateway — a connection survives the death of its node.
"""

import asyncio

from repro.fleet.errors import FleetError, FleetUnavailable
from repro.serve.frontends import (
    HELLO_LEN,
    LEN_BYTES,
    REQ_META,
    STATUS_ERR,
    STATUS_MISS,
    STATUS_OK,
    _SocketFrontend,
)
from repro.sim.engine import StepReport

from repro.apps.common import decode_header


class FleetClock:
    """A :class:`~repro.fleet.fleet.Fleet` seen as a ``SimDriver`` clock.

    ``step`` runs up to ``rounds_per_step`` fleet rounds, ``now`` is the
    fleet horizon, and ``idle`` means no driver op is in flight — an idle
    fleet holds its virtual clock still, like an idle ``Environment``.
    Tests that need detection/promotion to progress without client load
    call ``fleet.stepper.settle(rounds)`` directly.
    """

    def __init__(self, fleet, rounds_per_step=4, max_rounds_per_op=200_000):
        self.fleet = fleet
        self.stepper = fleet.stepper
        self.rounds_per_step = rounds_per_step
        self.max_rounds_per_op = max_rounds_per_op
        self._inflight = []  # (FleetOp, future, submit_round)

    @property
    def now(self):
        return self.stepper.horizon

    @property
    def idle(self):
        return not self._inflight

    def step(self, max_events=None, max_cycles=None):
        """Run fleet rounds, then fail ops that can no longer settle (an
        event budget cannot split a round, so ``max_events`` is unused)."""
        rounds = self.rounds_per_step
        if max_cycles is not None:
            rounds = min(rounds, max_cycles // self.stepper.quantum)
        executed = 0
        for _ in range(rounds):
            executed += self.stepper.step_round()
        self._sweep()
        return StepReport(executed, self.now, self.idle)

    def submit(self, future, kind, key, value, gateway):
        """Submit a fleet op that resolves ``future`` with the FleetOp.

        The fleet settles ops synchronously inside ``step_round()``,
        which only ever runs in the driver's task on the same event
        loop — resolving the future from the callback is loop-safe.
        """
        try:
            op = self.fleet.submit(kind, key, value=value, gateway=gateway)
        except FleetError as exc:
            future.set_exception(exc)
            return

        def on_done(op):
            if not future.done():
                future.set_result(op)

        op.add_done_callback(on_done)
        if not op.done:
            self._inflight.append((op, future, self.stepper.rounds))

    def _sweep(self):
        """Fail futures whose op can no longer settle (dead gateway) or
        has been in flight implausibly long (wedged fleet)."""
        keep = []
        for entry in self._inflight:
            op, future, submit_round = entry
            if op.done or future.done():
                continue
            if not self.fleet.nodes[op.gateway_id].alive:
                future.set_exception(FleetUnavailable(
                    "gateway %r died under %s %r"
                    % (op.gateway_id, op.kind, op.key)))
                continue
            if self.stepper.rounds - submit_round > self.max_rounds_per_op:
                future.set_exception(RuntimeError(
                    "fleet op %r unresolved after %d rounds"
                    % (op, self.max_rounds_per_op)))
                continue
            keep.append(entry)
        self._inflight = keep


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
        driver = self.driver
        try:
            gateway = self._gateway(session.key[1])
            future = asyncio.get_running_loop().create_future()
            op = await driver.call(
                lambda _name: driver.env.submit(future, kind, key, value,
                                                gateway),
                future, session, kind)
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


__all__ = ["FleetClock", "FleetRedisServer", "HELLO_LEN"]
