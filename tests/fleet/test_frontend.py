"""The fleet-aware socket frontend: real TCP, sharded sim backend.

A connection's bytes round-trip socket → gateway node → (possibly a
cross-node forward over the modeled interconnect) → KVStore copy path
→ back over the socket; killing a connection's home gateway re-homes
it transparently on the next request.
"""

import asyncio

from repro.apps.common import encode_get, encode_set
from repro.fleet import Fleet
from repro.serve import FleetDriver, FleetRedisServer, encode_hello

VALUE = 6000


async def _request(reader, writer, payload):
    writer.write(payload)
    await writer.drain()
    status = await reader.readexactly(1)
    length = int.from_bytes(await reader.readexactly(8), "little")
    data = await reader.readexactly(length) if length else b""
    return status, data


def test_fleet_redis_roundtrip_and_gateway_failover():
    async def go():
        fleet = Fleet(n_nodes=3)
        driver = FleetDriver(fleet)
        server = FleetRedisServer(fleet, driver, max_conns=4)
        async with driver:
            port = await server.start()
            conns = []
            for cid in range(3):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(encode_hello(cid))
                conns.append((reader, writer))
            values = {}
            for cid, (reader, writer) in enumerate(conns):
                key = b"fr-k%d" % cid
                values[key] = bytes([cid + 1]) * VALUE
                status, _ = await _request(
                    reader, writer,
                    encode_set(key, VALUE) + values[key])
                assert status == b"+"
            # Reads through *other* connections (different gateways).
            for cid, (reader, writer) in enumerate(conns):
                key = b"fr-k%d" % ((cid + 1) % 3)
                status, data = await _request(reader, writer,
                                              encode_get(key))
                assert status == b"+" and data == values[key]
            status, data = await _request(*conns[0], encode_get(b"absent"))
            assert status == b"-" and data == b""

            # Kill connection 1's home gateway: the shard router
            # re-homes it and the acked data survives the promotion.
            fleet.kill_node(1)
            await driver.settle(600)
            status, data = await _request(*conns[1], encode_get(b"fr-k0"))
            assert status == b"+" and data == values[b"fr-k0"]
            assert server.failovers >= 1
            assert fleet.promotions

            for _reader, writer in conns:
                writer.close()
            await server.stop()
        assert server.requests_served == 8
        assert driver.parked_ops == 0
        assert driver.snapshot()["sessions_live"] == 0
        assert fleet.leaked_pins() == 0

    asyncio.run(go())


def test_fleet_driver_rejects_duplicate_sessions_and_bad_hello():
    async def go():
        fleet = Fleet(n_nodes=2)
        driver = FleetDriver(fleet)
        server = FleetRedisServer(fleet, driver, max_conns=2)
        async with driver:
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode_hello(9))  # out of range
            assert await reader.read(1) == b""
            writer.close()
            await server.stop()
        assert server.rejected_conns == 1

    asyncio.run(go())


def test_fleet_redis_answers_oversized_set_with_an_error_reply():
    async def go():
        fleet = Fleet(n_nodes=2)
        driver = FleetDriver(fleet)
        server = FleetRedisServer(fleet, driver, max_conns=2)
        async with driver:
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode_hello(0))
            big = 64 * 1024
            status, data = await _request(
                reader, writer, encode_set(b"big", big) + b"b" * big)
            assert status == b"!" and data == b""
            # The connection survives the rejection.
            value = b"v" * VALUE
            status, _ = await _request(
                reader, writer, encode_set(b"ok", VALUE) + value)
            assert status == b"+"
            status, data = await _request(reader, writer, encode_get(b"ok"))
            assert status == b"+" and data == value
            writer.close()
            await server.stop()
        assert fleet.ops_submitted == 2
        assert fleet.leaked_pins() == 0

    asyncio.run(go())
