"""Socket-served application frontends: real connections, simulated copies.

Each frontend accepts real localhost TCP connections via
``asyncio.start_server`` and services requests by driving copy-offloaded
work *into the simulator* through an
:class:`~repro.serve.facade.AsyncCopier`: a SET lands its payload in the
connection's simulated input buffer, ``await amemcpy`` moves it into the
store, ``await csync`` publishes it; a GET copies the stored value into
the connection's output buffer and ships the bytes back over the socket.
The wire payloads are real — a byte set over TCP round-trips through
simulated Copier tasks and comes back over TCP.

Determinism (for the ``gate`` pacing policy) is engineered in three
places:

* session keys come from a client-sent hello ID, never accept order;
* every per-connection sim buffer (in/out/store) is preallocated by
  hello ID at server construction, so VAs are run-stable;
* value allocation state is per-connection (or keyed, for the
  memcached-style store), so no shared cursor observes arrival order.

Wire protocol (both frontends): the client first sends a 4-byte LE
hello ID ``cid`` in ``[0, max_conns)``.  Redis-like requests reuse the
:mod:`repro.apps.common` framing (64-byte header + 16-byte key, SETs
followed by the value); replies are ``status(1) + value_len(8 LE) +
value``.  Memcached-like requests are ``len(4 LE)`` + the
:mod:`repro.apps.memcachedapp` op encoding; replies are ``len(4 LE) +
payload``.
"""

import asyncio

from repro.api import LibCopier
from repro.apps.common import HEADER_LEN, KEY_LEN, decode_header
from repro.apps.memcachedapp import OP_MGET, OP_SET
from repro.copier.errors import AdmissionReject, CopyAborted, DeadlineMissed
from repro.serve.facade import AsyncCopier

REQ_META = HEADER_LEN + KEY_LEN
HELLO_LEN = 4
LEN_BYTES = 8

STATUS_OK = b"+"
STATUS_MISS = b"-"
STATUS_ERR = b"!"

#: Errors a copy-offloaded request maps to an error reply (the request
#: fails; the connection and the server survive).
_REQUEST_ERRORS = (CopyAborted, DeadlineMissed, AdmissionReject)


def encode_hello(cid):
    """The connection preamble: a run-stable client id."""
    return int(cid).to_bytes(HELLO_LEN, "little")


class _SocketFrontend:
    """Accept loop + hello/session plumbing shared by both frontends."""

    def __init__(self, system, driver, max_conns, name):
        self.system = system
        self.driver = driver
        self.max_conns = max_conns
        self.name = name
        self.requests_served = 0
        self.timeouts = 0
        self.rejected_conns = 0
        self._server = None
        self.port = None

    async def start(self, host="127.0.0.1", port=0):
        """Bind and start accepting; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle, host, port, backlog=max(128, self.max_conns))
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(self, reader, writer):
        try:
            hello = await reader.readexactly(HELLO_LEN)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        cid = int.from_bytes(hello, "little")
        try:
            if cid >= self.max_conns:
                raise ValueError("hello id %d out of range" % cid)
            session = self.driver.session(("conn", cid))
        except ValueError:
            self.rejected_conns += 1
            writer.close()
            return
        try:
            await self._serve(session, cid, reader, writer)
        finally:
            session.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve(self, session, cid, reader, writer):
        raise NotImplementedError


class RedisSocketServer(_SocketFrontend):
    """The Redis-like KV store behind a real TCP listener.

    SETs: payload → per-connection sim input buffer → ``amemcpy`` into
    the connection's store arena → ``csync`` → visible in ``db``.  GETs:
    ``amemcpy`` store → per-connection output buffer → ``csync`` → bytes
    shipped back over the socket.  ``timeout_cycles`` bounds each copy
    (deadline-missed requests get an error reply, mirroring
    :class:`repro.apps.rediskv.RedisServer`'s drop-on-miss behaviour).
    """

    def __init__(self, system, driver, max_conns=16, conn_buf_bytes=64 * 1024,
                 store_bytes=256 * 1024, name="redis-sock",
                 timeout_cycles=None):
        super().__init__(system, driver, max_conns, name)
        self.conn_buf_bytes = conn_buf_bytes
        self.store_bytes = store_bytes
        self.timeout_cycles = timeout_cycles
        self.proc = system.create_process(
            name, queue_capacity=max(1024, 2 * max_conns))
        self.copier = AsyncCopier(driver, self.proc.client)
        # Deterministic VA layout: every connection's buffers exist
        # before the first accept, addressed by hello id.
        proc = self.proc
        self._io = [(proc.mmap(conn_buf_bytes, populate=True,
                               name="%s-in-%d" % (name, cid)),
                     proc.mmap(conn_buf_bytes, populate=True,
                               name="%s-out-%d" % (name, cid)))
                    for cid in range(max_conns)]
        self._stores = [proc.mmap(store_bytes, name="%s-store-%d" % (name, cid))
                        for cid in range(max_conns)]
        self._cursors = [0] * max_conns
        self.db = {}  # key -> (va, length)

    def _alloc_value(self, cid, length):
        aligned = (length + 4095) & ~4095
        if aligned > self.store_bytes:
            raise ValueError("value of %d bytes exceeds the per-connection "
                             "store (%d)" % (length, self.store_bytes))
        if self._cursors[cid] + aligned > self.store_bytes:
            self._cursors[cid] = 0  # recycle (benchmarks overwrite keys)
        va = self._stores[cid] + self._cursors[cid]
        self._cursors[cid] += aligned
        return va

    async def _serve(self, session, cid, reader, writer):
        proc, copier = self.proc, self.copier
        in_va, out_va = self._io[cid]
        while True:
            try:
                meta = await session.external(reader.readexactly(REQ_META))
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            op, key, value_len = decode_header(meta)
            key = bytes(key)
            if op == "SET":
                if value_len > self.conn_buf_bytes:
                    return
                value = await session.external(reader.readexactly(value_len))
                # NIC-DMA stand-in: the wire payload materializes in this
                # connection's simulated input buffer.
                proc.write(in_va, value)
                existing = self.db.get(key)
                if existing is not None and existing[1] == value_len:
                    va = existing[0]  # jemalloc-style same-size reuse
                else:
                    va = self._alloc_value(cid, value_len)
                try:
                    await copier.amemcpy(va, in_va, value_len,
                                         timeout_cycles=self.timeout_cycles,
                                         session=session)
                    await copier.csync(va, value_len, session=session)
                except _REQUEST_ERRORS:
                    self.db.pop(key, None)
                    self.timeouts += 1
                    writer.write(STATUS_ERR + (0).to_bytes(LEN_BYTES,
                                                           "little"))
                else:
                    self.db[key] = (va, value_len)
                    writer.write(STATUS_OK + (0).to_bytes(LEN_BYTES,
                                                          "little"))
            elif op == "GET":
                entry = self.db.get(key)
                if entry is None:
                    writer.write(STATUS_MISS + (0).to_bytes(LEN_BYTES,
                                                            "little"))
                else:
                    va, length = entry
                    try:
                        await copier.amemcpy(out_va, va, length,
                                             timeout_cycles=self.timeout_cycles,
                                             session=session)
                        await copier.csync(out_va, length, session=session)
                    except _REQUEST_ERRORS:
                        self.timeouts += 1
                        writer.write(STATUS_ERR
                                     + (0).to_bytes(LEN_BYTES, "little"))
                    else:
                        payload = bytes(proc.read(out_va, length))
                        writer.write(STATUS_OK
                                     + length.to_bytes(LEN_BYTES, "little")
                                     + payload)
            else:
                return  # protocol error: drop the connection
            await session.external(writer.drain())
            self.requests_served += 1


class MemcachedSocketServer(_SocketFrontend):
    """The memcached-like multi-get cache behind a real TCP listener.

    Keeps the sim app's two distinguishing traits: per-*shard* queue fds
    (connections map to ``cid % n_shards``, so independent shards never
    share a ring) and multi-get gather (one MGET ``amemcpy``s N values
    into the reply buffer, one ``csync`` over the gathered range).  The
    store is a fixed 256-slot arena addressed by key id — VAs depend
    only on the key, never on arrival order.
    """

    N_SLOTS = 256  # key ids are single bytes

    def __init__(self, system, driver, max_conns=16, n_shards=2,
                 conn_buf_bytes=64 * 1024, slot_bytes=16 * 1024,
                 name="mc-sock"):
        super().__init__(system, driver, max_conns, name)
        self.conn_buf_bytes = conn_buf_bytes
        self.slot_bytes = slot_bytes
        self.proc = system.create_process(
            name, queue_capacity=max(1024, 2 * max_conns))
        self.lib = LibCopier(self.proc)
        self.copiers = []
        for _shard in range(max(1, n_shards)):
            fd = self.lib.copier_create_queue(
                capacity=max(1024, 2 * max_conns))
            self.copiers.append(
                AsyncCopier(driver, self.lib._client_for(fd)))
        proc = self.proc
        self._io = [(proc.mmap(conn_buf_bytes, populate=True,
                               name="%s-rx-%d" % (name, cid)),
                     proc.mmap(conn_buf_bytes, populate=True,
                               name="%s-tx-%d" % (name, cid)))
                    for cid in range(max_conns)]
        self.arena = proc.mmap(self.N_SLOTS * slot_bytes,
                               name="%s-slots" % name)
        self.slots = {}  # key_id -> (va, length)

    def _slot_va(self, key_id):
        return self.arena + key_id * self.slot_bytes

    async def _serve(self, session, cid, reader, writer):
        proc = self.proc
        copier = self.copiers[cid % len(self.copiers)]
        rx_va, tx_va = self._io[cid]
        while True:
            try:
                frame = await session.external(reader.readexactly(4))
                body_len = int.from_bytes(frame, "little")
                if not 2 <= body_len <= self.conn_buf_bytes:
                    return
                body = await session.external(reader.readexactly(body_len))
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            op, nkeys = body[0], body[1]
            key_ids = list(body[2:2 + nkeys])
            if op == OP_SET:
                value_len = int.from_bytes(body[2 + nkeys:6 + nkeys],
                                           "little")
                value = body[6 + nkeys:6 + nkeys + value_len]
                if value_len > self.slot_bytes or len(value) != value_len:
                    return
                proc.write(rx_va, value)
                va = self._slot_va(key_ids[0])
                try:
                    await copier.amemcpy(va, rx_va, value_len,
                                         session=session)
                    await copier.csync(va, value_len, session=session)
                except _REQUEST_ERRORS:
                    self.timeouts += 1
                    writer.write((0).to_bytes(4, "little"))
                else:
                    self.slots[key_ids[0]] = (va, value_len)
                    writer.write((2).to_bytes(4, "little") + b"OK")
            elif op == OP_MGET:
                cursor = 0
                ok = True
                try:
                    for key_id in key_ids:
                        va, length = self.slots[key_id]
                        await copier.amemcpy(tx_va + cursor, va, length,
                                             session=session)
                        cursor += length
                    if cursor:
                        await copier.csync(tx_va, cursor, session=session)
                except _REQUEST_ERRORS:
                    self.timeouts += 1
                    ok = False
                except KeyError:
                    ok = False  # miss: empty reply
                if ok and cursor:
                    payload = bytes(proc.read(tx_va, cursor))
                    writer.write(cursor.to_bytes(4, "little") + payload)
                else:
                    writer.write((0).to_bytes(4, "little"))
            else:
                return
            await session.external(writer.drain())
            self.requests_served += 1
