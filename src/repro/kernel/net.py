"""In-memory network stack: sockets, skbs, send/recv paths (§5.2).

Each syscall is split into a *wrapper* (trap + body + return) and a *body*
so io_uring-style batched submission (§6.1.2) can amortize the privilege
crossings over many bodies.

Copy modes:

* ``"sync"`` — baseline Linux: in-context ERMS copies.
* ``"copier"`` — Copier-Linux: k-mode Copy Tasks; send syncs in the driver
  just before NIC TX enqueue, recv returns immediately and the app csyncs
  before use; a KFUNC reclaims the socket buffer (§5.2).
* ``"zerocopy"`` — MSG_ZEROCOPY model: page pinning + TLB flush instead of
  a copy, plus the completion-check syscall the app needs before reuse.
* ``"ub"`` — Userspace Bypass: cheap kernel entry, same copy work.
"""

from collections import deque

from repro.copier.task import Region
from repro.mem.phys import PAGE_SIZE
from repro.sim import Compute, WaitEvent


class SKB:
    """A socket buffer in flight."""

    __slots__ = ("kernel_va", "length", "zerocopy_src", "completion",
                 "payload")

    def __init__(self, kernel_va, length, zerocopy_src=None, completion=None):
        self.kernel_va = kernel_va
        self.length = length
        self.zerocopy_src = zerocopy_src  # (aspace, va) for MSG_ZEROCOPY
        self.completion = completion
        self.payload = None  # NIC-side snapshot for zerocopy sends


class Socket:
    """One endpoint of a connected pair.

    The socket owns every skb between allocation and release: queued in
    ``rx``, in transit on the wire, or popped-but-unfreed inside a recv
    (``inflight``).  :meth:`close` releases them all, which is what makes
    process teardown leak-free even when a kill lands mid-send/recv.
    """

    def __init__(self, system, name=""):
        self.system = system
        self.name = name
        self.peer = None
        self.rx = deque()
        # skb -> None, used as an insertion-ordered set: close() must
        # release buffers in ownership order, not id-hash order, so frame
        # reuse after a teardown is reproducible run to run.
        self.inflight = {}
        self.closed = False
        self._waiters = []
        self.delivered = 0

    def deliver(self, skb):
        if self.closed:
            # Arrived after teardown: free the buffer on the doorstep.
            _release_skb(self.system, None, skb)
            return
        self.rx.append(skb)
        self.delivered += 1
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()

    def wait_data(self):
        event = self.system.env.event()
        if self.rx:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def close(self):
        """Release every skb this endpoint still owns (socket teardown)."""
        if self.closed:
            return
        self.closed = True
        while self.rx:
            _release_skb(self.system, None, self.rx.popleft())
        for skb in list(self.inflight):
            _release_skb(self.system, self, skb)


def _release_skb(system, sock, skb):
    """Idempotently free an skb's kernel buffer and drop its ownership.

    Pinned pages (an in-flight k-mode copy still holds the buffer) defer
    via the lazy-teardown list and reclaim when the copy retires — so
    releasing at socket close never races the copier.
    """
    if skb.kernel_va is not None:
        system.free_kernel_buffer(skb.kernel_va, skb.length)
        skb.kernel_va = None
    if sock is not None:
        sock.inflight.pop(skb, None)


def socket_pair(system, name=""):
    a = Socket(system, name + "-a")
    b = Socket(system, name + "-b")
    a.peer, b.peer = b, a
    return a, b


# ------------------------------------------------------------------ send

def send(system, proc, sock, va, nbytes, mode="sync", client=None):
    """The send() syscall; returns ``nbytes``.

    ``client`` overrides the process's default Copier queues — per-thread
    queue fds from ``copier_create_queue`` pass their client here
    (§5.1.1 multi-queue support).
    """
    trap_cost = system.params.ub_trap_cycles if mode == "ub" else None
    yield from proc.trap(cost=trap_cost, client=client)
    result = yield from send_body(system, proc, sock, va, nbytes, mode=mode,
                                  client=client)
    yield from proc.sysret(cost=trap_cost, client=client)
    return result


def send_body(system, proc, sock, va, nbytes, mode="sync", client=None):
    params = system.params
    client = client if client is not None else proc.client
    if mode == "zerocopy":
        return (yield from _send_zerocopy(system, proc, sock, va, nbytes))
    yield Compute(params.skb_alloc_cycles, tag="syscall")
    skb_va = system.alloc_kernel_buffer(nbytes)
    skb = SKB(skb_va, nbytes)
    # Owned by the sending socket until it lands on the peer — a kill
    # mid-send (copy submitted, not yet transmitted) frees it at close.
    sock.inflight[skb] = None
    if (mode == "copier" and client is not None
            and nbytes >= params.copier_kernel_min_bytes):
        # Submit the user→skb copy and overlap protocol processing with it;
        # the driver syncs just before handing packets to the NIC (§5.2).
        yield from client.k_amemcpy(
            Region(proc.aspace, va, nbytes),
            Region(system.kernel_as, skb_va, nbytes))
        yield Compute(params.proto_cycles, tag="syscall")
        yield from client.csync_region(
            Region(system.kernel_as, skb_va, nbytes), queue_kind="k")
    else:
        yield from system.sync_copy(
            proc, proc.aspace, va, system.kernel_as, skb_va, nbytes,
            engine="erms")
        yield Compute(params.proto_cycles, tag="syscall")
    _transmit(system, sock, skb)
    return nbytes


def _send_zerocopy(system, proc, sock, va, nbytes):
    """MSG_ZEROCOPY: pin user pages instead of copying (§2.2).

    Requires page alignment; the returned completion event stands in for
    the error-queue notification the app must reap before buffer reuse.
    """
    params = system.params
    if va % PAGE_SIZE != 0:
        raise ValueError("MSG_ZEROCOPY requires page-aligned buffers")
    n_pages = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
    yield Compute(
        n_pages * params.zc_pin_cycles_per_page + params.zc_tlb_flush_cycles,
        tag="syscall")
    yield Compute(params.proto_cycles, tag="syscall")
    completion = system.env.event()
    skb = SKB(None, nbytes, zerocopy_src=(proc.aspace, va),
              completion=completion)
    # The NIC DMAs straight from the pinned user pages; the error-queue
    # completion fires once the TX ring drains — NOT when the peer recvs.
    # Take a real pin and capture the physical spans now: the snapshot at
    # TX-drain goes through the frames, so an exit/munmap racing the drain
    # only defers the pages until unpin instead of faulting the NIC read.
    aspace = proc.aspace
    runs = aspace.pin(va, nbytes)
    phys = aspace.phys

    def on_tx_done():
        # Snapshot through the captured physical runs: one slice copy per
        # maximal physically-contiguous run on the flat frame backing.
        out = bytearray(nbytes)
        pos = 0
        for frame, offset, chunk in runs:
            phys.read_run(frame, offset, out, pos, chunk)
            pos += chunk
        skb.payload = bytes(out)
        aspace.unpin(va, nbytes)
        completion.succeed()

    tx_drain = int(nbytes / params.wire_bytes_per_cycle)
    system.env.schedule(tx_drain, on_tx_done)
    _transmit(system, sock, skb)
    return completion


def _transmit(system, sock, skb):
    sock.inflight[skb] = None
    transit = system.params.wire_latency_cycles + int(
        skb.length / system.params.wire_bytes_per_cycle)

    def arrive():
        sock.inflight.pop(skb, None)
        sock.peer.deliver(skb)

    system.env.schedule(transit, arrive)


def zerocopy_reap(system, proc, completion):
    """Reap a MSG_ZEROCOPY completion before reusing the buffer."""
    if proc.exited:
        # The owning process is gone: no context to trap into.  Just wait
        # for the TX ring to drain so the pin is dropped (the error-queue
        # notification dies with the socket).
        if not completion.triggered:
            yield WaitEvent(completion)
        return
    yield from proc.trap()
    yield Compute(system.params.zc_completion_check_cycles, tag="syscall")
    if not completion.triggered:
        yield WaitEvent(completion)
    yield from proc.sysret()


# ------------------------------------------------------------------ recv

def recv(system, proc, sock, va, nbytes, mode="sync", lazy=False,
         client=None):
    """The recv() syscall; returns the number of bytes received.

    In ``"copier"`` mode the copy lands asynchronously — the caller must
    csync before touching the data (libCopier's descriptor covers ``va``).
    ``lazy=True`` (copier mode only) marks the skb→user copy a Lazy Task:
    apps that only parse a header and forward/re-copy the payload let
    absorption short-circuit the bulk and abort the rest (§4.4).
    """
    trap_cost = system.params.ub_trap_cycles if mode == "ub" else None
    yield from proc.trap(cost=trap_cost, client=client)
    result = yield from recv_body(system, proc, sock, va, nbytes, mode=mode,
                                  lazy=lazy, client=client)
    yield from proc.sysret(cost=trap_cost, client=client)
    return result


def recv_body(system, proc, sock, va, nbytes, mode="sync", lazy=False,
              client=None):
    params = system.params
    client = client if client is not None else proc.client
    if not sock.rx:
        yield WaitEvent(sock.wait_data())
    skb = sock.rx.popleft()
    # Popped but not yet freed: if the receiver dies mid-recv the socket
    # close releases the buffer (idempotent vs. the KFUNC below).
    sock.inflight[skb] = None
    got = min(nbytes, skb.length)
    if skb.zerocopy_src is not None:
        # Receive a zerocopy-sent message: the bytes on the wire are the
        # NIC's snapshot (taken at TX-drain time).
        yield Compute(params.cpu_copy_cycles(got, engine="erms"),
                      tag="copy")
        proc.aspace.write(va, skb.payload[:got])
        sock.inflight.pop(skb, None)
    elif (mode == "copier" and client is not None
            and got >= params.copier_kernel_min_bytes):
        # Async skb→user copy; KFUNC reclaims the buffer afterwards (§5.2).
        yield from client.k_amemcpy(
            Region(system.kernel_as, skb.kernel_va, got),
            Region(proc.aspace, va, got),
            lazy=lazy,
            handler=("kfunc", _release_skb, (system, sock, skb)))
    else:
        yield from system.sync_copy(
            proc, system.kernel_as, skb.kernel_va, proc.aspace, va, got,
            engine="erms")
        _release_skb(system, sock, skb)
    yield Compute(params.sock_state_cycles, tag="syscall")
    return got


# ---------------------------------------------------------------- io_uring

def iouring_submit(system, proc, bodies):
    """Batched async syscalls: one trap covers the whole batch (§6.1.2).

    ``bodies`` are body generators (from ``send_body``/``recv_body``).
    Returns their results in order.
    """
    yield from proc.trap()
    yield Compute(len(bodies) * 30, tag="syscall")  # SQE processing
    results = []
    for body in bodies:
        results.append((yield from body))
    yield from proc.sysret()
    return results
