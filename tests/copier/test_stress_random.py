"""Randomized whole-service stress: async execution == sync reference.

Hypothesis generates arbitrary programs of copies, writes and syncs over
a small set of buffers.  The program follows the §5.1.1 guidelines
(sync before reading a destination or overwriting a source), which per
the Appendix A theorem makes the async execution equivalent to the
synchronous one.  We execute it on the full Copier service (dependency
tracking, promotion, absorption, piggybacking all engaged) and compare
every buffer against a pure-Python reference — any divergence is a real
correctness bug in the service.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.copier.conftest import Setup

N_BUFFERS = 4
BUF_BYTES = 8 * 1024

# An op is one of:
#   ("copy", src_idx, dst_idx, offset, length)   src_idx != dst_idx
#   ("write", idx, offset, length, fill_byte)
#   ("csync", idx, offset, length)
#   ("read", idx, offset, length)

_offsets = st.integers(min_value=0, max_value=BUF_BYTES - 1)


@st.composite
def _op(draw):
    kind = draw(st.sampled_from(["copy", "copy", "copy", "write", "csync",
                                 "read"]))
    offset = draw(st.integers(min_value=0, max_value=BUF_BYTES - 64))
    length = draw(st.integers(min_value=1,
                              max_value=BUF_BYTES - offset))
    if kind == "copy":
        src = draw(st.integers(min_value=0, max_value=N_BUFFERS - 1))
        dst = draw(st.integers(min_value=0, max_value=N_BUFFERS - 1)
                   .filter(lambda d: d != src))
        return ("copy", src, dst, offset, length)
    idx = draw(st.integers(min_value=0, max_value=N_BUFFERS - 1))
    if kind == "write":
        fill = draw(st.integers(min_value=1, max_value=255))
        return ("write", idx, offset, min(length, 512), fill)
    return (kind, idx, offset, length)


def _reference(ops):
    """Pure-Python sequential execution."""
    bufs = [bytearray(BUF_BYTES) for _ in range(N_BUFFERS)]
    for i, buf in enumerate(bufs):
        for j in range(0, BUF_BYTES, 256):
            buf[j] = (i * 37 + j // 256) % 251
    for op in ops:
        if op[0] == "copy":
            _k, src, dst, offset, length = op
            bufs[dst][offset:offset + length] = \
                bufs[src][offset:offset + length]
        elif op[0] == "write":
            _k, idx, offset, length, fill = op
            bufs[idx][offset:offset + length] = bytes([fill]) * length
    return [bytes(b) for b in bufs]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(ops=st.lists(_op(), min_size=1, max_size=12))
def test_random_programs_match_reference(ops):
    _run_against_reference(ops)


def test_regression_e2e_crc_repair_rereads_rewritten_source():
    """Found by the property test above with ``COPIER_E2E_CRC=1``.

    The client csyncs every copy reading buffer 0, then rewrites buffer
    0's first byte.  The 1025-byte copy's first segment was partly
    overwritten by the newer 1-byte copy, so the historic retire-time
    CRC saw a mismatch and "repaired" the segment by re-reading buffer 0,
    leaving the client's later write in buffer 1.  A csync verifies the
    segments it hands back, and a newer write supersedes an older copy's
    expected CRC over the same bytes.
    """
    _run_against_reference(
        [("copy", 0, 1, 0, 1), ("copy", 0, 1, 0, 1025), ("copy", 2, 0, 0, 1),
         ("copy", 0, 1, 0, 1), ("write", 0, 0, 1, 1)], e2e_crc=True)


def _run_against_reference(ops, **service_kwargs):
    setup = Setup(n_frames=4096, **service_kwargs)
    aspace, client = setup.aspace, setup.client
    bases = [aspace.mmap(BUF_BYTES, populate=True) for _ in range(N_BUFFERS)]
    for i, base in enumerate(bases):
        init = bytearray(BUF_BYTES)
        for j in range(0, BUF_BYTES, 256):
            init[j] = (i * 37 + j // 256) % 251
        aspace.write(base, bytes(init))

    def app():
        submitted = []  # (src_idx, dst_idx, offset, length)
        for op in ops:
            if op[0] == "copy":
                _k, src, dst, offset, length = op
                # Guideline: a copy whose src was an earlier copy's dst is
                # fine (dependency tracking / absorption handle it).
                yield from client.amemcpy(bases[dst] + offset,
                                          bases[src] + offset, length)
                submitted.append((src, dst, offset, length))
            elif op[0] == "write":
                _k, idx, offset, length, fill = op
                # Guidelines 1+4: sync copies whose dst or src overlaps
                # the range we are about to overwrite (via dst address).
                for s, d, o, ln in submitted:
                    if d == idx and o < offset + length and offset < o + ln:
                        yield from client.csync(bases[d] + o, ln)
                    if s == idx and o < offset + length and offset < o + ln:
                        yield from client.csync(bases[d] + o, ln)
                aspace.write(bases[idx] + offset, bytes([fill]) * length)
            elif op[0] == "csync":
                _k, idx, offset, length = op
                yield from client.csync(bases[idx] + offset, length)
            elif op[0] == "read":
                _k, idx, offset, length = op
                yield from client.csync(bases[idx] + offset, length)
                aspace.read(bases[idx] + offset, length)
        yield from client.csync_all()

    setup.run_process(app(), limit=200_000_000_000)
    expected = _reference(ops)
    for i, base in enumerate(bases):
        got = aspace.read(base, BUF_BYTES)
        assert got == expected[i], "buffer %d diverged (ops=%r)" % (i, ops)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ops", [
    [("copy", 1, 2, 0, 1), ("copy", 0, 1, 1, 1),
     ("copy", 0, 1, 0, 1), ("copy", 1, 0, 0, 1)],
    [("copy", 0, 1, 0, 1), ("copy", 0, 2, 0, 1),
     ("copy", 3, 0, 0, 1), ("copy", 1, 0, 0, 1)],
    [("copy", 0, 1, 0, 6498), ("copy", 2, 0, 0, 7168)],
], ids=["transitive-war", "overwritten-source", "dma-war"])
def test_regression_transitive_lazy_war_chain(ops, seed):
    """Found by the property test below.

    ``transitive-war``: head's lazy WAR prerequisite had its own WAR
    hazard on an even earlier lazy task, which the dispatcher skipped
    (prerequisites must close transitively).

    ``overwritten-source``: one round runs lazy 0→1, lazy 3→0 and 1→0.
    The last task's source was absorbed from buffer 0 at plan time, but
    3→0 rewrites buffer 0 earlier in the same round (absorbing through a
    producer is valid only if no task between it and the reader writes
    the absorbed bytes first).

    ``dma-war``: one round runs lazy 0→1 and its WAR dependent 2→0.  The
    dependent's DMA run overwrote buffer 0 while the prerequisite's AVX
    copy was still reading it.
    """
    _run_lazy_variant(ops, seed)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_op(), min_size=2, max_size=8),
       seed=st.integers(min_value=0, max_value=3))
def test_random_programs_with_lazy_tasks(ops, seed):
    _run_lazy_variant(ops, seed)


def _run_lazy_variant(ops, seed):
    """Same property with every (seed%2==0)-th copy marked lazy: lazy
    mediation + absorption must never change final contents."""
    setup = Setup(n_frames=4096)
    aspace, client = setup.aspace, setup.client
    bases = [aspace.mmap(BUF_BYTES, populate=True) for _ in range(N_BUFFERS)]
    for i, base in enumerate(bases):
        init = bytearray(BUF_BYTES)
        for j in range(0, BUF_BYTES, 256):
            init[j] = (i * 37 + j // 256) % 251
        aspace.write(base, bytes(init))

    def app():
        count = 0
        for op in ops:
            if op[0] == "copy":
                _k, src, dst, offset, length = op
                lazy = (count + seed) % 2 == 0
                count += 1
                yield from client.amemcpy(bases[dst] + offset,
                                          bases[src] + offset, length,
                                          lazy=lazy)
            elif op[0] == "write":
                # Writes interact with lazy tasks in subtle ways; keep
                # this variant write-free by syncing everything first.
                _k, idx, offset, length, fill = op
                yield from client.csync_all()
                aspace.write(bases[idx] + offset, bytes([fill]) * length)
            else:
                _k, idx, offset, length = op[:4]
                yield from client.csync(bases[idx] + offset, length)
        yield from client.csync_all()

    setup.run_process(app(), limit=200_000_000_000)
    expected = _reference(ops)
    for i, base in enumerate(bases):
        got = aspace.read(base, BUF_BYTES)
        assert got == expected[i], "buffer %d diverged (ops=%r)" % (i, ops)
