"""Layered copy absorption (§4.4).

When task T (B→C) reads a range that an earlier *pending* task E (A→B)
writes, the untouched part of B need never be materialized on T's critical
path: Copier short-circuits those bytes straight from A.  The segment
descriptor decides which layer holds the freshest data:

* a *marked* segment of E was already copied (and the client, having
  csynced it, may have modified B) → read from B;
* an *unmarked* segment cannot have been client-accessed (csync would have
  forced the copy) → read from A, recursively resolving A's own producer.

The resolver returns "source spans": concrete (aspace, va, nbytes) pieces
whose concatenation equals the bytes T must write, plus a flag telling
whether the span was absorbed (for accounting and the Fig. 12-c ablation).
"""


class SourceSpan:
    """One resolved piece of a copy's source."""

    __slots__ = ("aspace", "va", "nbytes", "absorbed")

    def __init__(self, aspace, va, nbytes, absorbed):
        self.aspace = aspace
        self.va = va
        self.nbytes = nbytes
        self.absorbed = absorbed

    def __repr__(self):
        return "SourceSpan(as=%d, 0x%x+%d%s)" % (
            self.aspace.asid, self.va, self.nbytes,
            ", absorbed" if self.absorbed else "")


def resolve_sources(pending, reader_task, region, enabled=True):
    """Resolve ``region`` (a source range of ``reader_task``) into spans.

    ``pending`` is the client's merged pending-task list; only tasks
    strictly earlier than ``reader_task`` are considered producers.  With
    ``enabled=False`` (the ablation switch) the region is returned as-is.

    Different slices of the region may be fed by different producers
    (e.g. a gather of several async copies into one buffer): slices not
    covered by the nearest producer are re-resolved recursively.

    The spans are read *now*: use :func:`resolve_round_sources` when they
    are read later, after other tasks of a dispatcher round have run.
    """
    return _resolve(pending, reader_task, reader_task, region, enabled, (),
                    0, False)


def resolve_round_sources(pending, reader_task, region, round_tasks,
                          enabled=True):
    """:func:`resolve_sources` for a dispatcher round, planned up front.

    ``round_tasks`` (in merged order) run in the round ahead of any later
    reader, so one ordered between a producer and ``reader_task``
    overwrites part of the producer's source before the read.  Those
    bytes are never absorbed: they are read from the producer's
    destination instead, which the producer (forced into the round by
    that task's WAR hazard) has written by then.
    """
    return _resolve(pending, reader_task, reader_task, region, enabled,
                    round_tasks, 0, False)


def _resolve(pending, reader, final_reader, region, enabled, round_tasks,
             depth, absorbed):
    direct = [SourceSpan(region.aspace, region.start, region.length,
                         absorbed)]
    if not enabled or depth > 64:
        return direct
    producer = _nearest_producer(pending, reader, region)
    if producer is None:
        return direct

    spans = []
    cursor = region.start
    end = region.start + region.length
    while cursor < end:
        if cursor < producer.dst.start or cursor >= producer.dst.end:
            # Outside this producer's destination — another (earlier)
            # producer may still cover these bytes: re-resolve the slice
            # against the remaining producers.
            if cursor < producer.dst.start:
                chunk = min(end, producer.dst.start) - cursor
            else:
                chunk = end - cursor
            slice_region = type(region)(region.aspace, cursor, chunk)
            spans.extend(_resolve(pending, reader, final_reader,
                                  slice_region, enabled, round_tasks,
                                  depth + 1, absorbed))
            cursor += chunk
            continue
        # Inside the producer's destination: consult its descriptor.
        offset_in_producer = cursor - producer.dst.start
        seg_index = offset_in_producer // producer.descriptor.segment_bytes
        seg_start = producer.dst.start + seg_index * producer.descriptor.segment_bytes
        seg_end = min(seg_start + producer.descriptor.segment_bytes, producer.dst.end)
        chunk = min(end, seg_end) - cursor
        src_region = None if producer.descriptor.is_ready(seg_index) else \
            type(region)(producer.src.aspace,
                         producer.src.start + offset_in_producer, chunk)
        if src_region is None or _overwritten(round_tasks, producer,
                                              final_reader, src_region):
            # Freshest data already lives in (or will have been written
            # to) the intermediate buffer.
            spans.append(SourceSpan(region.aspace, cursor, chunk, absorbed))
        else:
            # Absorb: read straight from the producer's source, recursing
            # through deeper chains (A may itself be fed by a pending task).
            spans.extend(_resolve(pending, producer, final_reader,
                                  src_region, enabled, round_tasks,
                                  depth + 1, True))
        cursor += chunk
    return _coalesce(spans)


def _overwritten(round_tasks, producer, reader, region):
    """True when a round task ordered between ``producer`` and ``reader``
    writes ``region`` (part of the producer's source) before the read."""
    if not round_tasks:
        return False
    lo, hi = producer.order_key, reader.order_key
    return any(lo < t.order_key < hi and t.dst.overlaps(region)
               for t in round_tasks)


def _nearest_producer(pending, reader_task, region):
    if not pending.has_earlier(reader_task):
        return None
    for other in pending.earlier(reader_task, pending.index.writers(region)):
        if not other.is_finished:
            return other
    return None


def _coalesce(spans):
    out = []
    for span in spans:
        if (
            out
            and out[-1].aspace.asid == span.aspace.asid
            and out[-1].va + out[-1].nbytes == span.va
            and out[-1].absorbed == span.absorbed
        ):
            out[-1] = SourceSpan(
                out[-1].aspace, out[-1].va, out[-1].nbytes + span.nbytes,
                span.absorbed,
            )
        else:
            out.append(span)
    return out


def absorbed_bytes(spans):
    return sum(s.nbytes for s in spans if s.absorbed)
