"""Segment descriptors: fine-grained copy progress bitmaps (§4.1).

A descriptor partitions a copy into fixed-size *segments* and tracks which
segments have landed.  Clients csync against the bitmap, so data can be
used as soon as the needed prefix arrives — the copy-use pipeline.  The
service marks bits as it copies; waiters registered by csync fire as soon
as their range becomes fully ready.
"""


class Descriptor:
    """Progress bitmap for one async copy."""

    __slots__ = ("length", "segment_bytes", "_bits", "_ready_count",
                 "n_segments", "_waiters", "aborted")

    def __init__(self, length, segment_bytes):
        if length <= 0:
            raise ValueError("descriptor length must be positive")
        if segment_bytes <= 0:
            raise ValueError("segment size must be positive")
        self.length = length
        self.segment_bytes = segment_bytes
        self.n_segments = (length + segment_bytes - 1) // segment_bytes
        self._bits = 0
        self._ready_count = 0
        self._waiters = []  # (first_seg, last_seg, event)
        self.aborted = False

    # ------------------------------------------------------------- progress

    def mark(self, index):
        """Mark segment ``index`` copied; wakes satisfied waiters."""
        if index < 0 or index >= self.n_segments:
            raise IndexError("segment %d out of range" % index)
        bit = 1 << index
        if self._bits & bit:
            return
        self._bits |= bit
        self._ready_count += 1
        self._wake_waiters()

    def mark_range(self, first, last):
        """Mark segments ``[first, last]`` copied in one bitmap update.

        Equivalent to calling :meth:`mark` for each index, but the bitmap
        is updated with a single OR and satisfied waiters fire exactly
        once — the path the executor uses when a multi-segment round (or
        DMA run) retires together.
        """
        if first < 0 or last >= self.n_segments or first > last:
            raise IndexError("segment range [%d, %d] out of range" % (first, last))
        mask = ((1 << (last - first + 1)) - 1) << first
        new = mask & ~self._bits
        if not new:
            return
        self._bits |= mask
        self._ready_count += bin(new).count("1")
        self._wake_waiters()

    def _wake_waiters(self):
        if self._waiters:
            still_waiting = []
            for first, last, event in self._waiters:
                if self.range_ready_segments(first, last):
                    event.succeed()
                else:
                    still_waiting.append((first, last, event))
            self._waiters = still_waiting

    def is_ready(self, index):
        return bool(self._bits & (1 << index))

    @property
    def all_ready(self):
        return self._ready_count == self.n_segments

    @property
    def ready_segments(self):
        return self._ready_count

    def ready_bytes(self):
        total = 0
        for i in range(self.n_segments):
            if self.is_ready(i):
                total += min(self.segment_bytes, self.length - i * self.segment_bytes)
        return total

    # ------------------------------------------------------------ range ops

    def segments_of_range(self, offset, length):
        """Segment index span [first, last] covering bytes [offset, offset+length)."""
        if length <= 0:
            raise ValueError("empty range")
        if offset < 0 or offset + length > self.length:
            raise ValueError("range outside descriptor")
        first = offset // self.segment_bytes
        last = (offset + length - 1) // self.segment_bytes
        return first, last

    def range_ready(self, offset, length):
        """True if every segment covering the byte range is marked."""
        first, last = self.segments_of_range(offset, length)
        return self.range_ready_segments(first, last)

    def range_ready_segments(self, first, last):
        mask = ((1 << (last - first + 1)) - 1) << first
        return (self._bits & mask) == mask

    def wait_range(self, env, offset, length):
        """Event that triggers once [offset, offset+length) is fully copied."""
        event = env.event()
        first, last = self.segments_of_range(offset, length)
        if self.range_ready_segments(first, last):
            event.succeed()
        else:
            self._waiters.append((first, last, event))
        return event

    def abort(self):
        """Mark the copy discarded: the data will never arrive (§4.4).

        Waiters are woken so a csync racing an abort raises instead of
        spinning forever; :mod:`repro.api` turns this into ``CopyAborted``.
        """
        self.aborted = True
        waiters, self._waiters = self._waiters, []
        for _first, _last, event in waiters:
            event.succeed()

    def reset(self):
        """Clear all progress, for a caller that reuses its descriptor
        across copies (libCopier's recycled I/O buffers, §5.1.1)."""
        self._bits = 0
        self._ready_count = 0
        self._waiters = []
        self.aborted = False

    def __repr__(self):
        return "<Descriptor %d/%d segs of %dB>" % (
            self._ready_count, self.n_segments, self.segment_bytes)

