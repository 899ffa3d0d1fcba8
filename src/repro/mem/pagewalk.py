"""The historic per-page walkers, kept as a reference address space.

Before the run cache and the bulk run primitives
(:mod:`repro.mem.addrspace`), every translate, fault walk, read and
write went one page at a time through the full :meth:`translate` walk.
The fast paths must resolve the same faults in the same order and move
the same bytes, so the historic walkers survive here verbatim as the
differential oracle: :class:`PageWalkAddressSpace` overrides the page
translate behind ``_walk_runs`` and the four per-page walkers, and
inherits everything else.  ``COPIER_SLOWPATH=1`` makes
:class:`~repro.kernel.System` build it; the fast-path differential
(``tests/verify/test_fastpath_differential.py``) compares the two.
"""

from repro.mem.addrspace import AddressSpace, pages_end
from repro.mem.faults import NotPresentFault, ProtectionFault
from repro.mem.phys import PAGE_SIZE


class PageWalkAddressSpace(AddressSpace):
    """:class:`~repro.mem.addrspace.AddressSpace` without the run cache:
    every page is translated by a full walk."""

    page_walk = True

    def _translate_page(self, va, write):
        frame, _off = self.translate(va, write=write)
        return frame

    def ensure_mapped(self, va, length, write=False):
        resolutions = []
        for vpn in range(va // PAGE_SIZE, pages_end(va, length)):
            page_va = vpn * PAGE_SIZE
            probe = max(va, page_va)
            while True:
                try:
                    self.translate(probe, write=write)
                    break
                except (NotPresentFault, ProtectionFault):
                    resolutions.append(self.resolve_fault(probe, write=write))
        return resolutions

    def frames_for(self, va, length, write=False):
        spans = []
        cursor = va
        end = va + length
        while cursor < end:
            frame, offset = self.translate(cursor, write=write)
            chunk = min(end - cursor, PAGE_SIZE - offset)
            spans.append((frame, offset, chunk))
            cursor += chunk
        return spans

    def read(self, va, length):
        out = bytearray()
        cursor = va
        end = va + length
        while cursor < end:
            try:
                frame, offset = self.translate(cursor, write=False)
            except (NotPresentFault, ProtectionFault):
                self.resolve_fault(cursor, write=False)
                continue
            chunk = min(end - cursor, PAGE_SIZE - offset)
            out += self.phys.read(frame, offset, chunk)
            cursor += chunk
        return bytes(out)

    def write(self, va, data):
        cursor = va
        pos = 0
        end = va + len(data)
        while cursor < end:
            try:
                frame, offset = self.translate(cursor, write=True)
            except (NotPresentFault, ProtectionFault):
                self.resolve_fault(cursor, write=True)
                continue
            chunk = min(end - cursor, PAGE_SIZE - offset)
            self.phys.write(frame, offset, data[pos : pos + chunk])
            cursor += chunk
            pos += chunk
