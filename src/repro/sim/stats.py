"""Cycle, instruction and energy accounting.

Drives three pieces of the evaluation:

* Fig. 2 — the share of cycles spent in copy per application (per-tag
  cycle counters).
* §6.3.5 — CPI of copy-irrelevant code (per-tag instruction counters).
* Fig. 13-c — smartphone energy (per-core busy/idle power integration).
"""

from collections import defaultdict


class CycleStats:
    """Aggregates cycles and instructions by process and tag."""

    def __init__(self):
        # {pid: {tag: cycles}}; the core scheduler adds each slice to all
        # three maps (``CoreSet._slice_end``).
        self.cycles = defaultdict(lambda: defaultdict(int))
        self.instructions = defaultdict(lambda: defaultdict(float))
        self.core_cycles = defaultdict(lambda: defaultdict(int))

    def total_cycles(self, pid=None, tag=None):
        if pid is not None:
            per_tag = self.cycles.get(pid, {})
            if tag is not None:
                return per_tag.get(tag, 0)
            return sum(per_tag.values())
        total = 0
        for per_tag in self.cycles.values():
            if tag is not None:
                total += per_tag.get(tag, 0)
            else:
                total += sum(per_tag.values())
        return total

    def tag_share(self, tag, pid=None):
        """Fraction of accounted cycles carrying ``tag`` (Fig. 2 metric)."""
        total = self.total_cycles(pid=pid)
        if total == 0:
            return 0.0
        return self.total_cycles(pid=pid, tag=tag) / total

    def cpi(self, tags=None, pid=None, exclude_tags=()):
        """Cycles-per-instruction over the selected tags (§6.3.5 metric)."""
        cycles = 0
        instructions = 0.0
        sources = (
            [self.cycles.get(pid, {})] if pid is not None else list(self.cycles.values())
        )
        instr_sources = (
            [self.instructions.get(pid, {})]
            if pid is not None
            else list(self.instructions.values())
        )
        for cyc_map, ins_map in zip(sources, instr_sources):
            for tag, cyc in cyc_map.items():
                if tag in exclude_tags:
                    continue
                if tags is not None and tag not in tags:
                    continue
                cycles += cyc
                instructions += ins_map.get(tag, 0.0)
        if instructions == 0:
            return 0.0
        return cycles / instructions


class EnergyModel:
    """Simple per-core power integration (Fig. 13-c substitution).

    ``active_power`` and ``idle_power`` are in arbitrary power units; energy
    is power x cycles.  The paper reports energy deltas in percent, so only
    the active/idle ratio matters for reproducing the shape.
    """

    def __init__(self, active_power=1.0, idle_power=0.08):
        self.active_power = active_power
        self.idle_power = idle_power

    def energy(self, core_set, now=None):
        now = core_set.env.now if now is None else now
        total = 0.0
        for core in core_set.cores:
            busy = min(core.busy_cycles, now)
            total += busy * self.active_power + (now - busy) * self.idle_power
        return total
