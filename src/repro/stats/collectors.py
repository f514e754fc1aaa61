"""Latency/miss statistics collectors.

The Fig. 11 analysis bins *miss cycles* into three latency ranges that
map onto the system's physical levels:

- ``low``    (< 75 ns): intra-cluster coherence (L1/cluster-cache hits
  and transfers),
- ``medium`` (75-400 ns): a plain remote (CXL) memory round trip,
- ``high``   (> 400 ns): cross-cluster coherence transactions (snooping
  the other cluster, nested recalls, convoyed requests).

Instruction kinds are grouped as the paper does: loads, stores and RMWs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.config import TICKS_PER_NS

#: (name, upper bound in ns); the last bin is open-ended.
LATENCY_BINS = (("low", 75.0), ("medium", 400.0), ("high", float("inf")))

_KIND_GROUP = {
    "LOAD": "load",
    "LOAD_ACQ": "load",
    "STORE": "store",
    "STORE_REL": "store",
    "RMW": "rmw",
}


def latency_bin(latency_ticks: int) -> str:
    """Classify a latency into the low/medium/high paper bins."""
    ns = latency_ticks / TICKS_PER_NS
    for name, bound in LATENCY_BINS:
        if ns < bound:
            return name
    return LATENCY_BINS[-1][0]  # pragma: no cover


class OpStats:
    """Per-L1 (or aggregated) operation statistics."""

    def __init__(self) -> None:
        self.ops = 0
        self.hits = 0
        self.misses = 0
        self.total_latency = 0
        # (kind_group, bin) -> [count, total_ticks], misses only.
        self.miss_bins: dict[tuple[str, str], list[int]] = {}

    def record_op(self, kind: str, latency: int, hit: bool) -> None:
        """Record one completed memory op."""
        self.ops += 1
        self.total_latency += latency
        if hit:
            self.hits += 1
            return
        self.misses += 1
        key = (_KIND_GROUP.get(kind, "other"), latency_bin(latency))
        entry = self.miss_bins.setdefault(key, [0, 0])
        entry[0] += 1
        entry[1] += latency

    def snapshot(self) -> tuple:
        """Every counter, for :meth:`restore`."""
        return (self.ops, self.hits, self.misses, self.total_latency,
                tuple([(key, entry, tuple(entry))
                       for key, entry in self.miss_bins.items()]))

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`, in the same dict and bin lists."""
        self.ops, self.hits, self.misses, self.total_latency, bins = state
        miss_bins = self.miss_bins
        miss_bins.clear()
        for key, entry, counts in bins:
            entry[:] = counts
            miss_bins[key] = entry

    def merge(self, other: "OpStats") -> None:
        """Fold another collector's counts into this one."""
        self.ops += other.ops
        self.hits += other.hits
        self.misses += other.misses
        self.total_latency += other.total_latency
        for key, (count, ticks) in other.miss_bins.items():
            entry = self.miss_bins.setdefault(key, [0, 0])
            entry[0] += count
            entry[1] += ticks

    # -- Fig. 11 views ----------------------------------------------------
    def miss_cycles(self, group: str | None = None, bin_name: str | None = None) -> int:
        """Total miss ticks, optionally filtered by kind group / latency bin."""
        total = 0
        for (kind_group, latency_range), (_count, ticks) in self.miss_bins.items():
            if group is not None and kind_group != group:
                continue
            if bin_name is not None and latency_range != bin_name:
                continue
            total += ticks
        return total

    def miss_count(self, group: str | None = None, bin_name: str | None = None) -> int:
        """Miss count, optionally filtered by kind group / latency bin."""
        total = 0
        for (kind_group, latency_range), (count, _ticks) in self.miss_bins.items():
            if group is not None and kind_group != group:
                continue
            if bin_name is not None and latency_range != bin_name:
                continue
            total += count
        return total

    def breakdown(self) -> dict[tuple[str, str], tuple[int, int]]:
        """(kind group, bin) -> (miss count, miss ticks)."""
        return {key: tuple(value) for key, value in self.miss_bins.items()}

    def register_metrics(self, registry, path: str) -> None:
        """Publish these counts into a `repro.obs` metrics registry.

        ``registry`` is duck-typed (any object with ``counter(path,
        unit)``) so the stats layer keeps no import dependency on
        :mod:`repro.obs`.  This is how ``OpStats`` *plugs into* the
        hierarchical registry instead of being replaced by it.
        """
        registry.counter(f"{path}.ops", unit="ops").add(self.ops)
        registry.counter(f"{path}.hits", unit="ops").add(self.hits)
        registry.counter(f"{path}.misses", unit="ops").add(self.misses)
        registry.counter(f"{path}.total_latency",
                         unit="ticks").add(self.total_latency)
        for (group, bin_name), (count, ticks) in sorted(self.miss_bins.items()):
            base = f"{path}.miss.{group}.{bin_name}"
            registry.counter(f"{base}.count", unit="ops").add(count)
            registry.counter(f"{base}.ticks", unit="ticks").add(ticks)


@dataclass
class RunResult:
    """Outcome of one simulated program/workload run."""

    exec_time: int  # ticks until the last core finished
    per_core_regs: list[dict]
    stats: OpStats
    events: int = 0
    messages: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def exec_ns(self) -> float:
        return self.exec_time / TICKS_PER_NS
