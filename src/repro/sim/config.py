"""System configuration mirroring Table III of the paper.

All durations are integer ticks; :data:`TICKS_PER_NS` converts from
nanoseconds and :attr:`SystemConfig.cycle` from CPU cycles.  Defaults
reproduce the simulated system parameters of Table III:

=============  ==========================================================
Cores          8-30 cores, 2 GHz, 8-wide OoO, 192-entry ROB
L1 cache       128 KiB, 8-way, private, LRU, 1-cycle latency
LLC            4 MiB, 8-way, shared, inclusive, LRU
Intra-cluster  point-to-point, 72 B flits, 1-cycle router, 10-cycle link
Cross-cluster  star, 256 B flits, 1-cycle router, 70 ns link
CXL memory     DDR5-4400, 1 channel, 10 ns device latency
=============  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass

#: One tick is one picosecond.
TICKS_PER_NS = 1000

#: Cache line size in bytes (one coherence unit).
LINE_BYTES = 64


def ns(value: float) -> int:
    """Convert nanoseconds to ticks."""
    return int(round(value * TICKS_PER_NS))


@dataclass(frozen=True)
class ClusterConfig:
    """Per-cluster parameters: core count, protocol, and MCM."""

    cores: int = 8
    protocol: str = "MESI"  # MESI | MESIF | MOESI | RCC
    mcm: str = "WEAK"  # SC | TSO | WEAK | RCC
    l1_bytes: int = 128 * 1024
    l1_assoc: int = 8
    l1_latency_cycles: int = 1
    llc_bytes: int = 4 * 1024 * 1024
    llc_assoc: int = 8
    llc_latency_cycles: int = 8


@dataclass(frozen=True)
class SystemConfig:
    """Full two-level system configuration (Table III defaults)."""

    clusters: tuple[ClusterConfig, ...] = (ClusterConfig(), ClusterConfig())
    #: Global protocol: "MESI" (hierarchical baseline) or "CXL".
    global_protocol: str = "CXL"
    freq_ghz: float = 2.0

    # Intra-cluster network (point-to-point).
    intra_flit_bytes: int = 72
    intra_router_cycles: int = 1
    intra_link_cycles: int = 10

    # Cross-cluster network (star through the CXL switch / home).
    cross_flit_bytes: int = 256
    cross_router_cycles: int = 1
    cross_link_ns: float = 70.0
    #: Random per-message jitter (in ns) on the cross-cluster fabric.  It
    #: models PCIe-fabric arbitration and makes cross-virtual-network
    #: reordering (the Fig. 2 races) actually occur.  Per-channel FIFO
    #: order is always preserved.
    cross_jitter_ns: float = 20.0

    # Memory device.
    mem_latency_ns: float = 10.0

    #: Hybrid memory (paper Sec. IV-D4): addresses at or above this
    #: boundary are *cluster-local* -- served by the cluster's own DRAM
    #: through the existing controllers, never crossing CXL.  ``None``
    #: reproduces the paper's worst-case all-remote configuration.
    #: Callers are responsible for keeping local addresses
    #: cluster-private (the workload generators' private regions are).
    hybrid_local_base: int | None = None
    #: Local DRAM latency for hybrid configurations.
    local_mem_latency_ns: float = 10.0

    #: Maximum in-flight memory ops per core (issue window).
    core_window: int = 8
    #: Store-buffer entries (TSO).
    store_buffer_entries: int = 16
    #: Fixed cost of non-memory work between ops, in cycles, when a
    #: workload op carries no explicit compute annotation.
    default_compute_cycles: int = 1

    seed: int = 1

    def __post_init__(self) -> None:
        if len(self.clusters) < 1:
            raise ValueError("need at least one cluster")
        if self.global_protocol not in ("MESI", "CXL"):
            raise ValueError(f"unknown global protocol {self.global_protocol!r}")
        for cluster in self.clusters:
            if cluster.protocol not in ("MESI", "MESIF", "MOESI", "RCC"):
                raise ValueError(f"unknown local protocol {cluster.protocol!r}")
            if cluster.mcm not in ("SC", "TSO", "WEAK", "RCC"):
                raise ValueError(f"unknown MCM {cluster.mcm!r}")

    @property
    def cycle(self) -> int:
        """Duration of one CPU cycle in ticks."""
        return int(round(TICKS_PER_NS / self.freq_ghz))

    def cycles(self, n: int) -> int:
        """Convert CPU cycles to ticks."""
        return n * self.cycle

    @property
    def total_cores(self) -> int:
        return sum(c.cores for c in self.clusters)

    @property
    def combo_name(self) -> str:
        """Human-readable protocol combination, e.g. ``MESI-CXL-MOESI``."""
        locals_ = [c.protocol for c in self.clusters]
        return "-".join([locals_[0], self.global_protocol, *locals_[1:]])


def two_cluster_config(
    local_a: str = "MESI",
    global_protocol: str = "CXL",
    local_b: str = "MESI",
    mcm_a: str = "WEAK",
    mcm_b: str = "WEAK",
    cores_per_cluster: int = 4,
    **overrides,
) -> SystemConfig:
    """Convenience builder for the paper's two-cluster topology.

    ``two_cluster_config("MESI", "CXL", "MOESI", mcm_a="TSO")`` is the
    MESI-CXL-MOESI system with a TSO first cluster.
    """
    cluster_a = ClusterConfig(cores=cores_per_cluster, protocol=local_a, mcm=mcm_a)
    cluster_b = ClusterConfig(cores=cores_per_cluster, protocol=local_b, mcm=mcm_b)
    return SystemConfig(
        clusters=(cluster_a, cluster_b), global_protocol=global_protocol, **overrides
    )
