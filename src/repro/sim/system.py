"""System builder: assembles the full two-level simulated machine.

``build_system(config)`` wires, per Table III and Fig. 5:

- one :class:`~repro.cpu.core.Core` + private L1 per hardware thread,
- one :class:`~repro.core.bridge.C3Bridge` per cluster (local directory
  + CXL cache + global port),
- the global home: a blocking CXL :class:`~repro.protocols.cxl_mem.Dcoh`
  or the pipelining hierarchical-MESI directory,
- a point-to-point intra-cluster network and a star cross-cluster
  fabric with jitter (the source of Fig. 2 message races).

``System.run_threads`` maps thread programs onto cores (optionally with
an explicit placement), runs to completion and returns a
:class:`~repro.stats.collectors.RunResult`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.bridge import C3Bridge
from repro.core.global_port import CxlPort, MesiPort
from repro.cpu.core import Core
from repro.cpu.isa import ThreadProgram
from repro.errors import ProtocolError
from repro.protocols.cxl_mem import Dcoh
from repro.protocols.global_mesi import GlobalMesiDir
from repro.protocols.variants import global_variant, local_variant
from repro.sim.config import SystemConfig, ns
from repro.sim.engine import Engine
from repro.sim.l1 import L1Controller, RccL1
from repro.sim.memctrl import BackingStore, MemoryModel
from repro.sim.network import Link, Network
from repro.stats.collectors import OpStats, RunResult

HOME_ID = "home"


class Cluster:
    """One compute node: cores, private L1s, and its C3 bridge."""

    def __init__(self, index: int, cores, l1s, bridge) -> None:
        self.index = index
        self.cores = cores
        self.l1s = l1s
        self.bridge = bridge


class System:
    """A fully wired simulated machine."""

    def __init__(self, config: SystemConfig, engine: Engine, network: Network,
                 clusters: list[Cluster], home, backing: BackingStore) -> None:
        self.config = config
        self.engine = engine
        self.network = network
        self.clusters = clusters
        self.home = home
        self.backing = backing
        self.cores: list[Core] = [core for c in clusters for core in c.cores]
        self.l1s = [l1 for c in clusters for l1 in c.l1s]
        self.monitors = []  # verification hooks called on quiescence checks
        self.domains = self._domains()
        self.node_domains = self._node_domains()
        # Host churn (repro.scenario): cluster index per core position,
        # deferred program starts, and join/leave counters for metrics.
        self._core_cluster = [c.index for c in clusters for _ in c.cores]
        self._join_ticks: dict[int, int] = {}
        self.host_events = {"join": 0, "leave": 0}

    # ------------------------------------------------------------------
    def run_threads(
        self,
        programs: list[ThreadProgram],
        placement: list[int] | None = None,
        max_events: int | None = 20_000_000,
    ) -> RunResult:
        """Run one program per core (by placement) until all complete."""
        if placement is None:
            placement = list(range(len(programs)))
        if len(placement) != len(programs):
            raise ValueError("placement and programs must have equal length")
        remaining = {"count": len(programs)}

        def on_done(_time, counter=remaining):
            counter["count"] -= 1

        join_ticks = self._join_ticks
        for program, core_index in zip(programs, placement):
            core = self.cores[core_index]
            start = join_ticks.get(self._core_cluster[core_index], 0) \
                if join_ticks else 0
            if start:
                # A late-joining host's threads begin at the join tick.
                self.engine.post_at(start, core.run_program, program, on_done)
            else:
                core.run_program(program, on_done)
        self.engine.run(max_events=max_events)
        if remaining["count"] != 0:
            raise ProtocolError(
                f"deadlock: {remaining['count']} threads never finished "
                f"(t={self.engine.now})"
            )
        stats = OpStats()
        for l1 in self.l1s:
            stats.merge(l1.stats)
        exec_time = max((core.finish_time or 0) for core in self.cores)
        return RunResult(
            exec_time=exec_time,
            per_core_regs=[dict(core.regs) for core in self.cores],
            stats=stats,
            events=self.engine.events_executed,
            messages=self.network.stats.messages,
        )

    # ------------------------------------------------------------------
    def schedule_host_events(self, events: list[tuple[str, int, int]]) -> None:
        """Register host churn before :meth:`run_threads`.

        ``events`` holds ``(kind, cluster_index, tick)`` triples:

        - ``"join"``  -- the cluster's threads do not start until
          ``tick`` (the host attaches to the fabric mid-run);
        - ``"leave"`` -- at ``tick`` every core in the cluster is
          parked (:meth:`repro.cpu.core.Core.park`): in-flight memory
          ops and buffered stores drain normally, everything not yet
          issued is abandoned.

        With no events registered, :meth:`run_threads` is byte-
        identical to the pre-hook behaviour (programs start inline).
        """
        for kind, cluster_index, tick in events:
            if not 0 <= cluster_index < len(self.clusters):
                raise ValueError(f"no cluster {cluster_index}")
            if kind == "join":
                held = self._join_ticks.get(cluster_index, 0)
                self._join_ticks[cluster_index] = max(held, tick)
                self.host_events["join"] += 1
            elif kind == "leave":
                self.host_events["leave"] += 1
                self.engine.post_at(tick, self._park_cluster, cluster_index)
            else:
                raise ValueError(f"unknown host event kind {kind!r}")

    def _park_cluster(self, cluster_index: int) -> None:
        """Park every core of a departing cluster (leave event)."""
        for core in self.clusters[cluster_index].cores:
            core.park()

    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """Every controller idle: no transaction outstanding anywhere."""
        return (
            all(l1.quiescent() for l1 in self.l1s)
            and all(c.bridge.quiescent() for c in self.clusters)
            and self.home.quiescent()
        )

    def compound_state(self, cluster: int, addr: int) -> tuple[str, str]:
        """The (local summary, global state) pair for a line in a cluster."""
        return self.clusters[cluster].bridge.compound_state(addr)

    # ------------------------------------------------------------------
    def _domains(self) -> list[list]:
        """``domains``: the stateful components of each domain, one
        domain per network node, in ``network.nodes`` order.

        A bridge's domain holds the bridge, its global port and its
        hybrid local store (if any); an L1's holds the L1 and the core
        whose ``core.l1`` it is; the home's holds the home directory and
        the backing store.  The engine and the network belong to every
        domain and are in none of these lists.  An L1 calls only its
        own core, a bridge only its port, and every other reach between
        components goes through :meth:`Network.send`, so on a network
        that parks sent messages (the model checker's
        :class:`~repro.verify.explorer.InterceptNetwork`) delivering a
        message to an idle system changes only the destination's
        domain (``node_domains``), the engine and the network.
        """
        companions = {id(self.home): [self.backing]}
        for cluster in self.clusters:
            bridge = cluster.bridge
            companions[id(bridge)] = [bridge.port]
            if bridge.local_backing is not None:  # hybrid memory
                companions[id(bridge)].append(bridge.local_backing)
        for core in self.cores:
            companions[id(core.l1)] = [core]
        return [[node, *companions[id(node)]]
                for node in self.network.nodes.values()]

    def _node_domains(self) -> dict[str, int]:
        """``node_domains``: the ``domains`` index of every network node."""
        return {node_id: index
                for index, node_id in enumerate(self.network.nodes)}

    def snapshot(self, base: Sequence = (), clean=()) -> list:
        """Save the state of an idle system for :meth:`restore`.

        Every stateful component saves its field values and container
        contents (dict order too, since it is LRU order in a cache
        set), never the objects in them: components, transactions,
        MSHRs, store-buffer entries, cache lines and directory records
        keep their identity, so the pending-work closures that refer to
        them need no copy.  Configuration, policy tables, programs and
        messages are shared, never copied, and nothing may change them.
        The engine must be idle (``engine.run()`` returned), and the
        network must keep sent messages in an outbox (the model
        checker's :class:`~repro.verify.explorer.InterceptNetwork`):
        a plain network's wires and queued arrivals are not saved.

        The saved state is the engine's, the network's, then one entry
        per domain (``domains``).  ``base`` is an earlier snapshot
        of this system and ``clean`` the indices of the domains that
        are unchanged since the live system last matched ``base``:
        their entries are ``base``'s, shared rather than saved again.
        Sharing is safe because a restore copies saved data into the
        live containers and never aliases it.
        """
        saved = [self.engine.snapshot(), self.network.snapshot()]
        for index, parts in enumerate(self.domains):
            if index in clean:
                saved.append(base[index + 2])
            else:
                saved.append([part.snapshot() for part in parts])
        return saved

    def restore(self, state: list, dirty=None) -> None:
        """Put a :meth:`snapshot` back into this same system, in place.

        Any number of restores may use one snapshot.  Objects made
        since the snapshot are dropped with the containers that held
        them; events left queued by a callback that raised are
        discarded.  The engine and the network are always restored;
        of the domains, only those whose indices are in ``dirty``, or
        every one when it is None.  A domain left out must be unchanged
        since the live system last matched ``state``.
        """
        self.engine.restore(state[0])
        self.network.restore(state[1])
        domains = self.domains
        for index in range(len(domains)) if dirty is None else dirty:
            for part, saved in zip(domains[index], state[index + 2]):
                part.restore(saved)

    def close(self) -> None:
        """Kill this system so reference counting frees it when dropped.

        A system that ran to completion needs no close: every back-edge
        of its graph is weak, so dropping it frees it.  A system stopped
        mid-run (a checker state, a failed run) still holds reference
        cycles through its pending work -- closures parked in MSHRs,
        transactions and the event queue -- which only the cycle
        collector could otherwise reclaim.  Clearing the instance dict
        of every component cuts all of them at once.  The system and
        its components are unusable afterwards, so read any counters
        first.
        """
        parts = [self, self.engine, self.network, self.home, self.backing]
        for cluster in self.clusters:
            bridge = cluster.bridge
            parts += (cluster, bridge, bridge.port, bridge.cache)
            for l1 in cluster.l1s:
                parts += (l1, l1.cache)
            parts += cluster.cores
        for part in parts:
            part.__dict__.clear()


def build_system(
    config: SystemConfig,
    policy_factory=None,
    violate_atomicity: bool = False,
    network_cls: type[Network] = Network,
) -> System:
    """Construct a :class:`System` per ``config``.

    ``policy_factory(local_variant, global_variant) -> BridgePolicy``
    defaults to the generator-equivalent :class:`PermissionPolicy`.
    ``network_cls`` is the interconnect every node registers with (the
    model checker passes its intercepting subclass).
    """
    engine = Engine()
    network = network_cls(engine, seed=config.seed)
    backing = BackingStore()
    memory = MemoryModel(config)
    cycle = config.cycle
    if policy_factory is None:
        # The bridge executes the policy synthesized by the generator
        # (Rule I/II decision tables); PermissionPolicy is the hand
        # reference it is tested against.
        from repro.core.generator import generated_policy_factory

        policy_factory = generated_policy_factory

    gvariant = global_variant(config.global_protocol)
    if config.global_protocol == "CXL":
        home = Dcoh(engine, network, HOME_ID, memory, backing, latency=2 * cycle)
    else:
        home = GlobalMesiDir(engine, network, HOME_ID, memory, backing, latency=2 * cycle)

    intra_link = Link(
        latency=(config.intra_router_cycles + config.intra_link_cycles) * cycle,
        flit_bytes=config.intra_flit_bytes,
        flit_cycle=cycle,
    )
    # Star topology: one hop to the switch, one hop onwards.
    cross_link = Link(
        latency=2 * (config.cross_router_cycles * cycle + ns(config.cross_link_ns)),
        flit_bytes=config.cross_flit_bytes,
        flit_cycle=cycle,
        jitter=ns(config.cross_jitter_ns),
    )

    clusters = []
    bridge_ids = []
    for ci, cluster_cfg in enumerate(config.clusters):
        lvariant = local_variant(cluster_cfg.protocol)
        policy = policy_factory(lvariant, gvariant)
        bridge = C3Bridge(
            engine,
            network,
            f"c3.{ci}",
            variant=lvariant,
            policy=policy,
            size_bytes=cluster_cfg.llc_bytes,
            assoc=cluster_cfg.llc_assoc,
            latency=cluster_cfg.llc_latency_cycles * cycle,
            violate_atomicity=violate_atomicity,
            local_base=config.hybrid_local_base,
            local_backing=BackingStore() if config.hybrid_local_base is not None else None,
            local_mem_latency=ns(config.local_mem_latency_ns),
        )
        if config.global_protocol == "CXL":
            bridge.port = CxlPort(bridge, HOME_ID)
        else:
            bridge.port = MesiPort(bridge, HOME_ID)
        network.connect(bridge.node_id, HOME_ID, cross_link)
        bridge_ids.append(bridge.node_id)

        cores, l1s = [], []
        for li in range(cluster_cfg.cores):
            l1_id = f"l1.{ci}.{li}"
            stats = OpStats()
            if cluster_cfg.protocol == "RCC":
                l1 = RccL1(
                    engine, network, l1_id, bridge.node_id,
                    size_bytes=cluster_cfg.l1_bytes, assoc=cluster_cfg.l1_assoc,
                    hit_latency=cluster_cfg.l1_latency_cycles * cycle, stats=stats,
                )
            else:
                l1 = L1Controller(
                    engine, network, l1_id, bridge.node_id, lvariant,
                    size_bytes=cluster_cfg.l1_bytes, assoc=cluster_cfg.l1_assoc,
                    hit_latency=cluster_cfg.l1_latency_cycles * cycle, stats=stats,
                )
            bridge.local_ids.add(l1_id)
            network.connect(l1_id, bridge.node_id, intra_link)
            for other in l1s:
                network.connect(l1_id, other.node_id, intra_link)
            core = Core(
                engine, f"core.{ci}.{li}", cluster_cfg.mcm,
                window=config.core_window, sb_entries=config.store_buffer_entries,
                cycle=cycle,
            )
            core.l1 = l1
            cores.append(core)
            l1s.append(l1)
        clusters.append(Cluster(ci, cores, l1s, bridge))

    # Peer links between bridges (GMESI peer-to-peer transfers).
    for i, a in enumerate(bridge_ids):
        for b in bridge_ids[i + 1:]:
            network.connect(a, b, cross_link)
    return System(config, engine, network, clusters, home, backing)
