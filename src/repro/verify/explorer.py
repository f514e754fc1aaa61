"""Explicit-state model checking over message delivery orders.

This is the repository's Murphi substitute, with one important twist:
instead of checking an abstract re-model of the protocol, it checks the
*actual implementation*.  The network is intercepted so that every sent
message lands in an outbox instead of being scheduled; the explorer then
exhaustively enumerates delivery orders (respecting per-channel FIFO,
exactly like the real fabric) using depth-first search with state
hashing.  At every reached state the runtime invariants run; terminal
states must have all programs complete (deadlock-freedom) and their
outcomes are collected for comparison against the axiomatic model.

Because controller continuations are closures, states are reproduced by
*replaying* the delivery-choice path from a fresh system rather than by
snapshotting -- stateless model checking with a visited-fingerprint set
to prune the search.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.errors import ConsistencyViolation
from repro.protocols.messages import Message
from repro.sim.config import ClusterConfig, SystemConfig
from repro.sim.network import Network
from repro.sim.system import build_system
from repro.verify import invariants


class InterceptNetwork(Network):
    """Network that parks sent messages for explicit delivery choices."""

    def __init__(self, engine, seed=1):
        super().__init__(engine, seed)
        self.outbox: list[Message] = []

    def send(self, msg: Message) -> None:
        self.stats.record(msg)
        self.outbox.append(msg)

    def deliverable(self) -> list[int]:
        """Outbox indices eligible for delivery: per-(src, dst, vnet)
        channels are FIFO, so only the oldest message of each channel
        may be delivered."""
        seen_channels = set()
        eligible = []
        for index, msg in enumerate(self.outbox):
            channel = (msg.src, msg.dst, msg.vnet)
            if channel in seen_channels:
                continue
            seen_channels.add(channel)
            eligible.append(index)
        return eligible

    def deliver(self, index: int) -> None:
        """Deliver (and remove) the outbox message at ``index``."""
        msg = self.outbox.pop(index)
        self.nodes[msg.dst].handle_message(msg)


@dataclass
class ExplorationResult:
    states: int = 0
    terminals: int = 0
    outcomes: set = field(default_factory=set)
    max_depth: int = 0
    truncated: bool = False
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Clean verdict: no violations, ≥1 terminal, *and* exhaustive.

        A truncated exploration proves nothing about the states it never
        reached, so it must not report clean -- a capped run that found
        one terminal used to."""
        return (not self.violations and self.terminals > 0
                and not self.truncated)


class Explorer:
    """DFS over delivery orders with state hashing."""

    def __init__(
        self,
        combo: tuple[str, str, str],
        programs,
        placement=None,
        mcms: tuple[str, str] = ("SC", "SC"),
        observed_addrs: tuple[int, ...] = (),
        max_states: int = 5_000,
        check_invariants: bool = True,
    ) -> None:
        self.combo = combo
        self.programs = programs
        self.placement = placement
        self.mcms = mcms
        self.observed_addrs = observed_addrs
        self.max_states = max_states
        self.check_invariants = check_invariants

    # ------------------------------------------------------------------
    def _fresh_system(self):
        local_a, global_protocol, local_b = self.combo
        threads = len(self.programs)
        cores = max(1, (threads + 1) // 2)
        config = SystemConfig(
            clusters=(
                ClusterConfig(cores=cores, protocol=local_a, mcm=self.mcms[0]),
                ClusterConfig(cores=cores, protocol=local_b, mcm=self.mcms[1]),
            ),
            global_protocol=global_protocol,
            cross_jitter_ns=0.0,
        )
        system = build_system(config)
        # Swap in the intercepting network: re-register nodes and links.
        old = system.network
        network = InterceptNetwork(system.engine, seed=config.seed)
        network.nodes = old.nodes
        network.links = old.links
        for node in old.nodes.values():
            node.network = network
        system.network = network

        placement = self.placement or [
            (tid % 2) * cores + tid // 2 for tid in range(threads)
        ]
        self._done = {"count": threads}

        def on_done(_t):
            self._done["count"] -= 1

        for program, core_index in zip(self.programs, placement):
            # Fresh program copies: ops are mutable dataclasses.
            system.cores[core_index].run_program(copy.deepcopy(program), on_done)
        system.engine.run()
        return system, network

    def _replay(self, path):
        system, network = self._fresh_system()
        for choice in path:
            network.deliver(choice)
            system.engine.run()
        return system, network

    # ------------------------------------------------------------------
    def explore(self) -> ExplorationResult:
        """Run the DFS over delivery orders; returns the aggregate result."""
        result = ExplorationResult()
        visited = set()
        stack = [()]
        while stack:
            path = stack.pop()
            system, network = self._replay(path)
            fingerprint = _fingerprint(system, network)
            if path and fingerprint in visited:
                continue
            visited.add(fingerprint)
            result.states += 1
            result.max_depth = max(result.max_depth, len(path))
            if self.check_invariants:
                try:
                    invariants.check_all(system)
                except ConsistencyViolation as exc:
                    result.violations.append((path, exc))
                    continue
            choices = network.deliverable()
            if not choices:
                if self._done["count"] != 0:
                    result.violations.append(
                        (path, ConsistencyViolation(
                            f"deadlock: {self._done['count']} threads stuck"))
                    )
                else:
                    result.terminals += 1
                    result.outcomes.add(self._outcome(system))
                continue
            if result.states >= self.max_states:
                result.truncated = True
                break
            for choice in choices:
                stack.append(path + (choice,))
        return result

    def _outcome(self, system):
        outcome = {}
        for core in system.cores:
            outcome.update(core.regs)
        for addr in self.observed_addrs:
            outcome[f"[{addr}]"] = _final_value(system, addr)
        return tuple(sorted(outcome.items()))

    # ------------------------------------------------------------------
    # Counterexample replay.
    # ------------------------------------------------------------------
    def replay_with_trace(self, path):
        """Re-execute a delivery path (e.g. a violation's) with a
        message tracer attached, for post-mortem inspection.

        Returns ``(system, tracer)`` at the end of the path; the
        tracer's :meth:`~repro.sim.trace.MessageTracer.timeline` shows
        exactly the message sequence that led to the state.
        """
        from repro.sim.trace import MessageTracer

        system, network = self._fresh_system()
        tracer = MessageTracer(network)
        # MessageTracer wraps network.send; replay the chosen deliveries.
        for choice in path:
            network.deliver(choice)
            system.engine.run()
        return system, tracer


def _final_value(system, addr):
    value = invariants.authoritative_value(system, addr)
    return value if value is not None else 0


# ---------------------------------------------------------------------------
# Fingerprinting.
# ---------------------------------------------------------------------------

def _rec_fp(rec):
    return (rec.owner, rec.owner_kind, tuple(sorted(rec.sharers)), rec.f_holder)


def _fingerprint(system, network) -> int:
    return hash(state_parts(system, network))


def state_parts(system, network) -> tuple:
    """Canonical nested-tuple digest of one (system, outbox) state.

    Everything observable that distinguishes two protocol states is
    flattened to primitives (ints, strings, bools, None) in a fixed
    order: cache lines, MSHRs, bridge transactions, port pending sets,
    home directory, core registers/store buffers, and the in-flight
    messages grouped per FIFO channel *preserving order* within the
    channel.  Both the legacy DFS fingerprint (``hash``) and the model
    checker's process-stable fingerprint (:mod:`repro.verify.mc`) are
    derived from these parts.
    """
    parts = []
    for cluster in system.clusters:
        for l1 in cluster.l1s:
            lines = tuple(sorted(
                (line.addr, line.state, line.data, line.dirty)
                for line in l1.cache.lines()
            ))
            mshrs = tuple(sorted(
                (addr, mshr.txn, mshr.have_data, mshr.have_grant,
                 mshr.grant_state, mshr.data, len(mshr.ops))
                for addr, mshr in getattr(l1, "mshrs", {}).items()
            ))
            parts.append((l1.node_id, lines, mshrs))
        bridge = cluster.bridge
        lines = tuple(sorted(
            (line.addr, line.state, line.data, line.dirty,
             line.meta.get("stale", False), _rec_fp(bridge.dir_record(line)))
            for line in bridge.cache.lines()
        ))
        busy = tuple(sorted(
            (addr, txn.kind, txn.requester, txn.phase, txn.acks_needed,
             txn.acks_got, txn.owner_forwarded, txn.was_sharer)
            for addr, txn in bridge.busy.items()
        ))
        recalls = tuple(sorted(
            (addr, recall.mode, recall.acks_needed, recall.acks_got)
            for addr, recall in bridge.recalls.items()
        ))
        pq = tuple(sorted(
            (addr, tuple(m.kind for m in queue))
            for addr, queue in bridge.pq_local.items()
        ))
        port = bridge.port
        pending = tuple(sorted(
            (addr, p.want, p.grant_seen, p.grant_state, p.data,
             p.acks_needed, p.acks_got)
            for addr, p in port.pending.items()
        ))
        wbs = tuple(sorted(
            (addr, w.held_snoop.kind if w.held_snoop else None)
            for addr, w in port.wb.items()
        ))
        snoops = tuple(sorted(
            (addr, tuple(m.kind for m in queue))
            for addr, queue in port.snoop_q.items()
        ))
        active = tuple(sorted(
            (addr, msg.kind) for addr, msg in port.active_snoop.items()
        ))
        conflict = tuple(sorted(
            (addr, state["snoop"].kind, state["granted"])
            for addr, state in getattr(port, "conflict_state", {}).items()
        ))
        parts.append((bridge.node_id, lines, busy, recalls, pq,
                      tuple(sorted(bridge.evicting)), pending, wbs, snoops,
                      active, conflict))
    home = system.home
    home_lines = tuple(sorted(
        (addr, line.state, line.owner, tuple(sorted(line.sharers)),
         getattr(line, "data_pending", False))
        for addr, line in home.lines.items()
    ))
    home_busy = tuple(sorted(
        (addr, txn.kind, txn.requester, tuple(sorted(txn.targets)))
        for addr, txn in getattr(home, "busy", {}).items()
    ))
    home_queue = tuple(sorted(
        (addr, tuple(entry[0].kind if isinstance(entry, tuple) else entry.kind
                     for entry in queue))
        for addr, queue in home.queues.items()
    ))
    parts.append(("home", home_lines, home_busy, home_queue,
                  tuple(sorted(system.backing.snapshot().items()))))
    for core in system.cores:
        parts.append((
            core.core_id, tuple(core.status),
            tuple((e.op_index, e.addr, e.value, e.draining) for e in core.sb),
            tuple(sorted(core.regs.items())),
        ))
    # In-flight messages, grouped per FIFO channel *preserving order*
    # within the channel (order across channels is immaterial).
    channels: dict = {}
    for msg in network.outbox:
        key = (msg.src, msg.dst, msg.vnet)
        channels.setdefault(key, []).append(
            (msg.kind, msg.addr, msg.meta, msg.data, msg.acks,
             msg.extra.get("req"), msg.extra.get("inv", False),
             msg.extra.get("kept"), msg.extra.get("dirty", False))
        )
    parts.append(tuple(sorted(
        (key, tuple(entries)) for key, entries in channels.items()
    )))
    return tuple(parts)
