"""Runtime invariant monitors.

These encode the properties the paper's Murphi stage checks:

- **SWMR** -- at any instant, at most one cluster holds global write
  permission for a line, and while one does, no other cluster holds any
  copy; within a cluster, at most one L1 holds E/M while the others are
  Invalid.
- **Value coherence** -- every readable copy equals the authoritative
  value (L1 owner's data, else the cluster cache's, else memory).  RCC
  L1s are exempt: self-invalidating caches may hold stale data until
  the next acquire (paper footnote 5).
- **Inclusion** -- every line held by a MESI-family L1 is present in
  its cluster's CXL cache.
- **Compound-state legality** -- no line sits in a compound state the
  policy marks forbidden (e.g. (M, S)), checked when unblocked.

``attach_monitor`` samples the invariants periodically during a run,
which is how the Rule-II failure-injection experiment (Fig. 4) catches
the transient SWMR window that ``violate_atomicity`` opens.

``check_all`` walks every bridge and L1 array once, so one sample costs
O(resident lines), then runs SWMR, value, inclusion, compound in that
order and raises the first violation: check order beats address order;
within a check the lowest address (inclusion, compound: first line) wins.
The walk is read-only and keeps these behaviours:

- Compound legality skips a line only while its *own* bridge blocks it.
- "Quiet" (value check) is global: no bridge or port, L1 MSHR,
  ``home.busy`` entry or home ``data_pending`` touches the line.
- The intra-cluster L1 SWMR check runs wherever the cluster's bridge
  holds the line, tearing down (``evicting`` / ``port.wb``) or not; a
  tearing-down line is left out of the cross-cluster counts.
- Authoritative value: the first non-RCC L1 line in M/O/E (cluster, then
  L1 order), else the first dirty non-stale bridge line, else the
  backing store; ``None`` skips the value check.
- Inclusion reports in cluster -> L1 -> ``CacheArray.lines()`` order.
- Lines held only by RCC L1s are walked but can break nothing.
- No meta dict or ``DirRecord`` is created: a missing record summarizes
  to "I" and a missing ``stale`` flag reads as False.
"""

from __future__ import annotations

from repro.errors import ConsistencyViolation
from repro.protocols.variants import NONE, READ, WRITE
from repro.sim.l1 import RccL1

#: L1 states with write permission / any permission.
_WRITER_STATES = {"E", "M"}
_HOLDER_STATES = {"S", "E", "M", "O", "F"}
_OWNER_STATES = {"M", "O", "E"}

#: Permission carried by each local-directory summary letter.
_SUMMARY_PERM = {"I": NONE, "S": READ, "O": READ, "M": WRITE}


def derive_forbidden_pairs(local_variant, global_variant,
                           summaries=("I", "S", "M")) -> set:
    """Independently re-derive the forbidden compound-state vocabulary.

    This is the invariant layer's own statement of which (local summary,
    global state) pairs Rule II must never let exist: inclusion (a local
    holder implies a global copy) and permission escalation (local write
    permission implies global write permission), with the RCC
    self-invalidation exemption (paper footnote 5).  It deliberately
    shares no code with the generator's ``_forbidden_states`` so the
    static analyzer (:mod:`repro.analysis.forbidden`) can diff the two
    derivations and catch either side drifting.
    """
    forbidden: set = set()
    if local_variant.self_invalidating:
        return forbidden
    for l in summaries:
        for g in global_variant.state_names():
            if l != "I" and g == "I":
                forbidden.add((l, g))
            elif (_SUMMARY_PERM[l] == WRITE
                  and global_variant.perm(g) < WRITE):
                forbidden.add((l, g))
    return forbidden


class _Walk:
    """One visit of every bridge and L1 line: ``bridges[addr]`` holds
    ``(cluster, line)``, ``holders[addr]`` non-RCC ``(cluster, l1, line)``
    holders, both in cluster then L1 order, plus the first inclusion and
    compound violation in their report order."""

    def __init__(self, system) -> None:
        self.bridges: dict[int, list] = {}
        self.holders: dict[int, list] = {}
        self.inclusion: str | None = None
        self.compound: str | None = None
        for cluster in system.clusters:
            bridge = cluster.bridge
            present: set[int] = set()
            for line in bridge.cache.lines():
                addr = line.addr
                present.add(addr)
                self.bridges.setdefault(addr, []).append((cluster, line))
                if self.compound is None and not bridge.blocked(addr):
                    record = line.peek_meta("dir")
                    local = "I" if record is None else record.summary()
                    if bridge.policy.forbidden(local, line.state):
                        self.compound = (f"compound: {bridge.node_id} line 0x{addr:x} in "
                                         f"forbidden state ({local}, {line.state})")
            # RCC relaxes inclusion (paper footnote 5).
            inclusive = not bridge.variant.self_invalidating
            for l1 in cluster.l1s:
                rcc = isinstance(l1, RccL1)  # stale-until-acquire by design
                for line in l1.cache.lines():
                    if line.state not in _HOLDER_STATES:
                        continue
                    addr = line.addr
                    if not rcc:
                        self.holders.setdefault(addr, []).append((cluster, l1, line))
                    if inclusive and self.inclusion is None and addr not in present:
                        self.inclusion = (f"inclusion: {l1.node_id} holds 0x{addr:x} "
                                          f"({line.state}) absent from {bridge.node_id}")


def check_swmr(system, walk=None) -> None:
    """SWMR; only an address with two bridge lines or two L1 holders can break it."""
    walk = walk or _Walk(system)
    suspects = {addr for addr, lines in walk.bridges.items() if len(lines) > 1}
    suspects.update(addr for addr, held in walk.holders.items() if len(held) > 1)
    for addr in sorted(suspects):
        held = walk.holders.get(addr, ())
        writer_clusters, holder_clusters = [], []
        for cluster, line in walk.bridges.get(addr, ()):
            holders = [l1.node_id for c, l1, _ in held if c is cluster]
            writers = [l1.node_id for c, l1, l1_line in held
                       if c is cluster and l1_line.state in _WRITER_STATES]
            if len(writers) > 1:
                raise ConsistencyViolation(f"SWMR: L1s {writers} both writable for 0x{addr:x}")
            if writers and len(holders) > 1:
                raise ConsistencyViolation(
                    f"SWMR: {writers[0]} writable while {holders} hold 0x{addr:x}")
            bridge = cluster.bridge
            if addr in bridge.evicting or addr in bridge.port.wb:
                # A tearing-down line keeps its state label, not its
                # permission: the home may already have re-granted it.
                continue
            if line.state in _WRITER_STATES:
                writer_clusters.append(cluster.index)
            if line.state in _HOLDER_STATES:
                holder_clusters.append(cluster.index)
        if len(writer_clusters) > 1:
            raise ConsistencyViolation(f"SWMR: clusters {writer_clusters} both hold global "
                                       f"write permission for 0x{addr:x}")
        if writer_clusters and len(holder_clusters) > 1:
            raise ConsistencyViolation(f"SWMR: cluster {writer_clusters[0]} owns 0x{addr:x} "
                                       f"while clusters {holder_clusters} hold copies")


def _line_quiet(system, addr) -> bool:
    """No transaction anywhere is touching ``addr`` right now."""
    for cluster in system.clusters:
        if cluster.bridge.blocked(addr):
            return False
        for l1 in cluster.l1s:
            if addr in getattr(l1, "mshrs", {}):
                return False
    if addr in getattr(system.home, "busy", {}):
        return False
    home_line = system.home.lines.get(addr)
    if home_line is not None and getattr(home_line, "data_pending", False):
        return False  # owner's WBData still in flight to the home
    return True


def check_value_coherence(system, walk=None) -> None:
    """Readable copies of every quiet line match its authoritative value."""
    walk = walk or _Walk(system)
    for addr in sorted(walk.holders):
        held = walk.holders[addr]
        value = _authoritative(system, addr, [line for _, _, line in held],
                               [line for _, line in walk.bridges.get(addr, ())])
        mismatch = next((pair for pair in held if pair[2].data != value), None)
        if value is not None and mismatch and _line_quiet(system, addr):
            raise ConsistencyViolation(
                f"value: {mismatch[1].node_id} reads {mismatch[2].data} for "
                f"0x{addr:x}, authoritative is {value}")


def authoritative_value(system, addr):
    """The value every readable non-RCC copy of ``addr`` must hold now."""
    clusters = system.clusters
    l1_lines = [l1.cache.peek(addr) for c in clusters for l1 in c.l1s if not isinstance(l1, RccL1)]
    return _authoritative(system, addr, l1_lines, [c.bridge.cache.peek(addr) for c in clusters])


def _authoritative(system, addr, l1_lines, bridge_lines):
    # Priority: any L1 owner; then a dirty cluster cache; then memory.
    for line in l1_lines:
        if line is not None and line.state in _OWNER_STATES:
            return line.data
    for line in bridge_lines:
        if line is not None and line.dirty and not line.peek_meta("stale", False):
            return line.data
    return system.backing.read(addr)


def check_inclusion(system, walk=None) -> None:
    """MESI-family L1 contents are included in their cluster cache."""
    message = (walk or _Walk(system)).inclusion
    if message is not None:
        raise ConsistencyViolation(message)


def check_compound_states(system, walk=None) -> None:
    """No unblocked line sits in a policy-forbidden compound state."""
    message = (walk or _Walk(system)).compound
    if message is not None:
        raise ConsistencyViolation(message)


ALL_CHECKS = (check_swmr, check_value_coherence, check_inclusion, check_compound_states)


def check_all(system) -> None:
    """Run every invariant monitor over one walk; raises on violation."""
    walk = _Walk(system)
    for check in ALL_CHECKS:
        check(system, walk)


def attach_monitor(system, period_ticks: int = 5_000) -> list:
    """Sample every invariant each ``period_ticks`` while events remain.

    Returns a list that accumulates violations (as exceptions) instead
    of raising, so a run can be inspected post-mortem.
    """
    violations: list[ConsistencyViolation] = []

    def sample():
        try:
            check_all(system)
        except ConsistencyViolation as exc:
            violations.append(exc)
        if system.engine.pending():
            system.engine.post(period_ticks, sample)

    system.engine.post(period_ticks, sample)
    return violations
