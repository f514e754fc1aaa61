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

The walk's data layout:

- ``maps``: each cluster's bridge address index (``CacheArray.index``,
  ``{addr: line}`` kept current by the array itself), in cluster order;
  the walk builds no map.  A bridge holds at most one line per address,
  so an address's bridge lines are one ``get`` per map, made only where
  a check needs them.  The walk reads the bridge and L1 indexes in
  their own (insertion) order; no check depends on it.
- ``shared``: addresses that two or more non-RCC L1 lines in S/E/M/O/F
  hold; ``unowned``: addresses whose first such holder (cluster, then
  L1 order) is not an owner (M/O/E).  No per-line tuple or per-address
  list is built; a check that needs an address's L1 holders peeks every
  non-RCC L1 for that address alone.

SWMR suspects are ``shared`` plus those addresses of the pairwise key
intersections of the bridge maps that two or more bridges hold in
S/E/M/O/F, one of them in E/M; no other address can break SWMR.  Only
the intersections are filtered, one address at a time: a pass over
every bridge line would cost a monitor sample more than it saves.
Value coherence reads only
``shared | unowned``: an address whose only holder is an owner is its
own authoritative value.  Inclusion and compound legality are decided
during the walk.  A bridge line can be compound-illegal only if its
global state is in ``policy.forbidden_globals`` (forbidden under some
local summary), so no other line has its blocking or directory record
read.  Compound legality collects one bridge's hits, inclusion one
L1's, and each reports the hit ``CacheArray.lines()`` lists first
(``CacheArray.first``: lowest set index, then LRU position), so only
hits pay for the order.

A model-checking search passes :func:`check_all` a memo keyed by the
part bytes of every L1 and bridge, and reuses a clean verdict for a
state whose L1s and bridges were all seen before; the periodic
monitor always walks.

The walk is read-only and keeps these behaviours:

- Compound legality skips a line only while its *own* bridge blocks it.
- "Quiet" (value check) is global: no bridge or port, L1 MSHR,
  ``home.busy`` entry or home ``data_pending`` touches the line.  It is
  tested only after a copy disagrees with the authoritative value.
- The intra-cluster L1 SWMR check runs wherever the cluster's bridge
  holds the line, tearing down (``evicting`` / ``port.wb``) or not; a
  tearing-down line is left out of the cross-cluster counts.
- Authoritative value: the first non-RCC L1 line in M/O/E (cluster, then
  L1 order), else the first dirty non-stale bridge line, else the
  backing store; ``None`` skips the value check.
- Inclusion reports in cluster -> L1 -> ``CacheArray.lines()`` order.
- Lines held only by RCC L1s can break nothing; an RCC L1 in a
  self-invalidating cluster is not walked at all.
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
    """One visit of every bridge and L1 line; see the module docstring."""

    def __init__(self, system) -> None:
        clusters = self.clusters = system.clusters
        maps = self.maps = [cluster.bridge.cache.index for cluster in clusters]
        held: set[int] = set()
        shared: set[int] = set()
        unowned: set[int] = set()
        inclusion: str | None = None
        compound: str | None = None
        for cluster, bridge_lines in zip(clusters, maps):
            bridge = cluster.bridge
            policy = bridge.policy
            risky = policy.forbidden_globals
            if compound is None and risky:
                hits: dict[int, str] = {}
                for addr, line in bridge_lines.items():
                    state = line.state
                    if state not in risky:
                        continue  # legal under every local summary
                    record = line.peek_meta("dir")
                    local = "I" if record is None else record.summary()
                    if policy.forbidden(local, state) and not bridge.blocked(addr):
                        hits[addr] = f"({local}, {state})"
                if hits:  # the first hit in lines() order wins
                    addr = bridge.cache.first(hits)
                    compound = (f"compound: {bridge.node_id} line 0x{addr:x} in "
                                f"forbidden state {hits[addr]}")
            # RCC relaxes inclusion (paper footnote 5).
            inclusive = not bridge.variant.self_invalidating
            for l1 in cluster.l1s:
                rcc = isinstance(l1, RccL1)  # stale-until-acquire by design
                if rcc and not inclusive:
                    continue  # neither a holder nor an inclusion suspect
                absent: dict[int, str] = {}
                for addr, line in l1.cache.index.items():
                    state = line.state
                    if state not in _HOLDER_STATES:
                        continue
                    if not rcc:
                        if addr in held:
                            shared.add(addr)
                        else:
                            held.add(addr)
                            if state not in _OWNER_STATES:
                                unowned.add(addr)
                    if inclusive and inclusion is None and addr not in bridge_lines:
                        absent[addr] = state
                if absent:  # the first miss in lines() order wins
                    addr = l1.cache.first(absent)
                    inclusion = (f"inclusion: {l1.node_id} holds 0x{addr:x} "
                                 f"({absent[addr]}) absent from {bridge.node_id}")
        self.shared = shared
        self.unowned = unowned
        self.inclusion = inclusion
        self.compound = compound


def _holders(clusters, addr) -> list:
    """``(cluster, l1, line)`` for every non-RCC L1 line holding ``addr``
    in S/E/M/O/F, in cluster then L1 order."""
    return [(cluster, l1, line) for cluster in clusters for l1 in cluster.l1s
            if (line := l1.cache.peek(addr)) is not None
            and line.state in _HOLDER_STATES and not isinstance(l1, RccL1)]


def _contested(maps, addr) -> bool:
    """Whether two or more bridges hold ``addr`` in S/E/M/O/F, one of
    them in E/M: else its bridge lines cannot break cross-cluster SWMR."""
    holders = writers = 0
    for bridge_lines in maps:
        line = bridge_lines.get(addr)
        if line is not None and line.state in _HOLDER_STATES:
            holders += 1
            if line.state in _WRITER_STATES:
                writers += 1
    return holders > 1 and writers > 0


def check_swmr(system, walk=None) -> None:
    """SWMR; only an address with two L1 holders, or two bridge holders
    one of which is a writer, can break it."""
    walk = walk or _Walk(system)
    clusters, maps, shared = walk.clusters, walk.maps, walk.shared
    suspects = set(shared)
    for i in range(1, len(maps)):
        later = maps[i].keys()
        if later:
            for earlier in maps[:i]:
                for addr in later & earlier.keys():
                    if addr not in suspects and _contested(maps, addr):
                        suspects.add(addr)
    for addr in sorted(suspects):
        # One L1 holder cannot break intra-cluster SWMR.
        held = _holders(clusters, addr) if addr in shared else ()
        writer_clusters, holder_clusters = [], []
        for cluster, bridge_lines in zip(clusters, maps):
            line = bridge_lines.get(addr)
            if line is None:
                continue
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
    """Readable copies of every quiet line match its authoritative value.

    An address whose only holder is an owner (M/O/E) is its own
    authoritative value, so only shared and unowned addresses are read.
    """
    walk = walk or _Walk(system)
    suspects = walk.shared | walk.unowned
    if suspects:
        _check_values(system, walk.clusters, walk.maps, sorted(suspects))


def _check_values(system, clusters, maps, suspects) -> None:
    """:func:`check_value_coherence` over the sorted addresses
    ``suspects``."""
    bridge_peeks = [bridge_lines.get for bridge_lines in maps]
    for addr in suspects:
        held = _holders(clusters, addr)
        value = _authoritative(system, addr, held, bridge_peeks)
        if value is None:
            continue
        for _cluster, l1, line in held:
            if line.data != value:
                if _line_quiet(system, addr):
                    raise ConsistencyViolation(
                        f"value: {l1.node_id} reads {line.data} for "
                        f"0x{addr:x}, authoritative is {value}")
                break


def authoritative_value(system, addr):
    """The value every readable non-RCC copy of ``addr`` must hold now."""
    clusters = system.clusters
    return _authoritative(system, addr, _holders(clusters, addr),
                          [c.bridge.cache.peek for c in clusters])


def _authoritative(system, addr, held, bridge_peeks):
    """The first owner (M/O/E) among the ``(cluster, l1, line)`` holders
    ``held``; else the first dirty, non-stale cluster-cache line, looked
    up per cluster by ``bridge_peeks``; else memory."""
    for _cluster, _l1, line in held:
        if line.state in _OWNER_STATES:
            return line.data
    for peek in bridge_peeks:
        line = peek(addr)
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


#: Entries kept per :func:`check_all` memo; past it, a state whose
#: keys are new is walked each time it is checked.  The largest litmus
#: search in the tests, IRIW on MESI-CXL-MESI, keeps 26,846 entries
#: (about 4.8 MB) over its 69,847 states; a ``verify`` drain at most 231.
MEMO_LIMIT = 1 << 15


def check_all(system, memo: dict | None = None, key=None) -> None:
    """Run every invariant monitor over one walk; raises on violation.

    A search that checks many states of one model passes ``memo``, one
    dict for all of them, and ``key``, which maps an L1 or a bridge to
    bytes that determine every field the checks read of it (the model
    checker passes the component's fingerprint part bytes,
    :meth:`repro.verify.mc.fingerprint.PartBytes.key`).

    The walk, SWMR, inclusion and compound legality read only the L1s
    and the bridges, so the tuple of their keys (``names``) determines
    what they find.  Once every check has passed on a walk, ``memo``
    maps its ``names`` to the walk's value-check suspects (its shared
    and unowned addresses, sorted).  A state whose L1s and bridges all
    match an earlier clean state's then runs the value check alone, on
    those suspects: it also reads the home and the backing store, so it
    always runs on the live state.  The three other checks would pass
    again, and the value check sees what a fresh walk would give it, so
    the verdict and any message are a fresh walk's.
    """
    if memo is not None:
        clusters = system.clusters
        names = tuple(map(key, [*system.l1s,
                                *[cluster.bridge for cluster in clusters]]))
        suspects = memo.get(names)
        if suspects is not None:
            if suspects:
                _check_values(system, clusters,
                              [cluster.bridge.cache.index
                               for cluster in clusters], suspects)
            return
    walk = _Walk(system)
    for check in ALL_CHECKS:
        check(system, walk)
    if memo is not None and len(memo) < MEMO_LIMIT:
        memo[names] = tuple(sorted(walk.shared | walk.unowned))


def attach_monitor(system, period_ticks: int = 5_000) -> list:
    """Sample every invariant each ``period_ticks`` while events remain.

    Returns a list that accumulates violations (as exceptions) instead
    of raising, so a run can be inspected post-mortem.  Only the pending
    sample event refers to the monitor, so a run that drains its events
    leaves no reference cycle behind.
    """
    monitor = _Monitor(system, period_ticks)
    system.engine.post(period_ticks, monitor.sample)
    return monitor.violations


class _Monitor:
    """The periodic sampler :func:`attach_monitor` posts."""

    __slots__ = ("system", "period_ticks", "violations")

    def __init__(self, system, period_ticks: int) -> None:
        self.system = system
        self.period_ticks = period_ticks
        self.violations: list[ConsistencyViolation] = []

    def sample(self) -> None:
        """Check every invariant; re-post while other events remain."""
        try:
            check_all(self.system)
        except ConsistencyViolation as exc:
            self.violations.append(exc)
        engine = self.system.engine
        if engine.pending():
            engine.post(self.period_ticks, self.sample)
