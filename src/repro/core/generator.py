"""The C3 compound-FSM generator.

This is the paper's synthesis tool (Sec. V): it takes the stable-state
protocol specs of a local and a global protocol and

1. **traverses** the compound state space from (I, I), applying Rule I
   (flow delegation: a request crosses domains iff the origin domain
   cannot satisfy it) and Rule II (atomicity: every crossing is a nested
   transaction, modelled here as an atomic composite step),
2. derives the **decision tables** -- when a local request needs a
   conceptual global load/store, and when a global snoop needs a
   conceptual local load/store,
3. computes the **reachable** compound states and the **forbidden** set
   (inclusion and permission-escalation violations; e.g. (M, I) or
   (M, S)), checking that every forbidden state is indeed unreachable,
4. emits the **translation table** (Table II) and a runtime
   :class:`GeneratedPolicy` the bridge executes.

The equivalence of :class:`GeneratedPolicy` with the hand-derived
:class:`~repro.core.policy.PermissionPolicy` is asserted in the test
suite -- the generated controller is correct by construction *and*
cross-checked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.core.policy import BridgePolicy, X_LOAD, X_STORE
from repro.core.spec import (
    ProtocolSpec,
    canonical_global_name,
    canonical_local_name,
    global_spec,
    local_spec,
)
from repro.core.translation import TranslationRow
from repro.protocols.variants import NONE, READ, WRITE

#: Compound abstract state: (local summary, global stable state, stale).
State = tuple[str, str, bool]

_LOCAL_PERM = {"I": NONE, "S": READ, "O": READ, "M": WRITE}


@dataclass
class CompoundProtocol:
    """Everything the generator produces for one protocol pairing."""

    local: ProtocolSpec
    global_: ProtocolSpec
    reachable: set  # of (l, g, stale)
    forbidden: set  # of (l, g)
    up_table: dict  # (request class, g) -> X access or None
    down_table: dict  # (snoop class, l, stale) -> X access or None
    rows: list = field(default_factory=list)  # TranslationRow (Table II)
    transitions: list = field(default_factory=list)  # (state, event, next)

    @property
    def name(self) -> str:
        return f"{self.local.name}-{self.global_.name}"

    @property
    def policy(self) -> "GeneratedPolicy":
        return GeneratedPolicy(self)

    def reachable_pairs(self) -> set:
        """Reachable (local, global) pairs with the stale bit collapsed."""
        return {(l, g) for (l, g, _stale) in self.reachable}

    # -- introspection hooks (consumed by repro.analysis) ---------------
    def request_classes(self) -> tuple[str, ...]:
        """Abstract request classes keyed in the upward decision table."""
        return ("read", "write")

    def snoop_classes(self) -> tuple[str, ...]:
        """Abstract snoop classes keyed in the downward decision table."""
        return ("inv", "data")

    def state_product(self) -> set:
        """Full Cartesian (local summary, global state) pair alphabet."""
        return {
            (l, g)
            for l in self.local.summaries()
            for g in self.global_.variant.state_names()
        }

    def attainable_summaries(self) -> tuple[str, ...]:
        """Local summaries the directory can actually report.

        A self-invalidating local protocol (RCC) never registers holders
        in the bridge directory, so its summary is pinned at ``I``; for
        MESI-family locals the whole alphabet is attainable.
        """
        if self.local.variant.self_invalidating:
            return ("I",)
        return self.local.summaries()

    def legal_pairs(self) -> set:
        """Attainable pairs that survived forbidden-state pruning."""
        return {
            (l, g)
            for (l, g) in self.state_product()
            if l in self.attainable_summaries()
        } - self.forbidden

    def transition_graph(self) -> dict:
        """Adjacency view of the closure: state -> [(event, next), ...]."""
        graph: dict = {state: [] for state in self.reachable}
        for state, event, nxt in self.transitions:
            graph.setdefault(state, []).append((event, nxt))
        return graph


class GeneratedPolicy(BridgePolicy):
    """Table-driven runtime policy produced by the generator."""

    def __init__(self, compound: CompoundProtocol) -> None:
        self.compound = compound
        self.local_variant = compound.local.variant
        self.global_variant = compound.global_.variant
        self.forbidden_globals = frozenset(g for _local, g in compound.forbidden)

    def global_access_for(self, request: str, global_state: str) -> str | None:
        """Rule I upward: table lookup."""
        klass = _request_class(request)
        return self.compound.up_table[(klass, global_state)]

    def local_access_for(self, snoop: str, local_summary: str, stale: bool) -> str | None:
        """Rule I downward: table lookup."""
        return self.compound.down_table[(snoop, local_summary, stale)]

    def forbidden(self, local_summary: str, global_state: str) -> bool:
        """Whether the pair was pruned at synthesis."""
        return (local_summary, global_state) in self.compound.forbidden


def _request_class(request: str) -> str:
    if request in ("GetS", "RCC_READ"):
        return "read"
    if request in ("GetM", "RCC_WRITE"):
        return "write"
    raise ValueError(f"unknown request {request!r}")


# ---------------------------------------------------------------------------
# Generation (memoized per process).
# ---------------------------------------------------------------------------

#: Number of actual synthesis runs (not cache hits) in this process.
_synthesis_runs = 0


def synthesis_runs() -> int:
    """How many times the generator actually synthesized (cache misses)."""
    return _synthesis_runs


def clear_fsm_cache() -> None:
    """Drop the per-process memo."""
    _generate_cached.cache_clear()


def generate(local_name: str, global_name: str) -> CompoundProtocol:
    """Synthesize (and memoize) the compound protocol for a pairing.

    Names resolve case-insensitively against the registered specs
    (``generate("mesi", "cxl")`` works) and an unknown name raises
    :class:`repro.errors.UnknownProtocolError` listing the options.

    Memoization is an in-process ``functools.lru_cache`` keyed on the
    *canonical* spec names, so case variants share one entry and each
    (local, global) pair is synthesized at most once per process.
    """
    return _generate_cached(canonical_local_name(local_name),
                            canonical_global_name(global_name))


@functools.lru_cache(maxsize=None)
def _generate_cached(local_name: str, global_name: str) -> CompoundProtocol:
    return _generate(local_spec(local_name), global_spec(global_name))


def generated_policy_factory(local_variant, global_variant) -> GeneratedPolicy:
    """``build_system`` hook: look specs up by variant name."""
    name_map = {"GMESI": "MESI"}
    global_name = name_map.get(global_variant.name, global_variant.name)
    return generate(local_variant.name, global_name).policy


def warm_fsm_cache(pairs) -> None:
    """Pre-synthesize the given (local, global) pairs, so a caller can
    time the generator apart from what it builds next."""
    for local_name, global_name in pairs:
        generate(local_name, global_name)


def _generate(local: ProtocolSpec, global_: ProtocolSpec) -> CompoundProtocol:
    global _synthesis_runs
    _synthesis_runs += 1
    up_table = _build_up_table(local, global_)
    down_table = _build_down_table(local, global_)
    reachable, transitions = _closure(local, global_, up_table, down_table)
    forbidden = _forbidden_states(local, global_)
    reached_pairs = {(l, g) for (l, g, _s) in reachable}
    illegal = forbidden & reached_pairs
    if illegal:
        raise AssertionError(
            f"generator reached forbidden compound states: {sorted(illegal)}"
        )
    compound = CompoundProtocol(
        local=local, global_=global_, reachable=reachable, forbidden=forbidden,
        up_table=up_table, down_table=down_table, transitions=transitions,
    )
    compound.rows = _translation_rows(compound)
    return compound


def _build_up_table(local: ProtocolSpec, global_: ProtocolSpec) -> dict:
    """Rule I upward: local request crosses iff global permission lacks."""
    table = {}
    for gstate in global_.variant.state_names():
        perm = global_.variant.perm(gstate)
        table[("read", gstate)] = None if perm >= READ else X_LOAD
        table[("write", gstate)] = None if perm >= WRITE else X_STORE
    return table


def _build_down_table(local: ProtocolSpec, global_: ProtocolSpec) -> dict:
    """Rule I downward: snoop crosses iff local caches hold what it revokes."""
    table = {}
    summaries = local.summaries()
    for lstate in summaries:
        for stale in (False, True):
            if local.variant.self_invalidating:
                table[("inv", lstate, stale)] = None
                table[("data", lstate, stale)] = None
                continue
            table[("inv", lstate, stale)] = None if lstate == "I" else X_STORE
            table[("data", lstate, stale)] = (
                X_LOAD if stale and lstate in ("M", "O") else None
            )
    return table


def _closure(local, global_, up_table, down_table):
    """Reachable compound states under all events, from (I, I)."""
    has_o = local.variant.has_o_state
    self_inv = local.variant.self_invalidating
    start: State = ("I", "I", False)
    frontier = [start]
    reachable = {start}
    transitions = []

    def visit(state, event, nxt):
        transitions.append((state, event, nxt))
        if nxt not in reachable:
            reachable.add(nxt)
            frontier.append(nxt)

    while frontier:
        state = frontier.pop()
        l, g, stale = state
        # -- local read request -----------------------------------------
        g_after_read = [g] if up_table[("read", g)] is None else ["S", "E"]
        for g2 in g_after_read:
            for l2, stale2 in _local_read_results(l, g2, stale, global_, has_o, self_inv):
                visit(state, "local-read", (l2, g2, stale2))
        # -- local write request ----------------------------------------
        g2 = g if up_table[("write", g)] is None else "M"
        if self_inv:
            visit(state, "local-write", ("I", g2, False))
        else:
            visit(state, "local-write", ("M", g2, True))
        # -- local release (all holders evict) --------------------------
        if l != "I":
            visit(state, "local-release", ("I", g, False))
        # -- global invalidation snoop ----------------------------------
        if global_.variant.perm(g) >= READ:
            visit(state, "snoop-inv", ("I" if not self_inv else l, "I", False))
        # -- global data snoop (owners only) ----------------------------
        if global_.variant.perm(g) >= WRITE:
            if down_table[("data", l, stale)] is not None:
                for l2 in (("O", "S") if has_o else ("S",)):
                    visit(state, "snoop-data", (l2, "S", False))
            else:
                visit(state, "snoop-data", (l, "S", stale))
        # -- CXL cache eviction ------------------------------------------
        visit(state, "evict", ("I", "I", False))
    return reachable, transitions


def _local_read_results(l, g2, stale, global_, has_o, self_inv):
    """Possible (local summary, stale) after serving a local read."""
    if self_inv:
        return [("I", False)]
    if l == "I":
        results = [("S", False)]
        if global_.variant.perm(g2) >= WRITE:
            results.append(("M", True))  # exclusive grant
        return results
    if l == "S":
        return [("S", stale)]
    if l == "M":
        if has_o:
            # Dirty owner keeps O; a clean exclusive owner demotes to S.
            return [("O", stale), ("S", False)]
        return [("S", False)]
    if l == "O":
        return [("O", stale)]
    raise AssertionError(l)


def _forbidden_states(local: ProtocolSpec, global_: ProtocolSpec) -> set:
    """Rule-II by-products: inclusion and permission escalation."""
    forbidden = set()
    if local.variant.self_invalidating:
        return forbidden  # RCC relaxes inclusion (paper footnote 5)
    for l in local.summaries():
        for g in global_.variant.state_names():
            if l != "I" and g == "I":
                forbidden.add((l, g))  # inclusion: (S, I), (M, I), ...
            elif _LOCAL_PERM[l] == WRITE and global_.variant.perm(g) < WRITE:
                forbidden.add((l, g))  # local write perm without global
    return forbidden


# ---------------------------------------------------------------------------
# Translation table (Table II).
# ---------------------------------------------------------------------------

def _translation_rows(compound: CompoundProtocol) -> list:
    local, global_ = compound.local, compound.global_
    wire = global_.wire
    lwire = local.wire
    rows = []
    pairs = sorted(compound.reachable_pairs())

    # Incoming CXL-directory messages (the paper's Table II fragment).
    for l, g in pairs:
        if global_.variant.perm(g) >= READ:
            x = compound.down_table[("inv", l, True if l in ("M", "O") else False)]
            if x is not None:
                rows.append(TranslationRow(
                    wire["inv"], (l, g), "Store",
                    f"{lwire['fwd_getm']} to Host $",
                    (f"{l}I^A", f"{g}I^A"),
                ))
            else:
                action = (f"{wire['wb_drop']} to CXL Dir"
                          if global_.variant.perm(g) >= WRITE else "Rsp to CXL Dir")
                rows.append(TranslationRow(wire["inv"], (l, g), None, action, ("I", "I")))
        if global_.variant.perm(g) >= WRITE:
            stale = l in ("M", "O")
            x = compound.down_table[("data", l, stale)]
            if x is not None:
                rows.append(TranslationRow(
                    wire["data"], (l, g), "Load",
                    f"{lwire['fwd_gets']} to Host $",
                    (f"{l}S^AD", f"{g}S^AD"),
                ))
            else:
                rows.append(TranslationRow(
                    wire["data"], (l, g), None,
                    f"{wire['wb_keep']} to CXL Dir", (l, "S"),
                ))
    # Incoming host requests.
    for l, g in pairs:
        for klass, request_wire, want in (("read", "GetS", "S"), ("write", "GetM", "M")):
            x = compound.up_table[(klass, g)]
            if x is not None:
                global_msg = wire["GetS"] if klass == "read" else wire["GetM"]
                rows.append(TranslationRow(
                    lwire[request_wire], (l, g),
                    "Load" if x == X_LOAD else "Store",
                    f"{global_msg} to CXL Dir",
                    (f"{l}{want}^D", f"{g}{want}^D"),
                ))
    return rows
