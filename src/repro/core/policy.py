"""The bridge-policy interface: Rule I and Rule II as queryable decisions.

The C3 runtime (:mod:`repro.core.bridge`) never hard-codes when to cross
domains.  At every decision point it asks a :class:`BridgePolicy`:

- ``global_access_for(request, global_state)`` -- Rule I, upward: does
  this local request need a cross-domain access, and is it a conceptual
  *load* or *store* in the global domain?
- ``local_access_for(snoop, local_summary, stale)`` -- Rule I, downward:
  does this global snoop require reaching into the local domain, and is
  it a conceptual *load* (recall data) or *store* (recall + invalidate)?
- ``forbidden(compound_state)`` -- Rule II by-product: compound states
  pruned at synthesis (e.g. inclusion violations like (M, I)).
- ``forbidden_globals`` -- the global states ``forbidden`` rejects under
  at least one local summary (read by the runtime invariant monitor).

:class:`PermissionPolicy` is the hand-derivable reference implementation
computed directly from the permission lattice of the two protocol
variants; the generator (:mod:`repro.core.generator`) produces an
equivalent table-driven policy by exhaustively traversing the spec FSMs
and cross-checks itself against this reference in the test suite.
"""

from __future__ import annotations

from repro.protocols.variants import NONE, READ, WRITE, ProtocolVariant

#: Conceptual cross-domain accesses (the X-Access column of Table II).
X_LOAD = "load"
X_STORE = "store"


class BridgePolicy:
    """Abstract policy; see module docstring."""

    local_variant: ProtocolVariant
    global_variant: ProtocolVariant
    #: Global stable states that ``forbidden`` rejects under some local
    #: summary.  A line in any other global state is legal whatever its
    #: local directory says, so a legality scan can skip it unread.
    forbidden_globals: frozenset

    def global_access_for(self, request: str, global_state: str) -> str | None:
        """Rule I upward: the conceptual global access a local request needs."""
        raise NotImplementedError

    def local_access_for(self, snoop: str, local_summary: str, stale: bool) -> str | None:
        """Rule I downward: the conceptual local access a snoop needs."""
        raise NotImplementedError

    def forbidden(self, local_summary: str, global_state: str) -> bool:
        """Whether a compound state is illegal (pruned by Rule II analysis)."""
        raise NotImplementedError


class PermissionPolicy(BridgePolicy):
    """Reference policy derived from the permission lattice.

    Rule I upward: a local request crosses domains iff the global state
    lacks the permission the request needs.  Rule I downward: a snoop
    crosses iff local caches hold what the snoop must revoke or the only
    current copy of the data.
    """

    def __init__(self, local_variant: ProtocolVariant, global_variant: ProtocolVariant) -> None:
        self.local_variant = local_variant
        self.global_variant = global_variant
        self.forbidden_globals = frozenset(
            g for g in global_variant.state_names()
            if any(self.forbidden(local, g) for local in ("I", "S", "O", "M")))

    def global_access_for(self, request: str, global_state: str) -> str | None:
        perm = self.global_variant.perm(global_state)
        if request in ("GetS", "RCC_READ"):
            return None if perm >= READ else X_LOAD
        if request in ("GetM", "RCC_WRITE"):
            return None if perm >= WRITE else X_STORE
        raise ValueError(f"unknown local request {request!r}")

    def local_access_for(self, snoop: str, local_summary: str, stale: bool) -> str | None:
        if self.local_variant.self_invalidating:
            # RCC: host caches self-invalidate; C3 answers directly.
            return None
        if snoop == "inv":  # BISnpInv / Inv / Fwd-GetM
            return None if local_summary == "I" else X_STORE
        if snoop == "data":  # BISnpData / Fwd-GetS
            # Only needed when an upper-level owner holds dirtier data.
            return X_LOAD if stale and local_summary in ("M", "O") else None
        raise ValueError(f"unknown snoop class {snoop!r}")

    def forbidden(self, local_summary: str, global_state: str) -> bool:
        if self.local_variant.self_invalidating:
            return False  # RCC relaxes inclusion (paper footnote 5)
        # Inclusion: local holders imply a global copy.
        if local_summary != "I" and global_state == "I":
            return True
        # Local write permission implies global write permission.
        local_perm = {"I": NONE, "S": READ, "O": READ, "M": WRITE}[local_summary]
        if local_perm == WRITE and self.global_variant.perm(global_state) < WRITE:
            return True
        # Note: (O, S) is *allowed* -- after a BISnpData recall the MOESI
        # owner keeps its O state while the written-back global copy is
        # clean Shared.  This is exactly the Fig. 3 mismatch that C3
        # absorbs instead of modifying the host protocol.
        return False
