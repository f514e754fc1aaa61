"""Protocol variant descriptors.

A :class:`ProtocolVariant` is the machine-readable *stable-state
protocol* (SSP) summary of a coherence protocol: its stable states and
what each state permits.  The same descriptors feed three consumers:

- the L1 cache controllers (:mod:`repro.sim.l1`),
- the C3 compound-FSM generator (:mod:`repro.core.generator`), which
  reasons about permissions to derive the Rule-I delegation decisions,
- the model checker's invariant checks.

Permissions form a tiny lattice: ``NONE < READ < WRITE``.  ``dirty``
marks states whose holder owns data newer than the level below.
"""

from __future__ import annotations

from dataclasses import dataclass

NONE = 0
READ = 1
WRITE = 2

PERM_NAMES = {NONE: "none", READ: "read", WRITE: "write"}


@dataclass(frozen=True)
class StateInfo:
    """Semantics of one stable state."""

    name: str
    perm: int
    dirty: bool = False
    #: An "owner" state obliges its holder to supply data on forwards.
    owner: bool = False
    #: A "forwarder" state (MESIF F) supplies data but is clean.
    forwarder: bool = False


@dataclass(frozen=True)
class ProtocolVariant:
    """Stable-state summary of a coherence protocol."""

    name: str
    states: tuple[StateInfo, ...]
    #: Self-invalidating protocols (RCC) do not track sharers precisely
    #: and satisfy invalidations without reaching into upper caches.
    self_invalidating: bool = False

    def state(self, name: str) -> StateInfo:
        """Look up one stable state's semantics."""
        for info in self.states:
            if info.name == name:
                return info
        raise KeyError(f"{self.name} has no state {name!r}")

    def state_names(self) -> tuple[str, ...]:
        """Names of all stable states, in declaration order."""
        return tuple(info.name for info in self.states)

    @property
    def has_o_state(self) -> bool:
        return any(s.name == "O" for s in self.states)

    @property
    def has_f_state(self) -> bool:
        return any(s.name == "F" for s in self.states)

    def perm(self, state_name: str) -> int:
        """Permission level (NONE/READ/WRITE) of a stable state."""
        return self.state(state_name).perm

    def dirty(self, state_name: str) -> bool:
        """Whether the state's holder owns data newer than below."""
        return self.state(state_name).dirty


_I = StateInfo("I", NONE)
_S = StateInfo("S", READ)
_E = StateInfo("E", WRITE)  # silently upgradable to M
_M = StateInfo("M", WRITE, dirty=True, owner=True)
_O = StateInfo("O", READ, dirty=True, owner=True)
_F = StateInfo("F", READ, forwarder=True)

MESI = ProtocolVariant("MESI", (_I, _S, _E, _M))
MESIF = ProtocolVariant("MESIF", (_I, _S, _E, _M, _F))
MOESI = ProtocolVariant("MOESI", (_I, _S, _E, _M, _O))

#: RCC keeps valid/invalid lines in the L1s; the cluster cache is the
#: local coherence point.  "V" is a readable-and-writable-through state.
RCC = ProtocolVariant(
    "RCC",
    (_I, StateInfo("V", READ)),
    self_invalidating=True,
)

#: CXL.mem stable states at a host (HDM-DB): MESI-shaped.
CXL = ProtocolVariant("CXL", (_I, _S, _E, _M))

#: The hierarchical global MESI baseline uses plain MESI states.
GLOBAL_MESI = ProtocolVariant("GMESI", (_I, _S, _E, _M))

LOCAL_VARIANTS = {"MESI": MESI, "MESIF": MESIF, "MOESI": MOESI, "RCC": RCC}
GLOBAL_VARIANTS = {"CXL": CXL, "MESI": GLOBAL_MESI}


def local_variant(name: str) -> ProtocolVariant:
    """Look up a local protocol variant descriptor by name."""
    try:
        return LOCAL_VARIANTS[name]
    except KeyError:
        raise ValueError(f"unknown local protocol {name!r}") from None


def global_variant(name: str) -> ProtocolVariant:
    """Look up a global protocol variant descriptor by name."""
    try:
        return GLOBAL_VARIANTS[name]
    except KeyError:
        raise ValueError(f"unknown global protocol {name!r}") from None
