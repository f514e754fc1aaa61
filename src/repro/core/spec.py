"""Stable-state protocol (SSP) specifications -- the generator's input.

Progen-style machine-readable protocol summaries: the stable states with
their permission semantics (via :class:`~repro.protocols.variants.
ProtocolVariant`) and the concrete wire-message names used for the
Table II dump and the SLICC-like emitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import UnknownProtocolError
from repro.protocols.variants import (
    CXL,
    GLOBAL_MESI,
    MESI,
    MESIF,
    MOESI,
    RCC,
    ProtocolVariant,
)


@dataclass(frozen=True)
class ProtocolSpec:
    """Machine-readable stable-state summary of one protocol."""

    name: str
    variant: ProtocolVariant
    #: concrete message names for abstract roles (display/emission only).
    wire: dict = field(default_factory=dict)

    #: Local-directory summary alphabet the compound machine tracks.
    def summaries(self) -> tuple[str, ...]:
        """Local-directory summary alphabet the compound machine tracks."""
        names = ["I", "S", "M"]
        if self.variant.has_o_state:
            names.insert(2, "O")
        return tuple(names)


_LOCAL_WIRE = {
    "GetS": "GetS",
    "GetM": "GetM",
    "inv": "Inv",
    "fwd_gets": "Fwd-GetS",
    "fwd_getm": "Fwd-GetM",
    "wb": "PutM",
    "data": "Data",
}

MESI_SPEC = ProtocolSpec(
    "MESI", MESI,
    wire=dict(_LOCAL_WIRE),
)

MESIF_SPEC = ProtocolSpec(
    "MESIF", MESIF,
    wire=dict(_LOCAL_WIRE),
)

MOESI_SPEC = ProtocolSpec(
    "MOESI", MOESI,
    wire=dict(_LOCAL_WIRE),
)

RCC_SPEC = ProtocolSpec(
    "RCC", RCC,
    wire={
        "GetS": "RccRead",
        "GetM": "RccWrite",
        "inv": "SelfInv",
        "fwd_gets": "-",
        "fwd_getm": "-",
        "wb": "RccFlush",
        "data": "RccData",
    },
)

CXL_SPEC = ProtocolSpec(
    "CXL", CXL,
    wire={
        "GetS": "MemRd,S",
        "GetM": "MemRd,A",
        "inv": "BISnpInv",
        "data": "BISnpData",
        "wb_drop": "MemWr,I",
        "wb_keep": "MemWr,S",
        "cmp": "Cmp-M/S/E",
        "conflict": "BIConflict",
    },
)

GMESI_SPEC = ProtocolSpec(
    "GMESI", GLOBAL_MESI,
    wire={
        "GetS": "GetS",
        "GetM": "GetM",
        "inv": "Inv",
        "data": "Fwd-GetS",
        "wb_drop": "PutM",
        "wb_keep": "WBData",
        "cmp": "Data/Ack",
        "conflict": "-",
    },
)

LOCAL_SPECS = {
    "MESI": MESI_SPEC,
    "MESIF": MESIF_SPEC,
    "MOESI": MOESI_SPEC,
    "RCC": RCC_SPEC,
}

GLOBAL_SPECS = {"CXL": CXL_SPEC, "MESI": GMESI_SPEC}


def _resolve_name(name: str, registry: dict, kind: str) -> str:
    """Resolve a (possibly lowercase) name to its canonical registry key."""
    if name in registry:
        return name
    folded = str(name).casefold()
    for canonical in registry:
        if canonical.casefold() == folded:
            return canonical
    raise UnknownProtocolError(
        f"no {kind} protocol spec named {name!r}; "
        f"available: {', '.join(sorted(registry))}"
    )


def canonical_local_name(name: str) -> str:
    """Canonical registry key for a local protocol name (case-insensitive)."""
    return _resolve_name(name, LOCAL_SPECS, "local")


def canonical_global_name(name: str) -> str:
    """Canonical registry key for a global protocol name (case-insensitive)."""
    return _resolve_name(name, GLOBAL_SPECS, "global")


def local_spec(name: str) -> ProtocolSpec:
    """Look up a local (intra-cluster) protocol spec, case-insensitively."""
    return LOCAL_SPECS[canonical_local_name(name)]


def global_spec(name: str) -> ProtocolSpec:
    """Look up a global protocol spec (CXL or MESI), case-insensitively."""
    return GLOBAL_SPECS[canonical_global_name(name)]
