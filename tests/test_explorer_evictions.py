"""Exhaustive exploration under capacity pressure (Fig. 7 flows).

Tiny L1 and CXL caches force evictions -- including the recall-then-
writeback eviction of lines still held by host caches -- inside the
exhaustively explored delivery orders.  Every reachable state must keep
the invariants; every terminal must be deadlock-free with coherent
final values.  State/terminal counts are pinned.
"""

import dataclasses

import pytest

from repro.cpu.isa import ThreadProgram, load, store
from repro.sim.config import LINE_BYTES
from repro.verify.mc import CheckModel, check_model


class TinyModel(CheckModel):
    """Clusters with 2-line, 1-way L1s and CXL caches."""

    def system_config(self):
        config = super().system_config()
        tiny = dict(l1_bytes=2 * LINE_BYTES, l1_assoc=1,
                    llc_bytes=2 * LINE_BYTES, llc_assoc=1)
        return dataclasses.replace(config, clusters=tuple(
            dataclasses.replace(cluster, **tiny)
            for cluster in config.clusters))


class TwoWayModel(CheckModel):
    """Clusters whose L1s and CXL caches are one set of two ways: three
    lines contend, so LRU order picks every victim."""

    def system_config(self):
        config = super().system_config()
        tiny = dict(l1_bytes=2 * LINE_BYTES, l1_assoc=2,
                    llc_bytes=2 * LINE_BYTES, llc_assoc=2)
        return dataclasses.replace(config, clusters=tuple(
            dataclasses.replace(cluster, **tiny)
            for cluster in config.clusters))


def _check(combo, programs, mcms=("SC", "SC"), observed_addrs=(),
           model_cls=TinyModel):
    model = model_cls(combo, tuple(programs), mcms=mcms,
                      observed_addrs=observed_addrs)
    return check_model(model, max_states=6_000)


# Two conflicting lines (same set in every 2-set, 1-way structure) force
# evictions mid-protocol.
A, B = 0x10, 0x12
#: A third line for :class:`TwoWayModel`: the re-read of A makes B the
#: LRU way, so storing C must evict B, not A.
C = 0x11
LRU_PROGRAMS = (
    ThreadProgram("w", [store(A, 1), store(B, 2), load(A, "ra"), store(C, 3)]),
    ThreadProgram("r", [load(B, "rb")]),
)

#: Exhaustive eviction-pressure state counts per combo (3 terminals and
#: 2 outcomes each).
EVICTION_STATES = {
    ("MESI", "CXL", "MESI"): 217,
    ("MESI", "CXL", "MOESI"): 217,
    ("MESI", "MESI", "MESI"): 211,
}


@pytest.mark.parametrize("combo", list(EVICTION_STATES),
                         ids=lambda c: "-".join(c))
def test_eviction_pressure_exhaustive(combo):
    programs = [
        ThreadProgram("w", [store(A, 1), store(B, 2), load(A, "ra")]),
        ThreadProgram("r", [load(B, "rb")]),
    ]
    result = _check(combo, programs, observed_addrs=(A, B))
    assert result.ok, [ce.describe() for ce in result.counterexamples[:1]]
    assert (result.states, result.terminals, len(result.outcomes)) == (
        EVICTION_STATES[combo], 3, 2)
    for outcome in result.outcomes:
        values = dict(outcome)
        assert values["ra"] == 1  # own store must read back
        assert values[f"[{A}]"] == 1 and values[f"[{B}]"] == 2
        assert values["rb"] in (0, 2)


def test_cross_cluster_steal_during_eviction_exhaustive():
    """Cluster 1 reads a line that cluster 0 is busy evicting."""
    programs = [
        ThreadProgram("w", [store(A, 7), store(B, 8)]),  # B evicts A
        ThreadProgram("r", [load(A, "r0")]),
    ]
    result = _check(("MESI", "CXL", "MESI"), programs, observed_addrs=(A,))
    assert result.ok, [ce.describe() for ce in result.counterexamples[:1]]
    assert (result.states, result.terminals, len(result.outcomes)) == (179, 3, 2)
    for outcome in result.outcomes:
        values = dict(outcome)
        assert values[f"[{A}]"] == 7
        assert values["r0"] in (0, 7)


def test_rcc_cluster_exhaustive():
    programs = [
        ThreadProgram("w", [store(A, 3)]),
        ThreadProgram("r", [load(A, "r0")]),
    ]
    result = _check(("RCC", "CXL", "MESI"), programs, mcms=("RCC", "SC"),
                    observed_addrs=(A,))
    assert result.ok, [ce.describe() for ce in result.counterexamples[:1]]
    assert (result.states, result.terminals, len(result.outcomes)) == (56, 2, 2)
    for outcome in result.outcomes:
        assert dict(outcome)["r0"] in (0, 3)


def test_lru_victims_exhaustive():
    result = _check(("MESI", "CXL", "MESI"), LRU_PROGRAMS,
                    observed_addrs=(A, B, C), model_cls=TwoWayModel)
    assert result.ok, [ce.describe() for ce in result.counterexamples[:1]]
    assert (result.states, result.terminals, len(result.outcomes)) == (273, 2, 2)
    for outcome in result.outcomes:
        values = dict(outcome)
        assert values["ra"] == 1
        assert (values[f"[{A}]"], values[f"[{B}]"], values[f"[{C}]"]) == (1, 2, 3)
        assert values["rb"] in (0, 2)
