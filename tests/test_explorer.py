"""Explicit-state exploration of the implementation (Murphi substitute).

Small two-cluster scenarios are exhaustively explored over all network
delivery orders with :func:`repro.verify.mc.check_model`.  Invariants
must hold in *every* reachable state, no state may deadlock, and
terminal outcomes must fall inside the axiomatic model's allowed set.
The state/terminal counts are pinned: any change to them is a change
to the search or to the protocol under it.
"""

import pytest

from repro.cpu.isa import ThreadProgram, load, store
from repro.verify.axiomatic import enumerate_outcomes
from repro.verify.litmus import MP, SB, materialize
from repro.verify.mc import KIND_OUTCOME, CheckModel, Counterexample, check_model

X, Y = 0x10, 0x11
COMBO = ("MESI", "CXL", "MESI")


def _check(programs, combo=COMBO, max_states=0, **kwargs):
    return check_model(CheckModel(combo, tuple(programs), **kwargs),
                       max_states=max_states)


def test_single_writer_reader_exhaustive():
    programs = [
        ThreadProgram("w", [store(X, 1)]),
        ThreadProgram("r", [load(X, "r0")]),
    ]
    result = _check(programs)
    assert result.ok, [ce.describe() for ce in result.counterexamples[:1]]
    assert not result.truncated
    assert result.outcomes == {(("r0", 0),), (("r0", 1),)}
    assert (result.states, result.terminals) == (60, 2)


def test_write_write_race_exhaustive():
    programs = [
        ThreadProgram("a", [store(X, 1)]),
        ThreadProgram("b", [store(X, 2)]),
    ]
    result = _check(programs, observed_addrs=(X,))
    assert result.ok, [ce.describe() for ce in result.counterexamples[:1]]
    assert result.outcomes == {((f"[{X}]", 1),), ((f"[{X}]", 2),)}
    assert (result.states, result.terminals) == (66, 2)


#: Exhaustive MP state counts per combo (3 terminals and 3 outcomes each).
MP_STATES = {
    ("MESI", "CXL", "MESI"): 823,
    ("MESI", "CXL", "MOESI"): 823,
    ("MESI", "MESI", "MESI"): 560,
}


@pytest.mark.parametrize("combo", list(MP_STATES), ids=lambda c: "-".join(c))
def test_mp_outcomes_subset_of_axiomatic(combo):
    mcms = ["SC", "SC"]
    programs = materialize(MP, mcms)
    allowed = enumerate_outcomes(programs, mcms, MP.observed_addrs)
    result = _check(materialize(MP, mcms), combo=combo, max_states=4_000)
    assert result.ok, [ce.describe() for ce in result.counterexamples[:1]]
    assert (result.states, result.terminals, len(result.outcomes)) == (
        MP_STATES[combo], 3, 3)
    assert result.outcomes <= allowed
    assert not any(MP.matches_forbidden(dict(o)) for o in result.outcomes)


def test_sb_with_tso_store_buffers_explored():
    mcms = ["TSO", "TSO"]
    programs = materialize(SB, mcms)
    allowed = enumerate_outcomes(programs, mcms)
    result = _check(materialize(SB, mcms), mcms=("TSO", "TSO"),
                    max_states=4_000)
    assert result.ok, [ce.describe() for ce in result.counterexamples[:1]]
    assert (result.states, result.terminals, len(result.outcomes)) == (1659, 3, 3)
    assert result.outcomes <= allowed


def test_rule2_violation_found_by_exploration():
    """With Rule II disabled, exhaustive search cannot miss the breakage:
    an invariant violation, a deadlock, or an outright controller crash
    (which arrives as a crash counterexample, not an exception)."""
    programs = [
        ThreadProgram("r0", [load(X, "w0"), load(X, "a")]),
        ThreadProgram("w", [load(X, "w1"), store(X, 1), store(X, 2)]),
    ]
    result = _check(programs, max_states=3_000, violate_atomicity=True)
    assert not result.truncated  # found by exhaustion, not luck
    assert result.counterexamples, "Rule-II violation survived exhaustive search"
    assert not result.ok
    assert (result.states, len(result.counterexamples)) == (136, 7)


def test_exploration_is_deterministic():
    programs = [
        ThreadProgram("a", [store(X, 1), load(Y, "r0")]),
        ThreadProgram("b", [store(Y, 1), load(X, "r1")]),
    ]
    results = [_check(programs, max_states=3_000) for _ in range(2)]
    assert results[0].states == results[1].states == 1659
    assert (results[0].terminals, len(results[0].outcomes)) == (3, 3)
    assert results[0].outcomes == results[1].outcomes
    assert results[0].outcome_examples == results[1].outcome_examples


def test_replay_with_trace_reconstructs_interleaving():
    programs = [
        ThreadProgram("w", [store(X, 1)]),
        ThreadProgram("r", [load(X, "r0")]),
    ]
    model = CheckModel(COMBO, tuple(programs))
    assert check_model(model, max_states=0).ok
    # Replay an arbitrary prefix deterministically, twice.
    probe = Counterexample(model, (0, 0, 0), KIND_OUTCOME, "probe", 0)
    system1, tracer1 = probe.replay_with_trace()
    system2, tracer2 = probe.replay_with_trace()
    log1 = [(e.msg_kind, e.src, e.dst) for e in tracer1.entries]
    log2 = [(e.msg_kind, e.src, e.dst) for e in tracer2.entries]
    assert log1 == log2
    assert tracer1.timeline() == tracer2.timeline()


def test_contended_atomics_exhaustive():
    """Both clusters increment one line: every delivery order -- including
    the BIConflict interleavings -- must preserve both increments."""
    from repro.cpu.isa import rmw

    programs = [
        ThreadProgram("a", [rmw(X, 1, "ra")]),
        ThreadProgram("b", [rmw(X, 1, "rb")]),
    ]
    result = _check(programs, observed_addrs=(X,), max_states=8_000)
    assert result.ok, [ce.describe() for ce in result.counterexamples[:1]]
    assert (result.states, result.terminals, len(result.outcomes)) == (66, 2, 2)
    for outcome in result.outcomes:
        values = dict(outcome)
        assert values[f"[{X}]"] == 2, outcome  # no lost update, ever
        assert sorted((values["ra"], values["rb"])) == [0, 1], outcome


def test_upgrade_conflict_handshake_exhaustive():
    """Both clusters read (S everywhere) then atomically increment: the
    upgrades race and the BIConflict handshake paths are explored
    exhaustively, not just sampled."""
    from repro.cpu.isa import rmw

    programs = [
        ThreadProgram("a", [load(X, "la"), rmw(X, 1, "ra")]),
        ThreadProgram("b", [load(X, "lb"), rmw(X, 1, "rb")]),
    ]
    result = _check(programs, observed_addrs=(X,), max_states=30_000)
    assert result.ok, [ce.describe() for ce in result.counterexamples[:1]]
    for outcome in result.outcomes:
        values = dict(outcome)
        assert values[f"[{X}]"] == 2, outcome
        assert sorted((values["ra"], values["rb"])) == [0, 1], outcome
    # The handshake branches were explored.
    assert (result.states, result.terminals, len(result.outcomes)) == (230, 4, 4)
