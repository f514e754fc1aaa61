"""Tests for the compound-FSM generator (Table II, pruning, policies)."""

import itertools

import pytest

from repro.core.generator import generate, generated_policy_factory
from repro.core.policy import PermissionPolicy, X_LOAD, X_STORE
from repro.core.slicc import emit
from repro.core.translation import format_table
from repro.protocols.variants import global_variant, local_variant

LOCALS = ["MESI", "MESIF", "MOESI", "RCC"]
GLOBALS = ["CXL", "MESI"]


@pytest.mark.parametrize("local,global_", itertools.product(LOCALS, GLOBALS),
                         ids=lambda v: str(v))
def test_generated_policy_matches_permission_reference(local, global_):
    compound = generate(local, global_)
    generated = compound.policy
    reference = PermissionPolicy(local_variant(local), global_variant(global_))
    requests = ["RCC_READ", "RCC_WRITE"] if local == "RCC" else ["GetS", "GetM"]
    for gstate in generated.global_variant.state_names():
        for request in requests:
            assert generated.global_access_for(request, gstate) == \
                reference.global_access_for(request, gstate), (request, gstate)
    for lstate in compound.local.summaries():
        for stale in (False, True):
            for snoop in ("inv", "data"):
                assert generated.local_access_for(snoop, lstate, stale) == \
                    reference.local_access_for(snoop, lstate, stale), (snoop, lstate, stale)
    # The monitor's compound skip reads this; the table and the lattice agree.
    assert generated.forbidden_globals == reference.forbidden_globals


def test_inclusion_states_are_pruned():
    compound = generate("MESI", "CXL")
    assert ("S", "I") in compound.forbidden
    assert ("M", "I") in compound.forbidden
    assert ("M", "S") in compound.forbidden  # write perm escalation
    # And the traversal never reaches them (asserted inside generate too).
    assert not (compound.forbidden & compound.reachable_pairs())


def test_moesi_keeps_fig3_mismatch_state():
    """(O, S) -- the Fig. 3 mismatch -- is reachable and NOT forbidden."""
    compound = generate("MOESI", "CXL")
    assert ("O", "S") in compound.reachable_pairs()
    assert ("O", "S") not in compound.forbidden


def test_rcc_relaxes_inclusion():
    compound = generate("RCC", "CXL")
    assert compound.forbidden == set()
    # RCC snoops never reach into the host caches (paper Sec. IV-D2).
    for stale in (False, True):
        assert compound.policy.local_access_for("inv", "I", stale) is None


def test_reachable_states_cover_expected_pairs():
    compound = generate("MESI", "CXL")
    pairs = compound.reachable_pairs()
    for expected in [("I", "I"), ("I", "S"), ("S", "S"), ("S", "E"),
                     ("S", "M"), ("M", "M"), ("M", "E"), ("I", "M")]:
        assert expected in pairs, expected


def test_table2_rows_match_paper_fragment():
    """The published Table II fragment appears in the generated table."""
    compound = generate("MESI", "CXL")
    rows = {(r.message, r.state, r.x_access): r for r in compound.rows}
    # BISnpInv in (M, M): conceptual Store, Fwd-GetM to the host caches.
    row = rows[("BISnpInv", ("M", "M"), "Store")]
    assert "Fwd-GetM" in row.action
    assert row.next_state == ("MI^A", "MI^A")
    # BISnpInv in (I, M): no cross-domain access, data back to the CXL dir.
    row = rows[("BISnpInv", ("I", "M"), None)]
    assert "MemWr" in row.action
    assert row.next_state == ("I", "I")
    # BISnpData in (M, M): conceptual Load, Fwd-GetS to the host caches.
    row = rows[("BISnpData", ("M", "M"), "Load")]
    assert "Fwd-GetS" in row.action
    assert row.next_state == ("MS^AD", "MS^AD")


def test_table2_formatting():
    compound = generate("MESI", "CXL")
    text = format_table(compound.rows[:4], title="C3 translation table")
    assert "Message" in text and "X-Acc" in text
    assert len(text.splitlines()) == 7


def test_local_requests_translate_to_cxl_messages():
    compound = generate("MESI", "CXL")
    messages = {(r.message, r.x_access) for r in compound.rows}
    assert ("GetM", "Store") in messages
    assert ("GetS", "Load") in messages
    actions = {r.action for r in compound.rows if r.message == "GetM"}
    assert any("MemRd,A" in action for action in actions)


def test_slicc_emission_structure():
    compound = generate("MOESI", "CXL")
    text = emit(compound)
    assert "machine(MachineType:C3" in text
    assert "C3_State_I_I" in text
    assert "C3_State_O_S" in text
    assert "forbidden: (M, I)" in text
    assert "transition(" in text
    assert "Event_SnoopInv" in text


def test_generator_is_memoized():
    assert generate("MESI", "CXL") is generate("MESI", "CXL")


def test_generate_resolves_names_case_insensitively():
    assert generate("mesi", "cxl") is generate("MESI", "CXL")
    assert generate("Moesi", "Mesi") is generate("MOESI", "MESI")


def test_generate_unknown_name_lists_available_specs():
    from repro.errors import ProtocolError, UnknownProtocolError

    with pytest.raises(UnknownProtocolError, match="MESI, MESIF, MOESI, RCC"):
        generate("mosi", "CXL")
    with pytest.raises(ProtocolError, match="CXL, MESI"):
        generate("MESI", "HYPERTRANSPORT")


def test_policy_factory_resolves_variants():
    policy = generated_policy_factory(local_variant("MESI"), global_variant("CXL"))
    assert policy.global_access_for("GetM", "S") == X_STORE
    assert policy.global_access_for("GetS", "E") is None
    policy = generated_policy_factory(local_variant("MOESI"), global_variant("MESI"))
    assert policy.local_access_for("data", "O", True) == X_LOAD
