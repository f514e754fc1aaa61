"""Invariant monitors + the Rule-II failure-injection experiment (Fig. 4)."""

import hashlib
import json
import os
import random

import pytest

from repro.core.policy import PermissionPolicy
from repro.cpu.isa import ThreadProgram, fence, load, rmw, store
from repro.errors import ConsistencyViolation
from repro.scenario.runner import run_scenario
from repro.scenario.schema import Scenario
from repro.sim.config import ClusterConfig, SystemConfig, two_cluster_config
from repro.sim.system import build_system
from repro.verify import invariants
from repro.verify.mc import explore, litmus_model
from repro.workloads import WORKLOADS

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixtures", "scenarios")

#: Failure dict and sha256 of the canonical outcome JSON of every shrunk
#: fixture: a change to any monitor message or sampled window shows here.
FIXTURE_PINS = {
    "invariant-015b21bf.toml": (
        {"kind": "invariant",
         "message": "c3.0: WBData recall response for line 0x1004 that was "
                    "torn down mid-recall (Rule II atomicity broken)"},
        "58ff2741619c7eb823e0bb778a332aa8f0a92c482099e855fb78c3354bee2368"),
    "invariant-b3871d58.toml": (
        {"kind": "invariant",
         "message": "value: l1.1.1 reads 20072 for 0x100c, authoritative is 0"},
        "aa7984517bf3b0a6ec0de6048a255f22c1826174ce8d16d73694f2b6c17b6f9a"),
    "rule2-d82f2460.toml": (
        {"kind": "rule2",
         "message": "BIRspS to home left the cluster while the local recall "
                    "of 0x100b was still collecting acks"},
        "4b00a0542cee1c73530eff3e25287fc93b989aa064ed5a2eb633317165054698"),
}


def _fig4_pin(l1_id):
    inclusion = (f"ConsistencyViolation: inclusion: {l1_id} holds 0x7 (M) "
                 "absent from c3.0")
    return [inclusion] * 3 + [
        "InvariantViolation: c3.0: WBData recall response for line 0x7 that "
        "was torn down mid-recall (Rule II atomicity broken)"]


#: Every violation the Fig. 4 experiment records, per seed; the list
#: length also pins which monitor samples fired.
FIG4_PINS = {0: _fig4_pin("l1.0.0"), 1: _fig4_pin("l1.0.0"),
             2: _fig4_pin("l1.0.0"), 3: _fig4_pin("l1.0.1"),
             4: _fig4_pin("l1.0.0"), 5: _fig4_pin("l1.0.1")}


def run_contended(violate_atomicity, seed=0, rounds=12):
    config = two_cluster_config("MESI", "CXL", "MESI", mcm_a="TSO", mcm_b="TSO",
                                cores_per_cluster=2, seed=seed)
    system = build_system(config, violate_atomicity=violate_atomicity)
    violations = invariants.attach_monitor(system, period_ticks=2_000)
    programs = [
        ThreadProgram(f"t{i}", [op for r in range(rounds)
                                for op in (store(0x7, i * 100 + r), load(0x7, f"r{r}"))])
        for i in range(4)
    ]
    try:
        system.run_threads(programs, placement=[0, 1, 2, 3])
    except Exception as exc:  # deadlocks also count as detections
        violations.append(exc)
    return system, violations


def test_clean_run_has_no_violations():
    system, violations = run_contended(violate_atomicity=False)
    assert violations == []
    invariants.check_all(system)


def test_rule2_violation_detected():
    """Fig. 4: acking snoops before local recall completes breaks SWMR
    or value coherence, and the monitors catch it."""
    detected = 0
    for seed in range(6):
        _system, violations = run_contended(violate_atomicity=True, seed=seed)
        detected += len(violations)
        if detected:
            break
    assert detected > 0, "Rule-II violation never manifested across seeds"


@pytest.mark.parametrize("seed", sorted(FIG4_PINS))
def test_rule2_violation_messages_pinned(seed):
    _system, violations = run_contended(violate_atomicity=True, seed=seed)
    assert [f"{type(exc).__name__}: {exc}" for exc in violations] == FIG4_PINS[seed]


@pytest.mark.parametrize("name", sorted(FIXTURE_PINS))
def test_fixture_outcome_pinned(name):
    outcome = run_scenario(Scenario.load(os.path.join(FIXTURE_DIR, name)))
    failure, digest = FIXTURE_PINS[name]
    assert outcome["failure"] == failure
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_swmr_detects_planted_double_writer():
    config = two_cluster_config("MESI", "CXL", "MESI")
    system = build_system(config)
    system.clusters[0].bridge.cache.insert(0x1, state="M", data=1)
    system.clusters[1].bridge.cache.insert(0x1, state="M", data=2)
    with pytest.raises(ConsistencyViolation, match="SWMR"):
        invariants.check_swmr(system)


def test_inclusion_detects_orphan_l1_line():
    config = two_cluster_config("MESI", "CXL", "MESI")
    system = build_system(config)
    system.clusters[0].l1s[0].cache.insert(0x2, state="S", data=0)
    with pytest.raises(ConsistencyViolation, match="inclusion"):
        invariants.check_inclusion(system)


def test_value_coherence_detects_divergent_sharer():
    config = two_cluster_config("MESI", "CXL", "MESI")
    system = build_system(config)
    bridge = system.clusters[0].bridge
    bridge.cache.insert(0x3, state="S", data=5)
    l1_line = system.clusters[0].l1s[0].cache.insert(0x3, state="S", data=9)
    system.backing.write(0x3, 5)
    with pytest.raises(ConsistencyViolation, match="value"):
        invariants.check_value_coherence(system)


def test_compound_forbidden_state_detected():
    config = two_cluster_config("MESI", "CXL", "MESI")
    system = build_system(config)
    bridge = system.clusters[0].bridge
    line = bridge.cache.insert(0x4, state="I", data=None)
    rec = bridge.dir_record(line)
    rec.sharers.add("l1.0.0")  # local holder with global I: inclusion broken
    with pytest.raises(ConsistencyViolation, match="compound"):
        invariants.check_compound_states(system)


def test_invariants_hold_after_heavy_mixed_run():
    config = two_cluster_config("MESIF", "CXL", "MOESI", mcm_a="WEAK", mcm_b="TSO",
                                cores_per_cluster=2, seed=5)
    system = build_system(config)
    violations = invariants.attach_monitor(system, period_ticks=3_000)
    programs = []
    for tid in range(4):
        ops = []
        for i in range(30):
            addr = 0x10 + (i + tid) % 6
            if (i + tid) % 4 == 0:
                ops.append(store(addr, tid * 1000 + i))
            elif (i + tid) % 4 == 1:
                ops.append(rmw(addr, 1))
            else:
                ops.append(load(addr, f"r{i}"))
            if i % 7 == 0:
                ops.append(fence())
        programs.append(ThreadProgram(f"t{tid}", ops))
    system.run_threads(programs, placement=[0, 1, 2, 3])
    assert violations == []
    invariants.check_all(system)


def _mesi_system(local_b="MESI"):
    return build_system(two_cluster_config("MESI", "CXL", local_b))


def _plant_divergent_sharer(system, addr, stale=9, good=5):
    system.clusters[0].bridge.cache.insert(addr, state="S", data=good)
    system.clusters[0].l1s[0].cache.insert(addr, state="S", data=stale)
    system.backing.write(addr, good)


def _plant_double_writer(system, addr):
    system.clusters[0].bridge.cache.insert(addr, state="M", data=1)
    system.clusters[1].bridge.cache.insert(addr, state="M", data=2)


def test_check_order_beats_address_order():
    system = _mesi_system()
    _plant_divergent_sharer(system, 0x3)
    _plant_double_writer(system, 0x9)
    with pytest.raises(ConsistencyViolation) as exc:
        invariants.check_all(system)
    assert str(exc.value) == "SWMR: clusters [0, 1] both hold global write permission for 0x9"


def test_lowest_address_wins_within_one_check():
    system = _mesi_system()
    _plant_double_writer(system, 0x9)
    _plant_double_writer(system, 0x5)
    with pytest.raises(ConsistencyViolation, match="0x5$"):
        invariants.check_all(system)
    system = _mesi_system()
    _plant_divergent_sharer(system, 0x3, stale=8)
    _plant_divergent_sharer(system, 0x2)
    with pytest.raises(ConsistencyViolation) as exc:
        invariants.check_all(system)
    assert str(exc.value) == "value: l1.0.0 reads 9 for 0x2, authoritative is 5"


def test_inclusion_reports_in_l1_order_not_address_order():
    system = _mesi_system()
    system.clusters[0].l1s[1].cache.insert(0x2, state="S", data=0)
    system.clusters[0].l1s[0].cache.insert(0x8, state="S", data=0)
    with pytest.raises(ConsistencyViolation) as exc:
        invariants.check_all(system)
    assert str(exc.value) == "inclusion: l1.0.0 holds 0x8 (S) absent from c3.0"


def _plant_forbidden_compound(system, addr):
    bridge = system.clusters[0].bridge
    line = bridge.cache.insert(addr, state="I", data=None)
    bridge.dir_record(line).sharers.add("l1.0.0")


def test_compound_skips_only_lines_blocked_at_their_own_bridge():
    system = _mesi_system()
    _plant_forbidden_compound(system, 0x4)
    system.clusters[1].bridge.evicting.add(0x4)
    with pytest.raises(ConsistencyViolation, match=r"compound: c3\.0 line 0x4"):
        invariants.check_all(system)
    system.clusters[0].bridge.evicting.add(0x4)
    invariants.check_all(system)


@pytest.mark.parametrize("states,message", [
    (("I", "S"), None),
    (("S", "S"), None),
    (("E", "I"), None),
    (("E", "S"), "SWMR: cluster 0 owns 0x6 while clusters [0, 1] hold copies"),
    (("M", "M"), "SWMR: clusters [0, 1] both hold global write permission "
                 "for 0x6"),
], ids=["I+S", "S+S", "E+I", "E+S", "M+M"])
def test_swmr_suspects_need_two_bridge_holders_and_a_writer(states, message):
    """An address both bridges hold is an SWMR suspect only if both hold
    it in S/E/M/O/F and one of them in E/M: no other pair can break
    SWMR."""
    system = _mesi_system()
    for cluster, state in zip(system.clusters, states):
        cluster.bridge.cache.insert(0x6, state=state, data=0)
    maps = [cluster.bridge.cache.index for cluster in system.clusters]
    assert invariants._contested(maps, 0x6) == (message is not None)
    if message is None:
        invariants.check_swmr(system)
    else:
        with pytest.raises(ConsistencyViolation) as exc:
            invariants.check_swmr(system)
        assert str(exc.value) == message


def test_check_all_reuses_what_it_found_under_equal_keys():
    """A search's ``check_all`` reuses what it found under the same
    keys, so a key must determine every field the checks read: one
    that never changes hides a later violation, and keys that follow
    the lines catch it, with the message of a fresh walk."""
    system = _mesi_system()
    memo: dict = {}

    def frozen(component):
        return component.node_id.encode()

    def lines(component):
        return repr((component.node_id, sorted(
            (line.addr, line.state) for line in component.cache.index.values())
        )).encode()

    invariants.check_all(system, memo, frozen)
    _plant_double_writer(system, 0x9)
    invariants.check_all(system, memo, frozen)
    with pytest.raises(ConsistencyViolation) as exc:
        invariants.check_all(system, memo, lines)
    assert str(exc.value) == ("SWMR: clusters [0, 1] both hold global write "
                              "permission for 0x9")


def test_check_all_reuse_still_reads_the_backing_store():
    """A reused verdict covers only the L1s and the bridges: the value
    check runs on the live backing store every time, so a write there
    under unchanged keys is caught, with the message of a fresh walk."""
    system = _mesi_system()
    _plant_divergent_sharer(system, 0x3, stale=5)
    memo: dict = {}

    def frozen(component):
        return component.node_id.encode()

    invariants.check_all(system, memo, frozen)
    assert list(memo.values()) == [(0x3,)]
    system.backing.write(0x3, 7)
    with pytest.raises(ConsistencyViolation) as fresh:
        invariants.check_all(system)
    with pytest.raises(ConsistencyViolation) as reused:
        invariants.check_all(system, memo, frozen)
    assert str(reused.value) == str(fresh.value)
    assert "value" in str(fresh.value)


def _plant_system(policy_factory, clusters=("MESI", "MESI")):
    config = SystemConfig(
        clusters=tuple(ClusterConfig(cores=2, protocol=p, mcm="TSO") for p in clusters),
        global_protocol="CXL")
    return build_system(config, policy_factory=policy_factory)


_POLICY_FACTORIES = pytest.mark.parametrize(
    "policy_factory", [None, PermissionPolicy], ids=["generated", "permission"])


def _plant_two_lines(cache, plant, case) -> int:
    """Plant two lines of ``cache`` by ``plant(addr)`` and return the
    address ``lines()`` lists first.

    - ``same-set``: LRU order, oldest first;
    - ``higher-set-first``: the line in the higher set is inserted first
      and has the lower address;
    - ``touched``: a ``lookup`` moves the older line of one set behind
      the newer one.

    In the last two cases neither insertion (index) order nor address
    order gives the ``lines()`` order, so a walk that reports the first
    hit in either fails them.
    """
    n = cache.num_sets
    if case == "same-set":
        order, first = (0x4 + n, 0x4), 0x4 + n
    elif case == "higher-set-first":
        order, first = (0x5, 0x4 + n), 0x4 + n
    else:
        order, first = (0x4, 0x4 + n), 0x4 + n
    for addr in order:
        plant(addr)
    if case == "touched":
        cache.lookup(0x4)
    assert cache.lines()[0].addr == first
    if case != "same-set":
        assert next(iter(cache.index)) != first and min(cache.index) != first
    return first


_ORDER_CASES = [
    pytest.param(None, "same-set", id="generated"),
    pytest.param(PermissionPolicy, "same-set", id="permission"),
    *(pytest.param(factory, case, id=f"{name}-{case}")
      for case in ("higher-set-first", "touched")
      for factory, name in ((None, "generated"), (PermissionPolicy, "permission"))),
]


@pytest.mark.parametrize("policy_factory,case", _ORDER_CASES)
def test_first_forbidden_line_in_lines_order_wins(policy_factory, case):
    system = _plant_system(policy_factory)
    cache = system.clusters[0].bridge.cache
    first = _plant_two_lines(
        cache, lambda addr: _plant_forbidden_compound(system, addr), case)
    with pytest.raises(ConsistencyViolation) as exc:
        invariants.check_compound_states(system)
    assert str(exc.value) == f"compound: c3.0 line 0x{first:x} in forbidden state (S, I)"


@pytest.mark.parametrize("case", ["same-set", "higher-set-first", "touched"])
def test_first_absent_l1_line_in_lines_order_wins(case):
    system = _plant_system(None)
    cache = system.clusters[0].l1s[0].cache
    first = _plant_two_lines(
        cache, lambda addr: cache.insert(addr, state="S", data=0), case)
    with pytest.raises(ConsistencyViolation) as exc:
        invariants.check_inclusion(system)
    assert str(exc.value) == f"inclusion: l1.0.0 holds 0x{first:x} (S) absent from c3.0"


@_POLICY_FACTORIES
def test_forbidden_line_in_cluster_0_beats_cluster_1(policy_factory):
    system = _plant_system(policy_factory)
    bridge = system.clusters[1].bridge
    line = bridge.cache.insert(0x2, state="S", data=0)
    bridge.dir_record(line).owner = "l1.1.0"  # local write, global read
    _plant_forbidden_compound(system, 0x8)
    with pytest.raises(ConsistencyViolation) as exc:
        invariants.check_all(system)
    assert str(exc.value) == "compound: c3.0 line 0x8 in forbidden state (S, I)"
    system.clusters[0].bridge.evicting.add(0x8)
    with pytest.raises(ConsistencyViolation) as exc:
        invariants.check_all(system)
    assert str(exc.value) == "compound: c3.1 line 0x2 in forbidden state (M, S)"


def test_double_writer_held_by_first_and_last_of_three_clusters():
    system = _plant_system(None, clusters=("MESI", "MOESI", "MESIF"))
    system.clusters[0].bridge.cache.insert(0x9, state="M", data=1)
    system.clusters[1].bridge.cache.insert(0x5, state="M", data=1)
    system.clusters[2].bridge.cache.insert(0x9, state="E", data=1)
    with pytest.raises(ConsistencyViolation) as exc:
        invariants.check_swmr(system)
    assert str(exc.value) == "SWMR: clusters [0, 2] both hold global write permission for 0x9"


@pytest.mark.parametrize("blocker", ["bridge", "mshr", "home"])
def test_value_check_quiet_test_is_global(blocker):
    system = _mesi_system()
    _plant_divergent_sharer(system, 0x3)
    if blocker == "bridge":
        system.clusters[1].bridge.evicting.add(0x3)
    elif blocker == "mshr":
        system.clusters[1].l1s[1].mshrs[0x3] = object()
    else:
        system.home.busy[0x3] = object()
    invariants.check_value_coherence(system)


def test_intra_cluster_swmr_scoped_to_bridge_held_lines():
    system = _mesi_system()
    for l1 in system.clusters[0].l1s[:2]:
        l1.cache.insert(0x6, state="M", data=1)
    invariants.check_swmr(system)  # no bridge line: inclusion's job
    bridge = system.clusters[0].bridge
    bridge.cache.insert(0x6, state="M", data=1)
    bridge.evicting.add(0x6)  # tearing down still checks the L1s
    with pytest.raises(ConsistencyViolation, match=r"SWMR: L1s \['l1.0.0', 'l1.0.1'\] both"):
        invariants.check_swmr(system)


def test_tearing_down_line_left_out_of_cross_cluster_counts():
    system = _mesi_system()
    _plant_double_writer(system, 0x9)
    system.clusters[1].bridge.port.wb[0x9] = object()
    invariants.check_swmr(system)


def test_authoritative_value_priority():
    system = _mesi_system()
    system.backing.write(0x5, 1)
    assert invariants.authoritative_value(system, 0x5) == 1
    bridge_line = system.clusters[0].bridge.cache.insert(0x5, state="M", data=2)
    bridge_line.dirty = True
    assert invariants.authoritative_value(system, 0x5) == 2
    bridge_line.meta["stale"] = True
    assert invariants.authoritative_value(system, 0x5) == 1
    system.clusters[1].l1s[1].cache.insert(0x5, state="S", data=3)
    system.clusters[1].l1s[0].cache.insert(0x5, state="O", data=4)
    assert invariants.authoritative_value(system, 0x5) == 4


def test_line_held_only_by_rcc_l1_raises_nothing():
    system = _mesi_system(local_b="RCC")
    system.backing.write(0x5, 1)
    system.clusters[1].l1s[0].cache.insert(0x5, state="V", data=99)
    invariants.check_all(system)


def test_monitor_is_read_only():
    # An RCC cluster's bridge keeps lines with no meta dict, or one
    # with a ``stale`` flag and no directory record.
    config = two_cluster_config("RCC", "CXL", "MESI", cores_per_cluster=2, seed=3)
    system = build_system(config)
    system.run_threads(WORKLOADS["histogram"].build(config.total_cores, scale=0.2, seed=3))

    def snapshot():
        return [(line._meta is None, sorted(line._meta or ()))
                for cluster in system.clusters
                for cache in [cluster.bridge.cache, *(l1.cache for l1 in cluster.l1s)]
                for line in cache.lines()]

    before = snapshot()
    assert (True, []) in before and (False, ["stale"]) in before
    invariants.check_all(system)
    assert snapshot() == before


# ---------------------------------------------------------------------------
# Golden pins: the ordered ``check_all`` result ("ok" or the message) of
# every state real searches and random delivery paths reach.  The expected
# values were computed with the previous monitor implementation, not with
# a replica kept here; any change to a message, to which check wins or to
# which states fail shows here.
# ---------------------------------------------------------------------------

def _check_result(system) -> str:
    try:
        invariants.check_all(system)
    except ConsistencyViolation as exc:
        return str(exc)
    return "ok"


def _digest(results) -> str:
    return hashlib.sha256("\n".join(results).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,broken,count,digest", [
    ("SB", False, 1659,
     "a05e304c96df14b4b2f5ecee7d4e7adcc02603a976716a2dd0af3be1be799f76"),
    ("MP", True, 1255,
     "720c73f1bb2ddc00b3dc5d585070a2d9e18eaa936f7ba5e1e0b9921f5dabf79e"),
], ids=["SB", "MP-violate-atomicity"])
def test_check_all_over_every_explored_state_pinned(monkeypatch, name, broken,
                                                    count, digest):
    results = []
    check_all = invariants.check_all

    def recording(system, *reuse):
        try:
            check_all(system, *reuse)
        except ConsistencyViolation as exc:
            results.append(str(exc))
            raise
        results.append("ok")

    monkeypatch.setattr(invariants, "check_all", recording)
    model = litmus_model(name, ("MESI", "CXL", "MESI"))
    model.violate_atomicity = broken
    explore(model)
    assert len(results) == count
    assert _digest(results) == digest


#: Both clusters differ in every combo, so each local protocol sits in
#: cluster 0 and cluster 1 once per global protocol.
_LOCALS = ("MESI", "MESIF", "MOESI", "RCC")
_RANDOM_COMBOS = [(local, glob, _LOCALS[(i + 1) % len(_LOCALS)])
                  for glob in ("CXL", "MESI") for i, local in enumerate(_LOCALS)]


def _random_path_results(combo, test, broken, seed, paths=8):
    rng = random.Random(seed)
    model = litmus_model(test, combo)
    model.violate_atomicity = broken
    results = []
    for _ in range(paths):
        system, network = model.replay(())
        while True:
            results.append(_check_result(system))
            choices = network.deliverable()
            if not choices:
                break
            try:
                model.advance(system, network, rng.choice(choices))
            except ConsistencyViolation as exc:
                results.append(f"{type(exc).__name__}: {exc}")
                break
        system.close()
    return results


@pytest.mark.parametrize("broken,digest", [
    (False, "3e9e3047189430b0b6b1efc9f3a9f47b7aa1fac522840f607d9b1295b0416f9a"),
    (True, "6f0dc31ccdf803328e79319ffbb254ef3b6e3ae00ecc837d2cdaf2c6e9ccccfa"),
], ids=["clean", "violate-atomicity"])
def test_check_all_over_random_delivery_paths_pinned(broken, digest):
    results = []
    for index, combo in enumerate(_RANDOM_COMBOS):
        for test in ("SB", "MP", "WRC"):
            results.append(f"{'-'.join(combo)} {test}")
            results += _random_path_results(combo, test, broken, seed=index)
    assert _digest(results) == digest
