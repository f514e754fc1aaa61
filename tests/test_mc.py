"""Tests for the sharded model checker (repro.verify.mc).

Covers the four pillars of the subsystem: canonical fingerprints are
process-stable and injective, the sharded engine is exactly equivalent
to the serial search, injected defects are *found* (with shrunk,
replayable counterexamples), and the shipped pairings verify
exhaustively.
"""

import copy
import enum
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import types

import pytest

from repro.cpu.isa import ThreadProgram, load, rmw, store
from repro.errors import ConsistencyViolation
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import two_cluster_config
from repro.sim.system import build_system
from repro.verify import invariants
from repro.verify.explorer import state_parts
from repro.verify.litmus import LITMUS_BY_NAME, materialize
from repro.verify.mc import (
    KIND_CRASH,
    CheckModel,
    Counterexample,
    ModelChecker,
    canonical_fingerprint,
    check_litmus,
    check_model,
    dedup,
    explore_shard,
    litmus_model,
)
from repro.verify.mc import engine as mc_engine
from repro.verify.mc import fingerprint as fingerprint_module
from repro.verify.mc.counterexample import crash_fingerprint
from repro.verify.mc.fingerprint import canonical_bytes, fingerprint_parts
from repro.workloads import WORKLOADS

X, Y = 0x10, 0x11
COMBO = ("MESI", "CXL", "MESI")


@pytest.fixture(scope="module")
def corr1_serial():
    """Exhaustive serial CoRR1 check, shared across the module."""
    return check_litmus("CoRR1", COMBO, max_states=0)


@pytest.fixture(scope="module")
def broken_mp():
    """Exhaustive check of MP with Rule-II atomicity disabled."""
    model = litmus_model("MP", COMBO)
    model.violate_atomicity = True
    return check_model(model, max_states=3_000)


# ---------------------------------------------------------------------------
# Fingerprints.
# ---------------------------------------------------------------------------

def test_canonical_encoding_is_injective_on_adjacent_strings():
    assert canonical_bytes(("ab", "c")) != canonical_bytes(("a", "bc"))
    assert canonical_bytes((1, 23)) != canonical_bytes((12, 3))
    assert canonical_bytes(("1",)) != canonical_bytes((1,))
    assert canonical_bytes((True,)) != canonical_bytes((1,))
    assert canonical_bytes((None,)) != canonical_bytes(("",))


def test_canonical_encoding_sorts_unordered_containers():
    assert fingerprint_parts(({3, 1, 2},)) == fingerprint_parts(({2, 3, 1},))
    assert (fingerprint_parts(({"b": 1, "a": 2},))
            == fingerprint_parts(({"a": 2, "b": 1},)))


def test_fingerprint_rejects_non_primitive_parts():
    with pytest.raises(TypeError):
        fingerprint_parts((object(),))
    with pytest.raises(TypeError):  # marshal rejects it too: no memo
        fingerprint_module.state_bytes(((object(),), ()), {})


class _Level(enum.IntEnum):
    HIGH = 7

    # IntEnum's own str() changed in Python 3.11; pin one that is the
    # same on every version the suite runs on.
    def __str__(self) -> str:
        return "level-high"


def test_canonical_bytes_are_pinned():
    """Golden bytes, computed with the recursive reference encoder: one
    tree with every tag, and values on both sides of the encoder's
    exact-type fast path (``True`` and ``1`` in the same slot, an
    ``IntEnum`` member next to the plain int it equals, a list)."""
    tree = (
        (True, 1), (1, True), (False, 0, None),
        -42, 2**70, "h\u00e9llo \u2192 \u4e16", "", (), ((("deep",),), ()),
        1.5, b"\x00raw", frozenset({3, "a"}), {"k": 1, 2: (None, True)},
        7, _Level.HIGH, 7, [1, "x"],
    )
    assert canonical_bytes(tree).hex() == (
        "28285469313a31292869313a315429284669313a304e2969333a2d3432693232"
        "3a313138303539313632303731373431313330333432347331343a68c3a96c6c"
        "6f20e2869220e4b89673303a282928282873343a646565702929282929663230"
        "3a3078312e38303030303030303030303030702b3062343a007261777b73313a"
        "6169313a337d5b73313a6b69313a3169313a32284e54295d69313a376931303a"
        "6c6576656c2d6869676869313a372869313a3173313a782929")


@pytest.mark.parametrize("name,broken,count,digest", [
    ("SB", False, 1659,
     "49e76e886437a97587c0e6dac39bc0a1d8d6fa91dc2111839634f17517800dbf"),
    ("MP", True, 1255,
     "d96c0101ef0ae24a23e4a980e5f7397eac305c80cdf59e871af5d4e16842fd51"),
], ids=["SB", "MP-violate-atomicity"])
def test_search_fingerprints_are_pinned(name, broken, count, digest):
    """Every fingerprint one serial drain discovers, in discovery order:
    a change to the state walk, the encoding or the search order shows
    up here."""
    model = litmus_model(name, COMBO)
    model.violate_atomicity = broken
    fps = explore_shard(model, 0, 1, [((), None)], set())["new_fps"]
    assert len(fps) == count
    packed = b"".join(fp.to_bytes(8, "big") for fp in fps)
    assert hashlib.sha256(packed).hexdigest() == digest


def test_fingerprints_stable_across_hash_seeds():
    """The same protocol state fingerprints identically in processes
    launched with different PYTHONHASHSEED values -- the property
    partition-by-hash sharding across a worker fleet depends on."""
    script = (
        "from repro.verify.mc.fingerprint import canonical_fingerprint\n"
        "from repro.verify.mc.model import litmus_model\n"
        "m = litmus_model('MP', ('MESI', 'CXL', 'MESI'))\n"
        "print(canonical_fingerprint(*m.replay((0, 1, 0))))\n"
    )
    values = []
    for seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        values.append(int(out.stdout.strip()))
    assert len(set(values)) == 1, values


# ---------------------------------------------------------------------------
# The per-search part memo: never changes a fingerprint.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,broken,count", [
    ("SB", False, 1659), ("MP", True, 1255),
], ids=["SB", "MP-violate-atomicity"])
def test_memoized_fingerprints_match_the_specification(monkeypatch, name,
                                                       broken, count):
    """Every state a drain fingerprints, through the drain's one memo,
    fingerprints as ``fingerprint_parts(state_parts(...))`` says."""
    model = litmus_model(name, COMBO)
    model.violate_atomicity = broken
    memos = []

    def checked(system, network, memo):
        fp = fingerprint_module.canonical_fingerprint(system, network, memo)
        assert fp == fingerprint_parts(state_parts(system, network))
        memos.append(memo)
        return fp

    monkeypatch.setattr(mc_engine, "canonical_fingerprint", checked)
    fps = explore_shard(model, 0, 1, [((), None)], set())["new_fps"]
    assert len(fps) == count  # the pinned discovery count
    assert len(memos) >= count
    assert all(memo is memos[0] for memo in memos)
    assert 0 < len(memos[0]) <= fingerprint_module.MEMO_LIMIT


# Trees shaped like ``state_parts`` output (component parts, then the
# in-flight channels), equal under ``==`` but with ``True``/``1``,
# ``False``/``0`` and ``1``/``1.0`` swapped in components and in a
# channel entry.  Fingerprints computed with ``fingerprint_parts``
# before the memo existed.
_ENTRY = (("c3.0", "home", 1), (("GetM", 16, 0, None, 0, None, False),))
_TYPED_TREES = [
    ((("l1.0", ((16, "M", 1, True),), ()), ("home", 0, 1.0), (_ENTRY,)),
     0x686fa284259187f0),
    ((("l1.0", ((16, "M", True, 1),), ()), ("home", False, 1), (_ENTRY,)),
     0x174d6e2ce045a2f0),
    ((("l1.0", ((16, "M", 1.0, True),), ()), ("home", 0, 1.0),
      ((("c3.0", "home", True), (("GetM", 16, False, None, 0, None, 0),)),)),
     0xcf67387610e6f650),
]


def _memo_fingerprint(tree, memo) -> int:
    return fingerprint_module._digest(
        fingerprint_module.state_bytes(tree, memo))


def test_memo_keys_tell_equal_parts_of_different_types_apart():
    memo: dict = {}
    for _ in range(2):  # the second round hits the memo
        for tree, pinned in _TYPED_TREES:
            assert tree == _TYPED_TREES[0][0]
            assert _memo_fingerprint(tree, memo) == pinned
            assert fingerprint_parts(tree) == pinned
    assert len({pinned for _, pinned in _TYPED_TREES}) == 3


def test_memo_encodes_unmarshallable_parts_as_canonical_bytes():
    """An ``IntEnum`` member is no plain int: a part holding one skips
    the memo, even when the equal plain-int part is memoized."""
    plain = ((7, "x"), ())
    member = ((_Level.HIGH, "x"), ())
    memo: dict = {}
    assert (fingerprint_module.state_bytes(plain, memo)
            == canonical_bytes(plain))
    assert (fingerprint_module.state_bytes(member, memo)
            == canonical_bytes(member) != canonical_bytes(plain))
    assert len(memo) == 1
    assert _memo_fingerprint(member, memo) == fingerprint_parts(member)


def test_memo_bound_changes_no_fingerprint(monkeypatch):
    """A memo that keeps a single entry finds what an unbounded one does."""
    model = litmus_model("MP", COMBO)
    drains = []
    for limit in (1, 1 << 30):
        monkeypatch.setattr(fingerprint_module, "MEMO_LIMIT", limit)
        drains.append(explore_shard(model, 0, 1, [((), None)], set()))
    assert drains[0]["new_fps"] == drains[1]["new_fps"]
    assert drains[0]["states"] == drains[1]["states"] > 0


def test_fingerprinting_is_read_only():
    """Like the invariant monitor, the fingerprint changes no line's
    meta: an RCC cluster's bridge lines without a meta dict or without
    a directory record keep it that way, and so do a MESI cluster's."""
    config = two_cluster_config("RCC", "CXL", "MESI", cores_per_cluster=2,
                                seed=3)
    system = build_system(config)
    system.run_threads(
        WORKLOADS["histogram"].build(config.total_cores, scale=0.2, seed=3))
    network = types.SimpleNamespace(outbox=[])  # nothing in flight

    def snapshot():
        return [(line._meta is None, sorted(line._meta or ()))
                for cluster in system.clusters
                for cache in [cluster.bridge.cache,
                              *(l1.cache for l1 in cluster.l1s)]
                for line in cache.lines()]

    before = snapshot()
    assert (True, []) in before and (False, ["stale"]) in before
    assert (False, ["dir", "stale"]) in before
    fp = canonical_fingerprint(system, network)
    assert snapshot() == before
    assert fp == fingerprint_parts(state_parts(system, network))
    assert snapshot() == before


# ---------------------------------------------------------------------------
# Engine equivalence: pinned serial counts == mc sharded.
# ---------------------------------------------------------------------------

def test_mc_corr1_counts_are_pinned(corr1_serial):
    assert not corr1_serial.truncated
    assert corr1_serial.states == 99
    assert corr1_serial.terminals == 3
    assert len(corr1_serial.outcomes) == 3
    assert corr1_serial.ok
    # Root rebuilds only: each expanded state's first successor is a
    # live step on the parent, not a replay.
    assert corr1_serial.replays == 48


def test_mc_sb_counts_are_pinned():
    metrics = MetricsRegistry()
    result = check_litmus("SB", COMBO, max_states=0, metrics=metrics)
    assert (result.states, result.terminals, result.replays) == (1659, 3, 2647)
    assert metrics.counter_values("mc.")["mc.replays"] == 2647
    assert result.ok


def _snapshot(system, network) -> tuple:
    """What the live step must reproduce of a replayed state."""
    return (canonical_fingerprint(system, network), system.engine.now,
            network.stats.messages,
            tuple(core.finish_time for core in system.cores))


def _attempt(step) -> tuple:
    """``(state, snapshot)`` after ``step()``, or ``(None, identity of
    the exception it raised)``."""
    try:
        state = step()
    except Exception as exc:
        return None, ("raised", crash_fingerprint(exc))
    return state, _snapshot(*state)


@pytest.mark.parametrize("name,broken", [("SB", False), ("MP", True)],
                         ids=["SB", "MP-violate-atomicity"])
def test_live_step_equals_replay(name, broken):
    """The search's live step is sound: on every expanded state, after
    every read an expansion makes, delivering the first choice on the
    live system gives exactly the state a replay from the root gives.
    Any expansion read that mutated the parent would show up here."""
    model = litmus_model(name, COMBO)
    model.violate_atomicity = broken
    seen = set()
    stack = [()]
    # The replay each comparison makes of a first successor, which is
    # the next pop; every state expanded below is a fresh replay.
    replayed = {}
    expanded = 0
    while stack:
        path = stack.pop()
        state = replayed.pop(path, None) or _attempt(
            lambda: model.replay(path))[0]
        if state is None:
            continue
        system, network = state
        fp = canonical_fingerprint(system, network)
        if fp in seen:
            continue
        seen.add(fp)
        try:
            invariants.check_all(system)
        except ConsistencyViolation:
            continue
        choices = network.deliverable()
        model.stuck_threads(system)
        model.outcome(system)
        if not choices:
            continue
        expanded += 1
        child = path + (choices[0],)
        _, live = _attempt(lambda: model.advance(system, network, choices[0]))
        replayed[child], expected = _attempt(lambda: model.replay(child))
        assert live == expected, child
        stack.extend(path + (choice,) for choice in reversed(choices))
    assert expanded > 500


class _CrashOnHomeRead(CheckModel):
    """A model whose controller 'crashes' on cluster B's first memory read."""

    def advance(self, system, network, choice):
        msg = network.outbox[choice]
        if (msg.kind, msg.src, msg.dst) == ("MemRd", "c3.1", "home"):
            raise RuntimeError("injected crash")
        return super().advance(system, network, choice)


def test_crash_on_live_step_is_classified_like_a_replay():
    """A live step that raises is a crash counterexample with the same
    fingerprint and flight tail a replay of its path would give."""
    base = litmus_model("CoRR1", COMBO)
    model = _CrashOnHomeRead(base.combo, base.programs,
                             observed_addrs=base.observed_addrs)
    out = explore_shard(model, 0, 1, [((), None)], set())
    crashes = [v for v in out["violations"] if v[1] == KIND_CRASH]
    assert crashes
    # deliverable()[0] is always outbox index 0: a path ending in 0 is
    # an expanded state's first successor, reached by the live step.
    assert any(path[-1] == 0 for path, *_ in crashes)
    for path, _kind, message, fp, flight in crashes:
        assert message == "RuntimeError: injected crash"
        assert _attempt(lambda: model.replay(path))[1] == ("raised", fp)
        assert [event["kind"] for event in flight[-2:]] == ["replay", "crash"]
        assert flight[-2]["depth"] == flight[-1]["depth"] == len(path)
    ce = check_model(model, max_states=0).counterexamples[0]
    assert ce.kind == KIND_CRASH and ce.reproduces()


def test_sharded_search_is_equivalent_to_serial(corr1_serial):
    sharded = check_litmus("CoRR1", COMBO, shards=3, max_states=0)
    assert sharded.states == corr1_serial.states
    assert sharded.terminals == corr1_serial.terminals
    assert sharded.outcomes == corr1_serial.outcomes
    assert sharded.ok
    assert sharded.rounds > 1  # the frontier really crossed shards


def test_same_configuration_is_deterministic(corr1_serial):
    again = check_litmus("CoRR1", COMBO, max_states=0)
    assert again.states == corr1_serial.states
    assert again.outcome_examples == corr1_serial.outcome_examples


def test_pool_sharded_search_matches_serial(pool_sizes, monkeypatch):
    """MP over 4 shards on the local process pool is the serial search,
    and its big waves really went through one pool of min(jobs, shards)
    workers, started once for the whole search."""
    serial = check_litmus("MP", COMBO, max_states=0)
    assert pool_sizes == []  # a one-shard check starts no pool
    monkeypatch.setenv("REPRO_JOBS", "8")
    metrics = MetricsRegistry()
    pooled = check_litmus("MP", COMBO, shards=4, backend="local",
                          max_states=0, metrics=metrics)
    assert (serial.states, serial.terminals, len(serial.outcomes)) \
        == (823, 3, 3)
    assert pooled.states == serial.states
    assert pooled.terminals == serial.terminals
    assert pooled.outcomes == serial.outcomes
    assert pooled.ok
    counters = metrics.counter_values("mc.")
    assert counters["mc.waves"] > counters["mc.inline_waves"]
    assert pool_sizes == [4]
    two = check_litmus("MP", COMBO, shards=4, backend="local",
                       max_states=0, jobs=2)
    assert (two.states, two.outcomes) == (serial.states, serial.outcomes)
    assert pool_sizes == [4, 2]


def test_outcome_witness_paths_replay_to_their_outcome(corr1_serial):
    model = litmus_model("CoRR1", COMBO)
    for outcome, path in corr1_serial.outcome_examples.items():
        system, network = model.replay(path)
        assert not network.deliverable()
        assert model.outcome(system) == outcome


def test_write_write_race_outcomes_via_mc():
    """The explorer's classic write-write race, through the new engine."""
    model = CheckModel(
        combo=COMBO,
        programs=(ThreadProgram("a", [store(X, 1)]),
                  ThreadProgram("b", [store(X, 2)])),
        observed_addrs=(X,))
    result = check_model(model, max_states=0)
    assert result.ok
    assert result.outcomes == {((f"[{X}]", 1),), ((f"[{X}]", 2),)}


def test_check_model_survives_pickling():
    import pickle

    model = litmus_model("MP", COMBO)
    model.replay((0,))  # replaying leaves no state on the model
    clone = pickle.loads(pickle.dumps(model))
    assert clone.combo == model.combo
    assert clone.outcome(clone.replay(())[0]) is not None


def test_progress_callback_errors_propagate():
    """A bug in the caller's progress callback is not swallowed."""
    def progress(rounds, states):
        raise TypeError("progress callback bug")

    with pytest.raises(TypeError, match="progress callback bug"):
        check_litmus("CoRR1", COMBO, max_states=0, progress=progress)


# ---------------------------------------------------------------------------
# Truncation semantics.
# ---------------------------------------------------------------------------

def test_truncated_exploration_is_not_ok():
    """A capped run proves nothing: ok must be False even with zero
    violations and some terminals found."""
    result = check_litmus("MP", COMBO, max_states=30)
    assert result.truncated and not result.ok and not result.counterexamples


# ---------------------------------------------------------------------------
# Defect finding: the checker must catch what we break.
# ---------------------------------------------------------------------------

def test_atomicity_defect_is_found(broken_mp):
    assert not broken_mp.ok
    assert not broken_mp.truncated  # found by exhaustion, not luck
    assert broken_mp.counterexamples
    shortest = min(len(ce.path) for ce in broken_mp.counterexamples)
    assert 0 < shortest <= 12  # the defect bites within a dozen deliveries


def test_counterexamples_shrink_and_reproduce(broken_mp):
    ce = broken_mp.counterexamples[0]
    assert ce.shrunk
    assert ce.reproduces()


def test_counterexample_json_round_trip_replays_identically(broken_mp):
    ce = broken_mp.counterexamples[0]
    text = ce.to_json()
    back = Counterexample.from_json(text)
    assert back.signature == ce.signature
    assert back.reproduces()
    assert back.to_json() == text  # byte-identical re-serialization


def test_traced_replay_starts_with_the_root_requests(corr1_serial):
    """The tracer sees every message of a path: the requests the
    programs send before the first delivery come first."""
    model = litmus_model("CoRR1", COMBO)
    _system, network = model.replay(())
    root = [(msg.kind, msg.src, msg.dst) for msg in network.outbox]
    assert root
    paths = [(), (0, 0, 0), *corr1_serial.outcome_examples.values()]
    for path in paths:
        probe = Counterexample(model, path, "outcome", "probe", 0)
        _system, tracer = probe.replay_with_trace()
        traced = [(e.msg_kind, e.src, e.dst) for e in tracer.entries]
        assert traced[:len(root)] == root, path


def test_traced_replay_honours_violate_atomicity(broken_mp):
    """A Rule-II counterexample replayed with a tracer reaches the same
    broken state, so the invariant fires with the same message."""
    ce = broken_mp.counterexamples[0]
    assert ce.kind == "invariant"
    system, tracer = ce.replay_with_trace()
    assert tracer.entries
    with pytest.raises(ConsistencyViolation) as caught:
        invariants.check_all(system)
    assert str(caught.value) == ce.message


def test_check_leaves_model_programs_untouched():
    """Replays share the model's programs (no per-replay copy): a full
    check must leave them exactly as it found them."""
    model = CheckModel(
        combo=COMBO,
        programs=(ThreadProgram("a", [store(X, 1), load(Y, "r0")]),
                  ThreadProgram("b", [rmw(X, 1, "r1")])),
        observed_addrs=(X,))
    before = copy.deepcopy(model.programs)
    assert check_model(model, max_states=0).ok
    assert model.programs == before


def test_sharded_search_finds_the_same_defects(broken_mp):
    model = litmus_model("MP", COMBO)
    model.violate_atomicity = True
    sharded = check_model(model, shards=3, max_states=3_000, shrink=False)
    assert ({ce.signature for ce in sharded.counterexamples}
            == {ce.signature for ce in broken_mp.counterexamples})


def test_shrinking_only_removes_deliveries(broken_mp):
    """A shrunk path is a subsequence constraint in length: never longer
    than the raw path dedup selected."""
    model = litmus_model("MP", COMBO)
    model.violate_atomicity = True
    raw = check_model(model, max_states=3_000, shrink=False)
    shrunk_by_sig = {ce.signature: ce for ce in broken_mp.counterexamples}
    for ce in raw.counterexamples:
        mate = shrunk_by_sig.get(ce.signature)
        if mate is not None:
            assert len(mate.path) <= len(ce.path)


def test_dedup_keeps_shortest_path_per_signature():
    model = litmus_model("MP", COMBO)
    long = Counterexample(model, (0, 1, 2), "deadlock", "x", fingerprint=7)
    short = Counterexample(model, (0, 1), "deadlock", "y", fingerprint=7)
    other = Counterexample(model, (0,), "deadlock", "z", fingerprint=8)
    kept = dedup([long, short, other])
    assert [ce.path for ce in kept] == [(0,), (0, 1)]


def test_stuck_threads_tracks_replay_progress():
    """stuck_threads() reads the replayed system: positive while
    a thread still waits on undelivered messages, zero at a terminal."""
    model = litmus_model("MP", COMBO)
    system, network = model.replay(())
    assert model.stuck_threads(system) > 0  # nothing delivered yet
    # Drain greedily to completion: always deliver the oldest choice.
    path = ()
    for _ in range(200):
        system, network = model.replay(path)
        choices = network.deliverable()
        if not choices:
            break
        path = path + (choices[0],)
    assert model.stuck_threads(system) == 0  # the drained system terminated


# ---------------------------------------------------------------------------
# System.close: dropped checker systems are freed without the collector.
# ---------------------------------------------------------------------------

@pytest.fixture
def gc_off():
    """Cycle collector off for the test, with the heap collected first."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("broken", [False, True],
                         ids=["intact", "violate-atomicity"])
def test_closed_systems_leave_no_cycles(gc_off, broken):
    """A closed system on a random mid-path state is freed by reference
    counting alone, on every pairing and with Rule II off."""
    rng = random.Random(17)
    models = []
    for combo in _all_combos():
        for name in ("SB", "MP", "WRC"):
            model = litmus_model(name, combo)
            model.violate_atomicity = broken
            models.append(model)
    gc.collect()
    for model in models:
        system, network = model.replay(())
        for _ in range(rng.randrange(16)):
            choices = network.deliverable()
            if not choices:
                break
            try:
                model.advance(system, network, rng.choice(choices))
            except ConsistencyViolation:
                break
        system.close()
        del system, network
        assert gc.collect() == 0, model.combo


def test_shrinking_leaves_little_for_the_collector(broken_mp, gc_off):
    """Every probe of a shrink closes its replayed system, and the
    shrunk path and signature are the ones the search produced."""
    found = broken_mp.counterexamples[0]
    raw = Counterexample(found.model, found.path, found.kind, found.message,
                         found.fingerprint)
    shrunk = raw.shrink()
    assert gc.collect() < 500
    assert shrunk.path == found.path == (0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0)
    assert shrunk.signature == found.signature


def test_check_model_leaves_little_for_the_collector(gc_off):
    result = check_litmus("SB", COMBO, max_states=0)
    assert result.ok
    del result
    assert gc.collect() < 500


def test_close_waits_for_build_observers(monkeypatch):
    """An observer that wraps ``build_system`` (as the perfbench tracer
    does) reads the previous system while the next is built, and the
    last system after the check: the search closes none of them early."""
    from repro.verify import explorer

    build = explorer.build_system
    open_systems = []
    read = []

    def observed_build(*args, **kwargs):
        system = build(*args, **kwargs)
        for done in open_systems:
            read.append((done.engine.events_executed,
                         done.network.stats.messages))
        open_systems[:] = [system]
        return system

    monkeypatch.setattr(explorer, "build_system", observed_build)
    result = check_litmus("SB", COMBO, max_states=0)
    (last,) = open_systems
    read.append((last.engine.events_executed, last.network.stats.messages))
    assert len(read) == result.replays == 2647
    assert all(events > 0 and messages > 0 for events, messages in read)


# ---------------------------------------------------------------------------
# The acceptance gate: every shipped pairing verifies exhaustively.
# ---------------------------------------------------------------------------

def _all_combos():
    from repro.core.spec import GLOBAL_SPECS, LOCAL_SPECS

    return [(local, global_, local)
            for local in LOCAL_SPECS for global_ in GLOBAL_SPECS]


@pytest.mark.parametrize("combo", _all_combos(), ids=lambda c: "-".join(c))
def test_every_shipped_pairing_verifies_corr1_exhaustively(combo):
    """All 8 pairings pass an uncapped exhaustive check on CoRR1:
    no invariant violations, no deadlocks, every delivery order
    terminates, and the outcome set is axiomatically sound."""
    from repro.verify.axiomatic import enumerate_outcomes

    test = LITMUS_BY_NAME["CoRR1"]
    result = check_litmus("CoRR1", combo, max_states=0)
    assert result.ok, (combo, [ce.describe()
                               for ce in result.counterexamples[:2]])
    assert not result.truncated
    allowed = enumerate_outcomes(
        materialize(test, ["SC", "SC"]), ["SC", "SC"], test.observed_addrs)
    assert result.outcomes <= allowed
    assert not any(test.matches_forbidden(dict(o)) for o in result.outcomes)


# ---------------------------------------------------------------------------
# CLI: python -m repro check.
# ---------------------------------------------------------------------------

def test_cli_check_verified_exit_zero(capsys):
    from repro.cli import main

    code = main(["check", "--combo", "MESI:CXL:MESI", "--litmus", "CoRR1",
                 "--max-states", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified" in out
    assert "states" in out


def test_cli_check_truncated_exit_one(capsys):
    from repro.cli import main

    code = main(["check", "--litmus", "MP", "--max-states", "25"])
    out = capsys.readouterr().out
    assert code == 1
    assert "INCONCLUSIVE" in out
    assert "truncated" in out


def test_cli_check_unknown_litmus_exit_two(capsys):
    from repro.cli import main

    assert main(["check", "--litmus", "nosuch"]) == 2


def test_cli_check_unknown_protocol_exit_two(capsys):
    """A bad protocol name is a usage error, not a crash counterexample."""
    from repro.cli import main

    code = main(["check", "--combo", "MESI:BOGUS:MESI", "--litmus", "MP"])
    err = capsys.readouterr().err
    assert code == 2
    assert "BOGUS" in err and "available" in err


def test_litmus_model_canonicalizes_protocol_names():
    """Lowercase combos resolve to registry keys before any replay."""
    model = litmus_model("CoRR1", ("mesi", "cxl", "moesi"))
    assert model.combo == ("MESI", "CXL", "MOESI")


def test_cli_check_json_payload(capsys):
    from repro.cli import main

    code = main(["check", "--litmus", "CoRR1", "--max-states", "0",
                 "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verified"] is True
    assert payload["states"] > 0
    assert payload["metrics"]["mc.states"] == payload["states"]
    assert payload["escaped_outcomes"] == []


def test_cli_check_writes_counterexample_fixtures(tmp_path, capsys,
                                                  monkeypatch):
    """--ce-out writes replayable JSON fixtures when the check fails.

    A shipped combo never fails, so the model builder is patched to
    return a Rule-II-broken model -- the CLI sees counterexamples and
    must persist them.
    """
    from repro.cli import main

    real = litmus_model

    def broken(name, combo, mcms=("SC", "SC")):
        model = real(name, combo, mcms)
        model.violate_atomicity = True
        return model

    # _cmd_check imports litmus_model from repro.verify.mc at call time.
    monkeypatch.setattr("repro.verify.mc.litmus_model", broken)
    out_dir = tmp_path / "ces"
    code = main(["check", "--litmus", "MP", "--max-states", "2000",
                 "--ce-out", str(out_dir)])
    capsys.readouterr()
    assert code == 1
    written = sorted(out_dir.glob("ce-MP-*.json"))
    assert written
    ce = Counterexample.from_json(written[0].read_text())
    assert ce.reproduces()
