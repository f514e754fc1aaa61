"""Tests for the model checker (repro.verify.mc).

Covers the pillars of the subsystem: canonical fingerprints are
process-stable and injective, the search's live steps, restores and
memos reach exactly the states a fresh replay would, injected defects
are *found* (with shrunk, replayable counterexamples), and the shipped
pairings verify exhaustively.
"""

import copy
import dataclasses
import enum
import functools
import gc
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
import types
import weakref
from collections import deque

import pytest

from repro.cpu.isa import ThreadProgram, load, rmw, store
from repro.errors import ConsistencyViolation
from repro.obs.metrics import MetricsRegistry
from repro.protocols.messages import BI_SNP_INV, INV, Message
from repro.sim.config import two_cluster_config
from repro.sim.network import Link
from repro.sim.system import build_system
from repro.verify import invariants
from repro.verify.explorer import state_parts
from repro.verify.litmus import LITMUS_BY_NAME, materialize
from repro.verify.mc import (
    KIND_CRASH,
    CheckModel,
    Counterexample,
    canonical_fingerprint,
    check_litmus,
    check_model,
    dedup,
    explore,
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
        fingerprint_module.part_bytes((object(),), {})


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
    fps = explore(model)["new_fps"]
    assert len(fps) == count
    packed = b"".join(fp.to_bytes(8, "big") for fp in fps)
    assert hashlib.sha256(packed).hexdigest() == digest


def test_fingerprints_stable_across_hash_seeds():
    """The same protocol state fingerprints identically in processes
    launched with different PYTHONHASHSEED values -- the property
    counterexample fixtures and pinned fingerprints, read back in
    another process, depend on."""
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

def _wrc_moesi():
    """A three-thread fan-out model: two cores per cluster."""
    return litmus_model("WRC", ("MOESI", "MESI", "MOESI"))


@pytest.mark.parametrize("make_model,count", [
    (lambda: litmus_model("SB", COMBO), 1659),
    (lambda: _broken_mp(), 1255),
    (_wrc_moesi, 3730),
    (lambda: litmus_model("MP", ("MESIF", "CXL", "RCC")), 326),
    (lambda: _hybrid_model(), 225),
    (lambda: _eviction_model(), 273),
], ids=["SB", "MP-violate-atomicity", "WRC-MOESI-MESI-MOESI",
        "MP-MESIF-CXL-RCC", "hybrid-memory", "evictions"])
def test_memoized_fingerprints_match_the_specification(monkeypatch,
                                                       make_model, count):
    """Every state a drain fingerprints, through the drain's one memo
    and re-encoding only the domains its step touched, fingerprints as
    ``fingerprint_parts(state_parts(...))`` says.  Only a replayed
    state is encoded in full."""
    model = make_model()
    memos = []
    full = []

    def checked(system, network, memo, parts, touched):
        fp = fingerprint_module.canonical_fingerprint(system, network, memo,
                                                      parts, touched)
        assert fp == fingerprint_parts(state_parts(system, network))
        memos.append(memo)
        full.append(touched is None)
        return fp

    monkeypatch.setattr(mc_engine, "canonical_fingerprint", checked)
    out = explore(model)
    assert len(out["new_fps"]) == count  # the pinned discovery count
    assert len(memos) >= count
    assert sum(full) == out["replays"] == 1
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
    """:func:`canonical_fingerprint`'s assembly of a ``state_parts``
    tree, each part through ``memo``."""
    *components, flight = tree
    return fingerprint_module._digest(b"".join([
        b"(", *[fingerprint_module.part_bytes(part, memo)
                for part in components],
        b"(", *[fingerprint_module.part_bytes(entry, memo)
                for entry in flight], b"))"]))


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
    plain = (7, "x")
    member = (_Level.HIGH, "x")
    memo: dict = {}
    assert (fingerprint_module.part_bytes(plain, memo)
            == canonical_bytes(plain))
    assert (fingerprint_module.part_bytes(member, memo)
            == canonical_bytes(member) != canonical_bytes(plain))
    assert len(memo) == 1
    assert (_memo_fingerprint((member, ()), memo)
            == fingerprint_parts((member, ())))


def test_memo_bound_changes_no_fingerprint(monkeypatch):
    """A memo that keeps a single entry finds what an unbounded one does."""
    model = litmus_model("MP", COMBO)
    drains = []
    for limit in (1, 1 << 30):
        monkeypatch.setattr(fingerprint_module, "MEMO_LIMIT", limit)
        drains.append(explore(model))
    assert drains[0]["new_fps"] == drains[1]["new_fps"]
    assert drains[0]["states"] == drains[1]["states"] > 0


def test_fingerprinting_is_read_only():
    """Like the invariant monitor, the fingerprint changes no line's
    meta: an RCC cluster's bridge lines without a meta dict or without
    a directory record keep it that way, and so do a MESI cluster's.
    It gives no in-flight message without protocol extras an extras
    dict either: sent messages are shared with the search's
    snapshots."""
    config = two_cluster_config("RCC", "CXL", "MESI", cores_per_cluster=2,
                                seed=3)
    system = build_system(config)
    system.run_threads(
        WORKLOADS["histogram"].build(config.total_cores, scale=0.2, seed=3))
    bare = [Message("GetS", X, "l1.1.0", "c3.1"),
            Message("Data", X, "c3.1", "l1.1.0", meta="S", data=1)]
    forward = Message("Fwd-GetS", Y, "c3.1", "l1.1.1",
                      extra={"req": "l1.1.0"})
    network = types.SimpleNamespace(outbox=[*bare, forward])

    def fingerprint():
        # A fresh ``entries`` list, as a network keeps beside its outbox,
        # so every message is encoded anew.
        network.entries = [None] * len(network.outbox)
        return canonical_fingerprint(system, network)

    def snapshot():
        return [(line._meta is None, sorted(line._meta or ()))
                for cluster in system.clusters
                for cache in [cluster.bridge.cache,
                              *(l1.cache for l1 in cluster.l1s)]
                for line in cache.lines()]

    before = snapshot()
    assert (True, []) in before and (False, ["stale"]) in before
    assert (False, ["dir", "stale"]) in before
    fp = fingerprint()
    assert snapshot() == before
    assert fp == fingerprint_parts(state_parts(system, network))
    assert snapshot() == before
    assert all(msg._extra is None for msg in bare)
    assert forward._extra == {"req": "l1.1.0"}
    # The extras still count: the requester is part of the state.
    forward._extra["req"] = "l1.1.1"
    assert fp != fingerprint()


# ---------------------------------------------------------------------------
# Pinned search counts.
# ---------------------------------------------------------------------------

def test_mc_corr1_counts_are_pinned(corr1_serial):
    assert not corr1_serial.truncated
    assert corr1_serial.states == 99
    assert corr1_serial.terminals == 3
    assert len(corr1_serial.outcomes) == 3
    assert corr1_serial.ok
    # One root build; each expanded state's first successor is a live
    # step and every later sibling a restore of its parent's snapshot.
    assert (corr1_serial.replays, corr1_serial.restores) == (1, 47)


def test_mc_sb_counts_are_pinned():
    metrics = MetricsRegistry()
    result = check_litmus("SB", COMBO, max_states=0, metrics=metrics)
    assert (result.states, result.terminals) == (1659, 3)
    assert (result.replays, result.restores) == (1, 2646)
    counters = metrics.counter_values("mc.")
    assert (counters["mc.replays"], counters["mc.restores"]) == (1, 2646)
    assert result.ok


#: Modules whose objects every build shares or makes the same way:
#: configuration, policy and compound tables, variants, programs and
#: MCM engines.  The dump names them and does not descend.
_SHARED_MODULES = frozenset((
    "repro.sim.config", "repro.core.policy", "repro.core.generator",
    "repro.core.spec", "repro.protocols.variants", "repro.cpu.isa",
    "repro.cpu.mcm"))
_LEAVES = frozenset((type(None), bool, int, float, str, bytes))


@functools.cache
def _field_names(cls) -> tuple:
    names = set()
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        names.update((slots,) if isinstance(slots, str) else slots)
    return tuple(sorted(names - {"__dict__", "__weakref__"}))


def _dump(*roots) -> list:
    """Reflective dump of everything reachable from ``roots``.

    Walks every field of every object, every container in order (dict
    order is LRU order in a cache set) and every closure's defaults and
    cells.  An object met again is dumped as a back-reference to its
    first visit, so aliasing is part of the dump.  Sent messages are
    dumped by value without their uid, which a replay draws afresh.
    """
    memo: dict[int, int] = {}
    leaves = _LEAVES

    def walk(obj):
        cls = type(obj)
        if cls in leaves:
            return obj
        if cls is tuple:
            return ("tuple", [x if type(x) in leaves else walk(x) for x in obj])
        key = id(obj)
        ref = memo.get(key)
        if ref is not None:
            return ("ref", ref)
        memo[key] = len(memo)
        if cls is weakref.ProxyType:
            return ("proxy",)
        if cls.__module__ in _SHARED_MODULES or cls is Link:
            return ("shared", cls.__qualname__)
        if cls is Message:
            return ("msg", obj.kind, obj.addr, obj.src, obj.dst, obj.meta,
                    obj.data, obj.acks, walk(obj._extra))
        if cls is list or cls is deque:
            return (cls.__name__,
                    [x if type(x) in leaves else walk(x) for x in obj])
        if cls is dict:
            return ("dict", [(k if type(k) in leaves else walk(k),
                              v if type(v) in leaves else walk(v))
                             for k, v in obj.items()])
        if cls is set or cls is frozenset:
            return (cls.__name__, sorted(repr(walk(item)) for item in obj))
        if cls is types.FunctionType:
            return ("fn", obj.__qualname__, walk(obj.__defaults__),
                    [walk(cell.cell_contents) for cell in obj.__closure__ or ()])
        if cls is types.MethodType:
            return ("method", obj.__func__.__qualname__, walk(obj.__self__))
        fields = [(name, getattr(obj, name)) for name in _field_names(cls)]
        fields += getattr(obj, "__dict__", {}).items()
        return (cls.__qualname__,
                [(name, x if type(x) in leaves else walk(x))
                 for name, x in fields])

    return [walk(root) for root in roots]


def _observe(system, network) -> tuple:
    """What a live step or a restore must reproduce of a replayed state."""
    return canonical_fingerprint(system, network), _dump(system, network)


def _attempt(step) -> tuple:
    """``(state, observation)`` after ``step()``, or ``(None, identity
    of the exception it raised)``."""
    try:
        state = step()
    except Exception as exc:
        return None, ("raised", crash_fingerprint(exc))
    return state, _observe(*state)


def _eviction_model():
    from tests.test_explorer_evictions import (
        A,
        B,
        C,
        LRU_PROGRAMS,
        TwoWayModel,
    )

    return TwoWayModel(COMBO, LRU_PROGRAMS, observed_addrs=(A, B, C))


#: First cluster-local line of :func:`_hybrid_model`.
LOCAL = 0x100


def _hybrid_model():
    """Hybrid memory under 1-way caches: cluster A's writer evicts a
    dirty local line to its own DRAM and refills it from there, so
    siblings are restored across a write to the bridge's local store."""
    from tests.test_explorer_evictions import TinyModel

    class HybridModel(TinyModel):
        def system_config(self):
            return dataclasses.replace(super().system_config(),
                                       hybrid_local_base=LOCAL)

    return HybridModel(COMBO, (
        ThreadProgram("w", [store(LOCAL, 1), store(LOCAL + 2, 2),
                            load(LOCAL, "ra")]),
        ThreadProgram("r", [store(X, 1), load(X + 2, "rb")]),
    ))


def _broken_mp():
    model = litmus_model("MP", COMBO)
    model.violate_atomicity = True
    return model


def _fans_out(network) -> bool:
    """One controller has invalidations out to two or more nodes for
    one line: the send order came from iterating a sharer set."""
    seen = set()
    for msg in network.outbox:
        if msg.kind in (INV, BI_SNP_INV):
            key = (msg.src, msg.addr)
            if key in seen:
                return True
            seen.add(key)
    return False


def _walk_like_the_search(model, max_popped=None) -> tuple:
    """Reach every popped state as :func:`explore` reaches it,
    through the same :class:`~repro.verify.mc.engine.LiveSystem` -- a
    live step on the state just expanded, or a restore of the parent's
    snapshot and one delivery, each touching only some domains -- and
    check it against a fresh replay of its path, field for field:
    clocks, counters, stats, cache sets in LRU order, line meta,
    directory records, transactions, closures, cores and the outbox (so
    the order of every fan-out).  A restore alone must give back
    exactly the dump taken with the snapshot, and any expansion read
    that mutated a state would show up as a difference.  Each state's
    touched-domain fingerprint must equal the full walk's.  Stops after
    ``max_popped`` pops; returns ``(expanded, restores, fanned_out)``."""
    seen = set()
    # (path, None) or (path, (parent's snapshot, parent's dump)).
    stack = [((), None)]
    cursor = None
    memo: dict = {}
    live = fanned_out = False
    expanded = restores = popped = 0

    def deliver():
        cursor.advance(model, path[-1])
        return cursor.system, cursor.network

    while stack and popped != max_popped:
        path, saved = stack.pop()
        popped += 1
        step, live = live, False
        if not path:
            state, observed = _attempt(lambda: model.replay(path))
            if state is not None:
                cursor = mc_engine.LiveSystem(*state)
        elif step:
            state, observed = _attempt(deliver)
        else:
            snapshot, dumped = saved
            cursor.restore(snapshot)
            assert _dump(cursor.system, cursor.network) == dumped, path
            restores += 1
            state, observed = _attempt(deliver)
        if path:
            assert observed == _attempt(lambda: model.replay(path))[1], path
        if state is None:
            continue
        system, network = state
        fp = observed[0]
        assert canonical_fingerprint(system, network, memo, cursor.parts,
                                     cursor.touched()) == fp, path
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
        fanned_out = fanned_out or _fans_out(network)
        if len(choices) > 1:
            # The dump taken on arrival: expansion must not change it.
            saved = cursor.snapshot(), observed[1]
            stack.extend((path + (choice,), saved)
                         for choice in reversed(choices[1:]))
        stack.append((path + (choices[0],), None))
        live = True
    return expanded, restores, fanned_out


#: CoRR2 puts two threads on each cluster; both of a cluster's L1s
#: come to share X, so the other cluster's write recalls it from two
#: L1s at once within the first couple of hundred states.
_FAN_OUT_LIMIT = 600


@pytest.mark.parametrize("make_model,max_popped,expanded_at_least", [
    (lambda: litmus_model("SB", COMBO), None, 1000),
    (_broken_mp, None, 500),
    (lambda: litmus_model("MP", ("RCC", "CXL", "RCC")), None, 100),
    (_eviction_model, None, 100),
    (_hybrid_model, None, 100),
    (lambda: litmus_model("CoRR2", COMBO), _FAN_OUT_LIMIT, 200),
], ids=["SB", "MP-violate-atomicity", "MP-RCC-CXL-RCC", "evictions",
        "hybrid-memory", "CoRR2-fan-out"])
def test_live_step_equals_replay(make_model, max_popped, expanded_at_least):
    """The search's in-place steps are sound (:func:`_walk_like_the_search`)."""
    expanded, restores, fanned_out = _walk_like_the_search(
        make_model(), max_popped)
    assert expanded >= expanded_at_least and restores > 0
    if max_popped is not None:
        assert fanned_out


def test_hybrid_local_store_is_part_of_the_fingerprint():
    """A hybrid bridge's local DRAM store is protocol state: two states
    of :func:`_hybrid_model` that differ only in a written-back local
    line must not merge in the search."""
    model = _hybrid_model()
    system, network = model.replay(())
    bridge = system.clusters[0].bridge
    assert bridge.local_backing is not None
    before = canonical_fingerprint(system, network)
    bridge.local_backing.write(LOCAL, 1)
    assert canonical_fingerprint(system, network) != before
    assert fingerprint_parts(state_parts(system, network)) != before


def test_fan_out_order_survives_restores_under_any_hash_seed():
    """A restore refills a sharer set from its members, so the set's
    hash layout -- and with it its iteration order -- can differ from
    the replayed set's; invalidations must still go out in the
    replay's order.  Under ``PYTHONHASHSEED=14`` (CPython 3.11) the
    names of cluster B's two L1s share a home slot, and a walk that
    sent invalidations in set order diverged from the replay after
    about 1,700 popped states of CoRR2."""
    script = (
        "from repro.verify.mc import litmus_model\n"
        "from tests.test_mc import COMBO, _walk_like_the_search\n"
        "expanded, restores, fanned_out = _walk_like_the_search(\n"
        "    litmus_model('CoRR2', COMBO), 2_500)\n"
        "assert restores and fanned_out\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for seed in ("0", "14"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([root, *sys.path]))
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, (seed, run.stderr[-2000:])


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
    out = explore(model)
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


def test_same_configuration_is_deterministic(corr1_serial):
    again = check_litmus("CoRR1", COMBO, max_states=0)
    assert again.states == corr1_serial.states
    assert again.outcome_examples == corr1_serial.outcome_examples


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


def _message_fields(msg) -> tuple:
    extra = msg._extra
    return (msg.kind, msg.addr, msg.src, msg.dst, msg.meta, msg.data,
            msg.acks, msg.uid, msg.vnet, msg.size, extra is None,
            dict(extra or {}))


@pytest.mark.parametrize("make_model", [
    lambda: litmus_model("SB", COMBO), _broken_mp,
    lambda: litmus_model("MP", ("RCC", "CXL", "RCC")), _eviction_model,
], ids=["SB", "MP-violate-atomicity", "MP-RCC-CXL-RCC", "evictions"])
def test_search_never_mutates_shared_inputs(monkeypatch, make_model):
    """Snapshots copy no configuration, policy or compound table, no
    program and no sent message: a check must leave all of them as it
    found them, down to every field of every message it sent."""
    from repro.core.generator import generate
    from repro.verify.explorer import InterceptNetwork

    model = make_model()
    sent = []
    send = InterceptNetwork.send

    def recording_send(self, msg):
        sent.append((msg, _message_fields(msg)))
        send(self, msg)

    monkeypatch.setattr(InterceptNetwork, "send", recording_send)
    local_a, global_, local_b = model.combo
    compounds = {pair: generate(*pair) for pair in
                 ((local_a, global_), (local_b, global_))}
    tables = {pair: pickle.dumps(compound)
              for pair, compound in compounds.items()}
    config = copy.deepcopy(model.system_config())
    payload = model.to_dict()
    result = check_model(model, max_states=0, shrink=False)
    assert result.restores > 0 and sent
    assert model.to_dict() == payload
    assert model.system_config() == config
    assert {pair: pickle.dumps(compound)
            for pair, compound in compounds.items()} == tables
    assert all(_message_fields(msg) == fields for msg, fields in sent)


#: The six models of ``test_memoized_fingerprints_match_the_specification``.
_SEARCH_MODELS = [
    pytest.param(lambda: litmus_model("SB", COMBO), id="SB"),
    pytest.param(_broken_mp, id="MP-violate-atomicity"),
    pytest.param(_wrc_moesi, id="WRC-MOESI-MESI-MOESI"),
    pytest.param(lambda: litmus_model("MP", ("MESIF", "CXL", "RCC")),
                 id="MP-MESIF-CXL-RCC"),
    pytest.param(_hybrid_model, id="hybrid-memory"),
    pytest.param(_eviction_model, id="evictions"),
]


@pytest.mark.parametrize("make_model", _SEARCH_MODELS)
def test_parked_messages_never_change(monkeypatch, make_model):
    """The network encodes a parked message once and keeps its bytes
    beside the outbox, through snapshots and restores.  That holds
    only if no message changes once sent: every field recorded when it
    is parked is unchanged when it is delivered and after every
    restore, and every kept encoding equals a fresh one."""
    from repro.verify.explorer import InterceptNetwork, flight_entry

    model = make_model()
    parked = {}
    send, deliver = InterceptNetwork.send, InterceptNetwork.deliver
    restore = mc_engine.LiveSystem.restore
    counts = {"delivered": 0, "restores": 0}

    def recording_send(self, msg):
        parked[id(msg)] = (msg, _message_fields(msg))
        send(self, msg)

    def checked_deliver(self, index):
        msg = self.outbox[index]
        assert parked[id(msg)] == (msg, _message_fields(msg))
        counts["delivered"] += 1
        deliver(self, index)

    def checked_restore(self, snapshot):
        restore(self, snapshot)
        network = self.network
        assert len(network.entries) == len(network.outbox)
        for msg, entry in zip(network.outbox, network.entries):
            assert parked[id(msg)] == (msg, _message_fields(msg))
            if entry is not None:
                assert entry[0] == (msg.src, msg.dst, msg.vnet)
                assert entry[2] == canonical_bytes(flight_entry(msg))
        counts["restores"] += 1

    monkeypatch.setattr(InterceptNetwork, "send", recording_send)
    monkeypatch.setattr(InterceptNetwork, "deliver", checked_deliver)
    monkeypatch.setattr(mc_engine.LiveSystem, "restore", checked_restore)
    out = explore(model)
    assert counts["restores"] == out["restores"] > 0
    assert counts["delivered"] > len(out["new_fps"])


def _iriw():
    """Two cores per cluster: two L1 domains share each bridge."""
    return litmus_model("IRIW", COMBO)


@pytest.mark.parametrize("make_model,max_states", [
    *((param.values[0], 0) for param in _SEARCH_MODELS),
    (_iriw, 3_000),
], ids=[*(param.id for param in _SEARCH_MODELS), "IRIW-first-3000"])
def test_search_invariant_verdicts_match_a_fresh_walk(monkeypatch,
                                                      make_model, max_states):
    """On every state the search checks, its ``check_all`` -- which
    reuses what it found for L1s and bridges with the same part bytes
    -- gives the verdict and message of a fresh ``check_all``."""
    check_all = invariants.check_all
    verdicts = []

    def verdict(check) -> str:
        try:
            check()
        except ConsistencyViolation as exc:
            return str(exc)
        return "ok"

    def compared(system, memo, key):
        fresh = verdict(lambda: check_all(system))
        searched = verdict(lambda: check_all(system, memo, key))
        assert searched == fresh
        verdicts.append(fresh)
        if fresh != "ok":
            raise ConsistencyViolation(fresh)

    monkeypatch.setattr(invariants, "check_all", compared)
    out = explore(make_model(), max_states=max_states)
    assert len(verdicts) == out["states"] > 0
    broken = make_model is _broken_mp
    assert any(v != "ok" for v in verdicts) == broken


@pytest.mark.parametrize("shards", [1, 2])
def test_unknown_backend_is_rejected(shards):
    """The one search is serial: ``check_model`` takes ``shards=1,
    backend="serial"`` and rejects any other shard count or backend,
    the retired process pool included, before it searches."""
    model = litmus_model("CoRR1", COMBO)
    for backend in ("local", "queue") if shards == 1 else ("serial",):
        with pytest.raises(ValueError, match="sharded search was removed"):
            check_model(model, shards=shards, backend=backend,
                        max_states=0)
    if shards == 1:
        result = check_model(model, shards=1, backend="serial",
                             max_states=0)
        assert result.ok and result.states == 99


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
    last system after the check: the search closes none of them early.
    A check builds one system."""
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
    assert len(read) == result.replays == 1
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
    assert "search capped at 25 states;" in out


def test_cli_check_names_the_depth_cap_that_fired(capsys):
    """A search cut by --depth names the depth cap, not the default
    state cap it never reached."""
    from repro.cli import main

    code = main(["check", "--litmus", "MP", "--depth", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "INCONCLUSIVE" in out
    assert "search capped at depth 5;" in out
    assert "200000" not in out


def test_cli_check_has_no_shards_flag(capsys):
    """The sharded search is gone, and so is its flag: a usage error."""
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["check", "--litmus", "CoRR1", "--shards", "2"])
    assert excinfo.value.code == 2
    assert "--shards" in capsys.readouterr().err


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
