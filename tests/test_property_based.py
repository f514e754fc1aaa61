"""Property-based tests (hypothesis) on core data structures and invariants."""

import random as _random

from hypothesis import given, settings, strategies as st

from repro.cpu.isa import ThreadProgram, fence, load, store
from repro.protocols.messages import GETS, Message
from repro.sim.cache import CacheArray
from repro.sim.config import LINE_BYTES, two_cluster_config
from repro.sim.engine import Engine
from repro.sim.network import Link, Network, Node
from repro.sim.system import build_system
from repro.verify.axiomatic import enumerate_outcomes


# ---------------------------------------------------------------------------
# Cache array.
# ---------------------------------------------------------------------------

@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "lookup", "remove"]),
                  st.integers(min_value=0, max_value=63)),
        max_size=200,
    ),
    assoc=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=60, deadline=None)
def test_cache_capacity_invariants(ops, assoc):
    sets = 4
    cache = CacheArray(size_bytes=sets * assoc * LINE_BYTES, assoc=assoc)
    present = set()
    for action, addr in ops:
        if action == "insert" and addr not in present:
            if not cache.has_room(addr):
                victim = cache.victim_for(addr)
                assert victim is not None  # nothing pinned here
                cache.remove(victim.addr)
                present.discard(victim.addr)
            cache.insert(addr, state="S")
            present.add(addr)
        elif action == "lookup":
            line = cache.lookup(addr)
            assert (line is not None) == (addr in present)
        elif action == "remove" and addr in present:
            cache.remove(addr)
            present.discard(addr)
        # Invariants: per-set occupancy bound, global consistency.
        in_sets = {}
        for index, s in cache._sets.items():  # only non-empty sets exist
            assert 0 < len(s) <= assoc
            assert all(addr % cache.num_sets == index for addr in s)
            in_sets.update(s)
        # The address index holds exactly the sets' line objects.
        assert cache.index.keys() == in_sets.keys() == present
        assert all(cache.index[addr] is line for addr, line in in_sets.items())
        assert all(cache.peek(addr) is cache.index.get(addr) for addr in range(64))
        assert sorted(line.addr for line in cache.lines()) == sorted(present)
    # A snapshot round trip gives back the lines, their LRU order and
    # the index's contents and order.
    saved = cache.snapshot()
    lines, index = cache.lines(), list(cache.index.items())
    cache.clear()
    for addr in (1, 2, 3):
        cache.insert(addr)
    cache.restore(saved)
    assert cache.lines() == lines and list(cache.index.items()) == index


# ---------------------------------------------------------------------------
# Engine ordering.
# ---------------------------------------------------------------------------

@given(delays=st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                       max_size=100))
@settings(max_examples=50, deadline=None)
def test_engine_executes_in_time_order(delays):
    engine = Engine()
    fired = []
    for i, delay in enumerate(delays):
        engine.post(delay, lambda i=i, d=delay: fired.append((engine.now, d, i)))
    engine.run()
    times = [t for t, _d, _i in fired]
    assert times == sorted(times)
    # Equal-time events keep submission order.
    for (t1, _d1, i1), (t2, _d2, i2) in zip(fired, fired[1:]):
        if t1 == t2:
            assert i1 < i2
    assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# Network FIFO under jitter.
# ---------------------------------------------------------------------------

class _Sink(Node):
    def __init__(self, engine, network, node_id):
        super().__init__(engine, network, node_id)
        self.seen = []

    def handle_message(self, msg):
        self.seen.append(msg.extra["seq"])


@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=2, max_value=40),
       jitter=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=50, deadline=None)
def test_network_channel_fifo_under_any_jitter(seed, count, jitter):
    engine = Engine()
    network = Network(engine, seed=seed)
    _Sink(engine, network, "a")
    sink = _Sink(engine, network, "b")
    network.connect("a", "b", Link(latency=100, jitter=jitter))
    for seq in range(count):
        network.send(Message(GETS, 0x1, "a", "b", extra={"seq": seq}))
    engine.run()
    assert sink.seen == list(range(count))


# ---------------------------------------------------------------------------
# MCM strength monotonicity in the axiomatic model.
# ---------------------------------------------------------------------------

def _random_program(rng, name, addrs, n_ops):
    ops = []
    for i in range(n_ops):
        roll = rng.random()
        addr = rng.choice(addrs)
        if roll < 0.4:
            ops.append(load(addr, f"{name}r{i}"))
        elif roll < 0.8:
            ops.append(store(addr, rng.randrange(1, 4)))
        else:
            ops.append(fence())
    return ThreadProgram(name, ops)


@given(seed=st.integers(min_value=0, max_value=50_000))
@settings(max_examples=40, deadline=None)
def test_stronger_mcm_allows_fewer_outcomes(seed):
    rng = _random.Random(seed)
    addrs = [0x10, 0x11]
    programs = [
        _random_program(rng, "a", addrs, rng.randrange(2, 4)),
        _random_program(rng, "b", addrs, rng.randrange(2, 4)),
    ]
    observed = programs[0].ops[0].addr if programs[0].ops else 0x10
    sc = enumerate_outcomes(programs, ["SC", "SC"], (observed,))
    tso = enumerate_outcomes(programs, ["TSO", "TSO"], (observed,))
    weak = enumerate_outcomes(programs, ["WEAK", "WEAK"], (observed,))
    assert sc <= tso <= weak


# ---------------------------------------------------------------------------
# End-to-end: single-writer-per-line programs are deterministic.
# ---------------------------------------------------------------------------

@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_single_writer_lines_read_back_final_values(seed):
    rng = _random.Random(seed)
    config = two_cluster_config("MESI", "CXL", "MESI", mcm_a="TSO",
                                mcm_b="WEAK", cores_per_cluster=2, seed=seed)
    system = build_system(config)
    finals = {}
    programs = []
    for tid in range(4):
        ops = []
        base = 0x300 + tid * 4  # each thread owns four lines...
        shared = 0x400 + tid  # ...and reads the next thread's line
        for i in range(rng.randrange(5, 15)):
            addr = base + rng.randrange(4)
            value = tid * 1000 + i
            ops.append(store(addr, value))
            finals[addr] = value  # single writer: last program-order store
            if rng.random() < 0.4:
                ops.append(load(0x300 + ((tid + 1) % 4) * 4, f"x{i}"))
        programs.append(ThreadProgram(f"t{tid}", ops))
    system.run_threads(programs, placement=[0, 1, 2, 3])
    checker = ThreadProgram("c", [load(addr, f"[{addr}]") for addr in finals])
    result = system.run_threads([checker], placement=[0])
    for addr, value in finals.items():
        assert result.per_core_regs[0][f"[{addr}]"] == value
    assert system.quiescent()


# ---------------------------------------------------------------------------
# Scenario DSL: random documents round-trip; corruptions are rejected.
# ---------------------------------------------------------------------------

def _scenario_docs():
    """Strategy: random *valid* scenario documents."""
    cluster = st.sampled_from([
        {"protocol": "MESI", "mcm": "TSO"},
        {"protocol": "MESI", "mcm": "SC"},
        {"protocol": "MESIF", "mcm": "WEAK"},
        {"protocol": "MOESI", "mcm": "TSO"},
        {"protocol": "RCC", "mcm": "RCC"},
    ]).map(dict)
    workload = st.builds(
        lambda name, scale: {"name": name, "scale": scale},
        st.sampled_from(["histogram", "word_count", "kmeans"]),
        st.floats(min_value=0.05, max_value=0.5).map(lambda x: round(x, 3)),
    )
    fault = st.builds(
        lambda kind, vnet, prob, delay, count: {
            "kind": kind, "vnet": vnet,
            "probability": round(prob, 3),
            "count": count,
            **({"delay_ns": round(delay, 1)}
               if kind in ("delay", "reorder") else {}),
        },
        st.sampled_from(["drop", "duplicate", "delay", "reorder"]),
        st.sampled_from(["req", "fwd", "resp"]),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.0, max_value=500.0),
        st.integers(min_value=-1, max_value=10),
    )
    return st.builds(
        lambda name, gp, clusters, workloads, root, faults: {
            "scenario": {"name": name},
            "topology": {"global_protocol": gp, "clusters": clusters},
            "workloads": workloads,
            "seeds": {"root": root},
            **({"faults": faults} if faults else {}),
        },
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1, max_size=16),
        st.sampled_from(["CXL", "MESI"]),
        st.lists(cluster, min_size=1, max_size=3),
        st.lists(workload, min_size=1, max_size=3),
        st.integers(min_value=0, max_value=1 << 31),
        st.lists(fault, max_size=3),
    )


@given(doc=_scenario_docs())
@settings(max_examples=80, deadline=None)
def test_scenario_dicts_round_trip_through_toml(doc):
    from repro.scenario.schema import Scenario
    from repro.scenario.toml_io import loads, dumps

    scenario = Scenario.from_dict(doc)
    canonical = scenario.to_dict()
    # TOML text round-trip: dump -> parse -> identical dict.
    assert loads(dumps(canonical)) == canonical
    # Dict round-trip: re-validating the canonical form is lossless.
    assert Scenario.from_dict(canonical) == scenario
    # And the TOML text itself is a fixpoint.
    assert Scenario.from_dict(loads(dumps(canonical))).dumps() == \
        scenario.dumps()


@given(doc=_scenario_docs(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_scenario_single_field_corruptions_rejected(doc, data):
    """Corrupting any one leaf yields a path-qualified ScenarioError."""
    import pytest as _pytest

    from repro.scenario.schema import Scenario, ScenarioError

    corruptions = [
        ("scenario.name", lambda d: d["scenario"].update(name="")),
        ("topology.global_protocol",
         lambda d: d["topology"].update(global_protocol="UPI")),
        ("topology.clusters",
         lambda d: d["topology"].update(clusters=[])),
        ("topology.clusters[0].protocol",
         lambda d: d["topology"]["clusters"][0].update(protocol="FOO")),
        ("topology.clusters[0].mcm",
         lambda d: d["topology"]["clusters"][0].update(
             mcm="RCC" if d["topology"]["clusters"][0]["protocol"] != "RCC"
             else "TSO")),
        ("topology.clusters[0].cores",
         lambda d: d["topology"]["clusters"][0].update(cores=65)),
        ("workloads[0].name",
         lambda d: d["workloads"][0].update(name="not-a-kernel")),
        ("workloads[0].scale",
         lambda d: d["workloads"][0].update(scale=11.0)),
        ("seeds.root", lambda d: d["seeds"].update(root=-5)),
        ("unknown-key", lambda d: d.update(surprise={"x": 1})),
    ]
    label, corrupt = data.draw(st.sampled_from(corruptions))
    Scenario.from_dict(doc)  # sanity: valid before corruption
    corrupt(doc)
    with _pytest.raises(ScenarioError) as err:
        Scenario.from_dict(doc, source="prop.toml")
    # Path-qualified: source prefix present, never a bare KeyError.
    assert str(err.value).startswith("prop.toml: ")
