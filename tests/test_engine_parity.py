"""Engine parity: the batched engine vs the legacy reference loop.

:class:`~repro.sim.engine.BatchedEngine` (the one engine simulations
run on) must be *indistinguishable* from
:class:`~repro.sim.engine.LegacyEngine`: same event order, same results
bit for bit, same watchdog behavior, same observability rollups.  These
tests drive both through the same scenarios -- randomized
post/post_at scripts, real figure cells (Fig. 9 MCM pairings,
Fig. 10 protocol combos), faulted message bursts and runs, and the
``violate_atomicity`` audit path -- and require identical outcomes.
"""

import pickle
import random

import pytest

import repro.sim.system as system_module
from repro.cpu.isa import ThreadProgram, load, rmw, store
from repro.sim.config import two_cluster_config
from repro.sim.engine import (
    ENGINE_BACKEND,
    BatchedEngine,
    Engine,
    LegacyEngine,
    SimulationLimitError,
)
from repro.sim.network import Network
from repro.sim.system import build_system

BACKENDS = [("python", BatchedEngine), ("legacy", LegacyEngine)]

BACKEND_IDS = [name for name, _cls in BACKENDS]
BACKEND_CLASSES = [cls for _name, cls in BACKENDS]


def _with_engine(monkeypatch, engine_cls):
    """Route build_system() onto one backend for the current test."""
    monkeypatch.setattr(system_module, "Engine", engine_cls)


# ---------------------------------------------------------------------------
# Randomized engine-level scripts.
# ---------------------------------------------------------------------------

def _run_script(engine_cls, seed: int):
    """Drive one backend through a deterministic random op script.

    Returns the full observable trace: per-event (time, label) firing
    order, counter values, and pending counts after each run segment.
    """
    rng = random.Random(seed)
    engine = engine_cls()
    trace = []

    def fire(label):
        trace.append((engine.now, label))

    next_label = [0]

    def reschedule(label, fanout):
        trace.append((engine.now, label))
        for _ in range(fanout):
            next_label[0] += 1
            engine.post(rng.randrange(0, 6), fire, f"r{next_label[0]}")

    for step in range(300):
        op = rng.random()
        if op < 0.45:
            engine.post(rng.randrange(0, 50), fire, f"p{step}")
        elif op < 0.70:
            engine.post(rng.randrange(0, 50), fire, f"s{step}")
        elif op < 0.80:
            engine.post_at(engine.now + rng.randrange(0, 50), fire,
                           f"a{step}")
        else:
            engine.post(rng.randrange(0, 8), reschedule, f"c{step}",
                        rng.randrange(0, 3))
        if step % 60 == 59:
            engine.run(until=engine.now + rng.randrange(0, 40))
            trace.append(("segment", engine.now, engine.pending(),
                          engine.events_executed))
    engine.run()
    trace.append(("final", engine.now, engine.pending(),
                  engine.events_executed))
    return trace


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 23])
def test_randomized_scripts_fire_identically(seed):
    reference = _run_script(LegacyEngine, seed)
    for name, cls in BACKENDS:
        if cls is LegacyEngine:
            continue
        assert _run_script(cls, seed) == reference, (
            f"backend {name!r} diverged from legacy on seed {seed}")


@pytest.mark.parametrize("engine_cls", BACKEND_CLASSES, ids=BACKEND_IDS)
def test_watchdog_budget_counts_match_legacy(engine_cls):
    """Every backend stops on the same event with the same counters."""
    def build(cls):
        engine = cls()

        def spin():
            engine.post(1, spin)

        engine.post(0, spin)
        return engine

    reference = build(LegacyEngine)
    with pytest.raises(SimulationLimitError):
        reference.run(max_events=500)

    engine = build(engine_cls)
    with pytest.raises(SimulationLimitError) as err:
        engine.run(max_events=500)
    assert engine.events_executed == reference.events_executed == 500
    assert engine.now == reference.now
    assert engine.pending() == reference.pending()
    assert "exceeded 500 events" in str(err.value)


# ---------------------------------------------------------------------------
# Real simulation cells: results must be byte-identical.
# ---------------------------------------------------------------------------

def _fig_cell(combo, mcms):
    from repro.harness.experiments import run_workload

    result = run_workload("histogram", combo=combo, mcms=mcms,
                          scale=0.25, seed=3)
    return pickle.dumps(result)


@pytest.mark.parametrize("combo,mcms", [
    (("MESI", "CXL", "MESI"), ("WEAK", "WEAK")),   # Fig. 9 ARM row
    (("MESI", "CXL", "MESI"), ("TSO", "TSO")),     # Fig. 9 TSO row
    (("MESI", "CXL", "MOESI"), ("WEAK", "TSO")),   # Fig. 10 mixed combo
], ids=["fig9-arm", "fig9-tso", "fig10-moesi"])
def test_figure_cells_byte_identical_across_backends(monkeypatch, combo, mcms):
    blobs = {}
    for name, cls in BACKENDS:
        _with_engine(monkeypatch, cls)
        blobs[name] = _fig_cell(combo, mcms)
    reference = blobs.pop("legacy")
    for name, blob in blobs.items():
        assert blob == reference, (
            f"backend {name!r} produced a different RunResult for "
            f"{combo}/{mcms}")


def test_engine_facade_reports_selected_backend():
    assert Engine is BatchedEngine
    assert ENGINE_BACKEND == "python"


# ---------------------------------------------------------------------------
# Observability rollups: spans and metrics must agree across backends.
# ---------------------------------------------------------------------------

def _obs_rollup(violate: bool):
    """Span/metric rollup of a contended (optionally Rule-II-violating)
    run; only timing-free fields, so backends must match exactly."""
    from repro.obs import Observability

    config = two_cluster_config("MESI", "CXL", "MESI", mcm_a="TSO",
                                mcm_b="TSO", cores_per_cluster=2, seed=0)
    system = build_system(config, violate_atomicity=violate)
    obs = Observability().attach(system)
    programs = [
        ThreadProgram(f"t{i}", [op for r in range(8) for op in
                                (rmw(0x7, 1, f"a{r}"),
                                 store(0x40 + 8 * i, r),
                                 load(0x7, f"b{r}"))])
        for i in range(4)
    ]
    try:
        result = system.run_threads(programs, placement=[0, 1, 2, 3])
        outcome = ("completed", result.exec_time, result.stats.ops)
    except Exception as exc:
        outcome = ("raised", type(exc).__name__)
    recorder = obs.recorder
    spans = sorted(((s.cat, s.name, s.start,
                     -1 if s.end is None else s.end)
                    for s in recorder.spans))
    counters = obs.registry.counter_values()
    return outcome, len(spans), spans[:200], counters


@pytest.mark.parametrize("violate", [False, True],
                         ids=["clean", "violate-atomicity"])
def test_obs_rollups_identical_across_backends(monkeypatch, violate):
    rollups = {}
    for name, cls in BACKENDS:
        _with_engine(monkeypatch, cls)
        rollups[name] = _obs_rollup(violate)
    reference = rollups.pop("legacy")
    for name, rollup in rollups.items():
        assert rollup == reference, (
            f"backend {name!r} produced different span/metric rollups "
            f"(violate={violate})")


# ---------------------------------------------------------------------------
# The message path: ``send_many`` on either engine must match the
# legacy engine driven by the loop that defines its semantics (one
# ``send`` per message), with and without faults.
# ---------------------------------------------------------------------------

def _sequential_send_many(self, msgs):
    for msg in msgs:
        self.send(msg)


def _burst_trace(engine_cls, rules):
    """Delivery trace of jittered fan-out bursts, optionally faulted.

    A hub batches messages to three sinks over jittered links while a
    second wave rides ``send``; the trace normalizes uids (fresh
    duplicates get new ones) so runs are comparable across processes.
    """
    from repro.protocols.messages import DATA, GETS, INV, Message
    from repro.scenario.faults import FaultPlan
    from repro.sim.network import Link, Node

    deliveries = []

    class Sink(Node):
        def handle_message(self, msg):
            deliveries.append((self.engine.now, self.node_id,
                               msg.kind, msg.extra["seq"], msg.uid))

    engine = engine_cls()
    network = Network(engine, seed=9)
    hub = Sink(engine, network, "hub")
    sinks = [Sink(engine, network, f"s{i}") for i in range(3)]
    for sink in sinks:
        network.connect("hub", sink.node_id, Link(latency=300, jitter=120))
    if rules is not None:
        network.faults = FaultPlan(rules, seed=4)

    seq = [0]

    def burst(kind):
        batch = []
        for sink in sinks:
            seq[0] += 1
            batch.append(Message(kind, 0x40 + seq[0], "hub", sink.node_id,
                                 extra={"seq": seq[0]}))
        hub.send_many(batch)
        # A trailing singleton exercises send() between batches.
        seq[0] += 1
        hub.send(Message(DATA, 0x40 + seq[0], "hub", sinks[0].node_id,
                         extra={"seq": seq[0]}))

    for round_no in range(6):
        engine.post(round_no * 150, burst, (GETS, INV, DATA)[round_no % 3])
    engine.run()

    uid_norm: dict[int, int] = {}
    return [(now, node, kind, seq_no,
             uid_norm.setdefault(uid, len(uid_norm)))
            for now, node, kind, seq_no, uid in deliveries]


def _fault_rule_sets():
    from repro.scenario.faults import FaultRule

    return {
        "clean": None,
        "drop": [FaultRule("drop", window=(2, 5))],
        "delay": [FaultRule("delay", delay_ticks=900, probability=0.4)],
        "reorder": [FaultRule("reorder", delay_ticks=2_500, window=(1, 4))],
        "duplicate": [FaultRule("duplicate", window=(0, 3))],
        "mixed": [FaultRule("drop", kinds=("Inv",), window=(1, 2)),
                  FaultRule("delay", kinds=("GetS",), delay_ticks=700,
                            probability=0.5),
                  FaultRule("duplicate", kinds=("Data",), window=(2, 4))],
    }


@pytest.mark.parametrize("fault_mode", list(_fault_rule_sets()))
def test_burst_deliveries_identical_across_engines_and_lanes(fault_mode):
    rules = _fault_rule_sets()[fault_mode]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Network, "send_many", _sequential_send_many)
        reference = _burst_trace(LegacyEngine, rules)
    assert reference, "burst scenario delivered nothing"
    for backend_name, engine_cls in BACKENDS:
        assert _burst_trace(engine_cls, rules) == reference, (
            f"{backend_name} diverged from legacy/sequential under "
            f"{fault_mode!r} faults")


def _faulted_system_blob():
    """A faulted end-to-end run (delay + reorder keep the protocols live)."""
    from repro.scenario.faults import FaultPlan, FaultRule
    from repro.workloads import WORKLOADS

    config = two_cluster_config("MESI", "CXL", "MESI", mcm_a="TSO",
                                mcm_b="WEAK", cores_per_cluster=2, seed=3)
    system = build_system(config)
    system.network.faults = FaultPlan([
        FaultRule("delay", vnet="resp", delay_ticks=700, probability=0.25),
        FaultRule("reorder", vnet="fwd", delay_ticks=2_000, window=(0, 3)),
    ], seed=11)
    programs = WORKLOADS["histogram"].build(config.total_cores,
                                            scale=0.2, seed=3)
    return pickle.dumps(system.run_threads(programs))


def test_faulted_run_byte_identical_across_engines_and_lanes(monkeypatch):
    with pytest.MonkeyPatch.context() as mp:
        _with_engine(mp, LegacyEngine)
        mp.setattr(Network, "send_many", _sequential_send_many)
        reference = _faulted_system_blob()
    for backend_name, engine_cls in BACKENDS:
        _with_engine(monkeypatch, engine_cls)
        assert _faulted_system_blob() == reference, (
            f"{backend_name} changed the faulted RunResult byte stream")
