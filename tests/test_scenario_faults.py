"""Fault injection and host churn at the network/system layer.

Exercises :mod:`repro.scenario.faults` and its two hooks:

- ``Network.send`` consults ``network.faults`` (a seeded FaultPlan),
  implementing drop/delay/duplicate/reorder with the documented
  semantics (reorder is the only verb allowed to break per-channel
  FIFO order);
- ``System.schedule_host_events`` defers cluster program starts
  (join) and parks cores mid-run (leave).

Plus the zero-overhead contract: a system with no fault plan (or the
hook never installed) produces byte-identical ``RunResult`` pickles to
the pre-PR fast path, pinned by digest.
"""

import hashlib
import json
import pickle

import pytest

from repro.cpu.isa import ThreadProgram, load, store
from repro.protocols.messages import GETS, Message
from repro.scenario.faults import FaultPlan, FaultRule, clone_message
from repro.scenario.schema import FaultSpec, Scenario
from repro.sim.config import two_cluster_config
from repro.sim.engine import Engine
from repro.sim.network import Link, Network, Node
from repro.sim.system import build_system
from repro.sim.trace import MessageTracer


class _Sink(Node):
    """Records (now, seq, uid) for every delivered message."""

    def __init__(self, engine, network, node_id):
        super().__init__(engine, network, node_id)
        self.seen = []

    def handle_message(self, msg):
        """Log the delivery."""
        self.seen.append((self.engine.now, msg.extra["seq"], msg.uid))


def _wire(seed=1, latency=100, jitter=0):
    """A two-node network ready for fault tests."""
    engine = Engine()
    network = Network(engine, seed=seed)
    _Sink(engine, network, "a")
    sink = _Sink(engine, network, "b")
    network.connect("a", "b", Link(latency=latency, jitter=jitter))
    return engine, network, sink


def _burst(network, count):
    for seq in range(count):
        network.send(Message(GETS, 0x1, "a", "b", extra={"seq": seq}))


# ---------------------------------------------------------------------------
# Rule matching and plan bookkeeping.
# ---------------------------------------------------------------------------

def test_rule_matches_vnet_kind_and_prefixes():
    msg = Message(GETS, 0x1, "l1.0.1", "dir.0")
    assert FaultRule("drop").matches(msg)
    assert FaultRule("drop", vnet="req").matches(msg)
    assert not FaultRule("drop", vnet="resp").matches(msg)
    assert FaultRule("drop", kinds=("GetS",)).matches(msg)
    assert not FaultRule("drop", kinds=("GetM",)).matches(msg)
    assert FaultRule("drop", src="l1.0.").matches(msg)
    assert not FaultRule("drop", src="l1.1.").matches(msg)
    assert FaultRule("drop", dst="dir.").matches(msg)
    assert not FaultRule("drop", dst="home").matches(msg)


def test_window_selects_match_ordinals():
    plan = FaultPlan([FaultRule("drop", window=(2, 3))])
    actions = [plan.action_for(Message(GETS, 0x1, "a", "b"))
               for _ in range(6)]
    assert [a is not None for a in actions] == \
        [False, False, True, True, False, False]
    assert plan.counters == {"drop": 2}


def test_count_caps_firings():
    plan = FaultPlan([FaultRule("drop", count=2)])
    fired = sum(plan.action_for(Message(GETS, 0x1, "a", "b")) is not None
                for _ in range(10))
    assert fired == 2


def test_probability_stream_is_seeded():
    def fire_pattern(seed):
        plan = FaultPlan([FaultRule("drop", probability=0.5)], seed=seed)
        return [plan.action_for(Message(GETS, 0x1, "a", "b")) is not None
                for _ in range(32)]

    assert fire_pattern(7) == fire_pattern(7)
    assert fire_pattern(7) != fire_pattern(8)


def test_first_matching_armed_rule_wins():
    plan = FaultPlan([FaultRule("drop", vnet="resp"),
                      FaultRule("delay", delay_ticks=10)])
    action = plan.action_for(Message(GETS, 0x1, "a", "b"))  # req vnet
    assert action == ("delay", 10)


def test_plan_from_scenario_is_none_when_fault_free():
    scenario = Scenario(name="clean")
    assert FaultPlan.from_scenario(scenario) is None
    faulted = Scenario(name="faulted",
                       faults=(FaultSpec(kind="drop", count=1),))
    plan = FaultPlan.from_scenario(faulted)
    assert plan is not None and len(plan.rules) == 1


def test_clone_message_fresh_uid_same_payload():
    msg = Message(GETS, 0x1, "a", "b", data=7, acks=2, extra={"seq": 3})
    copy = clone_message(msg)
    assert copy.uid != msg.uid
    assert (copy.kind, copy.addr, copy.src, copy.dst, copy.data,
            copy.acks) == (msg.kind, msg.addr, msg.src, msg.dst,
                           msg.data, msg.acks)
    copy.extra["seq"] = 9  # the copy owns its extra dict
    assert msg.extra["seq"] == 3


# ---------------------------------------------------------------------------
# Network delivery semantics per verb.
# ---------------------------------------------------------------------------

def test_drop_counts_but_never_delivers():
    engine, network, sink = _wire()
    tracer = MessageTracer(network)
    network.faults = FaultPlan([FaultRule("drop", window=(1, 1))])
    _burst(network, 3)
    engine.run()
    assert [seq for _t, seq, _u in sink.seen] == [0, 2]
    assert network.stats.messages == 3  # dropped message still counted
    assert network.faults.counters == {"drop": 1}
    assert len(tracer.entries) == network.stats.messages


def test_delay_stretches_arrival_but_keeps_fifo():
    engine, network, sink = _wire()
    tracer = MessageTracer(network)
    network.faults = FaultPlan([FaultRule("delay", delay_ticks=5_000,
                                          window=(0, 0))])
    _burst(network, 3)
    engine.run()
    # FIFO preserved: the delayed head still arrives first.
    assert [seq for _t, seq, _u in sink.seen] == [0, 1, 2]
    times = [t for t, _s, _u in sink.seen]
    assert times[0] >= 5_000
    assert times == sorted(times)
    assert len(tracer.entries) == network.stats.messages


def test_reorder_bypasses_channel_fifo():
    engine, network, sink = _wire()
    tracer = MessageTracer(network)
    network.faults = FaultPlan([FaultRule("reorder", delay_ticks=50_000,
                                          window=(0, 0))])
    _burst(network, 3)
    engine.run()
    # The reordered head overtakes nothing ahead of it but is overtaken
    # by everything behind it: 0 arrives last.
    assert [seq for _t, seq, _u in sink.seen] == [1, 2, 0]
    assert len(tracer.entries) == network.stats.messages


def test_duplicate_delivers_twice_with_fresh_uid():
    engine, network, sink = _wire()
    tracer = MessageTracer(network)
    network.faults = FaultPlan([FaultRule("duplicate", window=(0, 0))])
    _burst(network, 2)
    engine.run()
    seqs = [seq for _t, seq, _u in sink.seen]
    assert seqs == [0, 0, 1]
    uids = [u for _t, seq, u in sink.seen if seq == 0]
    assert uids[0] != uids[1]
    assert network.stats.messages == 3  # copy is counted as traffic
    assert len(tracer.entries) == network.stats.messages


def test_faulted_send_respects_channel_independence():
    """A fault on one channel never perturbs another channel's FIFO."""
    engine = Engine()
    network = Network(engine, seed=1)
    _Sink(engine, network, "a")
    sink_b = _Sink(engine, network, "b")
    sink_c = _Sink(engine, network, "c")
    network.connect("a", "b", Link(latency=100))
    network.connect("a", "c", Link(latency=100))
    network.faults = FaultPlan([FaultRule("delay", delay_ticks=9_000,
                                          dst="b")])
    for seq in range(4):
        network.send(Message(GETS, 0x1, "a", "b", extra={"seq": seq}))
        network.send(Message(GETS, 0x1, "a", "c", extra={"seq": seq}))
    engine.run()
    assert [seq for _t, seq, _u in sink_b.seen] == [0, 1, 2, 3]
    assert [seq for _t, seq, _u in sink_c.seen] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Zero-overhead contract: no plan == no hook == pre-PR behavior.
# ---------------------------------------------------------------------------

#: Pinned pre-PR digests of run_workload("histogram", scale=0.25,
#: seed=3) -- captured on the commit before the fault hook landed.
PINNED = {
    (("MESI", "CXL", "MESI"), ("WEAK", "WEAK")):
        "83d23fd9181f717e601cd4c55b1788f07d53cf6fbaca263820807136ec10d2ec",
    (("MESI", "CXL", "MOESI"), ("WEAK", "TSO")):
        "56bacc155def70abfaaf2b310c690888c704ee603076441a4d20157aa5e1348c",
}


def _digest(result) -> str:
    payload = {
        "exec_time": result.exec_time,
        "events": result.events,
        "messages": result.messages,
        "regs": [sorted(regs.items()) for regs in result.per_core_regs],
        "ops": result.stats.ops,
        "misses": result.stats.misses,
        "miss_cycles": result.stats.miss_cycles(),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("combo,mcms", list(PINNED),
                         ids=["fig9-arm", "fig10-moesi"])
def test_fault_free_path_byte_identical_to_pre_pr(combo, mcms):
    from repro.harness.experiments import run_workload

    result = run_workload("histogram", combo=combo, mcms=mcms,
                          scale=0.25, seed=3)
    assert _digest(result) == PINNED[(combo, mcms)]


def test_empty_plan_installed_is_bit_identical_to_no_hook():
    """An installed-but-empty FaultPlan must not perturb anything."""
    def run(install_empty_plan):
        from repro.workloads import WORKLOADS

        config = two_cluster_config("MESI", "CXL", "MESI", mcm_a="TSO",
                                    mcm_b="WEAK", cores_per_cluster=2,
                                    seed=3)
        system = build_system(config)
        if install_empty_plan:
            system.network.faults = FaultPlan([])
        programs = WORKLOADS["histogram"].build(config.total_cores,
                                                scale=0.25, seed=3)
        return pickle.dumps(system.run_threads(programs))

    assert run(False) == run(True)


# ---------------------------------------------------------------------------
# Fault counters reach the metrics layer.
# ---------------------------------------------------------------------------

def test_fault_and_churn_counters_in_metrics():
    from repro.obs import Observability
    from repro.scenario.runner import run_scenario
    from repro.scenario.schema import Scenario

    scenario = Scenario.from_dict({
        "scenario": {"name": "metrics"},
        "topology": {"global_protocol": "CXL",
                     "clusters": [{"protocol": "MESI", "mcm": "TSO"},
                                  {"protocol": "MESI", "mcm": "TSO"}]},
        "workloads": [{"name": "histogram", "scale": 0.1}],
        "seeds": {"root": 7},
        "faults": [{"kind": "delay", "vnet": "resp", "delay_ns": 100.0,
                    "probability": 0.5}],
        "events": [{"kind": "leave", "cluster": 1, "at_ns": 600.0}],
    })
    config = scenario.system_config()
    system = build_system(config)
    system.network.faults = FaultPlan.from_scenario(scenario)
    obs = Observability(spans=False, metrics=True).attach(system)
    system.schedule_host_events([("leave", 1, 600_000)])
    from repro.scenario.runner import build_programs
    system.run_threads(build_programs(scenario, config.total_cores))
    obs.finalize()
    counters = obs.registry.counter_values()
    assert counters.get("system.network.fault.delay", 0) > 0
    assert counters.get("system.host.leave") == 1
    # run_scenario reports the same counters in its outcome.
    outcome = run_scenario(scenario)
    assert outcome["faults"].get("delay", 0) > 0
    assert outcome["host_events"] == {"join": 0, "leave": 1}


# ---------------------------------------------------------------------------
# Host churn: park and deferred join.
# ---------------------------------------------------------------------------

def _churn_system(events):
    config = two_cluster_config("MESI", "CXL", "MESI", mcm_a="TSO",
                                mcm_b="TSO", cores_per_cluster=2, seed=5)
    system = build_system(config)
    system.schedule_host_events(events)
    return config, system


def test_leave_parks_cluster_and_run_completes():
    config, system = _churn_system([("leave", 1, 400_000)])
    programs = [
        ThreadProgram(f"t{i}", [op for r in range(40) for op in
                                (store(0x100 + i, r), load(0x100 + i, "x"))])
        for i in range(4)
    ]
    result = system.run_threads(programs)
    assert system.host_events == {"join": 0, "leave": 1}
    assert all(core.parked for core in system.cores[2:])
    assert not any(core.parked for core in system.cores[:2])
    assert result.exec_time > 0


def test_join_defers_cluster_start():
    config, system = _churn_system([("join", 1, 300_000)])
    programs = [ThreadProgram(f"t{i}", [store(0x200 + i, 1)])
                for i in range(4)]
    starts = {}
    for index, core in enumerate(system.cores):
        original = core.run_program

        def wrapped(thread, on_done, _core=core, _orig=original,
                    _idx=index):
            starts[_idx] = _core.engine.now
            _orig(thread, on_done)

        core.run_program = wrapped
    system.run_threads(programs)
    assert starts[0] == 0 and starts[1] == 0
    assert starts[2] == 300_000 and starts[3] == 300_000


def test_join_at_zero_keeps_direct_start_path():
    """A join at t=0 must not defer through the engine (byte-identity
    with the no-events path)."""
    def run(events):
        config = two_cluster_config("MESI", "CXL", "MESI", mcm_a="TSO",
                                    mcm_b="TSO", cores_per_cluster=2,
                                    seed=5)
        system = build_system(config)
        if events:
            system.schedule_host_events(events)
        programs = [ThreadProgram(f"t{i}", [store(0x200 + i, 1),
                                            load(0x200 + i, "r")])
                    for i in range(4)]
        return pickle.dumps(system.run_threads(programs))

    assert run([]) == run([("join", 1, 0)])


def test_schedule_host_events_validates_input():
    _config, system = _churn_system([])
    with pytest.raises(ValueError):
        system.schedule_host_events([("leave", 9, 0)])
    with pytest.raises(ValueError):
        system.schedule_host_events([("explode", 0, 0)])


def test_park_marks_pending_ops_done():
    engine = Engine()
    from repro.cpu.core import Core

    core = Core(engine, "c0", "TSO")

    class _L1:
        def core_request(self, kind, addr, value, callback):
            engine.post(1000, callback, 0)

        def would_hit(self, kind, addr):
            return True

    core.l1 = _L1()
    done = []
    core.run_program(ThreadProgram("t", [store(0x1, 1), load(0x2, "r"),
                                         load(0x3, "s")]),
                     done.append)
    engine.run(until=500)   # first ops in flight, rest pending
    core.park()
    engine.run()
    assert done, "parked core must still reach its finish callback"
    assert core.parked
