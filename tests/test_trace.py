"""Tests for the protocol tracer."""

import pickle

from repro.cpu.isa import ThreadProgram, fence, load, rmw, store
from repro.protocols import messages as m
from repro.sim.config import two_cluster_config
from repro.sim.system import build_system
from repro.sim.trace import MessageTracer


def traced_system(**kw):
    config = two_cluster_config("MESI", "CXL", "MESI", cores_per_cluster=1,
                                **kw)
    system = build_system(config)
    return system


def test_tracer_records_cxl_flow():
    system = traced_system()
    tracer = MessageTracer(system.network, addrs={0x10})
    system.run_threads([ThreadProgram("t", [store(0x10, 1)])], placement=[0])
    kinds = [e.msg_kind for e in tracer.entries]
    assert m.GETM in kinds
    assert m.MEM_RD in kinds
    assert m.CMP_M in kinds
    assert m.DATA in kinds


def test_tracer_filters_by_address():
    system = traced_system()
    tracer = MessageTracer(system.network, addrs={0x99})
    system.run_threads([ThreadProgram("t", [store(0x10, 1)])], placement=[0])
    assert tracer.entries == []


def test_tracer_filters_by_kind():
    system = traced_system()
    tracer = MessageTracer(system.network, kinds={m.MEM_RD})
    system.run_threads([ThreadProgram("t", [load(0x10, "r")])], placement=[0])
    assert tracer.entries
    assert all(e.msg_kind == m.MEM_RD for e in tracer.entries)


def test_timeline_and_lanes_render():
    system = traced_system(seed=4)
    tracer = MessageTracer(system.network, addrs={0x20})
    programs = [ThreadProgram(f"t{i}", [rmw(0x20, 1), fence()]) for i in range(2)]
    system.run_threads(programs, placement=[0, 1])
    timeline = tracer.timeline(addr=0x20)
    assert "MemRd" in timeline
    assert "->" in timeline
    lanes = tracer.lanes(0x20)
    assert "time(ns)" in lanes
    assert "home" in lanes
    assert len(lanes.splitlines()) > 4


def test_detach_restores_network():
    system = traced_system()
    tracer = MessageTracer(system.network)
    assert tracer in system.network.observers
    tracer.detach()
    assert tracer not in system.network.observers
    # And traffic after detach is not recorded.
    system.run_threads([ThreadProgram("t", [store(0x10, 1)])], placement=[0])
    assert tracer.entries == []


def test_detaching_one_tracer_leaves_the_other_recording():
    system = traced_system()
    first = MessageTracer(system.network)
    second = MessageTracer(system.network)
    first.detach()
    system.run_threads([ThreadProgram("t", [store(0x10, 1)])], placement=[0])
    assert first.entries == []
    assert system.network.stats.messages > 0
    assert len(second.entries) == system.network.stats.messages
    assert system.network.observers == (second,)


def test_capacity_overflow_counts_dropped_and_flags_renders():
    system = traced_system(seed=4)
    tracer = MessageTracer(system.network, addrs={0x20}, capacity=5)
    programs = [ThreadProgram(f"t{i}", [rmw(0x20, 1), fence()]) for i in range(2)]
    system.run_threads(programs, placement=[0, 1])
    assert len(tracer.entries) == 5
    assert tracer.dropped > 0  # overflow is counted, not silent
    for rendered in (tracer.timeline(addr=0x20), tracer.lanes(0x20)):
        assert "truncated" in rendered
        assert str(tracer.dropped) in rendered


def test_no_truncation_note_below_capacity():
    system = traced_system()
    tracer = MessageTracer(system.network, addrs={0x10})
    system.run_threads([ThreadProgram("t", [store(0x10, 1)])], placement=[0])
    assert tracer.dropped == 0
    assert "truncated" not in tracer.timeline(addr=0x10)
    assert "truncated" not in tracer.lanes(0x10)


def test_conflict_handshake_visible_in_trace():
    found = False
    for seed in range(20):
        system = traced_system(seed=seed, cross_jitter_ns=60.0)
        tracer = MessageTracer(system.network, addrs={0x1})
        programs = [
            ThreadProgram(f"t{t}", [op for i in range(10)
                                    for op in (load(0x1, f"r{i}"), rmw(0x1, 1))])
            for t in range(2)
        ]
        system.run_threads(programs, placement=[0, 1])
        if tracer.count(kind=m.BI_CONFLICT):
            assert tracer.count(kind=m.BI_CONFLICT_ACK) >= 1
            found = True
            break
    assert found, "no conflict handshake captured in 20 seeds"


def _histogram_cell(trace: bool):
    """A MESI-CXL-MESI histogram cell.

    Returns the ``RunResult`` pickle, the tracer (or None), the network
    and the sizes of the batches handed to ``send_many``.
    """
    from repro.workloads import WORKLOADS

    config = two_cluster_config("MESI", "CXL", "MESI", cores_per_cluster=4,
                                seed=3)
    system = build_system(config)
    network = system.network
    tracer = MessageTracer(network) if trace else None
    fanned = []
    send_many = network.send_many

    def counting_send_many(msgs):
        msgs = list(msgs)
        fanned.append(len(msgs))
        send_many(msgs)

    network.send_many = counting_send_many
    programs = WORKLOADS["histogram"].build(config.total_cores, scale=0.25,
                                            seed=3)
    result = system.run_threads(programs)
    return pickle.dumps(result), tracer, network, fanned


def test_tracer_sees_every_message_and_changes_nothing():
    untraced, _none, _network, _fanned = _histogram_cell(trace=False)
    traced, tracer, network, fanned = _histogram_cell(trace=True)
    assert max(fanned) > 1, "cell never fanned out through send_many"
    assert tracer.dropped == 0
    assert len(tracer.entries) == network.stats.messages
    assert traced == untraced
