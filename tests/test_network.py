"""Unit tests for the interconnect model."""

import pytest

from repro.protocols.messages import (
    BI_CONFLICT_ACK,
    BI_SNP_INV,
    CMP_M,
    DATA,
    GETS,
    INV_ACK,
    Message,
    VNET_FWD,
    VNET_REQ,
    VNET_RESP,
)
from repro.sim.engine import Engine
from repro.sim.network import Link, Network, Node


class Sink(Node):
    def __init__(self, engine, network, node_id):
        super().__init__(engine, network, node_id)
        self.received: list[tuple[int, Message]] = []

    def handle_message(self, msg):
        self.received.append((self.engine.now, msg))


def make_pair(jitter=0, seed=1):
    engine = Engine()
    network = Network(engine, seed=seed)
    a = Sink(engine, network, "a")
    b = Sink(engine, network, "b")
    network.connect("a", "b", Link(latency=100, flit_bytes=72, flit_cycle=10, jitter=jitter))
    return engine, network, a, b


def test_delivery_latency_includes_serialization():
    engine, network, a, b = make_pair()
    network.send(Message(GETS, 0x10, "a", "b"))  # control: 1 flit
    engine.run()
    assert b.received[0][0] == 110  # 100 latency + 1 flit * 10


def test_data_message_serializes_more_flits():
    engine, network, a, b = make_pair()
    network.send(Message(DATA, 0x10, "a", "b", data=7))  # 72B = 1 flit at 72B flits
    engine.run()
    assert b.received[0][0] == 110
    # With tiny flits the same message takes longer.
    engine2 = Engine()
    net2 = Network(engine2)
    Sink(engine2, net2, "a")
    sink_b = Sink(engine2, net2, "b")
    net2.connect("a", "b", Link(latency=100, flit_bytes=8, flit_cycle=10))
    net2.send(Message(DATA, 0x10, "a", "b", data=7))
    engine2.run()
    assert sink_b.received[0][0] == 100 + 9 * 10  # 72B / 8B = 9 flits


def test_same_channel_fifo_preserved_under_jitter():
    engine, network, a, b = make_pair(jitter=500, seed=7)
    for i in range(50):
        network.send(Message(CMP_M, i, "a", "b"))
    engine.run()
    received_addrs = [m.addr for _, m in b.received]
    assert received_addrs == list(range(50))


def test_conflict_ack_never_overtakes_completion():
    """BIConflictAck and Cmp-M share the response network: FIFO holds."""
    engine, network, a, b = make_pair(jitter=1000, seed=3)
    network.send(Message(CMP_M, 0x10, "a", "b"))
    network.send(Message(BI_CONFLICT_ACK, 0x10, "a", "b"))
    engine.run()
    kinds = [m.kind for _, m in b.received]
    assert kinds == [CMP_M, BI_CONFLICT_ACK]


def test_cross_vnet_reordering_possible_with_jitter():
    """A snoop (fwd vnet) may overtake a completion (resp vnet)."""
    overtaken = 0
    for seed in range(40):
        engine, network, a, b = make_pair(jitter=2000, seed=seed)
        network.send(Message(CMP_M, 0x10, "a", "b"))
        network.send(Message(BI_SNP_INV, 0x10, "a", "b"))
        engine.run()
        kinds = [m.kind for _, m in b.received]
        if kinds == [BI_SNP_INV, CMP_M]:
            overtaken += 1
    assert overtaken > 0, "jittered fabric should reorder across vnets sometimes"


def test_vnet_assignment():
    assert Message(GETS, 0, "a", "b").vnet == VNET_REQ
    assert Message(BI_SNP_INV, 0, "a", "b").vnet == VNET_FWD
    assert Message(INV_ACK, 0, "a", "b").vnet == VNET_RESP


def test_unknown_link_raises():
    engine = Engine()
    network = Network(engine)
    Sink(engine, network, "a")
    Sink(engine, network, "b")
    with pytest.raises(KeyError, match="no link a -> b"):
        network.send(Message(GETS, 0, "a", "b"))
    assert network._wires == {}  # a failed send leaves no wire behind
    assert network.stats.messages == 0


def test_wires_are_made_by_the_first_send():
    """connect() makes no wire: a network whose messages never pass
    through send (the model checker's interceptor) builds none."""
    engine, network, a, b = make_pair()
    assert network._wires == {}
    network.send(Message(GETS, 0, "a", "b"))
    assert list(network._wires) == ["a"] and list(network._wires["a"]) == ["b"]


def test_reconnect_retimes_a_used_wire_but_keeps_its_state():
    """Re-connecting a pair that has carried messages changes the timing
    of later sends; the wire's busy-until and per-vnet FIFO floors stay."""
    engine, network, a, b = make_pair()
    network.connect("a", "b", Link(latency=100, flit_bytes=8, flit_cycle=10))
    network.send(Message(DATA, 0x10, "a", "b", data=1))  # 9 flits: 90 + 100
    wire = network._wires["a"]["b"]
    assert (wire.busy_until, wire.last_arrival[VNET_RESP]) == (90, 190)
    network.connect("a", "b", Link(latency=10, flit_bytes=72, flit_cycle=10))
    assert network._wires["a"]["b"] is wire
    assert (wire.busy_until, wire.last_arrival[VNET_RESP]) == (90, 190)
    # New timing, old occupancy: starts at 90, one 10-tick flit, 10 latency.
    network.send(Message(GETS, 0x20, "a", "b"))
    # The response channel's floor holds: 100 + 10 + 10 = 120 -> 191.
    network.send(Message(DATA, 0x30, "a", "b", data=2))
    engine.run()
    assert [(t, m.addr) for t, m in b.received] == [
        (110, 0x20), (190, 0x10), (191, 0x30)]
    assert a.received == []


def test_duplicate_node_id_rejected():
    engine = Engine()
    network = Network(engine)
    Sink(engine, network, "a")
    with pytest.raises(ValueError):
        Sink(engine, network, "a")


def test_stats_accumulate():
    engine, network, a, b = make_pair()
    network.send(Message(GETS, 0, "a", "b"))
    network.send(Message(DATA, 0, "a", "b", data=1))
    engine.run()
    assert network.stats.messages == 2
    assert network.stats.per_kind[GETS] == 1
    assert network.stats.bytes == 8 + 72


def test_link_bandwidth_serializes_back_to_back_sends():
    """The wire is occupied for the serialization time of each message:
    a burst takes at least n * flits * flit_cycle to drain."""
    engine = Engine()
    network = Network(engine)
    Sink(engine, network, "a")
    sink = Sink(engine, network, "b")
    network.connect("a", "b", Link(latency=100, flit_bytes=8, flit_cycle=10))
    for i in range(5):
        network.send(Message(DATA, i, "a", "b", data=1))  # 72B = 9 flits
    engine.run()
    times = [t for t, _m in sink.received]
    # First: 100 + 90; each subsequent waits 90 more of wire occupancy.
    assert times[0] == 190
    for earlier, later in zip(times, times[1:]):
        assert later - earlier >= 90


def test_send_many_delivers_prefix_before_missing_link():
    """A batch is sequential sends: the messages ahead of a missing
    link are delivered and counted, then the KeyError surfaces."""
    engine, network, a, b = make_pair()
    batch = [Message(GETS, 0x10, "a", "b"),
             Message(DATA, 0x20, "a", "b", data=1),
             Message(GETS, 0x30, "a", "c"),
             Message(GETS, 0x40, "a", "b")]
    with pytest.raises(KeyError, match="no link a -> c"):
        network.send_many(batch)
    assert network.stats.messages == 2
    assert network.stats.bytes == 8 + 72
    assert network.stats.per_kind == {GETS: 1, DATA: 1}
    assert engine.pending() == 2
    engine.run()
    assert [m.addr for _t, m in b.received] == [0x10, 0x20]
