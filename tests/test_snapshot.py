"""In-place snapshots of a simulated machine (``System.snapshot``).

The model checker's equivalence tests (``tests/test_mc.py``) compare
restored states with fresh replays; these pin the pieces: every record
saves every field, a restore reuses the saved objects, and only an idle
engine can be saved.
"""

import dataclasses
import types
import weakref
from collections import deque

import pytest

from repro.core.bridge import DirRecord, LocalTxn, Recall
from repro.core.global_port import PendingReq, PendingWb
from repro.cpu.core import SBEntry
from repro.protocols.cxl_mem import DcohTxn, HomeLine
from repro.protocols.global_mesi import GLine
from repro.protocols.messages import Message
from repro.sim.engine import Engine
from repro.sim.l1 import Mshr
from repro.sim.network import Link
from repro.verify.explorer import component_parts, state_parts
from repro.verify.mc import litmus_model
from repro.verify.mc.fingerprint import canonical_fingerprint
from tests.test_mc import _LEAVES, _SHARED_MODULES, _field_names, _hybrid_model

COMBO = ("MESI", "CXL", "MESI")
MSG = Message("GetS", 0x10, "l1.0.0", "c3.0")


def _done():
    return None


RECORDS = [
    Mshr(0x10, "GetS", ops=deque([("LOAD", 0, _done, 0)]), pending_fwds=[MSG]),
    DirRecord(owner="l1.0.0", owner_kind="EM", sharers={"l1.0.1"}),
    LocalTxn("GetS", MSG, "l1.0.0", acks_needed=1),
    Recall("inv", _done, acks_needed=2),
    PendingReq("M", _done, acks_needed=1),
    PendingWb(_done, held_snoop=MSG),
    HomeLine("S", sharers={"c3.0", "c3.1"}),
    DcohTxn("RdA", "c3.0", targets={"c3.1"}, started=5),
    GLine("M", owner="c3.0", data_pending=True),
    SBEntry(3, 0x10, 7, "STORE", draining=True),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_save_and_restore_every_field(record):
    """Scramble every field -- containers changed in place and then
    replaced, everything else rebound -- and a restore gives back the
    saved values, in the record's original containers."""
    names = [f.name for f in dataclasses.fields(record)]
    before = {name: getattr(record, name) for name in names}
    contents = {name: type(value)(value) for name, value in before.items()
                if isinstance(value, (list, deque, set))}
    state = record.snapshot()
    sentinel = object()
    for name in names:
        value = getattr(record, name)
        if isinstance(value, (list, deque)):
            value.append(sentinel)
        elif isinstance(value, set):
            value.add(sentinel)
        if name in contents:
            setattr(record, name, type(value)())
        else:
            setattr(record, name, sentinel)
    record.restore(state)
    for name in names:
        value = getattr(record, name)
        assert value is before[name] or value == before[name], name
        if name in contents:
            assert value is before[name] and value == contents[name], name


def test_only_an_idle_engine_can_be_saved():
    engine = Engine()
    engine.post(5, _done)
    with pytest.raises(ValueError, match="queued events"):
        engine.snapshot()
    engine.run()
    state = engine.snapshot()
    engine.post(1, _done)
    engine.restore(state)
    assert engine.pending() == 0 and engine.now == 5
    assert engine.events_executed == 1


def test_one_snapshot_serves_every_sibling():
    """A snapshot restores any number of times, after any delivery,
    to the same state, and events a failed delivery left queued are
    dropped."""
    model = litmus_model("SB", COMBO)
    system, network = model.replay(())
    choices = network.deliverable()
    assert len(choices) > 1
    state = system.snapshot()
    before = canonical_fingerprint(system, network)
    reached = set()
    for choice in choices:
        system.restore(state)
        assert canonical_fingerprint(system, network) == before
        model.advance(system, network, choice)
        reached.add(canonical_fingerprint(system, network))
        system.engine.post(1, _done)  # as if a callback had raised
    system.restore(state)
    assert system.engine.pending() == 0
    assert canonical_fingerprint(system, network) == before
    assert len(reached) == len(choices)


# ---------------------------------------------------------------------------
# Domains: the soundness of touched-domain snapshots, restores and
# fingerprints (repro.verify.mc.engine.LiveSystem).
# ---------------------------------------------------------------------------

def _proxy_target(proxy) -> int:
    """``id`` of a weak proxy's referent (CPython spells it in the repr)."""
    return int(repr(proxy).rsplit(" at ", 1)[1].rstrip(">"), 16)


def _reach(roots, stops) -> tuple[dict, set]:
    """Every object reachable from ``roots`` -- through fields,
    containers, closures and bound methods -- without entering
    ``stops`` (ids), messages, weak proxies or shared objects, by id;
    and the referent ids of the weak proxies met."""
    reached: dict = {}
    proxied: set = set()
    todo = list(roots)
    while todo:
        obj = todo.pop()
        cls = type(obj)
        if cls in _LEAVES or id(obj) in stops:
            continue
        if cls is weakref.ProxyType:
            proxied.add(_proxy_target(obj))
            continue
        if (cls is Message or cls is Link
                or cls.__module__ in _SHARED_MODULES or id(obj) in reached):
            continue
        reached[id(obj)] = obj
        if isinstance(obj, (tuple, list, deque, set, frozenset)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif cls is types.FunctionType:
            todo.extend(obj.__defaults__ or ())
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif cls is types.MethodType:
            todo.append(obj.__self__)
        else:
            todo.extend(getattr(obj, name) for name in _field_names(cls)
                        if hasattr(obj, name))
            todo.extend(getattr(obj, "__dict__", {}).values())
    return reached, proxied


_DOMAIN_MODELS = [
    lambda: litmus_model("SB", COMBO),
    lambda: litmus_model("WRC", ("MOESI", "MESI", "MOESI")),
    lambda: litmus_model("MP", ("RCC", "MESI", "MESIF")),
    _hybrid_model,
    lambda: litmus_model("IRIW", COMBO),
]
_DOMAIN_IDS = ["SB-MESI-CXL-MESI", "WRC-MOESI-MESI-MOESI",
               "MP-RCC-MESI-MESIF", "hybrid-memory", "IRIW-MESI-CXL-MESI"]


def _states(model, steps: int = 12):
    """The root and the states along a few delivery paths from it."""
    for turn in range(3):
        system, network = model.replay(())
        yield system, network
        for step in range(steps):
            choices = network.deliverable()
            if not choices:
                break
            model.advance(system, network,
                          choices[(step + turn) % len(choices)])
            yield system, network


@pytest.mark.parametrize("make_model", _DOMAIN_MODELS, ids=_DOMAIN_IDS)
def test_every_component_and_state_part_has_one_domain(make_model):
    """The snapshot saves the engine, the network and each domain's
    components; every component in a domain, every network node and
    the component of every ``state_parts`` part is in exactly one.
    There is one domain per network node: an L1 with its own core, a
    bridge with its global port and local store, the home with the
    backing store."""
    system, network = make_model().replay(())
    domains = system.domains
    assert len(domains) == len(network.nodes)
    owner: dict = {}
    for index, components in enumerate(domains):
        for component in components:
            assert component not in (system.engine, network)
            assert id(component) not in owner, component
            owner[id(component)] = index
    for core in system.cores:
        assert domains[owner[id(core)]] == [core.l1, core]
    for cluster in system.clusters:
        bridge = cluster.bridge
        members = [bridge, bridge.port]
        if bridge.local_backing is not None:
            members.append(bridge.local_backing)
        assert domains[owner[id(bridge)]] == members
    assert domains[owner[id(system.home)]] == [system.home, system.backing]
    assert system.home.backing is system.backing
    state = system.snapshot()
    assert len(state) == 2 + len(domains)
    assert [len(saved) for saved in state[2:]] == list(map(len, domains))
    for node_id, node in network.nodes.items():
        assert owner[id(node)] == system.node_domains[node_id]
    layout = component_parts(system)
    assert len(layout) == len(state_parts(system, network)) - 1
    assert all(id(component) in owner for _, component in layout)


@pytest.mark.parametrize("make_model", _DOMAIN_MODELS, ids=_DOMAIN_IDS)
def test_no_component_reaches_into_another_domain(make_model):
    """What a delivery to one domain can change: every object reachable
    from a domain's components -- fields, containers, records, pending
    closures -- other than the engine, the network, messages and shared
    configuration belongs to that domain alone.  So a delivery, which
    runs only its destination's controllers, writes no other domain,
    and every stateful object is saved by exactly one domain."""
    for system, network in _states(make_model()):
        stops = {id(system.engine), id(network)}
        reach = []
        for components in system.domains:
            reached, proxied = _reach(components, stops)
            assert proxied <= reached.keys() | stops
            reach.append(reached)
        for index, reached in enumerate(reach):
            for other in reach[index + 1:]:
                assert not reached.keys() & other.keys()
        everything, _ = _reach([system], stops)
        stateful = [obj for obj in everything.values()
                    if obj is not system and hasattr(obj, "snapshot")]
        assert len(stateful) > 3 * len(reach)
        for obj in stateful:
            assert sum(id(obj) in reached for reached in reach) == 1, obj
