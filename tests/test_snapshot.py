"""In-place snapshots of a simulated machine (``System.snapshot``).

The model checker's equivalence tests (``tests/test_mc.py``) compare
restored states with fresh replays; these pin the pieces: every record
saves every field, a restore reuses the saved objects, and only an idle
engine can be saved.
"""

import dataclasses
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
from repro.verify.mc import litmus_model
from repro.verify.mc.fingerprint import canonical_fingerprint

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
