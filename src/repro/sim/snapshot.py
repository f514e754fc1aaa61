"""Container and record helpers for in-place snapshots of a simulated
machine.

Each stateful component has a ``snapshot()`` that returns plain data
(field values and container contents) and a ``restore(state)`` that
writes that data back into the *same* objects.  Anything that refers
to a component, a record or a container -- a pending-work closure
parked in an MSHR, a transaction captured by a recall continuation --
therefore still refers to the restored one.  Objects made after the
snapshot are dropped, because the containers that held them are
restored too.  :meth:`repro.sim.system.System.snapshot` states the
whole contract.

The controllers' dataclass records (MSHRs, directory entries,
transactions, store-buffer entries) get their pair from
:func:`snapshotted`, generated from the field list; two container
shapes that recur across the controllers have their save/restore
pairs here too.
"""

from __future__ import annotations

import dataclasses
from collections import deque

#: How each container type a record field may hold is refilled.
_REFILL: dict = {set: "update", list: "extend", deque: "extend"}


def snapshotted(cls: type) -> type:
    """Give a dataclass record ``snapshot()`` and ``restore(state)``.

    ``snapshot`` returns every field in one tuple; a field made by a
    ``set``, ``list`` or ``deque`` factory is saved as the container
    *and* its contents.  ``restore`` refills each such container in
    place and rebinds it, even if the record was given a new one since,
    then writes every field back.  The pair is generated from the field
    list, the way ``dataclasses`` generates ``__init__``: a loop of
    ``getattr``/``setattr`` costs several times as much, and a search
    restores once per explored state.
    """
    fields = dataclasses.fields(cls)
    targets = ", ".join(f"self.{f.name}" for f in fields)
    refills = [(index, _REFILL[f.default_factory])
               for index, f in enumerate(fields)
               if f.default_factory in _REFILL]
    saved = ", ".join(f"tuple(self.{fields[index].name})"
                      for index, _ in refills)
    lines = [
        "def snapshot(self):",
        f"    return ({targets},), ({saved},)" if refills
        else f"    return ({targets},)",
        "def restore(self, state):",
    ]
    if refills:
        lines.append("    state, contents = state")
        for slot, (index, method) in enumerate(refills):
            lines += [f"    box = state[{index}]",
                      "    box.clear()",
                      f"    box.{method}(contents[{slot}])"]
    lines.append(f"    {targets}, = state")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    for name, doc in (("snapshot", "Every field (see ``System.snapshot``)."),
                      ("restore", "Back to a :meth:`snapshot`, in place.")):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        method.__doc__ = doc
        setattr(cls, name, method)
    return cls


def save_records(records: dict) -> list | tuple:
    """``{key: record}`` of :func:`snapshotted` records: the entries in
    order, each with its record's fields."""
    if not records:
        return ()
    return [(key, record, record.snapshot())
            for key, record in records.items()]


def restore_records(records: dict, state: list | tuple) -> None:
    """Put a :func:`save_records` state back into the same dict."""
    records.clear()
    for key, record, fields in state:
        record.restore(fields)
        records[key] = record


def save_list(records: list) -> list:
    """A list of :func:`snapshotted` records: each with its fields."""
    return [(record, record.snapshot()) for record in records]


def restore_list(records: list, state: list) -> None:
    """Put a :func:`save_list` state back into the same list."""
    records.clear()
    for record, fields in state:
        record.restore(fields)
        records.append(record)


def save_queues(queues: dict) -> list | tuple:
    """``{key: deque}`` of shared items: the entries in order, each
    with its queue's contents."""
    if not queues:
        return ()
    return [(key, queue, tuple(queue)) for key, queue in queues.items()]


def restore_queues(queues: dict, state: list | tuple) -> None:
    """Put a :func:`save_queues` state back into the same dict."""
    queues.clear()
    for key, queue, items in state:
        queue.clear()
        queue.extend(items)
        queues[key] = queue
