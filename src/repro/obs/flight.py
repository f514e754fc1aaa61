"""Flight recorder: a bounded ring buffer of recent runtime events.

Black-box-style postmortems for the model checker: the search
(:func:`repro.verify.mc.engine.explore`) keeps its last-N
steps in a :class:`FlightRecorder`.  When a replay crashes a
controller, the dump rides the violation home, so the resulting crash
:class:`~repro.verify.mc.counterexample.Counterexample` carries what the
search was doing just before it.

Everything recorded must be plain JSON types: dumps end up inside
counterexample fixtures.
"""

from __future__ import annotations

import time
from collections import deque


class FlightRecorder:
    """Fixed-capacity ring buffer of recent events, oldest evicted first."""

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._events)

    def record(self, kind: str, **detail) -> None:
        """Append one event; ``detail`` values must be JSON-serializable.

        Stored as a ``(seq, time, kind, detail)`` tuple; :meth:`dump`
        builds the event dicts.
        """
        self._seq += 1
        self._events.append((self._seq, time.time(), kind, detail))

    def dump(self) -> list[dict]:
        """The buffered events, oldest first, as fresh dicts.

        Each is ``{"seq", "t", "kind"}`` (``t`` rounded to the
        millisecond) updated with the event's ``detail``.
        """
        events = []
        for seq, stamp, kind, detail in self._events:
            event = {"seq": seq, "t": round(stamp, 3), "kind": kind}
            if detail:
                event.update(detail)
            events.append(event)
        return events

    def clear(self) -> None:
        """Drop all buffered events (the sequence counter keeps going)."""
        self._events.clear()
