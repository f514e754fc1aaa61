"""Flight recorder: a bounded ring buffer of recent runtime events.

Black-box-style postmortems for fleet work: each worker process (and
each model-checker shard replay loop) keeps the last-N interesting
events -- cell starts, protocol frames, obs absorptions, replay steps --
in a :class:`FlightRecorder`.  When a cell raises, the dump rides the
error frame; when a worker is SIGKILL'd, the broker still holds the
flight dump the worker shipped at cell start, so the resulting
:class:`repro.harness.sweep.CellFailure` carries the victim's last
moments instead of a bare "worker died".

Everything recorded must be plain JSON types: dumps cross process
boundaries inside telemetry frames and end up inside counterexample
fixtures and failure records.
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


#: Per-process recorder used by the dist worker loop.
_PROCESS_RECORDER = FlightRecorder()


def flight_recorder() -> FlightRecorder:
    """The process-global :class:`FlightRecorder` (one per worker)."""
    return _PROCESS_RECORDER
