"""Discrete-event engine.

Time is measured in integer **ticks**.  The rest of the package uses one
tick = 1 ps, giving exact representations of both CPU cycles and
nanosecond-scale link latencies (see :class:`repro.sim.config.SystemConfig`).

Events are ordered by ``(time, insertion order)``: FIFO among same-tick
events.  Callers schedule through ``post`` (relative delay),
``post_at`` (absolute tick) and ``post_many`` (a batch of absolute
ticks); none returns a handle, and a queued event always fires.  Two
classes implement that contract and produce bit-identical simulations:

- :class:`BatchedEngine`, bound as ``Engine`` and the one engine every
  simulation runs on: a slotted calendar queue.  Events live in
  per-tick buckets of ``(callback, args)`` records; the heap orders
  only the *distinct pending ticks* (plain ints, so heap comparisons
  never touch Python objects), and ``run()`` drains each tick's bucket
  in one inner loop with the ``until`` check hoisted per batch.
  Scheduling allocates one record tuple and nothing else.  The bucket
  layout is private to this module.
- :class:`LegacyEngine`: the original object-at-a-time heapq loop.  It
  is the reference implementation the parity tests
  (``tests/test_engine_parity.py``) compare against; nothing selects it
  at run time.
"""

from __future__ import annotations

import gc as _gc
import heapq
import sys
from typing import Any, Callable

_heappush = heapq.heappush
_heappop = heapq.heappop
_UNBOUNDED = sys.maxsize


def _callback_name(callback: Callable) -> str:
    """Stable short name for a scheduled callback (stall digests)."""
    name = getattr(callback, "__qualname__", None)
    if name is None:
        name = getattr(type(callback), "__qualname__", repr(callback))
    return name


class SimulationLimitError(RuntimeError):
    """Raised when a run exceeds its event budget (deadlock watchdog)."""


class BatchedEngine:
    """Deterministic discrete-event engine over a slotted calendar queue.

    ``_buckets`` maps an absolute tick to either a single ``(callback,
    args)`` tuple (the common sparse case: one event on that tick) or a
    list of such tuples in insertion order.  ``_ticks`` is a heap of
    the distinct pending tick values, so every heap operation compares
    plain ints.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._buckets: dict = {}
        self._ticks: list[int] = []
        self.events_executed: int = 0
        self._running = False
        # Span recorder (repro.obs) or None: read only by stall_digest,
        # never by the run loop.
        self.span_recorder = None

    # -- scheduling ----------------------------------------------------
    def post(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        t = self.now + delay
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            buckets[t] = (callback, args)
            _heappush(self._ticks, t)
        elif bucket.__class__ is list:
            bucket.append((callback, args))
        else:
            buckets[t] = [bucket, (callback, args)]

    def post_at(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute tick ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (t={time} < now={self.now})")
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = (callback, args)
            _heappush(self._ticks, time)
        elif bucket.__class__ is list:
            bucket.append((callback, args))
        else:
            buckets[time] = [bucket, (callback, args)]

    def post_many(self, items) -> None:
        """Schedule a batch of ``(time, callback, args)`` records at once.

        ``items`` is an iterable of triples with *absolute* tick times
        and an args **tuple** (possibly empty).  Semantics are exactly N
        sequential :meth:`post_at` calls -- same insertion order, same
        FIFO position among same-tick events, same past-time error --
        but the bucket/heap locals are bound once per batch instead of
        once per event.  This is the network layer's bulk-delivery
        primitive (see :meth:`repro.sim.network.Network.send_many`).
        """
        now = self.now
        buckets = self._buckets
        ticks = self._ticks
        heappush = _heappush
        for time, callback, args in items:
            if time < now:
                raise ValueError(
                    f"cannot schedule into the past (t={time} < now={now})")
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = (callback, args)
                heappush(ticks, time)
            elif bucket.__class__ is list:
                bucket.append((callback, args))
            else:
                buckets[time] = [bucket, (callback, args)]

    # -- introspection -------------------------------------------------
    def pending(self) -> int:
        """Number of events still in the queue."""
        return sum(len(b) if b.__class__ is list else 1
                   for b in self._buckets.values())

    # -- snapshots (repro.sim.system.System.snapshot) -------------------
    def snapshot(self) -> tuple:
        """Clock and executed counter of an idle engine.

        Only an empty queue can be saved: queued records hold callbacks
        whose arguments a snapshot does not copy.
        """
        if self._ticks:
            raise ValueError("cannot snapshot an engine with queued events")
        return self.now, self.events_executed

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`: its clock and counter, nothing
        queued (a callback that raised may have left records behind)."""
        self.now, self.events_executed = state
        self._buckets.clear()
        self._ticks.clear()

    # -- the run loop --------------------------------------------------
    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run until the queue drains, ``until`` ticks pass, or ``max_events``.

        Returns the current simulation time when the run stops.  A
        ``max_events`` bound is the engine-level watchdog used by the
        verification harness to convert protocol deadlocks into test
        failures instead of hangs.

        This is the simulator's hottest loop.  The outer loop pops one
        *tick* (a plain int) per iteration and hoists the ``until``
        check per batch; the inner loop drains that tick's bucket --
        including records appended to it by the callbacks themselves --
        with nothing but record loads, one budget compare and the
        callback call per event.  Single-event ticks skip the inner
        loop entirely.  See ``benchmarks/test_engine_churn.py`` and
        ``docs/PERFORMANCE.md`` for measured throughput.
        """
        if not self._ticks:
            # Nothing queued: what the loop below would return, minus
            # the gc toggle.  About half the model checker's runs.
            return self.now
        self._running = True
        gc_enabled = _gc.isenabled()
        if gc_enabled:
            _gc.disable()
        ticks = self._ticks
        buckets = self._buckets
        heappop = _heappop
        budget = max_events if max_events is not None else _UNBOUNDED
        executed = 0
        try:
            while ticks:
                t = ticks[0]
                if until is not None and t > until:
                    self.now = until
                    break
                heappop(ticks)
                batch = buckets[t]
                if batch.__class__ is not list:
                    # Sparse fast path: exactly one (immutable) record
                    # on this tick.  The bucket is removed before the
                    # call so a same-tick reschedule starts cleanly.
                    if executed >= budget:
                        _heappush(ticks, t)
                        executed = self._fold(executed)
                        raise SimulationLimitError(self.stall_digest(max_events))
                    del buckets[t]
                    self.now = t
                    batch[0](*batch[1])
                    executed += 1
                    continue
                record = None
                try:
                    for record in batch:
                        if executed >= budget:
                            self._requeue_from(batch, t, record, consumed=False)
                            executed = self._fold(executed)
                            raise SimulationLimitError(
                                self.stall_digest(max_events))
                        self.now = t
                        record[0](*record[1])
                        executed += 1
                except SimulationLimitError:
                    raise
                except BaseException:
                    # A callback raised mid-batch: keep the unconsumed
                    # suffix queued so the engine state stays exact.
                    self._requeue_from(batch, t, record, consumed=True)
                    raise
                del buckets[t]
        finally:
            self._running = False
            self.events_executed += executed
            if gc_enabled:
                _gc.enable()
        return self.now

    # -- run() cold-path helpers ---------------------------------------
    def _fold(self, executed: int) -> int:
        """Fold the local executed count into the public counter so the
        stall digest (built while the exception is raised) sees exact
        numbers; returns 0 so the ``finally`` fold adds nothing."""
        self.events_executed += executed
        return 0

    def _requeue_from(self, batch: list, t: int, record, consumed: bool) -> None:
        """Restore queue state after a mid-batch stop at ``record``.

        Drops the already-drained prefix (and ``record`` itself when
        ``consumed``), re-registers the tick on the heap if anything is
        left, and removes the bucket otherwise.  Cold path only.
        """
        if record is None:
            idx = 0
        else:
            idx = next(i for i, r in enumerate(batch) if r is record)
            if consumed:
                idx += 1
        del batch[:idx]
        if batch:
            _heappush(self._ticks, t)
        else:
            self._buckets.pop(t, None)

    # -- diagnostics ---------------------------------------------------
    def _queued_records(self):
        """Yield ``(time, record)`` for every queued record, bucket order."""
        for t, bucket in self._buckets.items():
            if bucket.__class__ is list:
                for record in bucket:
                    yield t, record
            else:
                yield t, bucket

    def stall_digest(self, max_events: int | None = None) -> str:
        """Multi-line diagnosis of a stalled/livelocked run.

        The first line keeps the historical watchdog format (event
        budget, time, queue depth); the rest breaks the live queue down
        by callback, names the oldest queued event, and -- when a span
        recorder is attached -- lists the oldest in-flight spans, which
        usually point straight at the stuck transaction.  Assembled
        only on the stall branch: a clean run never calls this.
        """
        live = [(t, order, record[0]) for order, (t, record)
                in enumerate(self._queued_records())]
        # Every queued event fires, so the two counts agree; the first
        # line keeps the historical watchdog format all the same.
        lines = [
            f"exceeded {max_events} events at t={self.now} "
            f"({len(live)} pending, {len(live)} live); "
            "likely livelock or deadlock retry storm"
        ]
        if live:
            counts: dict[str, int] = {}
            for _t, _order, callback in live:
                name = _callback_name(callback)
                counts[name] = counts.get(name, 0) + 1
            top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
            lines.append("top pending callbacks: "
                         + ", ".join(f"{name} x{count}" for name, count in top))
            oldest = min(live, key=lambda item: (item[0], item[1]))
            age = self.now - oldest[0]
            lines.append(f"oldest queued: {_callback_name(oldest[2])} "
                         f"scheduled for t={oldest[0]} (age {max(age, 0)} ticks)")
        if self.span_recorder is not None:
            stale = self.span_recorder.oldest_open(3)
            if stale:
                lines.append("oldest in-flight spans: " + "; ".join(stale))
        return "\n".join(lines)


class LegacyEvent:
    """A scheduled callback (legacy object-per-event engine)."""

    __slots__ = ("time", "seq", "callback", "args")

    def __init__(self, time: int, seq: int, callback: Callable[..., None],
                 args: tuple = ()) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args


class LegacyEngine:
    """The original object-at-a-time heapq engine (pre-batched core).

    The behavioural reference for ``tests/test_engine_parity.py`` and
    the baseline of ``benchmarks/test_engine_churn.py``; tests route
    ``build_system`` onto it by patching ``repro.sim.system.Engine``.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list = []
        self._seq: int = 0
        self.events_executed: int = 0
        self._running = False
        self.span_recorder = None

    def post(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        time = self.now + delay
        _heappush(self._queue, (time, seq, LegacyEvent(time, seq, callback, args)))
        self._seq = seq + 1

    def post_at(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute tick ``time``."""
        self.post(time - self.now, callback, *args)

    def post_many(self, items) -> None:
        """Batch spelling of :meth:`post_at`: N sequential schedules."""
        now = self.now
        queue = self._queue
        heappush = _heappush
        seq = self._seq
        for time, callback, args in items:
            if time < now:
                raise ValueError(
                    f"cannot schedule into the past (t={time} < now={now})")
            heappush(queue, (time, seq, LegacyEvent(time, seq, callback, args)))
            seq += 1
        self._seq = seq

    def pending(self) -> int:
        """Number of events still in the queue."""
        return len(self._queue)

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run until the queue drains, ``until`` ticks pass, or ``max_events``."""
        self._running = True
        gc_enabled = _gc.isenabled()
        if gc_enabled:
            _gc.disable()
        executed = 0
        queue = self._queue
        heappop = _heappop
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    self.now = until
                    break
                if max_events is not None and executed >= max_events:
                    self.events_executed += executed
                    executed = 0
                    raise SimulationLimitError(self.stall_digest(max_events))
                time, _seq, event = heappop(queue)
                self.now = time
                event.callback(*event.args)
                executed += 1
        finally:
            self._running = False
            self.events_executed += executed
            if gc_enabled:
                _gc.enable()
        return self.now

    def stall_digest(self, max_events: int | None = None) -> str:
        """Multi-line diagnosis of a stalled/livelocked run."""
        live = self._queue
        lines = [
            f"exceeded {max_events} events at t={self.now} "
            f"({len(live)} pending, {len(live)} live); "
            "likely livelock or deadlock retry storm"
        ]
        if live:
            counts: dict[str, int] = {}
            for _time, _seq, event in live:
                name = _callback_name(event.callback)
                counts[name] = counts.get(name, 0) + 1
            top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
            lines.append("top pending callbacks: "
                         + ", ".join(f"{name} x{count}" for name, count in top))
            oldest = min(live, key=lambda item: (item[0], item[1]))
            age = self.now - oldest[0]
            lines.append(f"oldest queued: {_callback_name(oldest[2].callback)} "
                         f"scheduled for t={oldest[0]} (age {max(age, 0)} ticks)")
        if self.span_recorder is not None:
            stale = self.span_recorder.oldest_open(3)
            if stale:
                lines.append("oldest in-flight spans: " + "; ".join(stale))
        return "\n".join(lines)


#: The engine every simulation runs on, and its name as recorded in
#: benchmark environment captures.
Engine = BatchedEngine
ENGINE_BACKEND = "python"
