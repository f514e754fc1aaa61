"""Discrete-event engine.

Time is measured in integer **ticks**.  The rest of the package uses one
tick = 1 ps, giving exact representations of both CPU cycles and
nanosecond-scale link latencies (see :class:`repro.sim.config.SystemConfig`).

Events are ordered by ``(time, insertion order)``: FIFO among same-tick
events, with lazy cancellation.  Two classes implement that contract
and produce bit-identical simulations:

- :class:`BatchedEngine`, bound as ``Engine`` and the one engine every
  simulation runs on: a slotted calendar queue.  Events live in
  per-tick buckets (records in flat ``[callback, args]`` /
  ``(callback, args)`` cells); the heap orders only the *distinct
  pending ticks* (plain ints, so heap comparisons never touch Python
  objects), and ``run()`` drains each tick's bucket in one inner loop
  with the ``until`` check hoisted per batch.  Steady-state scheduling
  allocates one record cell and nothing else -- no per-event handle
  object unless the caller asks for one.  The bucket layout is private
  to this module: callers schedule through ``post``/``post_at``/
  ``post_many``/``schedule``.
- :class:`LegacyEngine`: the original object-at-a-time heapq loop.  It
  is the reference implementation the parity tests
  (``tests/test_engine_parity.py``) compare against; nothing selects it
  at run time.

**The facade contract for handles:** ``schedule()`` returns an
:class:`Event` view over the queued record.  ``event.cancel()`` is
idempotent, O(1), and only suppresses the callback if it has not fired
yet; ``event.cancelled`` reports whether *cancel was called*, never
whether the event fired.  ``post()`` is the allocation-lean hot-path
spelling used by the simulator's own components: identical scheduling
semantics, but no handle is created and the event cannot be cancelled.
"""

from __future__ import annotations

import gc as _gc
import heapq
import sys
import time as _time_mod
from typing import Any, Callable

_heappush = heapq.heappush
_heappop = heapq.heappop
_UNBOUNDED = sys.maxsize


def _callback_name(callback: Callable) -> str:
    """Stable short name for a scheduled callback (digests, profiles)."""
    name = getattr(callback, "__qualname__", None)
    if name is None:
        name = getattr(type(callback), "__qualname__", repr(callback))
    return name


class SimulationLimitError(RuntimeError):
    """Raised when a run exceeds its event budget (deadlock watchdog)."""


class SimulationDeadlockError(RuntimeError):
    """Raised when the event queue drains while work is still outstanding."""


class Event:
    """A cancellable handle over one scheduled callback.

    The handle is a lightweight view over the engine's queued record:
    it holds the record cell (``[callback, args]``) plus the absolute
    ``time``, and cancellation flips the record's callback to ``None``
    so the drain loop skips it -- O(1), no queue surgery.
    """

    __slots__ = ("_engine", "_record", "time", "_cancelled")

    def __init__(self, engine: "BatchedEngine", time: int, record: list) -> None:
        self._engine = engine
        self._record = record
        self.time = time
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called (even post-fire)."""
        return self._cancelled

    @property
    def callback(self):
        rec = self._record
        return rec[2] if rec[0] is None else rec[0]

    @property
    def args(self) -> tuple:
        return self._record[1]

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its tick drains."""
        if self._cancelled:
            return
        self._cancelled = True
        record = self._record
        if record[0] is not None:
            # Still pending: neutralize the record and keep the live
            # counter exact.  A fired record was already neutralized by
            # the drain loop, so a late cancel is a no-op here.
            record[0] = None
            self._engine._cancelled_valid += 1


class BatchedEngine:
    """Deterministic discrete-event engine over a slotted calendar queue.

    ``_buckets`` maps an absolute tick to either a single ``(callback,
    args)`` tuple (the common sparse case: one event on that tick) or a
    list of record cells in insertion order.  ``_ticks`` is a heap of
    the distinct pending tick values, so every heap operation compares
    plain ints.  Records created by :meth:`schedule` are 3-slot lists
    ``[callback, args, args_backup]`` so a handle can cancel them (and
    still report callback/args afterwards); records created by
    :meth:`post` are immutable tuples with no handle overhead.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._buckets: dict = {}
        self._ticks: list[int] = []
        self.events_executed: int = 0
        self._posted: int = 0
        self._cancelled_valid: int = 0
        self._running = False
        # Observability attachments (repro.obs); None keeps the hot run
        # loop untouched -- run() checks them exactly once per call.
        self.sampler = None
        self.span_recorder = None

    # -- scheduling ----------------------------------------------------
    def post(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` in ``delay`` ticks; no handle.

        The allocation-lean hot path: semantics identical to
        :meth:`schedule` but nothing is returned, so the event cannot
        be cancelled.  This is what the simulator's own components use.
        """
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
        self._posted += 1

    def post_at(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule at absolute tick ``time``; no handle (hot path)."""
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
        self._posted += 1

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
        n = 0
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
            n += 1
        self._posted += n

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ticks from now.

        Returns the :class:`Event`, which may be cancelled before it fires.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        t = self.now + delay
        record = [callback, args, callback]
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            # Handle-bearing records always live in a list bucket so a
            # 3-slot record cell is never mistaken for a bucket.
            buckets[t] = [record]
            _heappush(self._ticks, t)
        elif bucket.__class__ is list:
            bucket.append(record)
        else:
            buckets[t] = [bucket, record]
        self._posted += 1
        return Event(self, t, record)

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute tick ``time``."""
        return self.schedule(time - self.now, callback, *args)

    # -- introspection -------------------------------------------------
    def pending(self) -> int:
        """Number of events still in the queue (including cancelled)."""
        return sum(len(b) if b.__class__ is list else 1
                   for b in self._buckets.values())

    def pending_live(self) -> int:
        """Number of queued events that will actually fire (not cancelled).

        O(1): maintained from the posted / executed / cancelled
        counters instead of scanning the queue -- the watchdog digest
        calls this exactly when the queue is huge.
        """
        return self._posted - self.events_executed - self._cancelled_valid

    # -- snapshots (repro.sim.system.System.snapshot) -------------------
    def snapshot(self) -> tuple:
        """Clock and counters of an idle engine.

        Only an empty queue can be saved: queued records hold callbacks
        whose arguments a snapshot does not copy.
        """
        if self._ticks:
            raise ValueError("cannot snapshot an engine with queued events")
        return self.now, self.events_executed, self._posted, self._cancelled_valid

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`: its clock and counters, nothing
        queued (a callback that raised may have left records behind)."""
        self.now, self.events_executed, self._posted, self._cancelled_valid = state
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
        if self.sampler is not None:
            return self._run_sampled(until, max_events)
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
                        # Budget check first, even for cancelled
                        # records: the legacy watchdog raises whenever
                        # the queue is non-empty at the budget, live or
                        # not, and backends must agree exactly.
                        if executed >= budget:
                            self._requeue_from(batch, t, record, consumed=False)
                            executed = self._fold(executed)
                            raise SimulationLimitError(
                                self.stall_digest(max_events))
                        cb = record[0]
                        if cb is None:
                            continue
                        if record.__class__ is list:
                            # Neutralize handle records *before* the
                            # call so a reentrant cancel of the firing
                            # event cannot skew the live counter.
                            record[0] = None
                        self.now = t
                        cb(*record[1])
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

    def _run_sampled(self, until: int | None, max_events: int | None) -> int:
        """Instrumented run loop used when an ``EngineSampler`` is attached.

        Times every callback with ``perf_counter`` and subsamples queue
        depth every ``sampler.sample_every`` events.  Kept separate
        from :meth:`run` so the uninstrumented loop stays
        allocation-free; scheduling order is identical, so sampled and
        unsampled runs produce bit-identical simulations.
        """
        sampler = self.sampler
        perf = _time_mod.perf_counter
        every = sampler.sample_every
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
                    # Normalize so the loop below (and any same-tick
                    # appends from callbacks) sees one live list.
                    batch = [batch]
                    buckets[t] = batch
                record = None
                try:
                    for record in batch:
                        if executed >= budget:
                            self._requeue_from(batch, t, record, consumed=False)
                            executed = self._fold(executed)
                            raise SimulationLimitError(
                                self.stall_digest(max_events))
                        cb = record[0]
                        if cb is None:
                            continue
                        if record.__class__ is list:
                            record[0] = None
                        self.now = t
                        t0 = perf()
                        cb(*record[1])
                        elapsed = perf() - t0
                        depth = self.pending() if executed % every == 0 else None
                        sampler.record(_callback_name(cb), elapsed, depth)
                        executed += 1
                except SimulationLimitError:
                    raise
                except BaseException:
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
        pending = 0
        live: list[tuple[int, int, Callable]] = []
        order = 0
        for t, record in self._queued_records():
            pending += 1
            if record[0] is not None:
                live.append((t, order, record[0]))
            order += 1
        lines = [
            f"exceeded {max_events} events at t={self.now} "
            f"({pending} pending, {len(live)} live); "
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

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: int, seq: int, callback: Callable[..., None],
                 args: tuple = ()) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


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
        self.sampler = None
        self.span_recorder = None

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> LegacyEvent:
        """Schedule ``callback(*args)`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        event = LegacyEvent(self.now + delay, seq, callback, args)
        _heappush(self._queue, (event.time, seq, event))
        self._seq = seq + 1
        return event

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> LegacyEvent:
        """Schedule ``callback(*args)`` at absolute tick ``time``."""
        return self.schedule(time - self.now, callback, *args)

    # The hot-path spellings resolve to plain scheduling here, so the
    # legacy engine stays a drop-in backend for parity runs.
    def post(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` in ``delay`` ticks, discarding the handle."""
        self.schedule(delay, callback, *args)

    def post_at(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule at absolute tick ``time``, discarding the handle."""
        self.schedule(time - self.now, callback, *args)

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
        """Number of events still in the queue (including cancelled)."""
        return len(self._queue)

    def pending_live(self) -> int:
        """Number of queued events that will actually fire (O(n) scan)."""
        return sum(1 for _time, _seq, event in self._queue
                   if not event.cancelled)

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run until the queue drains, ``until`` ticks pass, or ``max_events``."""
        if self.sampler is not None:
            return self._run_sampled(until, max_events)
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
                if event.cancelled:
                    continue
                self.now = time
                event.callback(*event.args)
                executed += 1
        finally:
            self._running = False
            self.events_executed += executed
            if gc_enabled:
                _gc.enable()
        return self.now

    def _run_sampled(self, until: int | None, max_events: int | None) -> int:
        sampler = self.sampler
        perf = _time_mod.perf_counter
        every = sampler.sample_every
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
                if event.cancelled:
                    continue
                self.now = time
                t0 = perf()
                event.callback(*event.args)
                elapsed = perf() - t0
                depth = len(queue) if executed % every == 0 else None
                sampler.record(_callback_name(event.callback), elapsed, depth)
                executed += 1
        finally:
            self._running = False
            self.events_executed += executed
            if gc_enabled:
                _gc.enable()
        return self.now

    def stall_digest(self, max_events: int | None = None) -> str:
        """Multi-line diagnosis of a stalled/livelocked run."""
        lines = [
            f"exceeded {max_events} events at t={self.now} "
            f"({self.pending()} pending, {self.pending_live()} live); "
            "likely livelock or deadlock retry storm"
        ]
        live = [(time, seq, event) for time, seq, event in self._queue
                if not event.cancelled]
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
