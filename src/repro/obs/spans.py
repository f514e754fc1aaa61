"""Transaction spans: per-op tracing with a runtime Rule-II audit.

A :class:`Span` is one timed phase of a memory operation's life:

- ``op``      -- the core-visible operation, opened at the L1 when the
  request enters the controller and closed when its callback fires;
- ``txn``     -- a local directory transaction inside the C3 bridge
  (GetS/GetM/RCC read/write), a child of the op that triggered it;
- ``global``  -- an upward crossing into the global protocol (MemRd or
  hierarchical GetS/GetM), a child of its local transaction;
- ``snoop``   -- a downward crossing (BISnp / Inv / Fwd) being served
  by a bridge on behalf of the global domain;
- ``recall``  -- the nested local reclaim a snoop (or eviction)
  delegates into the cluster, a child of the crossing that caused it;
- ``wb``      -- an outstanding writeback sequence toward the home.

Closing a ``global`` span folds its duration into the root op span's
``bridged_ticks`` and its accumulated per-message delays into
``network_ticks``, giving the per-phase attribution the Fig. 11
analysis needs: *origin-domain* time is whatever remains.

The **runtime Rule-II audit** is the dynamic complement of the static
N001-N004 rules in :mod:`repro.analysis.rule2`.  Two checks:

- ``R2-NEST`` -- a span closed while a *crossing* child span
  (global/snoop/recall) it spawned was still open: the parent
  transaction completed before its nested transaction, so the nesting
  the paper's Rule II demands was broken structurally.
- ``R2-EARLY`` -- while a local recall was still collecting acks, its
  bridge sent a message *out of* the cluster for the same line: an
  origin-domain effect (snoop response, writeback) escaped before the
  nested local transaction finished.  This is exactly what
  ``violate_atomicity=True`` injects (the Fig. 4 experiment).

Both fire on the shipped protocols only if Rule II is actually broken;
see ``tests/test_obs.py`` for the eight-pairing clean sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.config import TICKS_PER_NS

#: Categories whose spans represent a domain crossing; these are the
#: spans the Rule-II nesting audit tracks.
CROSSING_CATS = frozenset({"global", "snoop", "recall"})


class Span:
    """One timed phase of a memory operation (see module docstring)."""

    __slots__ = ("sid", "name", "cat", "node", "addr", "start", "end",
                 "parent", "bridged_ticks", "network_ticks",
                 "open_crossing_children", "states", "extra")

    def __init__(self, sid: int, name: str, cat: str, node: str, addr: int,
                 start: int, parent: "Span | None" = None) -> None:
        self.sid = sid
        self.name = name
        self.cat = cat
        self.node = node
        self.addr = addr
        self.start = start
        self.end: int | None = None
        self.parent = parent
        self.bridged_ticks = 0
        self.network_ticks = 0
        self.open_crossing_children = 0
        self.states: list[str] | None = None  # compound states traversed
        self.extra = None  # cat-specific payload (the bridge, for recalls)

    @property
    def closed(self) -> bool:
        """Whether the span has completed."""
        return self.end is not None

    @property
    def duration(self) -> int:
        """Span length in ticks (0 while still open)."""
        return 0 if self.end is None else self.end - self.start

    def describe(self) -> str:
        """Short human-readable form used in digests and summaries."""
        state = f" t={self.start}..{self.end}" if self.closed else f" open since t={self.start}"
        return f"{self.cat}:{self.name} 0x{self.addr:x} @{self.node}{state}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.describe()}>"


@dataclass(frozen=True)
class NestingViolation:
    """One runtime Rule-II violation caught by the span audit."""

    time: int
    rule: str  # "R2-NEST" or "R2-EARLY"
    addr: int
    node: str
    detail: str

    def to_dict(self) -> dict:
        """Plain JSON-ready representation."""
        return {"time": self.time, "rule": self.rule, "addr": self.addr,
                "node": self.node, "detail": self.detail}

    def format(self) -> str:
        """One-line human-readable report."""
        return (f"{self.rule} at t={self.time / TICKS_PER_NS:.1f}ns "
                f"{self.node} line 0x{self.addr:x}: {self.detail}")


class SpanRecorder:
    """Collects spans for one simulated system.

    The recorder is the single object the instrumented components talk
    to (their ``obs`` attribute).  All open-span bookkeeping is keyed so
    every hook is O(1) amortized; when ``capacity`` is reached, new
    spans are counted in :attr:`dropped` instead of recorded, and every
    hook tolerates the resulting ``None`` span handles.
    """

    def __init__(self, engine, capacity: int = 250_000) -> None:
        self.engine = engine
        self.capacity = capacity
        self.spans: list[Span] = []
        self.dropped = 0
        self.open_count = 0
        self.violations: list[NestingViolation] = []
        # (node, addr) -> open op spans, oldest first.
        self._op_open: dict[tuple[str, int], list[Span]] = {}
        # addr -> open crossing spans (global/snoop/recall), oldest first.
        self._crossing_open: dict[int, list[Span]] = {}

    # ------------------------------------------------------------------
    # Opening spans.
    # ------------------------------------------------------------------
    def _new(self, name, cat, node, addr, parent=None, start=None) -> Span | None:
        if len(self.spans) >= self.capacity:
            self.dropped += 1
            return None
        span = Span(len(self.spans), name, cat, node, addr,
                    self.engine.now if start is None else start, parent)
        self.spans.append(span)
        self.open_count += 1
        if parent is not None and cat in CROSSING_CATS:
            parent.open_crossing_children += 1
        return span

    def open_op(self, node: str, kind: str, addr: int, t0: int) -> Span | None:
        """Open the root span for one core-visible memory op."""
        span = self._new(kind, "op", node, addr, start=t0)
        if span is not None:
            self._op_open.setdefault((node, addr), []).append(span)
        return span

    def op_wrapper(self, node, kind, addr, callback, t0):
        """Open an op span and return a callback that closes it first.

        The L1 controllers call this on the core's completion callback;
        the returned closure is marked (``_obs_close``) so retry paths
        that re-enter the request entry point never double-wrap.
        """
        span = self.open_op(node, kind, addr, t0)
        if span is None:
            return callback

        def _closing_callback(result, _span=span, _cb=callback, _close=self.close):
            _close(_span)
            _cb(result)

        _closing_callback._obs_close = True
        return _closing_callback

    def open_txn(self, node, addr, kind, requester, states=None) -> Span | None:
        """Open a bridge-local directory transaction span.

        Its parent is the oldest open op span of the requesting L1 on
        the same line (the op that sent the GetS/GetM), if any.
        """
        stack = self._op_open.get((requester, addr))
        span = self._new(kind, "txn", node, addr, stack[0] if stack else None)
        if span is not None and states is not None:
            span.states = [",".join(states)]
        return span

    def open_global(self, node, addr, want, parent=None) -> Span | None:
        """Open an upward crossing span (global MemRd / GetS / GetM)."""
        span = self._new(f"acquire-{want}", "global", node, addr, parent)
        if span is not None:
            self._crossing_open.setdefault(addr, []).append(span)
        return span

    def open_snoop(self, node, addr, kind) -> Span | None:
        """Open a downward crossing span for an incoming global snoop."""
        span = self._new(kind, "snoop", node, addr)
        if span is not None:
            self._crossing_open.setdefault(addr, []).append(span)
        return span

    def open_recall(self, bridge, addr, mode) -> Span | None:
        """Open a nested local-recall span.

        The parent is the innermost open crossing span of the same
        bridge on that line (the snoop or pending global request the
        recall serves); eviction-driven recalls have no parent.  The
        bridge rides on the span so the R2-EARLY message check knows
        which destinations are cluster-local.
        """
        node = bridge.node_id
        parent = None
        lst = self._crossing_open.get(addr)
        if lst:
            for candidate in reversed(lst):
                if candidate.node == node:
                    parent = candidate
                    break
        span = self._new(f"recall-{mode}", "recall", node, addr, parent)
        if span is not None:
            span.extra = bridge
            self._crossing_open.setdefault(addr, []).append(span)
        return span

    def open_wb(self, node, addr) -> Span | None:
        """Open a span for an outstanding writeback sequence."""
        return self._new("writeback", "wb", node, addr)

    # ------------------------------------------------------------------
    # Closing spans (and the structural Rule-II check).
    # ------------------------------------------------------------------
    def close(self, span: Span, states=None) -> None:
        """Close a span; runs attribution and the R2-NEST audit."""
        now = self.engine.now
        span.end = now
        self.open_count -= 1
        if states is not None:
            if span.states is None:
                span.states = []
            span.states.append(",".join(states))
        cat = span.cat
        if cat in CROSSING_CATS:
            lst = self._crossing_open.get(span.addr)
            if lst is not None:
                try:
                    lst.remove(span)
                except ValueError:  # pragma: no cover - closed twice
                    pass
                if not lst:
                    del self._crossing_open[span.addr]
            if cat == "global":
                # Per-phase attribution: the whole global phase counts
                # as bridged time on the op that caused it; network
                # delays accumulated by on_message ride along.
                root = span.parent
                while root is not None and root.cat != "op":
                    root = root.parent
                if root is not None:
                    root.bridged_ticks += now - span.start
                    root.network_ticks += span.network_ticks
        elif cat == "op":
            key = (span.node, span.addr)
            lst = self._op_open.get(key)
            if lst is not None:
                try:
                    lst.remove(span)
                except ValueError:  # pragma: no cover - closed twice
                    pass
                if not lst:
                    del self._op_open[key]
        parent = span.parent
        if parent is not None and cat in CROSSING_CATS:
            parent.open_crossing_children -= 1
        if span.open_crossing_children > 0:
            self.violations.append(NestingViolation(
                time=now, rule="R2-NEST", addr=span.addr, node=span.node,
                detail=(f"{cat}:{span.name} closed with "
                        f"{span.open_crossing_children} nested crossing "
                        "span(s) still open"),
            ))

    # ------------------------------------------------------------------
    # Network hook (attribution + the R2-EARLY message check).
    # ------------------------------------------------------------------
    def on_message(self, msg, delay: int) -> None:
        """Observe one network send (called from ``Network.send``)."""
        spans = self._crossing_open.get(msg.addr)
        if not spans:
            return
        src, dst = msg.src, msg.dst
        for span in spans:
            cat = span.cat
            if cat == "recall":
                bridge = span.extra
                if (src == bridge.node_id and dst != bridge.node_id
                        and dst not in bridge.local_ids):
                    self.violations.append(NestingViolation(
                        time=self.engine.now, rule="R2-EARLY", addr=msg.addr,
                        node=src,
                        detail=(f"{msg.kind} to {dst} left the cluster while "
                                f"the local recall of 0x{msg.addr:x} was "
                                "still collecting acks"),
                    ))
            elif cat == "global" and (src == span.node or dst == span.node):
                span.network_ticks += delay

    # ------------------------------------------------------------------
    # Queries / summaries.
    # ------------------------------------------------------------------
    def open_spans(self) -> list[Span]:
        """Every span not yet closed."""
        return [span for span in self.spans if span.end is None]

    def oldest_open(self, limit: int = 3) -> list[str]:
        """Descriptions of the longest-outstanding open spans."""
        stale = sorted(self.open_spans(), key=lambda s: s.start)[:limit]
        return [span.describe() for span in stale]

    def attribution(self) -> dict:
        """Aggregate per-phase latency attribution over closed op spans."""
        count = total = bridged = network = 0
        for span in self.spans:
            if span.cat != "op" or span.end is None:
                continue
            count += 1
            total += span.end - span.start
            bridged += span.bridged_ticks
            network += span.network_ticks
        origin = total - bridged
        return {
            "ops": count,
            "total_ticks": total,
            "origin_ticks": origin,
            "bridged_ticks": bridged,
            "network_ticks": network,
        }

    def stats_dict(self) -> dict:
        """JSON-ready span summary (counts, categories, attribution)."""
        by_cat: dict[str, int] = {}
        for span in self.spans:
            by_cat[span.cat] = by_cat.get(span.cat, 0) + 1
        return {
            "total": len(self.spans),
            "open": self.open_count,
            "dropped": self.dropped,
            "by_cat": dict(sorted(by_cat.items())),
            "attribution": self.attribution(),
        }
