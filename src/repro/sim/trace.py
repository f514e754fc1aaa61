"""Protocol tracing: record and render coherence message flows.

A :class:`MessageTracer` subscribes to a live network's
:attr:`~repro.sim.network.Network.observers` and records every message
the network counts -- dropped and duplicated ones included -- at send
time (optionally filtered by line address or message kind).  Two
renderers:

- :meth:`MessageTracer.timeline` -- a flat, time-ordered log;
- :meth:`MessageTracer.lanes` -- an ASCII swim-lane diagram in the
  style of the paper's Fig. 2 flow figures, one column per agent.

Useful both for debugging protocol changes and for *teaching*: the
`examples/conflict_races.py` script uses it to show an actual
BIConflict handshake as it happened on the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.protocols.messages import Message
from repro.sim.config import TICKS_PER_NS


@dataclass(frozen=True)
class TraceEntry:
    time: int
    msg_kind: str
    addr: int
    src: str
    dst: str
    meta: str | None
    data: int | None

    def describe(self) -> str:
        """Short human-readable message description."""
        meta = f",{self.meta}" if self.meta else ""
        data = f" [{self.data}]" if self.data is not None else ""
        return f"{self.msg_kind}{meta}{data}"


class MessageTracer:
    """Records messages sent on a network (at send time)."""

    def __init__(self, network, addrs=None, kinds=None, capacity: int = 100_000):
        self.network = network
        self.addrs = set(addrs) if addrs is not None else None
        self.kinds = set(kinds) if kinds is not None else None
        self.capacity = capacity
        self.entries: list[TraceEntry] = []
        self.dropped = 0  # matching messages lost to the capacity cap
        network.add_observer(self)

    def on_message(self, msg: Message, delay: int) -> None:
        """Record one counted message (a network observer)."""
        if self._match(msg):
            if len(self.entries) < self.capacity:
                self.entries.append(TraceEntry(
                    self.network.engine.now, msg.kind, msg.addr,
                    msg.src, msg.dst, msg.meta, msg.data,
                ))
            else:
                self.dropped += 1

    def _truncation_note(self) -> str:
        """Warning line appended to renderings when entries were dropped."""
        return (f"[truncated: {self.dropped} matching messages dropped "
                f"at capacity {self.capacity}]")

    def _match(self, msg: Message) -> bool:
        if self.addrs is not None and msg.addr not in self.addrs:
            return False
        if self.kinds is not None and msg.kind not in self.kinds:
            return False
        return True

    def detach(self) -> None:
        """Stop tracing; the network's other observers keep theirs."""
        self.network.remove_observer(self)

    # ------------------------------------------------------------------
    def timeline(self, addr: int | None = None, limit: int | None = None) -> str:
        """Flat time-ordered log of recorded messages."""
        entries = [e for e in self.entries if addr is None or e.addr == addr]
        if limit is not None:
            entries = entries[:limit]
        lines = []
        for entry in entries:
            ns = entry.time / TICKS_PER_NS
            lines.append(
                f"t={ns:10.1f}ns  {entry.src:>8} -> {entry.dst:<8} "
                f"{entry.describe()}  (line 0x{entry.addr:x})"
            )
        if self.dropped:
            lines.append(self._truncation_note())
        return "\n".join(lines)

    def lanes(self, addr: int, agents: list[str] | None = None,
              limit: int | None = None, width: int = 16) -> str:
        """ASCII swim-lane rendering of one line's traffic (Fig. 2 style)."""
        entries = [e for e in self.entries if e.addr == addr]
        if limit is not None:
            entries = entries[:limit]
        if agents is None:
            seen: list[str] = []
            for entry in entries:
                for agent in (entry.src, entry.dst):
                    if agent not in seen:
                        seen.append(agent)
            agents = seen
        column = {agent: index for index, agent in enumerate(agents)}
        header = "time(ns)".ljust(12) + "".join(a.center(width) for a in agents)
        lines = [header, "-" * len(header)]
        for entry in entries:
            if entry.src not in column or entry.dst not in column:
                continue
            lo = min(column[entry.src], column[entry.dst])
            hi = max(column[entry.src], column[entry.dst])
            cells = []
            for index in range(len(agents)):
                if index == column[entry.src]:
                    cells.append(("*--" if column[entry.dst] > index else "--*")
                                 .center(width, " "))
                elif index == column[entry.dst]:
                    cells.append((">--" if column[entry.src] > index else "-->")
                                 .center(width, " "))
                elif lo < index < hi:
                    cells.append("-" * width)
                else:
                    cells.append(" " * width)
            row = f"{entry.time / TICKS_PER_NS:<12.1f}" + "".join(cells)
            lines.append(row.rstrip() + f"   {entry.describe()}")
        if self.dropped:
            lines.append(self._truncation_note())
        return "\n".join(lines)

    def count(self, kind: str | None = None, addr: int | None = None) -> int:
        """Number of recorded messages matching the filters."""
        return sum(
            1 for e in self.entries
            if (kind is None or e.msg_kind == kind)
            and (addr is None or e.addr == addr)
        )
