"""DRAM device model.

A deliberately small DDR5 model: a fixed device latency plus a single
channel that serializes accesses (one access per ``channel_occupancy``
ticks).  The home directory / DCOH uses it to time data fetches and
writebacks; backing-store *values* live in :class:`BackingStore`.
"""

from __future__ import annotations

from repro.sim.config import SystemConfig, ns


class MemoryModel:
    """Timing-only DRAM model with single-channel queueing."""

    def __init__(self, config: SystemConfig) -> None:
        self.latency = ns(config.mem_latency_ns)
        # DDR5-4400, 64-byte line over a 8-byte-wide channel at 4400 MT/s:
        # 8 transfers, ~1.8 ns of data-bus occupancy.
        self.channel_occupancy = ns(1.8)
        self._channel_free_at = 0
        self.reads = 0
        self.writes = 0

    def access(self, now: int, is_write: bool) -> int:
        """Return the tick at which an access issued at ``now`` completes."""
        start = max(now, self._channel_free_at)
        self._channel_free_at = start + self.channel_occupancy
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        return start + self.latency

    def snapshot(self) -> tuple:
        """Channel occupancy and access counters, for :meth:`restore`."""
        return self._channel_free_at, self.reads, self.writes

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`."""
        self._channel_free_at, self.reads, self.writes = state


class BackingStore:
    """Value state of the (remote CXL) memory: line address -> value."""

    def __init__(self, default: int = 0) -> None:
        self._values: dict[int, int] = {}
        self._default = default

    def read(self, addr: int) -> int:
        """Current value of a line."""
        return self._values.get(addr, self._default)

    def write(self, addr: int, value: int) -> None:
        """Overwrite a line's value."""
        self._values[addr] = value

    def snapshot(self) -> dict[int, int]:
        """Copy of all explicitly written lines."""
        return dict(self._values)

    def restore(self, values: dict[int, int]) -> None:
        """Back to a :meth:`snapshot`, in the same dict."""
        self._values.clear()
        self._values.update(values)
