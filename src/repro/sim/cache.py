"""Set-associative cache arrays with LRU replacement.

Addresses throughout the simulator are *line* addresses (one integer per
64-byte coherence unit), so the array maps a line address to a
:class:`CacheLine` holding the protocol state and the line's value.
"""

from __future__ import annotations

from typing import Any

from repro.sim.config import LINE_BYTES


class CacheLine:
    """One cache line: protocol state, value, and protocol scratch space.

    Slotted, with the ``meta`` scratch dict materialized on first
    access: most resident lines (every L1 line, and any home line the
    directory never annotates) carry no scratch state, so the common
    case is five fixed slots and no dict allocation at all.
    """

    __slots__ = ("addr", "state", "data", "dirty", "_meta")

    def __init__(self, addr: int, state: str = "I", data: int | None = None,
                 dirty: bool = False,
                 meta: dict[str, Any] | None = None) -> None:
        self.addr = addr
        self.state = state
        self.data = data
        self.dirty = dirty
        self._meta = meta

    @property
    def meta(self) -> dict[str, Any]:
        meta = self._meta
        if meta is None:
            meta = self._meta = {}
        return meta

    @meta.setter
    def meta(self, value: dict[str, Any]) -> None:
        self._meta = value

    def peek_meta(self, key: str, default: Any = None) -> Any:
        """Read one scratch entry without materializing the dict."""
        meta = self._meta
        return default if meta is None else meta.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CacheLine(addr={self.addr:#x}, state={self.state!r}, "
                f"data={self.data!r}, dirty={self.dirty}, "
                f"meta={self._meta or {}})")


class CacheArray:
    """A set-associative array of :class:`CacheLine` with per-set LRU.

    Lines in transient states (or otherwise pinned by an in-flight
    transaction) are never chosen as victims; ``victim_for`` returns
    ``None`` when every way of the target set is pinned, in which case
    the controller must retry after an outstanding transaction drains.

    Two views of the same line objects are kept current by ``insert``,
    ``remove``, ``clear`` and ``restore``:

    - ``_sets``: each non-empty set's LRU-ordered dict (oldest first),
      which victim choice and :meth:`lines` read;
    - ``index``: one flat ``{addr: line}`` dict in insertion order.
      ``peek`` and ``lookup`` are one ``get`` on it (a ``lookup`` hit
      also moves the line within its set), and every reader that does
      not depend on order iterates it: the invariant walk, the
      fingerprint parts, the bridge snapshot, quiescence.  It is
      read-only outside this class.

    :meth:`lines` is the one documented order: set order, LRU within.
    :meth:`first` picks the address of a few that :meth:`lines` lists
    first without building that list.
    """

    def __init__(self, size_bytes: int, assoc: int) -> None:
        if size_bytes % (assoc * LINE_BYTES):
            raise ValueError("cache size must be a multiple of assoc * line size")
        self.assoc = assoc
        self.num_sets = size_bytes // (assoc * LINE_BYTES)
        # Only non-empty sets exist, each an LRU-ordered dict (oldest
        # first): a set is created by its first insert and dropped by
        # its last remove.  Realistic configs have thousands of sets
        # while a litmus-scale run touches a handful of lines, so
        # building an array allocates nothing per set.
        self._sets: dict[int, dict[int, CacheLine]] = {}
        self.index: dict[int, CacheLine] = {}

    def lookup(self, addr: int, touch: bool = True) -> CacheLine | None:
        """Return the line if present; optionally refresh its LRU position."""
        line = self.index.get(addr)
        if line is not None and touch:
            cache_set = self._sets[addr % self.num_sets]
            del cache_set[addr]
            cache_set[addr] = line
        return line

    def peek(self, addr: int) -> CacheLine | None:
        """Lookup without LRU side effects."""
        return self.index.get(addr)

    def has_room(self, addr: int) -> bool:
        """Whether ``addr``'s set has a free way."""
        cache_set = self._sets.get(addr % self.num_sets)
        return cache_set is None or len(cache_set) < self.assoc

    def victim_for(self, addr: int, pinned: set[str] | None = None) -> CacheLine | None:
        """Choose the LRU victim in ``addr``'s set.

        ``pinned`` is the set of states that must not be evicted
        (transient states).  Returns ``None`` if the set is full of
        pinned lines.
        """
        cache_set = self._sets.get(addr % self.num_sets)
        if cache_set is None or len(cache_set) < self.assoc:
            return None
        pinned = pinned or set()
        for line in cache_set.values():  # oldest first
            if line.state not in pinned:
                return line
        return None

    def insert(self, addr: int, state: str = "I", data: int | None = None) -> CacheLine:
        """Allocate a line; the caller must have made room first."""
        if addr in self.index:
            raise ValueError(f"line 0x{addr:x} already present")
        index = addr % self.num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = {}
        elif len(cache_set) >= self.assoc:
            raise ValueError(f"set for 0x{addr:x} is full; evict first")
        line = CacheLine(addr, state, data)
        cache_set[addr] = line
        self.index[addr] = line
        return line

    def remove(self, addr: int) -> CacheLine:
        """Remove and return the line; KeyError if absent."""
        line = self.index.pop(addr, None)
        if line is None:
            raise KeyError(f"line 0x{addr:x} not present")
        index = addr % self.num_sets
        cache_set = self._sets[index]
        del cache_set[addr]
        if not cache_set:
            del self._sets[index]
        return line

    def clear(self) -> None:
        """Remove every line."""
        self._sets.clear()
        self.index.clear()

    def lines(self) -> list[CacheLine]:
        """Every resident line (set order, LRU within)."""
        sets = self._sets
        return [line for index in sorted(sets) for line in sets[index].values()]

    def first(self, addrs) -> int:
        """The address of ``addrs`` (a non-empty container of resident
        addresses) whose line :meth:`lines` lists first."""
        num_sets = self.num_sets
        for addr in self._sets[min(addr % num_sets for addr in addrs)]:
            if addr in addrs:
                return addr
        raise KeyError("no resident address given")

    def set_addrs(self, set_idx: int) -> list[int]:
        """Resident line addresses of one set, LRU order (oldest first)."""
        cache_set = self._sets.get(set_idx)
        return [] if cache_set is None else list(cache_set)

    # -- snapshots (repro.sim.system.System.snapshot) -------------------
    def snapshot(self) -> tuple:
        """Every non-empty set with its lines in LRU order, each line's
        fields and meta contents, and the index's order as a tuple of
        its lines.  Meta values are saved by reference: a mutable one
        (the bridge's directory record) is saved by its owner."""
        return ([
            (index, cache_set, [
                (line, line.state, line.data, line.dirty, line._meta,
                 None if line._meta is None else tuple(line._meta.items()))
                for line in cache_set.values()])
            for index, cache_set in self._sets.items()
        ], tuple(self.index.values()))

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`: the same set dicts and lines,
        in the same LRU order, and the index in its saved order."""
        saved_sets, order = state
        sets = self._sets
        sets.clear()
        for index, cache_set, lines in saved_sets:
            cache_set.clear()
            for line, line_state, data, dirty, meta, saved_meta in lines:
                line.state = line_state
                line.data = data
                line.dirty = dirty
                line._meta = meta
                if meta is not None:
                    meta.clear()
                    meta.update(saved_meta)
                cache_set[line.addr] = line
            sets[index] = cache_set
        by_addr = self.index
        by_addr.clear()
        for line in order:
            by_addr[line.addr] = line
