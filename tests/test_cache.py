"""Unit tests for the cache array."""

import pytest

from repro.sim.cache import CacheArray
from repro.sim.config import LINE_BYTES


def small_cache(sets=4, assoc=2):
    return CacheArray(size_bytes=sets * assoc * LINE_BYTES, assoc=assoc)


def test_insert_and_lookup():
    cache = small_cache()
    cache.insert(0x10, state="S", data=42)
    line = cache.lookup(0x10)
    assert line is not None
    assert line.state == "S"
    assert line.data == 42


def test_miss_returns_none():
    cache = small_cache()
    assert cache.lookup(0x99) is None


def test_lru_victim_is_oldest_touched():
    cache = small_cache(sets=1, assoc=2)
    cache.insert(0, state="S")
    cache.insert(1, state="S")
    cache.lookup(0)  # refresh 0; victim should now be 1
    victim = cache.victim_for(2)
    assert victim is not None and victim.addr == 1


def test_victim_skips_pinned_states():
    cache = small_cache(sets=1, assoc=2)
    cache.insert(0, state="IS_D")
    cache.insert(1, state="M")
    victim = cache.victim_for(2, pinned={"IS_D"})
    assert victim is not None and victim.addr == 1


def test_victim_none_when_all_pinned():
    cache = small_cache(sets=1, assoc=2)
    cache.insert(0, state="IM_D")
    cache.insert(1, state="IS_D")
    assert cache.victim_for(2, pinned={"IM_D", "IS_D"}) is None


def test_no_victim_needed_when_room():
    cache = small_cache(sets=1, assoc=2)
    cache.insert(0, state="S")
    assert cache.victim_for(2) is None
    assert cache.has_room(2)


def test_insert_full_set_raises():
    cache = small_cache(sets=1, assoc=2)
    cache.insert(0)
    cache.insert(1)
    with pytest.raises(ValueError):
        cache.insert(2)


def test_duplicate_insert_raises():
    cache = small_cache()
    cache.insert(0x10)
    with pytest.raises(ValueError):
        cache.insert(0x10)


def test_remove_returns_line():
    cache = small_cache()
    cache.insert(0x10, state="M", data=5)
    line = cache.remove(0x10)
    assert line.data == 5
    assert cache.lookup(0x10) is None
    with pytest.raises(KeyError):
        cache.remove(0x10)


def test_set_mapping_isolates_addresses():
    cache = small_cache(sets=4, assoc=1)
    cache.insert(0)  # set 0
    cache.insert(1)  # set 1
    assert len(cache.index) == 2
    assert cache.victim_for(4) is not None  # set 0 full (assoc 1)
    assert cache.victim_for(2) is None  # set 2 empty


def test_peek_does_not_touch_lru():
    cache = small_cache(sets=1, assoc=2)
    cache.insert(0)
    cache.insert(1)
    cache.peek(0)
    victim = cache.victim_for(2)
    assert victim is not None and victim.addr == 0


def test_line_order_survives_remove_and_reinsert():
    """lines() walks sets in index order, LRU order within a set,
    through a set emptying and being created again; the address index
    holds the same line objects in insertion order."""
    cache = small_cache(sets=4, assoc=4)
    inserted = [0x8, 0x4, 0x1, 0x0]  # sets 0, 0, 1, 0
    for addr in inserted:
        cache.insert(addr)

    def order():
        lines = cache.lines()
        assert list(cache.index) == inserted
        assert sorted(cache.index.values(), key=lines.index) == lines
        assert all(line.addr == addr and cache.peek(addr) is line
                   for addr, line in cache.index.items())
        return [line.addr for line in lines]

    assert order() == [0x8, 0x4, 0x0, 0x1]
    cache.remove(0x4)
    inserted.remove(0x4)
    assert order() == [0x8, 0x0, 0x1]
    cache.remove(0x8)
    cache.remove(0x0)  # set 0 is empty now
    inserted[:] = [0x1]
    assert order() == [0x1]
    cache.insert(0x3)  # set 3, created before set 0 is created again
    cache.insert(0x4)
    cache.insert(0x0)
    inserted += [0x3, 0x4, 0x0]
    assert order() == [0x4, 0x0, 0x1, 0x3]
    cache.lookup(0x4)  # LRU refresh moves 0x4 behind 0x0, not in the index
    assert order() == [0x0, 0x4, 0x1, 0x3]
    assert cache.first({0x1, 0x4, 0x3}) == 0x4
    assert cache.first({0x3, 0x1}) == 0x1
    assert cache.set_addrs(0) == [0x0, 0x4] and cache.set_addrs(2) == []
    assert len(cache.index) == 4


def test_large_array_allocates_no_sets_before_first_insert():
    """A 4 MiB, 8-way array (8,192 sets) holds no per-set storage until
    a line arrives, and drops a set again with its last line."""
    import tracemalloc

    tracemalloc.start()
    try:
        cache = CacheArray(size_bytes=4 * 1024 * 1024, assoc=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cache.num_sets == 8192
    assert peak < 4096
    assert cache._sets == {} and cache.lines() == []
    assert cache.lookup(0x1234) is None and cache.has_room(0x1234)
    cache.insert(0x1234)
    assert list(cache._sets) == [0x1234 % 8192]
    cache.remove(0x1234)
    assert cache._sets == {} and cache.index == {}


def test_clear_drops_every_set_and_index_entry():
    cache = small_cache(sets=4, assoc=2)
    for addr in (0x0, 0x4, 0x1):
        cache.insert(addr)
    cache.clear()
    assert cache._sets == {} and cache.index == {} and cache.lines() == []
    assert cache.peek(0x4) is None and cache.lookup(0x4) is None
    cache.insert(0x4)
    assert [line.addr for line in cache.lines()] == [0x4]
