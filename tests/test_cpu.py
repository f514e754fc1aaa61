"""Unit tests for the core model and MCM engines against a fake L1."""

import random

import pytest

from repro.cpu.core import Core
from repro.cpu.isa import (
    FENCE,
    FENCE_FULL,
    FENCE_LD,
    FENCE_ST,
    RMW,
    ThreadProgram,
    fence,
    load,
    load_acquire,
    rmw,
    store,
    store_release,
)
from repro.cpu.mcm import DONE, ISSUED, PEND, RETIRED, SCHED, make_mcm
from repro.sim.engine import Engine
from repro.verify.axiomatic import _Adapter, reachable_states
from repro.verify.litmus import LITMUS_TESTS, materialize

CYCLE = 500


class FakeL1:
    """Flat memory with per-kind fixed latency; records global order."""

    def __init__(self, engine, load_latency=10 * CYCLE, store_latency=10 * CYCLE):
        self.engine = engine
        self.memory = {}
        self.load_latency = load_latency
        self.store_latency = store_latency
        self.performed = []  # (time, kind, addr, value)

    def would_hit(self, kind, addr):
        return True  # flat memory: prefetching is moot in these tests

    def core_request(self, kind, addr, value, callback):
        if kind.startswith("PREFETCH"):
            callback(None)
            return
        self._request(kind, addr, value, callback)

    def _request(self, kind, addr, value, callback):
        if kind in ("LOAD", "LOAD_ACQ"):
            latency = self.load_latency
        else:
            latency = self.store_latency
        self.engine.post(latency, self._perform, kind, addr, value, callback)

    def _perform(self, kind, addr, value, callback):
        if kind in ("LOAD", "LOAD_ACQ"):
            result = self.memory.get(addr, 0)
        elif kind == "RMW":
            result = self.memory.get(addr, 0)
            self.memory[addr] = result + value
        else:
            self.memory[addr] = value
            result = None
        self.performed.append((self.engine.now, kind, addr, value))
        callback(result)


def run_core(mcm, ops, window=8, l1_kwargs=None, engine=None):
    engine = engine or Engine()
    l1 = FakeL1(engine, **(l1_kwargs or {}))
    core = Core(engine, "c0", mcm, window=window, cycle=CYCLE)
    core.l1 = l1
    done_at = []
    core.run_program(ThreadProgram("t0", list(ops)), done_at.append)
    engine.run()
    assert done_at, "program never finished"
    return core, l1, done_at[0]


def test_sc_runs_serially():
    core, l1, finish = run_core("SC", [store(1, 10), store(2, 20), load(1, "r1")])
    times = [t for t, *_ in l1.performed]
    assert times == sorted(times)
    kinds = [k for _, k, *_ in l1.performed]
    assert kinds == ["STORE", "STORE", "LOAD"]
    assert core.regs["r1"] == 10
    # Serial: roughly 3 * 10-cycle accesses.
    assert finish >= 3 * 10 * CYCLE


def test_tso_load_overtakes_buffered_store():
    """Store-load reordering: the load completes while the store drains."""
    core, l1, _ = run_core(
        "TSO",
        [store(1, 10), load(2, "r1")],
        l1_kwargs={"store_latency": 100 * CYCLE, "load_latency": 5 * CYCLE},
    )
    order = [(k, a) for _, k, a, _ in l1.performed]
    assert order == [("LOAD", 2), ("STORE", 1)]


def test_tso_store_forwarding():
    core, l1, _ = run_core(
        "TSO",
        [store(1, 42), load(1, "r1")],
        l1_kwargs={"store_latency": 100 * CYCLE},
    )
    assert core.regs["r1"] == 42
    # The load never reached the L1: it forwarded from the store buffer.
    assert [k for _, k, *_ in l1.performed] == ["STORE"]


def test_tso_loads_perform_in_program_order():
    core, l1, _ = run_core("TSO", [load(1, "r1"), load(2, "r2"), load(3, "r3")])
    addrs = [a for _, k, a, _ in l1.performed if k == "LOAD"]
    assert addrs == [1, 2, 3]


def test_tso_stores_drain_fifo_one_at_a_time():
    core, l1, _ = run_core("TSO", [store(1, 1), store(2, 2), store(3, 3)])
    addrs = [a for _, k, a, _ in l1.performed]
    assert addrs == [1, 2, 3]
    times = [t for t, *_ in l1.performed]
    # Strict FIFO drain: each store starts only after the previous completes.
    assert times[1] - times[0] >= 10 * CYCLE
    assert times[2] - times[1] >= 10 * CYCLE


def test_tso_mfence_blocks_until_drain():
    core, l1, _ = run_core(
        "TSO",
        [store(1, 1), fence(), load(2, "r1")],
        l1_kwargs={"store_latency": 50 * CYCLE},
    )
    order = [(k, a) for _, k, a, _ in l1.performed]
    assert order == [("STORE", 1), ("LOAD", 2)]


def test_weak_stores_drain_in_parallel():
    core, l1, finish = run_core("WEAK", [store(i, i) for i in range(1, 5)])
    # Four stores at 10 cycles each overlap: far less than serial time.
    assert finish < 4 * 10 * CYCLE


def test_weak_same_address_stores_stay_ordered():
    core, l1, _ = run_core("WEAK", [store(1, 10), store(1, 20)])
    values = [v for _, k, a, v in l1.performed]
    assert values == [10, 20]
    assert l1.memory[1] == 20


def test_weak_load_may_overtake_older_load():
    """Different-address loads complete out of order when latencies differ."""
    engine = Engine()

    class SkewedL1(FakeL1):
        def _request(self, kind, addr, value, callback):
            latency = 100 * CYCLE if addr == 1 else 5 * CYCLE
            self.engine.post(latency, self._perform, kind, addr, value, callback)

    l1 = SkewedL1(engine)
    core = Core(engine, "c0", "WEAK", cycle=CYCLE)
    core.l1 = l1
    core.run_program(ThreadProgram("t", [load(1, "r1"), load(2, "r2")]), lambda t: None)
    engine.run()
    performed_addrs = [a for _, k, a, _ in l1.performed]
    assert performed_addrs == [2, 1]


def test_weak_dependency_orders_ops():
    ops = [load(1, "r1"), load(2, "r2", deps=(0,))]
    engine = Engine()

    class SkewedL1(FakeL1):
        def _request(self, kind, addr, value, callback):
            latency = 100 * CYCLE if addr == 1 else 5 * CYCLE
            self.engine.post(latency, self._perform, kind, addr, value, callback)

    l1 = SkewedL1(engine)
    core = Core(engine, "c0", "WEAK", cycle=CYCLE)
    core.l1 = l1
    core.run_program(ThreadProgram("t", ops), lambda t: None)
    engine.run()
    assert [a for _, k, a, _ in l1.performed] == [1, 2]


def test_weak_full_fence_orders_stores():
    core, l1, _ = run_core(
        "WEAK",
        [store(1, 1), fence(), store(2, 2)],
        l1_kwargs={"store_latency": 30 * CYCLE},
    )
    assert [a for _, k, a, _ in l1.performed] == [1, 2]


def test_weak_st_fence_orders_stores_but_not_loads():
    engine = Engine()
    l1 = FakeL1(engine, store_latency=100 * CYCLE, load_latency=5 * CYCLE)
    core = Core(engine, "c0", "WEAK", cycle=CYCLE)
    core.l1 = l1
    ops = [store(1, 1), fence(FENCE_ST), store(2, 2), load(3, "r1")]
    core.run_program(ThreadProgram("t", ops), lambda t: None)
    engine.run()
    kinds = [(k, a) for _, k, a, _ in l1.performed]
    # The load slips ahead of both stores; stores stay ordered.
    assert kinds[0] == ("LOAD", 3)
    assert kinds[1:] == [("STORE", 1), ("STORE", 2)]


def test_weak_acquire_blocks_later_ops():
    engine = Engine()
    l1 = FakeL1(engine, load_latency=50 * CYCLE)
    core = Core(engine, "c0", "WEAK", cycle=CYCLE)
    core.l1 = l1
    ops = [load_acquire(1, "r1"), load(2, "r2")]
    core.run_program(ThreadProgram("t", ops), lambda t: None)
    engine.run()
    assert [a for _, k, a, _ in l1.performed] == [1, 2]


def test_weak_release_waits_for_prior_ops():
    engine = Engine()
    l1 = FakeL1(engine, load_latency=80 * CYCLE, store_latency=10 * CYCLE)
    core = Core(engine, "c0", "WEAK", cycle=CYCLE)
    core.l1 = l1
    ops = [load(1, "r1"), store_release(2, 1)]
    core.run_program(ThreadProgram("t", ops), lambda t: None)
    engine.run()
    assert [(k, a) for _, k, a, _ in l1.performed] == [("LOAD", 1), ("STORE_REL", 2)]


def test_rmw_returns_old_value_and_serializes():
    core, l1, _ = run_core("TSO", [store(1, 5), rmw(1, 3, "old"), load(1, "r1")])
    assert core.regs["old"] == 5
    assert core.regs["r1"] == 8


def test_window_limits_inflight_ops():
    engine = Engine()
    inflight = {"now": 0, "max": 0}

    class CountingL1(FakeL1):
        def _request(self, kind, addr, value, callback):
            inflight["now"] += 1
            inflight["max"] = max(inflight["max"], inflight["now"])

            def done(v=None):
                inflight["now"] -= 1
                callback(v)

            self.engine.post(20 * CYCLE, self._perform, kind, addr, value, done)

    l1 = CountingL1(engine)
    core = Core(engine, "c0", "WEAK", window=4, cycle=CYCLE)
    core.l1 = l1
    ops = [load(i, f"r{i}") for i in range(20)]
    core.run_program(ThreadProgram("t", ops), lambda t: None)
    engine.run()
    assert inflight["max"] <= 4


def test_compute_gap_delays_issue():
    core, l1, finish_nogap = run_core("SC", [store(1, 1)])
    core, l1, finish_gap = run_core("SC", [store(1, 1, gap=100)])
    assert finish_gap >= finish_nogap + 100 * CYCLE


def test_empty_program_finishes_immediately():
    core, l1, finish = run_core("TSO", [])
    assert finish == 0


def test_dep_validation_rejects_forward_deps():
    program = ThreadProgram("t", [load(1, "r1", deps=(1,))])
    with pytest.raises(ValueError):
        program.validate()


# ---------------------------------------------------------------------------
# ``in_order``: the scan asks an in-order engine about the head op alone.
# ---------------------------------------------------------------------------

def _later_ops_that_pass(mcm, ops, status):
    """PEND ops after the head (oldest op below RETIRED) that pass their
    test: ``fence_done`` for a fence, ``can_issue`` for anything else."""
    adapter = _Adapter(ops, list(status))
    head = next((i for i, s in enumerate(status) if s < RETIRED), len(status))
    passing = []
    for i in range(head + 1, len(ops)):
        if status[i] != PEND:
            continue
        test = mcm.fence_done if ops[i].kind == FENCE else mcm.can_issue
        if test(i, adapter):
            passing.append(i)
    return passing


def _litmus_vectors(name):
    """Every per-thread (ops, statuses) pair the axiomatic enumeration
    reaches on the litmus catalogue, with and without synchronization."""
    vectors = []
    for test in LITMUS_TESTS:
        mcms = [name] * test.num_threads
        for sync in (True, False):
            programs = materialize(test, mcms, sync=sync)
            seen = [set() for _ in programs]
            for state, _ in reachable_states(programs, mcms):
                for tid, status in enumerate(state[0]):
                    seen[tid].add(status)
            for program, statuses in zip(programs, seen):
                vectors.extend((program.ops, status) for status in statuses)
    return vectors


def _random_vectors(mcm, rng, programs=300):
    """Random programs, each walked through monotone status vectors: one
    op at a time moves up the ladder the core gives its kind."""
    makers = [
        lambda i: load(rng.randrange(3), "r", deps=_deps(rng, i)),
        lambda i: store(rng.randrange(3), 1, deps=_deps(rng, i)),
        lambda i: rmw(rng.randrange(3)),
        lambda i: load_acquire(rng.randrange(3)),
        lambda i: store_release(rng.randrange(3), 1),
        lambda i: fence(rng.choice((FENCE_FULL, FENCE_LD, FENCE_ST))),
    ]
    vectors = []
    for _ in range(programs):
        ops = [rng.choice(makers)(i) for i in range(rng.randint(2, 8))]
        ladders = [_ladder(op, mcm) for op in ops]
        steps = [0] * len(ops)
        while True:
            vectors.append((ops, tuple(ladder[k] for ladder, k in zip(ladders, steps))))
            movable = [i for i, k in enumerate(steps) if k + 1 < len(ladders[i])]
            if not movable:
                break
            i = rng.choice(movable)
            steps[i] = rng.randrange(steps[i] + 1, len(ladders[i]))
    return vectors


def _deps(rng, i):
    return tuple(sorted(rng.sample(range(i), rng.randint(0, min(i, 2)))))


def _ladder(op, mcm):
    if op.kind == FENCE:
        return (PEND, DONE)
    if op.is_write and op.kind != RMW and mcm.uses_store_buffer:
        return (PEND, SCHED, RETIRED, DONE)
    return (PEND, SCHED, ISSUED, DONE)


#: A load in flight and an independent load behind it: the later load
#: may issue under the weak models.
_OVERTAKING_LOAD = ([load(1, "r1"), load(2, "r2")], (ISSUED, PEND))


@pytest.mark.parametrize("name", ["SC", "TSO", "WEAK", "RCC"])
def test_in_order_matches_the_ordering_rules(name):
    """``in_order`` holds exactly when no PEND op after the head passes,
    over every status vector the litmus enumeration reaches, random
    monotone vectors and one overtaking-load program."""
    mcm = make_mcm(name)
    vectors = _litmus_vectors(name) + _random_vectors(mcm, random.Random(11))
    vectors.append(_OVERTAKING_LOAD)
    later = [(ops, status, i) for ops, status in vectors
             for i in _later_ops_that_pass(mcm, ops, status)]
    if mcm.in_order:
        assert not later, later[0]
    else:
        assert _later_ops_that_pass(mcm, *_OVERTAKING_LOAD) == [1]


def _checks_per_scan(core):
    """Record, for each scan, the op index of every ``can_issue`` and
    ``fence_done`` call it makes."""
    scans = []
    mcm = core.mcm
    for name in ("can_issue", "fence_done"):
        def counted(i, c, predicate=getattr(mcm, name)):
            scans[-1].append(i)
            return predicate(i, c)
        setattr(mcm, name, counted)

    def counted_scan(scan=core._scan):
        scans.append([])
        scan()
    core._scan = counted_scan
    return scans


def test_tso_scan_asks_only_about_the_head():
    """The head load misses; seven independent gapped loads wait behind
    it.  Each scan asks about one op, never the whole window."""
    engine = Engine()

    class MissingHeadL1(FakeL1):
        def _request(self, kind, addr, value, callback):
            latency = 200 * CYCLE if addr == 0 else 5 * CYCLE
            self.engine.post(latency, self._perform, kind, addr, value, callback)

    l1 = MissingHeadL1(engine)
    core = Core(engine, "c0", "TSO", cycle=CYCLE)
    core.l1 = l1
    scans = _checks_per_scan(core)
    ops = [load(0, "r0")] + [load(a, f"r{a}", gap=3) for a in range(1, 8)]
    core.run_program(ThreadProgram("t", ops), lambda t: None)
    engine.run()
    assert [a for _, k, a, _ in l1.performed] == list(range(8))
    assert [len(calls) for calls in scans if calls] == [1] * 8, scans


def test_weak_scan_that_only_schedules_does_not_rescan():
    """Scheduling gapped ops (PEND -> SCHED) unblocks nothing, so a scan
    asks about each blocked op once."""
    engine = Engine()
    l1 = FakeL1(engine)
    core = Core(engine, "c0", "WEAK", cycle=CYCLE)
    core.l1 = l1
    scans = _checks_per_scan(core)
    ops = [load(1, "r1", gap=4), load(2, "r2", gap=4),
           load(3, "r3", deps=(0,)), fence(FENCE_LD), load(4, "r4")]
    core.run_program(ThreadProgram("t", ops), lambda t: None)
    engine.run()
    assert scans[0] == [0, 1, 2, 3, 4], scans[0]
    assert all(len(calls) == len(set(calls)) for calls in scans), scans
    assert [a for _, k, a, _ in l1.performed] == [1, 2, 3, 4]
