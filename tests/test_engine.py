"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationLimitError


def test_events_run_in_time_order():
    engine = Engine()
    order = []
    engine.post(30, order.append, "c")
    engine.post(10, order.append, "a")
    engine.post(20, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 30


def test_same_tick_events_are_fifo():
    engine = Engine()
    order = []
    for name in "abcde":
        engine.post(5, order.append, name)
    engine.run()
    assert order == list("abcde")


def test_nested_scheduling_advances_time():
    engine = Engine()
    seen = []

    def first():
        seen.append(engine.now)
        engine.post(7, second)

    def second():
        seen.append(engine.now)

    engine.post(3, first)
    engine.run()
    assert seen == [3, 10]


def test_run_until_stops_at_boundary():
    engine = Engine()
    fired = []
    engine.post(5, fired.append, "a")
    engine.post(50, fired.append, "b")
    engine.run(until=10)
    assert fired == ["a"]
    assert engine.now == 10
    engine.run()
    assert fired == ["a", "b"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.post(-1, lambda: None)


def test_max_events_watchdog_detects_livelock():
    engine = Engine()

    def spin():
        engine.post(1, spin)

    engine.post(0, spin)
    with pytest.raises(SimulationLimitError):
        engine.run(max_events=100)


def test_watchdog_message_reports_pending_queue():
    engine = Engine()

    def spin():
        engine.post(1, spin)

    engine.post(0, spin)
    engine.post(10_000, lambda: None)
    with pytest.raises(SimulationLimitError) as exc:
        engine.run(max_events=50)
    message = str(exc.value)
    # Actionable livelock report: how much is queued and how much is live.
    assert "2 pending, 2 live" in message
    assert "t=" in message


def test_stall_digest_breaks_down_pending_callbacks():
    engine = Engine()

    def spin():
        engine.post(1, spin)

    def other():
        pass

    engine.post(0, spin)
    engine.post(9_000, other)
    with pytest.raises(SimulationLimitError) as exc:
        engine.run(max_events=40)
    message = str(exc.value)
    # The richer digest names what is queued and the oldest entry.
    assert "top pending callbacks:" in message
    assert "spin x1" in message
    assert "oldest queued:" in message
    assert "age" in message


def test_stall_digest_without_watchdog_context():
    engine = Engine()
    engine.post(5, lambda: None)
    digest = engine.stall_digest()
    assert "2 pending" not in digest  # one event queued
    assert "1 pending, 1 live" in digest
    assert "top pending callbacks:" in digest


def test_event_counter_accumulates():
    engine = Engine()
    for i in range(10):
        engine.post(i, lambda: None)
    engine.run()
    assert engine.events_executed == 10

# ---------------------------------------------------------------------------
# Batched-core additions: post(), post_at(), watchdog cold path.
# ---------------------------------------------------------------------------

def test_post_is_schedule_without_a_handle():
    engine = Engine()
    order = []
    assert engine.post(20, order.append, "b") is None
    engine.post(10, order.append, "a")
    engine.post_at(15, order.append, "mid")
    engine.run()
    assert order == ["a", "mid", "b"]
    with pytest.raises(ValueError):
        engine.post(-3, order.append, "nope")


def test_post_at_schedules_at_absolute_tick():
    engine = Engine()
    order = []
    engine.post(5, lambda: engine.post_at(engine.now + 7, order.append,
                                          engine.now))
    engine.run()
    assert order == [5]
    assert engine.now == 12
    with pytest.raises(ValueError):
        engine.post_at(engine.now - 1, order.append, "past")


def test_post_and_schedule_interleave_fifo_on_same_tick():
    engine = Engine()
    order = []
    engine.post(5, order.append, 0)
    engine.post_at(5, order.append, 1)
    engine.post(5, order.append, 2)
    engine.post_at(5, order.append, 3)
    engine.run()
    assert order == [0, 1, 2, 3]


def test_callback_exception_leaves_queue_consistent():
    engine = Engine()
    fired = []

    def boom():
        raise RuntimeError("kaboom")

    engine.post(5, fired.append, "before")
    engine.post(5, boom)
    engine.post(5, fired.append, "after")
    engine.post(9, fired.append, "later")
    with pytest.raises(RuntimeError, match="kaboom"):
        engine.run()
    # The raising event was consumed; everything behind it is intact.
    assert fired == ["before"]
    assert engine.pending() == 2
    engine.run()
    assert fired == ["before", "after", "later"]
    assert engine.now == 9


def test_clean_run_never_builds_a_stall_digest(monkeypatch):
    """The watchdog digest is a cold path: a clean run -- even a long
    one against a finite max_events budget -- must not assemble it."""
    engine = Engine()
    calls = []

    def counting_digest(max_events=None):
        calls.append(max_events)
        return "digest"

    monkeypatch.setattr(engine, "stall_digest", counting_digest,
                        raising=False)
    remaining = [20_000]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            engine.post(1, tick)

    engine.post(0, tick)
    engine.run(max_events=1_000_000)
    assert engine.events_executed == 20_000
    assert calls == [], "stall_digest was invoked on a clean run"


def test_watchdog_digest_counts_are_exact_at_raise_time():
    engine = Engine()

    def spin():
        engine.post(1, spin)

    engine.post(0, spin)
    with pytest.raises(SimulationLimitError) as exc:
        engine.run(max_events=123)
    # The digest is rendered *while raising*; its counters must already
    # include the partial batch, not trail it by one fold.
    assert engine.events_executed == 123
    assert "exceeded 123 events" in str(exc.value)
    assert "1 pending, 1 live" in str(exc.value)
