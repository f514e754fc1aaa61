"""In-process telemetry: the flight recorder and the ``bench report``
trajectory diff.

Covers :class:`FlightRecorder` on its own (bounded ring, dump shape)
and riding model-checker crash counterexamples (the JSON round trip
and the dump a crashing shard ships), then the ``bench report``
direction heuristic, regression flagging and its CLI exit codes.
"""

import json
import types

import pytest

from repro.cli import main
from repro.harness.bench_report import bench_report, compare, direction
from repro.obs.flight import FlightRecorder


# ---------------------------------------------------------------------------
# Flight recorder.
# ---------------------------------------------------------------------------

def test_flight_recorder_is_a_bounded_ring():
    """Only the most recent ``capacity`` events survive, in order."""
    flight = FlightRecorder(capacity=3)
    for i in range(5):
        flight.record("tick", i=i)
    dump = flight.dump()
    assert [event["i"] for event in dump] == [2, 3, 4]
    assert [event["kind"] for event in dump] == ["tick"] * 3
    assert dump[0]["seq"] < dump[-1]["seq"]
    assert len(flight) == 3
    flight.clear()
    assert flight.dump() == [] and len(flight) == 0


def test_flight_recorder_dump_shape(monkeypatch):
    """dump() builds ``{"seq", "t", "kind", **detail}`` dicts, in that
    key order, with ``t`` rounded to the millisecond and ``detail``
    overriding the fixed keys; each dump is a fresh copy."""
    import repro.obs.flight as flight_module

    stamps = iter([1700000000.12345, 1700000001.9996, 1700000002.5])
    monkeypatch.setattr(flight_module, "time",
                        types.SimpleNamespace(time=lambda: next(stamps)))
    flight = FlightRecorder(capacity=4)
    flight.record("replay", depth=2, states=7)
    flight.record("bare")
    flight.record("odd", seq="mine", t=-1)
    dump = flight.dump()
    assert dump == [
        {"seq": 1, "t": 1700000000.123, "kind": "replay", "depth": 2,
         "states": 7},
        {"seq": 2, "t": 1700000002.0, "kind": "bare"},
        {"seq": "mine", "t": -1, "kind": "odd"},
    ]
    assert [list(event) for event in dump] == [
        ["seq", "t", "kind", "depth", "states"], ["seq", "t", "kind"],
        ["seq", "t", "kind"]]
    dump[0]["depth"] = 99
    assert flight.dump()[0]["depth"] == 2


# ---------------------------------------------------------------------------
# Flight evidence on model-checker crashes.
# ---------------------------------------------------------------------------

def test_counterexample_flight_round_trips():
    """Crash counterexamples carry their flight dump through JSON."""
    from repro.verify.mc import litmus_model
    from repro.verify.mc.counterexample import Counterexample

    model = litmus_model("MP", ("MESI", "CXL", "MESI"))
    flight = ({"seq": 1, "t": 0.0, "kind": "replay", "depth": 2},)
    ce = Counterexample(model, (0, 1), "crash", "boom",
                        fingerprint=7, flight=flight)
    back = Counterexample.from_json(ce.to_json())
    assert back.flight == flight
    clean = Counterexample(model, (0,), "deadlock", "stuck", fingerprint=8)
    assert "flight" not in clean.to_dict()  # format stays additive


def test_explore_crash_ships_flight():
    """A controller crash mid-search carries the search's flight dump."""
    from repro.verify.mc.engine import explore

    class _CrashModel:
        """Model whose every replay explodes."""

        check_invariants = False

        def replay(self, path):
            """Blow up unconditionally."""
            raise RuntimeError("controller exploded")

    out = explore(_CrashModel())
    (violation,) = out["violations"]
    path, kind, message, _fp, flight = violation
    assert kind == "crash" and "controller exploded" in message
    assert flight and flight[-1]["kind"] == "crash"
    assert any(event["kind"] == "replay" for event in flight)


# ---------------------------------------------------------------------------
# bench report.
# ---------------------------------------------------------------------------

def test_direction_heuristic_classifies_the_repo_vocabulary():
    """Field-name classification matches the BENCH_*.json vocabulary."""
    assert direction("serial_s") == 1
    assert direction("scenario_s.bulk.batched") == 1
    assert direction("obs_on_overhead") == 1
    assert direction("ratio_jobs2_over_serial") == 1
    assert direction("cells_per_s") == -1
    assert direction("events_per_sec") == -1
    assert direction("speedup_vs_serial") == -1
    assert direction("timestamp") == 0
    assert direction("cpu_count") == 0
    assert direction("grid_cells") == 0


def test_compare_reports_worse_direction_change():
    """worse is the signed percentage along the regression direction."""
    rows = compare({"serial_s": 1.0, "cells_per_s": 100.0},
                   {"serial_s": 1.2, "cells_per_s": 80.0})
    by_field = {row["field"]: row for row in rows}
    assert by_field["serial_s"]["worse"] == pytest.approx(20.0)
    assert by_field["cells_per_s"]["worse"] == pytest.approx(20.0)


def _write_trajectory(path, records):
    """Write one BENCH_*.json trajectory file."""
    path.write_text(json.dumps(records))


def test_bench_report_flags_regressions_and_cli_exits_1(tmp_path, capsys):
    """A >threshold worse-direction move is flagged and fails the CLI."""
    _write_trajectory(tmp_path / "BENCH_sweep.json", [
        {"timestamp": "t0", "serial_s": 1.0, "jobs2_s": 0.5},
        {"timestamp": "t1", "serial_s": 1.5, "jobs2_s": 0.51},
    ])
    text, regressions = bench_report(root=str(tmp_path), threshold=10.0)
    assert [row["field"] for row in regressions] == ["serial_s"]
    assert "REGRESSION" in text and "no records" in text  # other files
    assert main(["bench", "report", "--dir", str(tmp_path)]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_bench_report_passes_within_threshold(tmp_path, capsys):
    """Small moves and single-record trajectories do not fail."""
    _write_trajectory(tmp_path / "BENCH_sweep.json", [
        {"timestamp": "t0", "serial_s": 1.0},
        {"timestamp": "t1", "serial_s": 1.05},
    ])
    _write_trajectory(tmp_path / "BENCH_obs.json",
                      [{"timestamp": "t0", "obs_on_overhead": 2.0}])
    assert main(["bench", "report", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "no regressions" in out and "nothing to diff" in out


def test_bench_report_rejects_non_array_trajectory(tmp_path):
    """A corrupt trajectory is a hard error (CLI exit 2)."""
    (tmp_path / "BENCH_sweep.json").write_text('{"not": "a list"}')
    with pytest.raises(ValueError, match="expected a JSON array"):
        bench_report(root=str(tmp_path))
    assert main(["bench", "report", "--dir", str(tmp_path)]) == 2
