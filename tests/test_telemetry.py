"""Fleet telemetry: snapshot merging, frames, stitching, Prometheus.

Covers the ``repro.obs.telemetry`` layer end to end:

- property tests (hypothesis) proving :meth:`MetricsRegistry.merge` is
  associative, commutative, identity-respecting and count-preserving,
  so fleet aggregation order can never change the answer;
- :class:`Telemetry` worker-side collection (cell lifecycle, span
  budget, frame production, disabled no-ops);
- :class:`FleetTelemetry` broker-side aggregation (idempotent snapshot
  replacement, merged registry, trace stitching);
- Prometheus text exposition (render + strict parse round trip, the
  per-worker label split, the stdlib ``/metrics`` server);
- the flight recorder, on its own and riding :class:`CellFailure` /
  model-checker crash counterexamples;
- loopback ``queue:2`` integration: the merged fleet registry must
  equal the broker-side ground truth and the stitched trace must
  validate with one track group per worker;
- the ``bench report`` trajectory diff and its CLI exit codes.
"""

import json
import os
import pathlib
import signal
import threading
import time
import types
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.harness.bench_report import bench_report, compare, direction
from repro.harness.dist.broker import QueueBackend
from repro.harness.sweep import CellFailure, SweepCell
from repro.obs import validate_chrome_trace
from repro.obs.flight import FlightRecorder, flight_recorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import (
    fleet_to_prometheus,
    load_snapshot_file,
    make_metrics_server,
    parse_exposition,
    to_prometheus,
)
from repro.obs.telemetry import FleetTelemetry, Telemetry, stitch_chrome_trace

# ---------------------------------------------------------------------------
# Snapshot merge semantics (property-based).
# ---------------------------------------------------------------------------

_EDGES = (10, 100)


def _dist_dict(values):
    """Build a serialized Distribution as if ``values`` were recorded."""
    return {"type": "distribution", "unit": "ticks",
            "count": len(values), "total": sum(values),
            "min": min(values) if values else None,
            "max": max(values) if values else None,
            "mean": (sum(values) / len(values)) if values else 0.0}


@st.composite
def snapshots(draw):
    """Random merge-compatible registry snapshots."""
    snap = {}
    for name in draw(st.lists(st.sampled_from("abc"), unique=True)):
        snap[f"c.{name}"] = {"type": "counter", "unit": "count",
                             "value": draw(st.integers(0, 2**20))}
    for name in draw(st.lists(st.sampled_from("abc"), unique=True)):
        values = draw(st.lists(st.integers(-100, 100), max_size=8))
        snap[f"d.{name}"] = _dist_dict(values)
    for name in draw(st.lists(st.sampled_from("ab"), unique=True)):
        buckets = draw(st.lists(st.integers(0, 50),
                                min_size=len(_EDGES) + 1,
                                max_size=len(_EDGES) + 1))
        snap[f"h.{name}"] = {"type": "histogram", "unit": "ticks",
                             "edges": list(_EDGES), "buckets": buckets}
    return snap


@settings(max_examples=60, deadline=None)
@given(a=snapshots(), b=snapshots(), c=snapshots())
def test_merge_is_associative(a, b, c):
    """(a + b) + c and a + (b + c) produce identical registries."""
    left = MetricsRegistry.from_snapshot(a).merge(b).merge(c)
    bc = MetricsRegistry.from_snapshot(b).merge(c).snapshot()
    right = MetricsRegistry.from_snapshot(a).merge(bc)
    assert left.to_dict() == right.to_dict()


@settings(max_examples=60, deadline=None)
@given(a=snapshots(), b=snapshots())
def test_merge_is_commutative(a, b):
    """a + b and b + a produce identical registries."""
    ab = MetricsRegistry.from_snapshot(a).merge(b)
    ba = MetricsRegistry.from_snapshot(b).merge(a)
    assert ab.to_dict() == ba.to_dict()


@settings(max_examples=60, deadline=None)
@given(a=snapshots())
def test_empty_registry_is_merge_identity(a):
    """Merging with an empty snapshot/registry changes nothing."""
    assert MetricsRegistry.from_snapshot(a).merge({}).to_dict() \
        == MetricsRegistry.from_snapshot(a).to_dict()
    assert MetricsRegistry().merge(a).to_dict() \
        == MetricsRegistry.from_snapshot(a).to_dict()


@settings(max_examples=60, deadline=None)
@given(a=snapshots(), b=snapshots())
def test_merge_preserves_counts(a, b):
    """No sample is lost or duplicated: counters and distribution
    counts in the merge equal the sums of the inputs."""
    merged = MetricsRegistry.from_snapshot(a).merge(b).snapshot()
    for path, data in merged.items():
        parts = [side.get(path) for side in (a, b)]
        if data["type"] == "counter":
            assert data["value"] == sum(p["value"] for p in parts if p)
        elif data["type"] == "distribution":
            assert data["count"] == sum(p["count"] for p in parts if p)
            assert data["total"] == sum(p["total"] for p in parts if p)
        else:
            for i, count in enumerate(data["buckets"]):
                assert count == sum(p["buckets"][i] for p in parts if p)


def test_merge_rejects_mismatched_histogram_edges():
    """Merging differently binned histograms is meaningless."""
    registry = MetricsRegistry()
    registry.histogram("h", edges=(1, 2))
    with pytest.raises(ValueError, match="edge mismatch"):
        registry.merge({"h": {"type": "histogram", "edges": [1, 3],
                              "buckets": [0, 0, 0]}})


def test_merge_rejects_unknown_metric_type():
    """A snapshot entry with an unknown type is an error, not a skip."""
    with pytest.raises(ValueError, match="unknown type"):
        MetricsRegistry().merge({"x": {"type": "gauge", "value": 1}})


def test_live_registries_merge_like_snapshots():
    """merge() accepts a live registry, not just its snapshot dict."""
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("n").add(2)
    b.counter("n").add(3)
    b.distribution("d").record(7)
    merged = MetricsRegistry().merge(a).merge(b)
    assert merged.counter("n").value == 5
    assert merged.distribution("d").count == 1


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


def test_flight_recorder_process_singleton():
    """flight_recorder() hands back one shared per-process instance."""
    assert flight_recorder() is flight_recorder()


# ---------------------------------------------------------------------------
# Worker-side Telemetry.
# ---------------------------------------------------------------------------

class _FakeSpan:
    """Minimal closed span standing in for repro.obs.spans.Span."""

    def __init__(self, name, node, start, end):
        self.name, self.cat, self.node = name, "txn", node
        self.addr, self.start, self.end = 0x40, start, end


class _FakeRecorder:
    """Minimal SpanRecorder stand-in for absorb_run tests."""

    def __init__(self, spans, dropped=0):
        self.spans = spans
        self.dropped = dropped
        self.capacity = 4


class _FakeObs:
    """Minimal Observability stand-in: a finalize() dump + recorder."""

    def __init__(self, metrics, recorder=None):
        self._metrics = metrics
        self.recorder = recorder

    def finalize(self):
        """Return the pre-baked dump."""
        return {"metrics": self._metrics}


def test_telemetry_disabled_hooks_are_noops():
    """Before enable() every hook must leave no trace (overhead gate)."""
    tele = Telemetry()
    tele.cell_start(0, key="k")
    tele.cell_finish(True, 0.1)
    tele.absorb_run(_FakeObs({"c": {"type": "counter", "value": 1}}))
    assert tele.frame() is None
    assert tele.frame(full=False) is None
    assert len(tele.registry) == 0 and len(tele.flight) == 0


def test_telemetry_cell_lifecycle_produces_one_full_frame():
    """cell_start/cell_finish yield worker.* counters and a cell span."""
    tele = Telemetry()
    tele.enable(worker="host:1")
    tele.cell_start(3, key=("vips", "MESI"), attempt=1)
    light = tele.frame(full=False)
    assert light["type"] == "telemetry" and "snapshot" not in light
    assert any(ev["kind"] == "cell-start" for ev in light["flight"])
    tele.cell_finish(True, wall=0.5)
    frame = tele.frame()
    counters = {path: data["value"]
                for path, data in frame["snapshot"].items()
                if data["type"] == "counter"}
    assert counters["worker.cells_run"] == 1
    assert counters["worker.cells_ok"] == 1
    assert frame["snapshot"]["worker.cell_seconds"]["count"] == 1
    (span,) = frame["spans"]
    assert span["cat"] == "cell" and span["name"] == str(("vips", "MESI"))
    assert tele.frame() is None  # clean again until something happens


def test_telemetry_absorb_run_respects_span_budget():
    """Sim spans beyond the budget are counted, not shipped."""
    tele = Telemetry(span_budget=2)
    tele.enable(worker="host:2")
    tele.cell_start(0, key="cell-a")
    spans = [_FakeSpan(f"s{i}", "c0.0", i * 10, i * 10 + 5)
             for i in range(4)]
    metrics = {"sim.ops": {"type": "counter", "unit": "count", "value": 9}}
    tele.absorb_run(_FakeObs(metrics, _FakeRecorder(spans, dropped=3)))
    frame = tele.frame()
    assert len(frame["spans"]) == 2
    snap = frame["snapshot"]
    assert snap["sim.ops"]["value"] == 9  # run metrics were merged in
    assert snap["worker.spans_absorbed"]["value"] == 2
    assert snap["worker.spans_dropped"]["value"] == 2
    assert snap["worker.spans_sim_dropped"]["value"] == 3


def test_telemetry_error_path_counts_and_flight():
    """A failed cell bumps cells_error and leaves flight evidence."""
    tele = Telemetry()
    tele.enable()
    tele.cell_start(1)
    tele.cell_finish(False, wall=0.2, error="ValueError: boom")
    frame = tele.frame()
    assert frame["snapshot"]["worker.cells_error"]["value"] == 1
    assert any(ev["kind"] == "cell-error" for ev in tele.flight_dump())


# ---------------------------------------------------------------------------
# Broker-side FleetTelemetry + trace stitching.
# ---------------------------------------------------------------------------

def _frame(snapshot=None, spans=None, flight=None, seq=1):
    """Build a telemetry wire frame literal."""
    frame = {"type": "telemetry", "seq": seq}
    if snapshot is not None:
        frame["snapshot"] = snapshot
    if spans is not None:
        frame["spans"] = spans
    if flight is not None:
        frame["flight"] = flight
    return frame


def _span(name, node, ts, dur=5.0):
    """Build a normalized span dict literal."""
    return {"name": name, "cat": "txn", "node": node, "ts": ts,
            "dur": dur, "args": {}}


def test_fleet_snapshots_replace_but_spans_accumulate():
    """Cumulative snapshots are idempotent; spans are incremental."""
    fleet = FleetTelemetry()
    fleet.update("w0", _frame(
        snapshot={"worker.cells_ok": {"type": "counter", "value": 1}},
        spans=[_span("a", "c0.0", 10.0)]))
    fleet.update("w0", _frame(
        snapshot={"worker.cells_ok": {"type": "counter", "value": 2}},
        spans=[_span("b", "c0.0", 20.0)], seq=2))
    fleet.update("w1", _frame(
        snapshot={"worker.cells_ok": {"type": "counter", "value": 5}},
        flight=[{"seq": 1, "t": 0.0, "kind": "connect"}]))
    merged = fleet.registry()
    assert merged.counter("worker.cells_ok").value == 7  # 2 + 5, not 1+2+5
    assert len(fleet.spans_by_worker()["w0"]) == 2
    assert fleet.workers() == ["w0", "w1"]
    assert fleet.flight("w1")[0]["kind"] == "connect"
    assert fleet.flight("w0") == []
    payload = fleet.to_dict()
    assert payload["fleet"]["worker.cells_ok"]["value"] == 7
    assert payload["per_worker"]["w1"]["worker.cells_ok"]["value"] == 5


def test_stitched_trace_validates_with_one_pid_per_worker():
    """Two workers stitch to two track groups; timestamps start at 0."""
    spans_by_worker = {
        "w0:host:1": [_span("a", "c0.0", 1000.0), _span("b", "c1.0", 1500.0)],
        "w1:host:2": [_span("c", "c0.0", 1200.0)],
    }
    trace = stitch_chrome_trace(spans_by_worker)
    assert validate_chrome_trace(trace) == []
    events = trace["traceEvents"]
    xs = [ev for ev in events if ev["ph"] == "X"]
    assert {ev["pid"] for ev in xs} == {1, 2}
    assert min(ev["ts"] for ev in xs) == 0.0
    names = {(ev["pid"], ev["args"]["name"]) for ev in events
             if ev["name"] == "process_name"}
    assert names == {(1, "worker w0:host:1"), (2, "worker w1:host:2")}


def test_stitched_trace_flags_span_truncation():
    """A worker snapshot reporting drops yields a metadata note."""
    snapshots = {"w0": {
        "worker.spans_dropped": {"type": "counter", "value": 4},
        "worker.spans_sim_dropped": {"type": "counter", "value": 2},
    }}
    trace = stitch_chrome_trace({"w0": [_span("a", "c0.0", 0.0)]}, snapshots)
    assert validate_chrome_trace(trace) == []
    (note,) = [ev for ev in trace["traceEvents"]
               if ev["name"] == "span_truncation"]
    assert note["args"]["dropped"] == 6
    assert "[truncated:" in note["args"]["note"]


# ---------------------------------------------------------------------------
# Prometheus exposition.
# ---------------------------------------------------------------------------

def _sample_registry():
    """A registry exercising all three metric kinds."""
    registry = MetricsRegistry()
    registry.counter("dist.cells_completed").add(8)
    registry.distribution("worker.cell_seconds", unit="s").record(0.5)
    registry.distribution("worker.cell_seconds", unit="s").record(1.5)
    hist = registry.histogram("lat.miss", edges=_EDGES)
    hist.record(5)
    hist.record(50)
    hist.record(500)
    return registry


def test_prometheus_exposition_round_trips():
    """Rendered text parses back to the exact sample values."""
    text = to_prometheus(_sample_registry())
    samples = parse_exposition(text)
    assert samples["repro_dist_cells_completed_total"] == 8
    assert samples["repro_worker_cell_seconds_count"] == 2
    assert samples["repro_worker_cell_seconds_sum"] == 2.0
    assert samples["repro_worker_cell_seconds_min"] == 0.5
    assert samples['repro_lat_miss_bucket{le="10"}'] == 1
    assert samples['repro_lat_miss_bucket{le="100"}'] == 2
    assert samples['repro_lat_miss_bucket{le="+Inf"}'] == 3
    assert samples["repro_lat_miss_count"] == 3


def test_fleet_exposition_carries_worker_labels_one_type_line():
    """Fleet totals and the per-worker split share one metric family."""
    fleet = _sample_registry().snapshot()
    per_worker = {"w0:h:1": {"dist.cells_completed":
                             {"type": "counter", "value": 3}}}
    text = fleet_to_prometheus(fleet, per_worker)
    assert text.count("# TYPE repro_dist_cells_completed_total counter") == 1
    samples = parse_exposition(text)
    assert samples["repro_dist_cells_completed_total"] == 8
    assert samples['repro_dist_cells_completed_total{worker="w0:h:1"}'] == 3


def test_parse_exposition_rejects_malformed_lines():
    """The parser is the CI schema gate: garbage must raise."""
    with pytest.raises(ValueError, match="line 1"):
        parse_exposition("this is not a sample\n")


def test_load_snapshot_file_accepts_every_shape(tmp_path):
    """Fleet dumps, obs dumps and bare snapshots all load."""
    bare = {"c": {"type": "counter", "value": 1}}
    shapes = [
        ({"fleet": bare, "per_worker": {"w0": bare}}, bare, {"w0": bare}),
        ({"metrics": bare, "spans": {}}, bare, {}),
        (bare, bare, {}),
    ]
    for i, (payload, want_snap, want_per) in enumerate(shapes):
        path = tmp_path / f"snap{i}.json"
        path.write_text(json.dumps(payload))
        snapshot, per_worker = load_snapshot_file(str(path))
        assert (snapshot, per_worker) == (want_snap, want_per)
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ValueError, match="expected a JSON object"):
        load_snapshot_file(str(bad))


def test_metrics_server_serves_metrics_and_healthz():
    """The stdlib server answers /metrics, /healthz and 404s the rest."""
    text = to_prometheus(_sample_registry())
    server = make_metrics_server("127.0.0.1", 0, lambda: text)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics") as resp:
            assert resp.status == 200
            assert "version=0.0.4" in resp.headers["Content-Type"]
            assert parse_exposition(resp.read().decode()) \
                == parse_exposition(text)
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz") as resp:
            assert json.loads(resp.read()) == {"status": "ok"}
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"http://127.0.0.1:{port}/nope")
        assert err.value.code == 404
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_metrics_server_cli_rejects_bad_snapshot(tmp_path):
    """`repro metrics-server` exits 2 before binding on a bad file."""
    assert main(["metrics-server", "--snapshot",
                 str(tmp_path / "missing.json")]) == 2


def test_check_telemetry_needs_fanout(tmp_path, capsys):
    """A single-shard check never reaches the fleet: telemetry is exit 2."""
    prom = tmp_path / "mc.txt"
    rc = main(["check", "--combo", "MESI:CXL:MESI", "--litmus", "CoRR1",
               "--max-states", "0", "--shards", "1",
               "--backend", "queue:2", "--prom-out", str(prom)])
    assert rc == 2
    assert "never fanned out" in capsys.readouterr().err
    assert not prom.exists()


# ---------------------------------------------------------------------------
# Flight evidence on failures (CellFailure + mc counterexamples).
# ---------------------------------------------------------------------------

def test_cell_failure_retried_preserves_flight():
    """retried() must not drop the flight dump."""
    flight = ({"seq": 1, "t": 0.0, "kind": "cell-start"},)
    failure = CellFailure("E", "boom", flight=flight)
    assert failure.retried(3).flight == flight


def test_counterexample_flight_round_trips(tmp_path):
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


def test_explore_shard_crash_ships_flight():
    """A controller crash mid-search carries the shard's flight dump."""
    from repro.verify.mc.engine import explore_shard

    class _CrashModel:
        """Model whose every replay explodes."""

        check_invariants = False

        def replay(self, path):
            """Blow up unconditionally."""
            raise RuntimeError("controller exploded")

    out = explore_shard(_CrashModel(), 0, 1, [((), None)], set())
    (violation,) = out["violations"]
    path, kind, message, _fp, flight = violation
    assert kind == "crash" and "controller exploded" in message
    assert flight and flight[-1]["kind"] == "crash"
    assert any(event["kind"] == "replay" for event in flight)


# ---------------------------------------------------------------------------
# Loopback queue:2 integration (the tentpole acceptance path).
# ---------------------------------------------------------------------------

def _nap(seconds, value):
    """Sleep long enough that both loopback workers pick up cells."""
    time.sleep(seconds)
    return value


def _fail(x):
    """Always raise (permanent cell failure)."""
    raise ValueError(f"bad {x}")


def _die(path, value):
    """SIGKILL the hosting worker on first execution."""
    marker = pathlib.Path(path)
    if not marker.exists():
        marker.write_text("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def test_fleet_registry_matches_broker_ground_truth():
    """The merged fleet registry agrees with the broker's own metrics,
    the per-worker split sums to the total, the stitched trace
    validates with one track group per worker, and the exposition
    parses -- the tentpole acceptance criteria in one sweep."""
    cells = [SweepCell(key=f"cell{i}", fn=_nap,
                       kwargs={"seconds": 0.3, "value": i})
             for i in range(8)]
    backend = QueueBackend(workers=2, backoff_base=0.01)
    out = backend.submit(cells)
    assert out == {f"cell{i}": i for i in range(8)}

    counters = backend.metrics.counter_values("dist.")
    fleet = backend.fleet
    assert len(fleet.workers()) == 2

    # (a) merged fleet registry == broker-side ground truth.
    merged = fleet.registry(extra=backend.metrics)
    assert merged.counter_values("dist.") == counters
    per_worker = fleet.per_worker()
    ok_by_worker = [snap["worker.cells_ok"]["value"]
                    for snap in per_worker.values()]
    assert sum(ok_by_worker) == counters["dist.cells_completed"] == 8
    assert all(ok >= 1 for ok in ok_by_worker)

    # (b) stitched Chrome trace: schema-valid, spans from both workers.
    trace = fleet.chrome_trace()
    assert validate_chrome_trace(trace) == []
    pids = {ev["pid"] for ev in trace["traceEvents"] if ev["ph"] == "X"}
    assert pids == {1, 2}
    traced = {ev["args"]["trace"] for ev in trace["traceEvents"]
              if ev["ph"] == "X" and ev.get("cat") == "cell"}
    assert traced == {f"cell{i}" for i in range(8)}  # keys are trace IDs

    # (c) Prometheus exposition parses and carries the worker split.
    text = fleet_to_prometheus(merged.snapshot(), per_worker)
    samples = parse_exposition(text)
    assert samples["repro_dist_cells_completed_total"] == 8
    labeled = [key for key in samples
               if key.startswith("repro_worker_cells_ok_total{worker=")]
    assert len(labeled) == 2


def test_error_cell_failure_carries_flight(tmp_path):
    """A permanently failing cell's CellFailure ships the worker's
    flight recorder, ending in the cell-error event."""
    cells = [SweepCell(key="bad", fn=_fail, kwargs={"x": 1})]
    backend = QueueBackend(workers=1, max_retries=0, backoff_base=0.01)
    failure = backend.submit(cells)["bad"]
    assert isinstance(failure, CellFailure)
    assert failure.flight
    assert any(ev["kind"] == "cell-error" for ev in failure.flight)


def test_killed_worker_cell_failure_carries_flight(tmp_path):
    """SIGKILL mid-cell: the light frame sent at cell start is the
    postmortem -- the dead worker's CellFailure must carry it."""
    cells = [SweepCell(key="victim", fn=_die,
                       kwargs={"path": str(tmp_path / "die"), "value": 7})]
    backend = QueueBackend(workers=1, max_retries=0, backoff_base=0.01)
    failure = backend.submit(cells)["victim"]
    assert isinstance(failure, CellFailure)
    assert failure.kind == "worker died"
    assert failure.flight
    kinds = [event["kind"] for event in failure.flight]
    assert "cell-start" in kinds


def test_backend_with_telemetry_disabled_collects_nothing():
    """telemetry=False turns the whole channel off end to end."""
    cells = [SweepCell(key=i, fn=_nap,
                       kwargs={"seconds": 0.01, "value": i})
             for i in range(2)]
    backend = QueueBackend(workers=1, backoff_base=0.01, telemetry=False)
    assert backend.submit(cells) == {0: 0, 1: 1}
    assert backend.fleet.workers() == []


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
