"""Tests for the `repro.obs` observability subsystem.

Covers the span recorder (per-phase latency attribution, capacity
bounds), the runtime Rule-II nesting audit (clean on every shipped
pairing, firing on the injected atomicity violation), the hierarchical
metrics registry, the network observer hook the recorder shares with
the message tracer, and the Chrome trace exporter's schema contract.
"""

import json

import pytest

from repro.cpu.isa import ThreadProgram, load, rmw, store
from repro.errors import InvariantViolation
from repro.harness.experiments import run_workload
from repro.obs import (
    CROSSING_CATS,
    Counter,
    Distribution,
    Histogram,
    MetricsRegistry,
    Observability,
    SpanRecorder,
    chrome_trace,
    collect_system_metrics,
    compact_obs,
    summarize_obs,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim.config import two_cluster_config
from repro.sim.system import build_system
from repro.sim.trace import MessageTracer

ALL_PAIRINGS = [(local, glob)
                for local in ("MESI", "MESIF", "MOESI", "RCC")
                for glob in ("CXL", "MESI")]


def contended_system(local="MESI", glob="CXL", seed=0, violate=False):
    config = two_cluster_config(local, glob, local, mcm_a="TSO", mcm_b="TSO",
                                cores_per_cluster=2, seed=seed)
    return build_system(config, violate_atomicity=violate)


def contended_programs(rounds=10):
    return [
        ThreadProgram(f"t{i}", [op for r in range(rounds) for op in
                                (rmw(0x7, 1, f"a{r}"),
                                 store(0x40 + 8 * i, r),
                                 load(0x7, f"b{r}"))])
        for i in range(4)
    ]


# ---------------------------------------------------------------------------
# Spans: recording, nesting, attribution.
# ---------------------------------------------------------------------------

def test_workload_run_records_spans_and_attribution():
    result = run_workload("fft", scale=0.3, seed=2, obs=True)
    obs = result.extra["obs"]
    spans = obs["spans"]
    assert spans["total"] > 0
    assert spans["open"] == 0           # every span closed at completion
    assert spans["dropped"] == 0
    assert spans["by_cat"]["op"] == result.stats.ops
    att = spans["attribution"]
    assert att["ops"] == result.stats.ops
    # origin + bridged account for all attributed time...
    assert att["origin_ticks"] + att["bridged_ticks"] == att["total_ticks"]
    # ...and a cross-cluster-contended run spends real time bridged.
    assert att["bridged_ticks"] > 0
    assert 0 <= att["network_ticks"] <= att["total_ticks"]


def test_crossing_spans_parent_under_op_spans():
    system = contended_system()
    obs = Observability().attach(system)
    system.run_threads(contended_programs(rounds=4), placement=[0, 1, 2, 3])
    recorder = obs.recorder
    crossings = [s for s in recorder.spans if s.cat in CROSSING_CATS]
    assert crossings, "contended run produced no bridge crossings"
    globals_ = [s for s in crossings if s.cat == "global"]
    # Every upward acquisition is rooted in some local op span.
    for span in globals_:
        root = span
        while root.parent is not None:
            root = root.parent
        assert root.cat == "op"
    assert all(s.end is not None for s in recorder.spans)


def test_span_recorder_capacity_bounds_memory():
    system = contended_system()
    obs = Observability(span_capacity=16).attach(system)
    system.run_threads(contended_programs(rounds=6), placement=[0, 1, 2, 3])
    recorder = obs.recorder
    assert len(recorder.spans) <= 16
    assert recorder.dropped > 0
    stats = recorder.stats_dict()
    assert stats["dropped"] == recorder.dropped


def test_obs_off_leaves_components_untouched():
    system = contended_system()
    assert system.network.observers == ()
    for l1 in system.l1s:
        assert l1.obs is None
    for cluster in system.clusters:
        assert cluster.bridge.obs is None
    result = system.run_threads(contended_programs(rounds=2),
                                placement=[0, 1, 2, 3])
    assert "obs" not in result.extra


def test_detach_unhooks_the_system_and_keeps_the_record():
    system = contended_system()
    obs = Observability().attach(system)
    system.run_threads(contended_programs(rounds=2), placement=[0, 1, 2, 3])
    recorded = len(obs.recorder.spans)
    obs.detach()
    assert system.engine.span_recorder is None
    assert system.network.observers == ()
    assert all(l1.obs is None for l1 in system.l1s)
    assert all(c.bridge.obs is None for c in system.clusters)
    assert recorded > 0 and len(obs.recorder.spans) == recorded
    assert obs.finalize()["spans"]["total"] == recorded


# ---------------------------------------------------------------------------
# Runtime Rule-II audit.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("local,glob", ALL_PAIRINGS,
                         ids=[f"{lo}-{gl}" for lo, gl in ALL_PAIRINGS])
def test_rule2_audit_clean_on_shipped_pairing(local, glob):
    system = contended_system(local, glob, seed=3)
    obs = Observability().attach(system)
    system.run_threads(contended_programs(), placement=[0, 1, 2, 3])
    dump = obs.finalize()
    assert dump["rule2"]["violations"] == 0, dump["rule2"]["details"]
    assert dump["spans"]["open"] == 0


def test_rule2_audit_catches_injected_atomicity_violation():
    detected = False
    for seed in range(6):
        system = contended_system(seed=seed, violate=True)
        obs = Observability().attach(system)
        try:
            system.run_threads(contended_programs(rounds=12),
                               placement=[0, 1, 2, 3])
        except Exception:
            pass  # the broken protocol may also crash or deadlock
        dump = obs.finalize()
        if dump["rule2"]["violations"]:
            rules = {d["rule"] for d in dump["rule2"]["details"]}
            assert rules <= {"R2-NEST", "R2-EARLY"}
            detail = dump["rule2"]["details"][0]
            assert {"time", "rule", "addr", "node", "detail"} <= set(detail)
            detected = True
            break
    assert detected, "runtime audit missed the injected violation in 6 seeds"


def test_spans_and_tracer_share_the_observer_hook_on_a_violating_run():
    """Both subscribers see every counted message of a run that breaks
    Rule II: the audit still fires, and the tracer logs the very
    message it flags."""
    system = contended_system(seed=0, violate=True)
    obs = Observability().attach(system)
    tracer = MessageTracer(system.network)
    assert system.network.observers == (obs.recorder, tracer)
    with pytest.raises(InvariantViolation):
        system.run_threads(contended_programs(rounds=12),
                           placement=[0, 1, 2, 3])
    details = obs.finalize()["rule2"]["details"]
    early = [d for d in details if d["rule"] == "R2-EARLY"]
    assert early, details
    assert len(tracer.entries) == system.network.stats.messages
    assert any(e.time == early[0]["time"] and e.src == early[0]["node"]
               and e.addr == early[0]["addr"] and e.dst == "home"
               for e in tracer.entries)


# ---------------------------------------------------------------------------
# Metrics registry.
# ---------------------------------------------------------------------------

def test_counter_distribution_histogram_basics():
    counter = Counter("a.b", unit="ops")
    counter.add(3)
    counter.add()
    assert counter.value == 4
    assert counter.to_dict() == {"type": "counter", "unit": "ops", "value": 4}

    dist = Distribution("lat")
    for v in (10, 2, 6):
        dist.record(v)
    assert (dist.count, dist.min, dist.max, dist.mean) == (3, 2, 10, 6.0)

    hist = Histogram("bins", edges=(5, 10))
    for v in (1, 7, 12, 3):
        hist.record(v)
    assert hist.buckets == [2, 1, 1]


def test_registry_get_or_create_and_type_conflicts():
    registry = MetricsRegistry()
    c1 = registry.counter("system.x.hits")
    c2 = registry.counter("system.x.hits")
    assert c1 is c2
    assert "system.x.hits" in registry
    assert len(registry) == 1
    with pytest.raises(TypeError, match="already registered"):
        registry.distribution("system.x.hits")
    with pytest.raises(TypeError, match="already registered"):
        registry.histogram("system.x.hits", edges=(1,))


def test_registry_tree_and_summary_views():
    registry = MetricsRegistry()
    registry.counter("system.cluster0.l1_0.misses").add(7)
    registry.counter("system.cluster0.bridge.local_txns").add(2)
    registry.distribution("system.net.latency").record(5)
    tree = registry.tree()
    assert tree["system"]["cluster0"]["l1_0"]["misses"]["value"] == 7
    lines = registry.summary(prefix="system.cluster0")
    assert len(lines) == 2
    assert any("l1_0.misses" in line for line in lines)
    flat = registry.to_dict()
    assert list(flat) == sorted(flat)


def test_collect_system_metrics_publishes_component_paths():
    system = contended_system()
    system.run_threads(contended_programs(rounds=3), placement=[0, 1, 2, 3])
    registry = collect_system_metrics(system, MetricsRegistry())
    flat = registry.to_dict()
    assert flat["system.engine.events"]["value"] == system.engine.events_executed
    assert flat["system.network.messages"]["value"] == system.network.stats.messages
    total_ops = sum(flat[f"system.cluster{ci}.l1_{li}.ops"]["value"]
                    for ci in range(2) for li in range(2))
    assert total_ops == sum(l1.stats.ops for l1 in system.l1s)
    assert "system.cluster0.port.requests" in flat
    assert "system.home.queued_total" in flat


# ---------------------------------------------------------------------------
# Facade + exporters.
# ---------------------------------------------------------------------------

def test_finalize_is_idempotent_and_json_ready():
    system = contended_system()
    obs = Observability().attach(system)
    system.run_threads(contended_programs(rounds=2), placement=[0, 1, 2, 3])
    dump = obs.finalize()
    assert obs.finalize() is dump
    json.dumps(dump)  # must not raise
    assert "spans" in dump and "rule2" in dump and "metrics" in dump


def test_chrome_trace_is_schema_valid(tmp_path):
    system = contended_system()
    obs = Observability().attach(system)
    tracer = MessageTracer(system.network, addrs=[0x7])
    system.run_threads(contended_programs(rounds=3), placement=[0, 1, 2, 3])
    path = tmp_path / "trace.json"
    count = write_chrome_trace(path, obs.recorder, tracer)
    loaded = json.loads(path.read_text())
    assert validate_chrome_trace(loaded) == []
    assert len(loaded["traceEvents"]) == count
    phases = {ev["ph"] for ev in loaded["traceEvents"]}
    assert {"X", "M", "i"} <= phases  # spans, metadata, messages
    names = {ev["name"] for ev in loaded["traceEvents"]
             if ev["ph"] == "M"}
    assert "process_name" in names and "thread_name" in names


def test_chrome_trace_parent_links_and_categories():
    system = contended_system()
    obs = Observability().attach(system)
    system.run_threads(contended_programs(rounds=3), placement=[0, 1, 2, 3])
    trace = chrome_trace(obs.recorder)
    span_events = [ev for ev in trace["traceEvents"] if ev["ph"] == "X"]
    by_sid = {ev["args"]["sid"]: ev for ev in span_events}
    children = [ev for ev in span_events if "parent_sid" in ev["args"]]
    assert children
    for ev in children:
        assert ev["args"]["parent_sid"] in by_sid
    assert {"op", "txn", "global"} <= {ev["cat"] for ev in span_events}


def test_validate_chrome_trace_flags_malformed_input():
    assert validate_chrome_trace([]) == \
        ["top level must be an object, got list"]
    assert validate_chrome_trace({}) == ["missing or non-list 'traceEvents'"]
    problems = validate_chrome_trace({"traceEvents": [
        {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0},  # no dur
        {"ph": "Q", "pid": 1, "tid": 1},                          # bad phase
        {"name": "i", "ph": "i", "pid": 1, "tid": 1, "ts": 1.0},  # no scope
        "not an event",
    ]})
    assert any("without 'dur'" in p for p in problems)
    assert any("unknown phase" in p for p in problems)
    assert any("bad scope" in p for p in problems)
    assert any("not an object" in p for p in problems)


def test_summaries_render_clean_and_violating_dumps():
    result = run_workload("fft", scale=0.3, seed=2, obs=True)
    dump = result.extra["obs"]
    text = summarize_obs(dump)
    assert "latency attribution" in text
    assert "rule-II audit: clean" in text
    line = compact_obs(dump)
    assert "rule2=clean" in line and "ops=" in line
    bad = {"rule2": {"violations": 1, "details": [
        {"time": 5, "rule": "R2-NEST", "addr": 0x7, "node": "bridge0",
         "detail": "closed with open crossing child"}]}}
    assert "VIOLATION" in summarize_obs(bad)
    assert "violation" in compact_obs(bad)


def test_watchdog_digest_names_open_spans():
    from repro.sim.engine import Engine

    engine = Engine()
    recorder = SpanRecorder(engine)
    engine.span_recorder = recorder
    span = recorder.open_op("c0.0", "LOAD", 0x10, t0=0)
    assert span is not None

    def spin():
        engine.post(1, spin)

    engine.post(0, spin)
    with pytest.raises(Exception) as exc:
        engine.run(max_events=30)
    message = str(exc.value)
    assert "oldest in-flight spans" in message
    assert "LOAD" in message and "0x10" in message


# ---------------------------------------------------------------------------
# Truncation surfacing + the validated write funnel (PR 8 satellites).
# ---------------------------------------------------------------------------

def _truncated_obs():
    """Run a contended workload with a tiny span capacity."""
    system = contended_system()
    obs = Observability(span_capacity=16).attach(system)
    system.run_threads(contended_programs(rounds=6), placement=[0, 1, 2, 3])
    assert obs.recorder.dropped > 0
    return obs


def test_summaries_surface_span_truncation():
    """Capacity drops show up in both text rollups, with a drop rate."""
    obs = _truncated_obs()
    dump = obs.finalize()
    text = summarize_obs(dump)
    assert "spans TRUNCATED at capacity" in text
    assert f"{dump['spans']['dropped']} dropped (" in text
    assert "% of" in text  # the drop rate
    assert f"spans_dropped={dump['spans']['dropped']}" in compact_obs(dump)


def test_summaries_stay_quiet_without_truncation():
    """No dropped spans -> no truncation line, no spans_dropped field."""
    result = run_workload("fft", scale=0.3, seed=2, obs=True)
    dump = result.extra["obs"]
    assert dump["spans"]["dropped"] == 0
    assert "TRUNCATED" not in summarize_obs(dump)
    assert "spans_dropped" not in compact_obs(dump)


def test_chrome_trace_carries_truncation_metadata():
    """A truncated recorder yields a span_truncation metadata event."""
    obs = _truncated_obs()
    trace = chrome_trace(obs.recorder)
    assert validate_chrome_trace(trace) == []
    (note,) = [ev for ev in trace["traceEvents"]
               if ev["name"] == "span_truncation"]
    assert note["args"]["dropped"] == obs.recorder.dropped
    assert "[truncated:" in note["args"]["note"]


def test_write_trace_file_refuses_invalid_traces(tmp_path):
    """The validated write funnel raises instead of shipping garbage."""
    from repro.obs import TraceValidationError, write_trace_file

    path = tmp_path / "bad.json"
    bad = {"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 1}]}
    with pytest.raises(TraceValidationError) as err:
        write_trace_file(str(path), bad)
    assert not path.exists()  # nothing reached disk
    assert err.value.path == str(path)
    assert any("non-numeric 'ts'" in p for p in err.value.problems)
    # validate=False is the explicit escape hatch.
    assert write_trace_file(str(path), bad, validate=False) == 1
    assert path.exists()
