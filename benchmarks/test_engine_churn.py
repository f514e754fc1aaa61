"""Engine-core throughput: legacy heapq loop vs the batched engine.

Not a paper figure: this is the performance contract of the slotted/
batched event core (``repro.sim.engine``).  Three post/drain churn
scenarios -- bulk posting over a wide horizon, deep same-tick fans and
strictly sparse singleton ticks -- are timed against both engines with rounds interleaved (so
thermal/load drift hits both equally) and medians compared.  The gate:
the batched core must run >= 2x the legacy object-at-a-time loop.

An fft cell (the heaviest Fig. 11 workload) is also run end-to-end
under both engines and must produce byte-identical ``RunResult``
pickles -- the speedup must be invisible to the simulation.  Measured
numbers append to ``BENCH_engine.json`` at the repo root so engine
throughput across CI environments accumulates over time.
"""

import gc
import json
import os
import pathlib
import pickle
import statistics
import time

import pytest

import repro.sim.system as system_module
from repro.sim.engine import BatchedEngine, LegacyEngine

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Events per churn scenario and interleaved timing rounds per backend.
N_EVENTS = 40_000
ROUNDS = 5

BACKENDS = [("legacy", LegacyEngine), ("batched", BatchedEngine)]


# ---------------------------------------------------------------------------
# Churn scenarios.  Each drives one engine instance through N_EVENTS of
# scheduling work and drains it; the callback is list.append so the
# engine dominates the measurement, not the workload.
# ---------------------------------------------------------------------------

def _churn_bulk(engine):
    """post() across a 1024-tick horizon (mixed bucket sizes)."""
    sink = []
    post = engine.post
    for i in range(N_EVENTS):
        post(i & 1023, sink.append, i)
    engine.run()


def _churn_sametick(engine):
    """post() into just 8 ticks (deep same-tick batch drains)."""
    sink = []
    post = engine.post
    for i in range(N_EVENTS):
        post(i & 7, sink.append, i)
    engine.run()


def _churn_sparse(engine):
    """post() onto strictly increasing ticks (singleton buckets)."""
    sink = []
    post = engine.post
    for i in range(N_EVENTS):
        post(i * 3 + (i % 7), sink.append, i)
    engine.run()


SCENARIOS = (
    ("bulk", _churn_bulk),
    ("sametick", _churn_sametick),
    ("sparse", _churn_sparse),
)


def _measure_churn():
    """Median seconds per (scenario, backend), rounds interleaved.

    Cyclic GC is paused while timing: collection epochs cost roughly
    constant wall time per churn run, which taxes the fast cores
    proportionally harder, and the epoch cost scales with the whole
    test session's object graph rather than with the engine under test.
    """
    samples = {(scenario, name): []
               for scenario, _fn in SCENARIOS for name, _cls in BACKENDS}
    gc.collect()
    gc.disable()
    try:
        for _round in range(ROUNDS):
            for scenario, fn in SCENARIOS:
                for name, engine_cls in BACKENDS:
                    engine = engine_cls()
                    start = time.perf_counter()
                    fn(engine)
                    samples[(scenario, name)].append(
                        time.perf_counter() - start)
                    del engine
                    gc.collect()
    finally:
        gc.enable()
    return {key: statistics.median(times) for key, times in samples.items()}


def _fft_cell(engine_cls, monkeypatch):
    """One Fig. 11 fft cell end-to-end under ``engine_cls``."""
    from repro.harness.experiments import run_workload

    monkeypatch.setattr(system_module, "Engine", engine_cls)
    start = time.perf_counter()
    result = run_workload("fft", combo=("MESI", "CXL", "MESI"),
                          mcms=("WEAK", "WEAK"), scale=0.3, seed=5)
    return time.perf_counter() - start, pickle.dumps(result)


@pytest.mark.engine_bench
def test_engine_churn_throughput_gates(benchmark, save_result, monkeypatch):
    medians = benchmark.pedantic(_measure_churn, rounds=1, iterations=1)

    totals = {name: sum(medians[(scenario, name)]
                        for scenario, _fn in SCENARIOS)
              for name, _cls in BACKENDS}
    ratios = {name: totals["legacy"] / totals[name]
              for name, _cls in BACKENDS}
    events_per_sec = {name: round(len(SCENARIOS) * N_EVENTS / totals[name])
                      for name, _cls in BACKENDS}

    # End-to-end: the fastest backend must be bit-for-bit invisible.
    fft = {name: _fft_cell(cls, monkeypatch) for name, cls in BACKENDS}
    reference_blob = fft["legacy"][1]
    for name, (_seconds, blob) in fft.items():
        assert blob == reference_blob, (
            f"backend {name!r} changed the fft RunResult byte stream")

    assert ratios["batched"] >= 2.0, (
        f"batched engine only {ratios['batched']:.2f}x legacy on the "
        f"churn composite (gate: 2.0x); medians={medians}")

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count(),
        "events_per_scenario": N_EVENTS,
        "rounds": ROUNDS,
        "scenario_s": {
            scenario: {name: round(medians[(scenario, name)], 4)
                       for name, _cls in BACKENDS}
            for scenario, _fn in SCENARIOS
        },
        "composite_s": {name: round(seconds, 4)
                        for name, seconds in totals.items()},
        "events_per_sec": events_per_sec,
        "ratio_batched_over_legacy": round(ratios["batched"], 4),
        "fft_end_to_end_s": {name: round(seconds, 4)
                             for name, (seconds, _blob) in fft.items()},
    }
    history = []
    if BENCH_JSON.exists():
        try:
            history = json.loads(BENCH_JSON.read_text())
        except (ValueError, OSError):
            history = []
    history.append(record)
    BENCH_JSON.write_text(json.dumps(history, indent=2) + "\n")

    save_result(
        "engine_core",
        f"churn composite ({len(SCENARIOS)}x{N_EVENTS} events): batched "
        f"{ratios['batched']:.2f}x legacy; fft end-to-end "
        + ", ".join(f"{name} {seconds:.2f}s"
                    for name, (seconds, _blob) in fft.items()),
    )
