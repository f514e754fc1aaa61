"""Observability overhead: obs-off must stay free, obs-on must stay cheap.

Not a paper figure: this is the acceptance gate for the `repro.obs`
instrumentation hooks.  Two measurements on the small fft simulation:

- **obs-off regression** -- with observability disabled every hook is a
  single ``is None`` test on a class attribute, so the instrumented
  simulator must run within 5% of the pre-instrumentation baseline.
  The baseline is the median historical serial wall time recorded in
  ``BENCH_sweep.json`` for the same 18-cell Fig. 10 grid; the candidate
  is the min of repeated runs (min-vs-median absorbs CI box noise in
  the conservative direction).
- **obs-on overhead** -- full span + metrics collection on one fft run,
  reported as a ratio over the obs-off run of the same workload.  Spans
  allocate per memory op, so this is bounded loosely (4x) and recorded
  for trend tracking rather than gated tightly.

All measurements are appended to ``BENCH_obs.json`` at the repo root,
same scheme as ``BENCH_sweep.json``.  See ``docs/OBSERVABILITY.md``.
"""

import json
import os
import pathlib
import statistics
import time

import pytest

from repro.harness.experiments import FIG10_COMBOS, figure10, run_workload

BENCH_OBS = pathlib.Path(__file__).resolve().parent.parent / "BENCH_obs.json"
BENCH_SWEEP = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

#: Same grid as benchmarks/test_sweep_scaling.py, so historical
#: ``serial_s`` entries in BENCH_sweep.json are directly comparable.
GRID = dict(
    workloads=["vips", "histogram", "barnes"],
    combos=FIG10_COMBOS[:2],
    scale=0.8,
    seeds=(1, 2, 3),
)
GRID_CELLS = len(GRID["workloads"]) * len(GRID["combos"]) * len(GRID["seeds"])


def _sweep_baseline_s() -> float | None:
    """Median historical serial wall time for the same grid, if recorded."""
    if not BENCH_SWEEP.exists():
        return None
    try:
        history = json.loads(BENCH_SWEEP.read_text())
    except (ValueError, OSError):
        return None
    samples = [entry["serial_s"] for entry in history
               if entry.get("grid_cells") == GRID_CELLS
               and isinstance(entry.get("serial_s"), (int, float))]
    return statistics.median(samples) if samples else None


def _append_record(record: dict) -> None:
    history = []
    if BENCH_OBS.exists():
        try:
            history = json.loads(BENCH_OBS.read_text())
        except (ValueError, OSError):
            history = []
    history.append(record)
    BENCH_OBS.write_text(json.dumps(history, indent=2) + "\n")


@pytest.mark.obs_overhead
def test_obs_off_and_on_overhead(benchmark, save_result):
    def run():
        # obs-off: the instrumented code paths with every hook dormant.
        off_samples = []
        for _ in range(2):
            start = time.perf_counter()
            figure10(jobs=1, **GRID)
            off_samples.append(time.perf_counter() - start)
        obs_off_s = min(off_samples)

        # obs-on: full span + metrics collection on one small fft run.
        start = time.perf_counter()
        plain = run_workload("fft", scale=0.5, seed=1)
        fft_off_s = time.perf_counter() - start
        start = time.perf_counter()
        traced = run_workload("fft", scale=0.5, seed=1, obs=True)
        fft_on_s = time.perf_counter() - start
        return obs_off_s, fft_off_s, fft_on_s, plain, traced

    obs_off_s, fft_off_s, fft_on_s, plain, traced = benchmark.pedantic(
        run, rounds=1, iterations=1)

    # Observability must not distort the simulation itself.
    assert traced.exec_time == plain.exec_time
    assert traced.extra["obs"]["spans"]["open"] == 0

    baseline_s = _sweep_baseline_s()
    regression = obs_off_s / baseline_s if baseline_s else None
    overhead = fft_on_s / fft_off_s if fft_off_s > 0 else float("inf")

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count(),
        "grid_cells": GRID_CELLS,
        "obs_off_s": round(obs_off_s, 4),
        "sweep_baseline_s": round(baseline_s, 4) if baseline_s else None,
        "obs_off_over_baseline": round(regression, 4) if regression else None,
        "fft_obs_off_s": round(fft_off_s, 4),
        "fft_obs_on_s": round(fft_on_s, 4),
        "obs_on_overhead": round(overhead, 4),
        "spans_recorded": traced.extra["obs"]["spans"]["total"],
    }
    _append_record(record)
    save_result(
        "obs_overhead",
        f"obs-off {GRID_CELLS}-cell grid: {obs_off_s:.3f}s vs baseline "
        f"{baseline_s if baseline_s else 'n/a'} "
        f"(ratio {regression if regression else 'n/a'})\n"
        f"fft obs-on {fft_on_s:.3f}s vs obs-off {fft_off_s:.3f}s "
        f"({overhead:.2f}x, {record['spans_recorded']} spans)")

    # Acceptance gate: <= 5% obs-off regression against the recorded
    # pre-instrumentation baseline (only when a baseline exists).
    if regression is not None:
        assert regression <= 1.05, (
            f"obs-off sweep took {obs_off_s:.3f}s vs baseline "
            f"{baseline_s:.3f}s ({regression:.2f}x > 1.05x bound)")
    # Loose sanity bound on the obs-on cost of one small run.
    assert overhead <= 4.0, (
        f"obs-on fft took {fft_on_s:.3f}s vs {fft_off_s:.3f}s obs-off "
        f"({overhead:.2f}x > 4x bound)")
