"""End-to-end workload-cell message throughput: the stock stack vs the
legacy event loop with cyclic GC on.

Not a paper figure: this is the performance contract of the event core
and message path as they run every simulation (``BatchedEngine``, GC
suspended across the drain loop, the one ``Network.send``).  Every one
of the eight protocol pairings -- four local protocols x two global
protocols -- runs one histogram cell end-to-end under two stacks:

- **fast**: the stock stack, i.e. what ``run_workload`` does today;
- **baseline**: ``LegacyEngine`` (the object-at-a-time heapq loop) with
  the same stock ``Network`` and the cyclic GC left on during the drain
  loop.

Rounds are interleaved so machine-load drift hits both stacks equally,
and each (pairing, stack) keeps its best-of-``ROUNDS`` time -- the
robust statistic on noisy shared machines.

The speedup must also be *invisible*: the same cell, clean and under a
faulted scenario (delay + reorder rules), must produce byte-identical
``RunResult`` pickles on both engines.

**On the gate level.**  Per-message cost is spread across the protocol
handlers, not concentrated in the engine or the network, so the
end-to-end contrast is modest (see ``docs/PERFORMANCE.md``).  The gate
is set at the level the measurement clears with margin
(``MIN_COMPOSITE_RATIO``), every pairing must at least not regress, and
every run appends the *actual* ratio to ``BENCH_sim.json`` so the
trajectory stays on the record.
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
from repro.scenario.faults import FaultPlan, FaultRule
from repro.sim.config import two_cluster_config
from repro.sim.engine import BatchedEngine, LegacyEngine
from repro.sim.system import build_system

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sim.json"

#: The eight Fig. 9/10 protocol pairings: local x global.
LOCAL_PROTOCOLS = ("MESI", "MESIF", "MOESI", "RCC")
GLOBAL_PROTOCOLS = ("CXL", "MESI")
PAIRINGS = [(local, glob)
            for glob in GLOBAL_PROTOCOLS for local in LOCAL_PROTOCOLS]

#: The timed cell: histogram is the heaviest-traffic Fig. 11 kernel per
#: simulated tick, and cores_per_cluster=4 gives ``send_many`` real
#: fan-out (3 sharers per invalidation sweep).
WORKLOAD = "histogram"
SCALE = 0.5
CORES_PER_CLUSTER = 4
SEED = 1
ROUNDS = 3

#: Composite gate: fast stack vs baseline stack, sum over all pairings.
#: Set at the level the interleaved measurement actually clears on a
#: 1-CPU CI box -- see the module docstring.
MIN_COMPOSITE_RATIO = 1.10

BACKENDS = [("legacy", LegacyEngine), ("batched", BatchedEngine)]


def _run_cell(local, glob, scale=SCALE, seed=SEED):
    from repro.harness.experiments import run_workload

    return run_workload(WORKLOAD, combo=(local, glob, local),
                        cores_per_cluster=CORES_PER_CLUSTER,
                        scale=scale, seed=seed)


def _time_cell(local, glob):
    # process_time: on the 1-CPU CI boxes wall clock carries the
    # neighbors' noise; CPU seconds are what the two stacks contrast.
    start = time.process_time()
    result = _run_cell(local, glob)
    return time.process_time() - start, result


def _measure():
    """Best-of-ROUNDS seconds per (pairing, stack), rounds interleaved."""
    best = {}
    messages = {}
    gc.collect()
    for _round in range(ROUNDS):
        for pairing in PAIRINGS:
            for stack in ("baseline", "fast"):
                with pytest.MonkeyPatch.context() as mp:
                    if stack == "baseline":
                        mp.setattr(system_module, "Engine", LegacyEngine)
                        # The baseline pays the cyclic GC during the
                        # drain loop; neutralize the engines' GC
                        # suspension so it still does.
                        mp.setattr(gc, "isenabled", lambda: False)
                    else:
                        mp.setattr(system_module, "Engine", BatchedEngine)
                    seconds, result = _time_cell(*pairing)
                key = (pairing, stack)
                if key not in best or seconds < best[key]:
                    best[key] = seconds
                messages[pairing] = result.messages
    return best, messages


# ---------------------------------------------------------------------------
# Throughput gate + BENCH_sim.json record.
# ---------------------------------------------------------------------------

@pytest.mark.sim_bench
def test_workload_cell_throughput_gates(save_result):
    best, messages = _measure()

    per_pairing = {}
    for pairing in PAIRINGS:
        fast_s = best[(pairing, "fast")]
        baseline_s = best[(pairing, "baseline")]
        per_pairing[pairing] = {
            "fast_s": fast_s,
            "baseline_s": baseline_s,
            "ratio": baseline_s / fast_s,
            "messages": messages[pairing],
            "msgs_per_sec": messages[pairing] / fast_s,
        }

    composite_fast = sum(best[(p, "fast")] for p in PAIRINGS)
    composite_baseline = sum(best[(p, "baseline")] for p in PAIRINGS)
    composite_ratio = composite_baseline / composite_fast
    median_ratio = statistics.median(
        cell["ratio"] for cell in per_pairing.values())

    for (l, g), cell in per_pairing.items():
        assert cell["ratio"] >= 1.0, (
            f"fast stack regressed on {l}/{g}: {cell['ratio']:.2f}x the "
            f"baseline stack (fast {cell['fast_s']:.4f}s vs baseline "
            f"{cell['baseline_s']:.4f}s)")
    assert composite_ratio >= MIN_COMPOSITE_RATIO, (
        f"fast stack only {composite_ratio:.2f}x the baseline stack on the "
        f"{len(PAIRINGS)}-pairing composite (gate: "
        f"{MIN_COMPOSITE_RATIO}x); per-pairing="
        + ", ".join(f"{l}/{g} {c['ratio']:.2f}x"
                    for (l, g), c in per_pairing.items()))

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count(),
        "workload": WORKLOAD,
        "scale": SCALE,
        "cores_per_cluster": CORES_PER_CLUSTER,
        "rounds": ROUNDS,
        "gate_speedup_composite": MIN_COMPOSITE_RATIO,
        "speedup_composite": round(composite_ratio, 4),
        "speedup_median_pairing": round(median_ratio, 4),
        "composite_fast_s": round(composite_fast, 4),
        "composite_baseline_s": round(composite_baseline, 4),
        "pairings": {
            f"{local}/{glob}": {
                "fast_s": round(cell["fast_s"], 4),
                "baseline_s": round(cell["baseline_s"], 4),
                "speedup": round(cell["ratio"], 4),
                "messages": cell["messages"],
                "msgs_per_sec": round(cell["msgs_per_sec"]),
            }
            for (local, glob), cell in per_pairing.items()
        },
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
        "sim_bench",
        f"workload-cell composite ({len(PAIRINGS)} pairings, {WORKLOAD} "
        f"scale={SCALE} x{CORES_PER_CLUSTER} cores/cluster): fast stack "
        f"{composite_ratio:.2f}x baseline stack (gate "
        f"{MIN_COMPOSITE_RATIO}x, median pairing {median_ratio:.2f}x); "
        + "; ".join(
            f"{local}/{glob} {cell['msgs_per_sec']:,.0f} msg/s "
            f"({cell['ratio']:.2f}x)"
            for (local, glob), cell in per_pairing.items()),
    )


# ---------------------------------------------------------------------------
# Invisibility: byte-identical RunResult pickles across engines.
# ---------------------------------------------------------------------------

def _assert_identical_across_engines(runner, what):
    """``runner()`` must return the same bytes on every engine."""
    blobs = {}
    for backend_name, engine_cls in BACKENDS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(system_module, "Engine", engine_cls)
            blobs[backend_name] = runner()
    reference = blobs.pop("legacy")
    for backend_name, blob in blobs.items():
        assert blob == reference, (
            f"engine {backend_name!r} changed the {what} byte stream")


@pytest.mark.sim_bench
def test_runresult_pickles_identical_across_engines():
    def clean_cell():
        return pickle.dumps(_run_cell("MESI", "CXL", scale=0.25, seed=3))

    _assert_identical_across_engines(clean_cell, "clean-cell RunResult")


@pytest.mark.sim_bench
def test_faulted_run_pickles_identical_across_engines():
    def faulted_cell():
        from repro.workloads import WORKLOADS

        config = two_cluster_config("MESI", "CXL", "MESI", mcm_a="TSO",
                                    mcm_b="WEAK", cores_per_cluster=2,
                                    seed=3)
        system = build_system(config)
        # Delay and reorder keep the protocols live end-to-end; drop
        # and duplicate parity is pinned at the network layer by
        # tests/test_engine_parity.py (a dropped request deadlocks a
        # real run and a duplicated grant is a protocol error).
        system.network.faults = FaultPlan([
            FaultRule("delay", vnet="resp", delay_ticks=700,
                      probability=0.25),
            FaultRule("reorder", vnet="fwd", delay_ticks=2_000,
                      window=(0, 3)),
        ], seed=11)
        programs = WORKLOADS[WORKLOAD].build(config.total_cores,
                                             scale=0.25, seed=3)
        return pickle.dumps(system.run_threads(programs))

    _assert_identical_across_engines(faulted_cell, "faulted-run RunResult")
