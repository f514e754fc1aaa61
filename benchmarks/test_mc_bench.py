"""Model-checker throughput: mc serial vs sharded over the process pool.

Not a paper figure: this keeps the sharded engine honest.  It explores
the SB litmus program exhaustively (~1.7k states) two ways -- the mc
engine with one shard, and the mc engine partitioned into 4 shards over
a 2-worker local process pool (one pool for the whole search, started
at the first fanned-out wave, so its forked workers inherit the FSM the
coordinator's inline waves already generated) -- asserts the two searches agree
exactly (states, terminals, outcomes), and records states/second for
each.

The speedup gate is adaptive: partition-by-hash only pays when real
cores run the shards, so the ``sharded >= 1.3x serial`` bound applies
on multi-core hosts only.  On a single-core box the sharded run still
must complete and agree; its ratio is recorded honestly so the history
in ``BENCH_explore.json`` shows the trajectory across environments.
"""

import json
import os
import pathlib
import time

import pytest

from repro.core.generator import FSM_CACHE_ENV, clear_fsm_cache
from repro.verify.mc.engine import ModelChecker
from repro.verify.mc.model import litmus_model

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_explore.json"

COMBO = ("MESI", "CXL", "MESI")
LITMUS = "SB"
SHARDS = 4
WORKERS = 2


def _mc_rate(shards: int, backend: str):
    """Exhaustive mc run; returns (result, states/sec)."""
    model = litmus_model(LITMUS, COMBO)
    checker = ModelChecker(model, shards=shards, backend=backend,
                           max_states=0, jobs=WORKERS)
    start = time.perf_counter()
    result = checker.run()
    return result, result.states / (time.perf_counter() - start)


@pytest.mark.mc_bench
def test_sharded_exploration_throughput(benchmark, save_result, tmp_path,
                                        monkeypatch):
    monkeypatch.setenv(FSM_CACHE_ENV, str(tmp_path / "fsm"))
    clear_fsm_cache()

    def run():
        serial, serial_rate = _mc_rate(1, "serial")
        sharded, sharded_rate = _mc_rate(SHARDS, "local")
        return serial, serial_rate, sharded, sharded_rate

    try:
        serial, serial_rate, sharded, sharded_rate = benchmark.pedantic(
            run, rounds=1, iterations=1)
    finally:
        clear_fsm_cache()

    # The two searches are the same search.
    assert not serial.truncated and not sharded.truncated
    assert serial.states == sharded.states
    assert serial.terminals == sharded.terminals
    assert serial.outcomes == sharded.outcomes
    assert serial.ok and sharded.ok

    cores = os.cpu_count() or 1
    ratio_sharded_serial = sharded_rate / serial_rate
    if cores >= 2:
        # With real cores under the pool, partitioning must pay.
        assert ratio_sharded_serial >= 1.3, (
            f"sharded {sharded_rate:.0f} st/s vs serial {serial_rate:.0f} "
            f"st/s ({ratio_sharded_serial:.2f}x < 1.3x on {cores} cores)")

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": cores,
        "litmus": LITMUS,
        "combo": "-".join(COMBO),
        "states": serial.states,
        "shards": SHARDS,
        "workers": WORKERS,
        "mc_serial_states_per_s": round(serial_rate, 1),
        "mc_sharded_states_per_s": round(sharded_rate, 1),
        "ratio_sharded_over_serial": round(ratio_sharded_serial, 4),
        "rounds": sharded.rounds,
        "replays_sharded": sharded.replays,
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
        "mc_throughput",
        f"{LITMUS} on {'-'.join(COMBO)}: {serial.states} states; "
        f"mc serial {serial_rate:.0f} st/s, "
        f"mc {SHARDS}-shard/local:{WORKERS} {sharded_rate:.0f} st/s "
        f"({ratio_sharded_serial:.2f}x serial, cpu_count={cores})",
    )
