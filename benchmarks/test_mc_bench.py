"""Model-checker throughput: the serial search on SB.

Not a paper figure.  It explores the SB litmus program on MESI-CXL-MESI
exhaustively, asserts a clean verdict over the pinned 1,659 states, and
appends the states/second it measured to ``BENCH_explore.json`` so the
history shows the trajectory across environments.  It records, and
gates nothing on speed: speed claims go through perfbench's A/B.
"""

import json
import os
import pathlib
import time

import pytest

from repro.core.generator import clear_fsm_cache
from repro.verify.mc.engine import check_model
from repro.verify.mc.model import litmus_model

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_explore.json"

COMBO = ("MESI", "CXL", "MESI")
LITMUS = "SB"


@pytest.mark.mc_bench
def test_serial_exploration_throughput(benchmark, save_result):
    clear_fsm_cache()

    def run():
        model = litmus_model(LITMUS, COMBO)
        start = time.perf_counter()
        result = check_model(model, max_states=0)
        return result, result.states / (time.perf_counter() - start)

    try:
        result, rate = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        clear_fsm_cache()

    assert result.ok
    assert result.states == 1659

    cores = os.cpu_count() or 1
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": cores,
        "litmus": LITMUS,
        "combo": "-".join(COMBO),
        "states": result.states,
        "mc_serial_states_per_s": round(rate, 1),
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
        f"{LITMUS} on {'-'.join(COMBO)}: {result.states} states; "
        f"mc serial {rate:.0f} st/s (cpu_count={cores})",
    )
