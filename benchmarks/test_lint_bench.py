"""Protocol-linter wall time: it must stay far below one simulation.

The linter's reason to exist is gating sweeps: every sweep cell can
afford a static lint of its protocol pairing only if the lint is orders
of magnitude cheaper than the simulation it guards.  This benchmark
times the full five-pass lint of every registered pairing (synthesis
excluded -- pairings are pre-generated, as after a sweep's first
cell), times one small reference workload simulation, and asserts the
*total* lint wall time stays well under that single simulation.

Per-pair timings are appended to ``BENCH_lint.json`` at the repo root
so linter cost across environments accumulates over time.
"""

import json
import os
import pathlib
import time

from repro.analysis import ProtocolLinter, registered_pairs
from repro.core.generator import generate
from repro.harness.experiments import run_workload

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_lint.json"

#: The lint of ALL pairings must cost less than this fraction of one
#: small simulation (it is typically < 1% on the reference box).
MAX_FRACTION_OF_ONE_SIM = 0.5


def test_lint_wall_time_is_negligible_next_to_a_simulation(save_result):
    compounds = {
        f"{l}-{g}": generate(l, g) for l, g in registered_pairs()}
    linter = ProtocolLinter()

    per_pair = {}
    for name, compound in compounds.items():
        start = time.perf_counter()
        report = linter.lint(compound)
        per_pair[name] = time.perf_counter() - start
        assert report.clean(strict=True), report.format()
    lint_total_s = sum(per_pair.values())

    start = time.perf_counter()
    run_workload("fft", scale=0.3)
    sim_s = time.perf_counter() - start

    assert lint_total_s < sim_s * MAX_FRACTION_OF_ONE_SIM, (
        f"linting all {len(per_pair)} pairs took {lint_total_s:.4f}s, "
        f"not << one simulation ({sim_s:.4f}s): too slow to gate sweeps")

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count(),
        "pairs": {name: round(seconds, 6)
                  for name, seconds in sorted(per_pair.items())},
        "lint_total_s": round(lint_total_s, 6),
        "reference_sim_s": round(sim_s, 4),
        "lint_over_sim": round(lint_total_s / sim_s, 6),
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
        "lint_bench",
        f"lint of {len(per_pair)} pairs: {lint_total_s * 1e3:.2f} ms total "
        f"vs one fft simulation {sim_s:.3f}s "
        f"({record['lint_over_sim']:.4%} of one sim)",
    )
