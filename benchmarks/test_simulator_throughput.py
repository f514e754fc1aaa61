"""Simulator-substrate micro-benchmarks (engine/protocol throughput).

Not a paper figure: these keep the reproduction honest about its own
costs and catch performance regressions in the substrate.
"""

from repro.harness.experiments import run_workload
from repro.sim.engine import Engine


def test_engine_event_throughput(benchmark):
    def churn():
        engine = Engine()
        count = {"n": 0}

        def tick():
            count["n"] += 1
            if count["n"] < 20_000:
                engine.post(1, tick)

        engine.post(0, tick)
        engine.run()
        return count["n"]

    events = benchmark(churn)
    assert events == 20_000


def test_workload_simulation_rate(benchmark):
    result = benchmark.pedantic(
        lambda: run_workload("fft", combo=("MESI", "CXL", "MESI"), scale=0.5),
        rounds=3, iterations=1,
    )
    assert result.stats.ops > 0


def test_litmus_run_rate(benchmark):
    from repro.verify.litmus import MP
    from repro.verify.runner import run_litmus

    result = benchmark.pedantic(
        lambda: run_litmus(MP, runs=10),
        rounds=2, iterations=1,
    )
    assert result.runs == 10
