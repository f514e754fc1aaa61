"""Tests for the parallel sweep runner and compound-FSM memoization."""

import pytest

import repro.core.generator as generator
from repro.harness.experiments import FIG10_COMBOS, figure10
from repro.harness.sweep import (
    CellOutput,
    SweepCell,
    SweepRunner,
    resolve_jobs,
    run_cells,
    split_metrics,
)
from repro.protocols.variants import global_variant, local_variant


def _square(x):
    """Module-level cell fn (picklable under the spawn start method)."""
    return x * x


# ---------------------------------------------------------------------------
# SweepRunner mechanics.
# ---------------------------------------------------------------------------

def test_jobs1_exercises_serial_path():
    runner = SweepRunner(jobs=1)
    out = runner.map(SweepCell(key=i, fn=_square, kwargs={"x": i})
                     for i in range(4))
    assert runner.last_mode == "serial"
    assert out == {0: 0, 1: 1, 2: 4, 3: 9}


def test_parallel_pool_path_and_key_order():
    runner = SweepRunner(jobs=2)
    out = runner.map(SweepCell(key=("k", i), fn=_square, kwargs={"x": i})
                     for i in range(6))
    assert runner.last_mode == "parallel"
    assert out == {("k", i): i * i for i in range(6)}
    assert list(out) == [("k", i) for i in range(6)]  # deterministic order


def test_unpicklable_cell_falls_back_to_serial():
    runner = SweepRunner(jobs=2)
    out = runner.map([SweepCell(key=i, fn=lambda x=i: x + 1) for i in range(3)])
    assert runner.last_mode == "serial"
    assert runner.last_fallback is not None
    assert out == {0: 1, 1: 2, 2: 3}


def test_single_cell_skips_the_pool():
    runner = SweepRunner(jobs=8)
    assert runner.map([SweepCell(key="only", fn=_square, kwargs={"x": 3})]) \
        == {"only": 9}
    assert runner.last_mode == "serial"


def test_held_runner_reuses_one_pool(pool_sizes):
    """Inside ``with`` the first fanned-out map starts a ``jobs``-sized
    pool and later maps reuse it; a bare map starts and closes its own."""
    cells = [SweepCell(key=i, fn=_square, kwargs={"x": i}) for i in range(2)]
    with SweepRunner(jobs=3) as runner:
        assert runner.map(cells[:1]) == {0: 0}  # one cell: no pool yet
        assert pool_sizes == []
        for _ in range(3):
            assert runner.map(cells) == {0: 0, 1: 1}
            assert runner.last_mode == "parallel"
    assert pool_sizes == [3]
    bare = SweepRunner(jobs=3)
    bare.map(cells)
    bare.map(cells)
    assert pool_sizes == [3, 2, 2]


def test_duplicate_keys_rejected():
    runner = SweepRunner(jobs=1)
    with pytest.raises(ValueError, match="duplicate"):
        runner.map([SweepCell(key="a", fn=_square, kwargs={"x": 1}),
                    SweepCell(key="a", fn=_square, kwargs={"x": 2})])


def test_run_cells_convenience():
    assert run_cells(_square, {i: {"x": i} for i in range(3)}, jobs=1) \
        == {0: 0, 1: 1, 2: 4}


def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(3) == 3
    import os
    assert resolve_jobs(None) == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5
    assert resolve_jobs(2) == 2  # explicit beats the env knob
    monkeypatch.setenv("REPRO_JOBS", "banana")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        resolve_jobs(None)
    with pytest.raises(ValueError, match=">= 1"):
        resolve_jobs(0)


# ---------------------------------------------------------------------------
# Progress reporting and per-cell metric rollups.
# ---------------------------------------------------------------------------

def test_progress_callback_fires_on_serial_path():
    seen = []
    runner = SweepRunner(jobs=1, progress=lambda *a: seen.append(a))
    runner.map(SweepCell(key=i, fn=_square, kwargs={"x": i}) for i in range(3))
    assert [(done, total) for done, total, _k, _w in seen] \
        == [(1, 3), (2, 3), (3, 3)]
    assert [key for _d, _t, key, _w in seen] == [0, 1, 2]
    assert all(wall >= 0.0 for _d, _t, _k, wall in seen)


def test_progress_callback_fires_on_parallel_path():
    seen = []
    runner = SweepRunner(jobs=2, progress=lambda *a: seen.append(a))
    out = runner.map(SweepCell(key=i, fn=_square, kwargs={"x": i})
                     for i in range(5))
    assert runner.last_mode == "parallel"
    assert out == {i: i * i for i in range(5)}
    # Completion order is nondeterministic, but every cell reports once
    # and the done counter is a permutation of 1..N.
    assert sorted(done for done, _t, _k, _w in seen) == [1, 2, 3, 4, 5]
    assert sorted(key for _d, _t, key, _w in seen) == [0, 1, 2, 3, 4]
    assert all(total == 5 for _d, total, _k, _w in seen)


def test_split_metrics_unpacks_cell_outputs():
    values, rollups = split_metrics({
        "plain": 3,
        "wrapped": CellOutput(value=7, metrics={"ops": 12}),
        "no-rollup": CellOutput(value=9),
    })
    assert values == {"plain": 3, "wrapped": 7, "no-rollup": 9}
    assert rollups == {"wrapped": {"ops": 12}}


# ---------------------------------------------------------------------------
# Figure sweeps: parallel == serial, bit for bit.
# ---------------------------------------------------------------------------

def test_figure10_parallel_matches_serial():
    grid = dict(workloads=["vips", "histogram"], combos=FIG10_COMBOS[:2],
                scale=0.3, seeds=(1,))
    serial = figure10(jobs=1, **grid)
    parallel = figure10(jobs=2, **grid)
    assert serial.times == parallel.times
    assert serial.workloads == parallel.workloads
    assert serial.combos == parallel.combos


# ---------------------------------------------------------------------------
# Compound-FSM memoization.
# ---------------------------------------------------------------------------

def test_generator_synthesizes_once_per_pair_per_process():
    generator.clear_fsm_cache()
    before = generator.synthesis_runs()
    for _ in range(5):
        generator.generated_policy_factory(
            local_variant("MESI"), global_variant("CXL"))
        generator.generate("MESI", "CXL")
    assert generator.synthesis_runs() - before == 1
    generator.generate("MOESI", "CXL")
    generator.generate("MOESI", "CXL")
    assert generator.synthesis_runs() - before == 2


def test_memoized_compound_matches_fresh_synthesis():
    cached = generator.generate("MESI", "CXL")
    assert generator.generate("MESI", "CXL") is cached  # same object
    generator.clear_fsm_cache()
    fresh = generator.generate("MESI", "CXL")
    assert fresh is not cached
    assert fresh.up_table == cached.up_table
    assert fresh.down_table == cached.down_table
    assert fresh.reachable == cached.reachable
    assert fresh.forbidden == cached.forbidden
    assert fresh.rows == cached.rows


def test_generator_writes_nothing_to_disk(tmp_path, monkeypatch):
    """Memoization is in-process only: the retired ``REPRO_FSM_CACHE``
    knob no longer makes the generator pickle a pairing anywhere."""
    monkeypatch.setenv("REPRO_FSM_CACHE", str(tmp_path))
    generator.clear_fsm_cache()
    before = generator.synthesis_runs()
    generator.generate("MESIF", "CXL")
    assert generator.synthesis_runs() - before == 1
    assert list(tmp_path.iterdir()) == []


def test_warm_fsm_cache_preloads_pairs():
    generator.clear_fsm_cache()
    before = generator.synthesis_runs()
    pairs = (("MESI", "CXL"), ("MOESI", "CXL"))
    generator.warm_fsm_cache(pairs)
    assert generator.synthesis_runs() - before == 2
    generator.warm_fsm_cache(pairs)  # idempotent
    assert generator.synthesis_runs() - before == 2
