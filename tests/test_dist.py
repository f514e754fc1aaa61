"""Tests for the sweep runner's two execution paths.

:class:`SweepRunner` runs cells in-process (``jobs=1``) or over a
``multiprocessing`` pool (``jobs > 1``); ``jobs`` is the only knob that
picks the path.  Covered here: empty batches, per-cell error capture on
both paths, and serial-vs-pool byte equality on a figure grid.

Pool workers unpickle cell functions by reference, so every cell
function used across a process boundary here is module-level.
"""

import pickle

import pytest

from repro.harness.sweep import (
    CellFailure,
    SweepCell,
    SweepCellError,
    SweepRunner,
    run_cells,
)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"cell {x} exploded")


# ---------------------------------------------------------------------------
# Empty batches.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "local"])
def test_empty_submit_returns_empty_dict(jobs):
    assert SweepRunner(jobs=jobs).map([]) == {}


# ---------------------------------------------------------------------------
# Per-cell error capture.
# ---------------------------------------------------------------------------

def test_parallel_cell_exception_no_longer_aborts_the_sweep():
    """Regression: one raising cell used to propagate out of the pool
    mid-sweep and abort everything; now every other cell completes and
    the failure is reported once, at the end, with results attached."""
    runner = SweepRunner(jobs=2)
    cells = [SweepCell(key=i, fn=_boom if i == 2 else _square,
                       kwargs={"x": i}) for i in range(5)]
    with pytest.raises(SweepCellError) as excinfo:
        runner.map(cells)
    assert runner.last_mode == "parallel"
    error = excinfo.value
    assert set(error.failures) == {2}
    assert error.failures[2].exc_type == "ValueError"
    assert "cell 2 exploded" in error.failures[2].message
    assert error.results == {0: 0, 1: 1, 3: 9, 4: 16}
    assert "1 of 5" in str(error)


def test_serial_cell_exception_is_captured_the_same_way():
    with pytest.raises(SweepCellError) as excinfo:
        run_cells(_boom, {"only": {"x": 7}}, jobs=1)
    assert excinfo.value.failures["only"].exc_type == "ValueError"
    assert "ValueError" in str(excinfo.value)


def test_capture_errors_returns_failures_in_the_result_dict():
    runner = SweepRunner(jobs=2, capture_errors=True)
    cells = [SweepCell(key=i, fn=_boom if i % 2 else _square,
                       kwargs={"x": i}) for i in range(4)]
    out = runner.map(cells)
    assert out[0] == 0 and out[2] == 4
    assert isinstance(out[1], CellFailure)
    assert isinstance(out[3], CellFailure)
    assert out[1].traceback  # full traceback travels with the failure


def test_cell_failure_roundtrips_through_pickle():
    try:
        raise ValueError("boom")
    except ValueError as exc:
        failure = CellFailure.from_exception(exc)
    clone = pickle.loads(pickle.dumps(failure))
    assert clone == failure
    assert "raise ValueError" in clone.traceback
    assert "ValueError" in str(clone)


# ---------------------------------------------------------------------------
# Serial-vs-pool determinism.
# ---------------------------------------------------------------------------

def test_backends_are_byte_identical_on_a_figure_grid():
    """The same Fig. 10 grid through the serial loop (``jobs=1``) and
    the process pool (``jobs=2``) must produce byte-identical result
    dicts."""
    from repro.harness.experiments import FIG10_COMBOS, figure10

    grid = dict(workloads=["vips", "histogram"], combos=FIG10_COMBOS[:2],
                scale=0.3, seeds=(1,))
    serial = figure10(jobs=1, **grid)
    pool = figure10(jobs=2, **grid)
    assert serial.times == pool.times
    assert pickle.dumps(serial.times) == pickle.dumps(pool.times)
