"""Tests for the benchmark's own code.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import measure  # noqa: E402
import suite  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_times_of_nested_spans_sum_to_the_root():
    spans = [
        ("op", 0.0, 10.0, -1),
        ("engine", 1.0, 9.0, 0),
        ("network", 2.0, 3.0, 1),
        ("l1", 4.0, 6.5, 1),
        ("bridge", 5.0, 6.0, 3),
        ("system", 9.5, 10.0, 0),
    ]
    times = self_times(spans)
    assert times == [1.5, 4.5, 1.0, 1.5, 1.0, 0.5]
    assert sum(times) == spans[0][2] - spans[0][1]


def test_self_time_counts_overlapping_children_once():
    spans = [("op", 0.0, 4.0, -1), ("a", 1.0, 3.0, 0), ("b", 2.0, 3.5, 0)]
    assert self_times(spans)[0] == 1.5


def test_p90_is_refused_with_fewer_than_ten_samples_beyond_it():
    assert measure.percentile([float(i) for i in range(99)], 90) is None
    assert measure.percentile([float(i) for i in range(100)], 90) is not None
    assert measure.percentile([1.0] * 200, 90) is None


def test_p50_of_a_large_sample():
    assert measure.percentile([float(i) for i in range(101)], 50) == 50.0


def _book(pins, require_pins=True):
    return measure.Book(pins, require_pins=require_pins)


def test_perturbed_digest_is_a_failed_op():
    book = _book({"histogram/MESI-CXL-MESI/7": {"digest": "ab"}})
    book.record("histogram/MESI-CXL-MESI/7", 0.01, {"digest": "ac"}, [])
    assert (book.attempted, book.failed) == (1, 1)


def test_perturbed_state_count_is_a_failed_op():
    pinned = {"states": 1659, "terminals": 3}
    book = _book({"SB/MESI-CXL-MESI": pinned})
    book.record("SB/MESI-CXL-MESI", 0.5, dict(pinned), [])
    book.record("SB/MESI-CXL-MESI", 0.5, {"states": 1658, "terminals": 3}, [])
    assert (book.attempted, book.failed) == (2, 1)


def test_held_out_seed_still_compares_passes():
    book = _book({}, require_pins=False)
    book.record("vips/RCC-MESI-RCC/9", 0.01, {"digest": "ab"}, [])
    book.record("vips/RCC-MESI-RCC/9", 0.01, {"digest": "ab"}, [])
    assert book.failed == 0
    book.record("vips/RCC-MESI-RCC/9", 0.01, {"digest": "zz"}, [])
    assert book.failed == 1


def test_missing_pin_at_the_default_seed_is_a_failed_op():
    book = _book({})
    book.record("barnes/MESI-CXL-MESI/3", 0.01, {"digest": "ab"}, [])
    assert book.failed == 1


def test_failed_output_check_is_a_failed_op():
    book = _book({}, require_pins=False)
    book.record("fault-drop-deadlock/5", 0.01, {"digest": "ab"},
                ["[expect] not met"])
    assert book.failed == 1


def test_traced_cell_matches_untraced_and_keeps_the_fast_lane():
    from repro.sim.config import two_cluster_config
    from repro.sim.network import Network
    from repro.workloads import WORKLOADS

    cells = suite.Cells()
    cells.setup(1)
    config = two_cluster_config("MESI", "CXL", "MOESI", cores_per_cluster=2,
                                seed=5)
    programs = WORKLOADS["histogram"].build(config.total_cores, scale=0.05,
                                            seed=5)
    untraced = cells.run((config, programs))
    send, send_many = Network.send, Network.send_many
    tracer = Tracer()
    tracer.install()
    try:
        # The condition under which send_many leaves its fast lane.
        network = cells._system.build_system(config).network
        assert network.__class__.send is Network.send
        assert "send" not in vars(network)
        tracer.op_begin("cell")
        traced = cells.run((config, programs))
        tracer.op_end(traced)
    finally:
        tracer.uninstall()
    assert (Network.send, Network.send_many) == (send, send_many)
    assert traced.fingerprint == untraced.fingerprint
    assert not traced.problems
    assert tracer.calls["network.send"] > 0
    assert tracer.counts["network.msgs"] == untraced.work
    assert tracer.self_s["engine"] > 0


def test_percentiles_see_each_op_as_its_median_run():
    book = _book({}, require_pins=False)
    for latency in (1.0, 2.0, 100.0):
        book.record("SB/RCC-CXL-RCC", latency, {"states": 237}, [])
    book.record("LB/RCC-CXL-RCC", 5.0, {"states": 193}, [])
    assert sorted(book.op_latencies()) == [2.0, 2.0, 2.0, 5.0]
