"""Scenario execution: outcome contract, corpus, fuzz/shrink, CLI.

The corpus under ``scenarios/`` is the living specification: every
file must validate, run, and land exactly where its ``[expect]`` table
says (no table = must pass).  On top of that, this module checks the
outcome dict's shape and determinism, that the fuzzer finds the
injected ``violate_atomicity`` defect and shrinks it to a 1-minimal
replayable scenario, and the CLI exit-code contract.
"""

import gc
import glob
import json
import os
import random

import pytest

from repro.cli import main
from repro.scenario.fuzz import (
    failure_signature,
    fuzz,
    mutate_scenario,
    random_scenario,
    shrink_scenario,
)
from repro.scenario.runner import (
    matches_expectation,
    run_scenario,
    run_scenario_cell,
    run_scenarios,
)
from repro.scenario.schema import FAILURE_KINDS, Scenario

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = sorted(glob.glob(os.path.join(REPO, "scenarios", "*.toml")))
CORPUS_IDS = [os.path.basename(p) for p in CORPUS]


def _quick_doc(**extra):
    doc = {
        "scenario": {"name": extra.pop("name", "quick")},
        "topology": {"global_protocol": "CXL",
                     "clusters": [{"protocol": "MESI", "mcm": "TSO"},
                                  {"protocol": "MOESI", "mcm": "WEAK"}]},
        "workloads": [{"name": "histogram", "scale": 0.08}],
        "seeds": {"root": 7},
    }
    doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# Outcome contract.
# ---------------------------------------------------------------------------

def test_outcome_shape_and_determinism():
    scenario = Scenario.from_dict(_quick_doc())
    outcome = run_scenario(scenario)
    assert list(outcome) == ["scenario", "status", "failure", "exec_time",
                             "events", "messages", "digest", "faults",
                             "host_events", "rule2_violations", "coverage"]
    assert outcome["status"] == "ok" and outcome["failure"] is None
    assert outcome["digest"] and len(outcome["digest"]) == 64
    assert outcome["coverage"] == sorted(set(outcome["coverage"]))
    assert any(s.startswith("state:") for s in outcome["coverage"])
    assert "verdict:ok" in outcome["coverage"]
    # Same scenario, fresh run: identical outcome (and identical JSON).
    again = run_scenario(Scenario.from_dict(_quick_doc()))
    assert json.dumps(outcome, sort_keys=True) == \
        json.dumps(again, sort_keys=True)


def test_outcome_is_json_pure():
    outcome = run_scenario(Scenario.from_dict(_quick_doc()))
    assert json.loads(json.dumps(outcome)) == outcome


@pytest.mark.parametrize("faults", [[], [{"kind": "delay", "vnet": "resp",
                                        "delay_ns": 40, "count": 4}]],
                         ids=["clean", "delayed"])
def test_finished_scenario_leaves_nothing_for_the_collector(faults):
    """A passing scenario detaches its span layer and its monitor stops
    re-posting, so reference counting frees the whole run: the span
    recorder, the fault plan and the system."""
    scenario = Scenario.from_dict(_quick_doc(faults=faults))
    expected = run_scenario(scenario)  # also fills one-off caches
    gc.collect()
    gc.disable()
    try:
        outcome = run_scenario(scenario)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert outcome == expected and outcome["status"] == "ok"


def test_run_scenario_cell_round_trips_the_dict():
    scenario = Scenario.from_dict(_quick_doc())
    assert run_scenario_cell(scenario.to_dict()) == run_scenario(scenario)


def test_run_scenarios_rejects_duplicate_names():
    scenario = Scenario.from_dict(_quick_doc())
    with pytest.raises(ValueError, match="duplicate scenario name"):
        run_scenarios([scenario, scenario])


def test_run_scenarios_jobs_alone_picks_the_pool(pool_sizes):
    """``jobs > 1`` runs the batch over a pool; the default stays
    in-process."""
    scenarios = [Scenario.from_dict(_quick_doc(name=f"q{i}"))
                 for i in range(2)]
    pooled = run_scenarios(scenarios, jobs=2)
    assert pool_sizes == [2]
    assert run_scenarios(scenarios) == pooled
    assert pool_sizes == [2]  # jobs=1: no second pool


def test_workload_mix_interleaves_threads():
    from repro.scenario.runner import build_programs

    doc = _quick_doc()
    doc["workloads"] = [{"name": "histogram", "scale": 0.08},
                        {"name": "kmeans", "scale": 0.08}]
    scenario = Scenario.from_dict(doc)
    programs = build_programs(scenario, 4)
    assert len(programs) == 4
    # tid % len(mix) assigns alternating workloads; the two histogram
    # threads come from one coherent build (not two scale-halved ones).
    assert programs[0].name != programs[1].name or \
        programs[0].ops != programs[1].ops


def test_deadlock_classification():
    doc = _quick_doc(name="dead")
    doc["faults"] = [{"kind": "drop", "vnet": "req", "count": 1}]
    outcome = run_scenario(Scenario.from_dict(doc))
    assert outcome["status"] == "fail"
    assert outcome["failure"]["kind"] == "deadlock"
    assert outcome["digest"] is None


def test_matches_expectation_contract():
    ok = {"status": "ok", "failure": None}
    fail = {"status": "fail", "failure": {"kind": "deadlock", "message": ""}}
    plain = Scenario(name="plain")
    expecting = Scenario(name="exp", expect_failure="deadlock")
    assert matches_expectation(plain, ok)
    assert not matches_expectation(plain, fail)
    assert matches_expectation(expecting, fail)
    assert not matches_expectation(expecting, ok)
    wrong = {"status": "fail", "failure": {"kind": "crash", "message": ""}}
    assert not matches_expectation(expecting, wrong)


# ---------------------------------------------------------------------------
# The shipped corpus is the specification.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", CORPUS, ids=CORPUS_IDS)
def test_corpus_scenario_lands_where_expected(path):
    scenario = Scenario.load(path)
    outcome = run_scenario(scenario)
    assert matches_expectation(scenario, outcome), (
        f"{scenario.name}: expected "
        f"{scenario.expect_failure or 'pass'}, got {outcome['failure']}")


def test_corpus_faulted_runs_actually_fire_faults():
    fired = 0
    for path in CORPUS:
        scenario = Scenario.load(path)
        if not scenario.faults:
            continue
        outcome = run_scenario(scenario)
        fired += sum(outcome["faults"].values())
    assert fired > 0


# ---------------------------------------------------------------------------
# Fuzzer: generation, defect detection, shrinking.
# ---------------------------------------------------------------------------

def test_random_scenarios_always_validate():
    rng = random.Random(3)
    for index in range(50):
        scenario = random_scenario(rng, index,
                                   defect=bool(index % 2))
        # from_dict(to_dict) succeeding IS the validity check.
        assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_mutations_always_validate():
    rng = random.Random(4)
    scenario = random_scenario(rng, 0)
    for step in range(40):
        scenario = mutate_scenario(scenario, rng, step)
        assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_fuzz_finds_injected_defect_and_fixture_replays(tmp_path):
    report = fuzz(max_scenarios=24, seed=1, defect=True,
                  fixture_dir=str(tmp_path), max_findings=1)
    assert report.findings, "defect mode must find a failure quickly"
    finding = report.findings[0]
    assert finding.kind in FAILURE_KINDS
    assert finding.shrunk is not None
    assert finding.fixture is not None
    # The written fixture deterministically replays red with the
    # recorded failure kind.
    replayed = Scenario.load(finding.fixture)
    assert replayed.expect_failure == finding.kind
    outcome = run_scenario(replayed)
    assert matches_expectation(replayed, outcome)


def test_shrink_reaches_one_minimal(tmp_path):
    # A failing scenario with removable baggage: the drop deadlocks,
    # the delay fault / extra workload / link override are noise.
    doc = _quick_doc(name="noisy")
    doc["workloads"] = [{"name": "histogram", "scale": 0.08},
                        {"name": "kmeans", "scale": 0.05}]
    doc["links"] = {"cross_link_ns": 150.0}
    doc["faults"] = [
        {"kind": "delay", "vnet": "resp", "delay_ns": 80.0,
         "probability": 0.3},
        {"kind": "drop", "vnet": "req", "count": 1},
    ]
    scenario = Scenario.from_dict(doc)
    baseline = failure_signature(run_scenario(scenario))
    assert baseline == "deadlock"
    shrunk, probes = shrink_scenario(scenario)
    assert probes > 0
    assert shrunk.expect_failure == "deadlock"
    # 1-minimal: everything irrelevant is gone, the culprit remains.
    assert len(shrunk.faults) == 1 and shrunk.faults[0].kind == "drop"
    assert len(shrunk.workloads) == 1
    assert shrunk.links == ()
    # And it still fails the same way.
    assert failure_signature(run_scenario(shrunk)) == "deadlock"


def test_fuzz_respects_max_scenarios():
    report = fuzz(max_scenarios=4, seed=2, defect=False, shrink=False,
                  batch_size=4)
    assert report.scenarios_run <= 8  # at most one extra batch
    assert report.coverage_size > 0


def test_pooled_fuzz_session_starts_one_pool(pool_sizes):
    report = fuzz(max_scenarios=4, seed=2, jobs=2,
                  shrink=False, batch_size=2)
    assert report.scenarios_run == 4  # two batches
    assert pool_sizes == [2]


# ---------------------------------------------------------------------------
# CLI exit codes.
# ---------------------------------------------------------------------------

def test_cli_validate_ok_and_invalid(tmp_path, capsys):
    good = tmp_path / "good.toml"
    Scenario.from_dict(_quick_doc()).dump(good)
    bad = tmp_path / "bad.toml"
    bad.write_text('[scenario]\nname = "x"\n', encoding="utf-8")
    assert main(["scenario", "validate", str(good)]) == 0
    assert main(["scenario", "validate", str(good), str(bad)]) == 1
    err = capsys.readouterr().err
    assert "topology" in err  # path-qualified message surfaced


def test_cli_run_expectation_exit_codes(tmp_path, capsys):
    passing = tmp_path / "pass.toml"
    Scenario.from_dict(_quick_doc(name="pass")).dump(passing)
    assert main(["scenario", "run", str(passing)]) == 0

    doc = _quick_doc(name="surprise")
    doc["faults"] = [{"kind": "drop", "vnet": "req", "count": 1}]
    surprise = tmp_path / "surprise.toml"
    Scenario.from_dict(doc).dump(surprise)
    assert main(["scenario", "run", str(surprise)]) == 1
    assert "MISMATCH" in capsys.readouterr().out

    doc["expect"] = {"failure": "deadlock"}
    expected = tmp_path / "expected.toml"
    Scenario.from_dict(doc).dump(expected)
    assert main(["scenario", "run", str(expected)]) == 0


def test_cli_run_jobs_picks_the_pool(tmp_path, capsys, pool_sizes):
    """``scenario run --jobs 2`` takes the pool; no ``--jobs`` stays
    in-process."""
    paths = []
    for name in ("one", "two"):
        path = tmp_path / f"{name}.toml"
        Scenario.from_dict(_quick_doc(name=name)).dump(path)
        paths.append(str(path))
    assert main(["scenario", "run", *paths]) == 0
    assert pool_sizes == []
    assert main(["scenario", "run", *paths, "--jobs", "2"]) == 0
    assert pool_sizes == [2]
    assert capsys.readouterr().out.count("ok       ") == 4


def test_cli_run_json_output(tmp_path, capsys):
    path = tmp_path / "json.toml"
    Scenario.from_dict(_quick_doc(name="json")).dump(path)
    assert main(["scenario", "run", str(path), "--json"]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["name"] == "json" and record["expected"] is True
    assert record["outcome"]["status"] == "ok"


def test_cli_shrink_refuses_passing_scenario(tmp_path, capsys):
    path = tmp_path / "fine.toml"
    Scenario.from_dict(_quick_doc(name="fine")).dump(path)
    assert main(["scenario", "shrink", str(path)]) == 1
    assert "does not fail" in capsys.readouterr().err


def test_cli_shrink_writes_minimal_toml(tmp_path, capsys):
    doc = _quick_doc(name="shrinkme")
    doc["faults"] = [{"kind": "delay", "vnet": "resp", "delay_ns": 80.0},
                     {"kind": "drop", "vnet": "req", "count": 1}]
    path = tmp_path / "shrinkme.toml"
    Scenario.from_dict(doc).dump(path)
    out = tmp_path / "minimal.toml"
    assert main(["scenario", "shrink", str(path), "--out", str(out)]) == 0
    shrunk = Scenario.load(out)
    assert shrunk.expect_failure == "deadlock"
    assert len(shrunk.faults) == 1
