"""Differential scenario runs: serial vs pool and engines must agree exactly.

Extends the ``test_engine_parity`` discipline to the scenario layer,
including *faulted* runs: the same scenario corpus must produce
byte-identical outcome dicts whether executed serially or through the
local process pool, and whether the batched engine or the legacy
reference loop drives it.
"""

import glob
import json
import os

import pytest

import repro.sim.system as system_module
from repro.scenario.runner import run_scenario, run_scenarios
from repro.scenario.schema import Scenario
from repro.sim.engine import BatchedEngine, LegacyEngine

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = sorted(glob.glob(os.path.join(REPO, "scenarios", "*.toml")))

#: The differential subset: every faulted/churned corpus scenario plus
#: one fault-free pairing baseline (keeps the matrix fast but honest).
DIFF_PATHS = [p for p in CORPUS
              if Scenario.load(p).faults or Scenario.load(p).events]
DIFF_PATHS += [p for p in CORPUS if os.path.basename(p) ==
               "pairing-mesi-cxl.toml"]
DIFF_IDS = [os.path.basename(p) for p in DIFF_PATHS]


def _scenarios():
    return [Scenario.load(path) for path in DIFF_PATHS]


def _canon(outcomes: dict) -> str:
    return json.dumps(outcomes, sort_keys=True)


# ---------------------------------------------------------------------------
# Execution-path parity: serial (jobs=1) vs pool (jobs=2).
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [2], ids=["pool"])
def test_backends_match_serial_bit_for_bit(jobs):
    scenarios = _scenarios()
    reference = _canon(run_scenarios(scenarios, jobs=1))
    outcomes = run_scenarios(scenarios, jobs=jobs)
    assert _canon(outcomes) == reference, (
        f"jobs={jobs} produced different scenario outcomes")


# ---------------------------------------------------------------------------
# Engine parity: batched vs legacy, per scenario.
# ---------------------------------------------------------------------------

ENGINES = [("python", BatchedEngine), ("legacy", LegacyEngine)]


@pytest.mark.parametrize("path", DIFF_PATHS, ids=DIFF_IDS)
def test_engines_match_per_scenario(monkeypatch, path):
    scenario = Scenario.load(path)
    outcomes = {}
    for name, engine_cls in ENGINES:
        monkeypatch.setattr(system_module, "Engine", engine_cls)
        outcomes[name] = run_scenario(scenario)
    reference = outcomes.pop("legacy")
    for name, outcome in outcomes.items():
        assert outcome == reference, (
            f"engine {name!r} diverged on {scenario.name}")

