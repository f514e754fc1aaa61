"""Coverage-guided scenario fuzzing with shrink-to-fixture replay.

The fuzzer walks the scenario space the DSL spans: each round it
generates a batch of random scenarios (fresh ones, plus mutations of
the *corpus* -- scenarios that previously visited behaviour nobody
else had), runs the batch through one sweep runner (serial loop or
process pool, started once per session), and
keeps whatever widened coverage.  Coverage is the runner's signal set:
compound-state transitions, span kinds, message kinds, fired fault
verbs and verdicts (see ``repro.scenario.runner``).

A failing scenario (invariant, deadlock, crash, or Rule-II audit) is
shrunk with the ``mc.counterexample`` discipline -- delete one
declarative element at a time (a fault rule, a host event, an extra
workload, a link override), keep the deletion only when the re-run
still fails with the same kind, repeat to a 1-minimal fixpoint -- then
re-run once more and written as a TOML regression fixture whose
``[expect]`` table records the failure it must keep reproducing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import time

from repro.scenario.runner import matches_expectation, run_scenario
from repro.scenario.schema import (
    ClusterSpec,
    FaultSpec,
    HostEventSpec,
    Scenario,
    ScenarioError,
    WorkloadMix,
)

#: Kernels whose hot lines ping-pong between clusters: the traffic that
#: makes an injected Rule-II defect actually manifest.
CONTENDED_WORKLOADS = ("histogram", "word_count", "reverse_index",
                       "canneal", "barnes")
#: Quieter kernels mixed in when exploring without a defect.
QUIET_WORKLOADS = ("vips", "fft", "dedup", "kmeans", "radix")

_PAIRINGS = [(local, global_)
             for local in ("MESI", "MESIF", "MOESI", "RCC")
             for global_ in ("CXL", "MESI")]


@dataclasses.dataclass
class FuzzFinding:
    """One failing scenario the fuzzer found (and possibly shrunk)."""

    scenario: Scenario
    outcome: dict
    shrunk: Scenario | None = None
    probes: int = 0
    fixture: str | None = None

    @property
    def kind(self) -> str:
        """The failure classification of the original finding."""
        return self.outcome["failure"]["kind"]

    def to_dict(self) -> dict:
        """JSON-ready summary."""
        data = {
            "kind": self.kind,
            "message": self.outcome["failure"]["message"],
            "scenario": self.scenario.to_dict(),
            "probes": self.probes,
        }
        if self.shrunk is not None:
            data["shrunk"] = self.shrunk.to_dict()
        if self.fixture is not None:
            data["fixture"] = self.fixture
        return data


@dataclasses.dataclass
class FuzzReport:
    """What one fuzzing session did."""

    scenarios_run: int = 0
    elapsed_s: float = 0.0
    coverage_size: int = 0
    corpus_size: int = 0
    findings: list = dataclasses.field(default_factory=list)

    @property
    def scenarios_per_s(self) -> float:
        """Fuzzing throughput (the BENCH_fuzz.json trajectory field)."""
        return self.scenarios_run / self.elapsed_s if self.elapsed_s else 0.0

    def to_dict(self) -> dict:
        """JSON-ready summary."""
        return {
            "scenarios_run": self.scenarios_run,
            "elapsed_s": round(self.elapsed_s, 3),
            "scenarios_per_s": round(self.scenarios_per_s, 3),
            "coverage_size": self.coverage_size,
            "corpus_size": self.corpus_size,
            "findings": [finding.to_dict() for finding in self.findings],
        }


# ---------------------------------------------------------------------------
# Random generation and mutation.
# ---------------------------------------------------------------------------

def random_scenario(rng: random.Random, index: int,
                    defect: bool = False) -> Scenario:
    """One random valid scenario.

    ``defect=True`` biases toward configurations where the injected
    ``violate_atomicity`` defect can actually manifest: contended
    kernels, store-buffered cores, a tight invariant sampling period.
    """
    if defect:
        local = rng.choice(("MESI", "MESIF", "MOESI"))
        global_ = "CXL"
        mcm = "TSO"
        names = [rng.choice(CONTENDED_WORKLOADS)]
        scale = rng.uniform(0.25, 0.6)
        period = 25.0
    else:
        local, global_ = rng.choice(_PAIRINGS)
        mcm = "RCC" if local == "RCC" else rng.choice(("SC", "TSO", "WEAK"))
        names = [rng.choice(CONTENDED_WORKLOADS + QUIET_WORKLOADS)]
        if rng.random() < 0.3:
            names.append(rng.choice(QUIET_WORKLOADS))
        scale = rng.uniform(0.05, 0.25)
        period = rng.choice((50.0, 100.0, 250.0))
    clusters = tuple(ClusterSpec(protocol=local, mcm=mcm,
                                 cores=rng.choice((1, 2, 2)))
                     for _ in range(2))
    workloads = tuple(WorkloadMix(name=name, scale=round(scale, 3))
                      for name in dict.fromkeys(names))
    faults = tuple(_random_fault(rng) for _ in range(rng.randrange(3)))
    events = ()
    if not defect and rng.random() < 0.15:
        events = (HostEventSpec(kind="leave", cluster=rng.randrange(2),
                                at_ns=float(rng.randrange(200, 2_000))),)
    return Scenario(
        name=f"fuzz-{index:06d}",
        global_protocol=global_,
        clusters=clusters,
        workloads=workloads,
        root_seed=rng.randrange(1, 1 << 16),
        faults=faults,
        events=events,
        violate_atomicity=defect,
        invariant_period_ns=period,
    )


def _random_fault(rng: random.Random) -> FaultSpec:
    kind = rng.choice(("delay", "delay", "reorder", "duplicate", "drop"))
    vnet = rng.choice((None, "req", "fwd", "resp"))
    delay_ns = round(rng.uniform(20.0, 300.0), 1) \
        if kind in ("delay", "reorder") else 0.0
    probability = rng.choice((1.0, 1.0, 0.5, 0.25))
    count = rng.choice((-1, -1, 1, 4)) if kind in ("drop", "duplicate") else -1
    return FaultSpec(kind=kind, vnet=vnet, delay_ns=delay_ns,
                     probability=probability, count=count)


def mutate_scenario(scenario: Scenario, rng: random.Random,
                    index: int) -> Scenario:
    """A small random perturbation of a corpus scenario."""
    choice = rng.randrange(5)
    kwargs: dict = {"name": f"fuzz-{index:06d}"}
    if choice == 0:
        kwargs["root_seed"] = rng.randrange(1, 1 << 16)
    elif choice == 1:
        kwargs["faults"] = scenario.faults + (_random_fault(rng),)
    elif choice == 2 and scenario.faults:
        drop = rng.randrange(len(scenario.faults))
        kwargs["faults"] = (scenario.faults[:drop]
                            + scenario.faults[drop + 1:])
    elif choice == 3:
        kwargs["workloads"] = tuple(
            WorkloadMix(w.name, round(min(w.scale * rng.uniform(0.6, 1.6),
                                          10.0), 3))
            for w in scenario.workloads)
    else:
        kwargs["root_seed"] = scenario.root_seed + 1
    return dataclasses.replace(scenario, **kwargs)


# ---------------------------------------------------------------------------
# Shrinking (the mc.counterexample discipline on declarative elements).
# ---------------------------------------------------------------------------

def failure_signature(outcome: dict) -> str | None:
    """The shrink-preserved signature: the failure kind (None = green)."""
    failure = outcome["failure"]
    return None if failure is None else failure["kind"]


def _deletion_candidates(scenario: Scenario) -> list[Scenario]:
    """Every one-element-smaller scenario (the ddmin deletion set)."""
    out = []
    for index in range(len(scenario.faults)):
        out.append(dataclasses.replace(
            scenario, faults=(scenario.faults[:index]
                              + scenario.faults[index + 1:])))
    for index in range(len(scenario.events)):
        out.append(dataclasses.replace(
            scenario, events=(scenario.events[:index]
                              + scenario.events[index + 1:])))
    if len(scenario.workloads) > 1:
        for index in range(len(scenario.workloads)):
            out.append(dataclasses.replace(
                scenario, workloads=(scenario.workloads[:index]
                                     + scenario.workloads[index + 1:])))
    for index in range(len(scenario.links)):
        out.append(dataclasses.replace(
            scenario, links=(scenario.links[:index]
                             + scenario.links[index + 1:])))
    return out


def shrink_scenario(scenario: Scenario,
                    max_probes: int = 150) -> tuple[Scenario, int]:
    """Shrink a failing scenario to a 1-minimal declarative form.

    Deletes one fault rule / host event / extra workload / link
    override at a time (rightmost first, like the model checker's path
    shrinker), keeping a deletion only when the deterministic re-run
    still fails with the same kind.  Stops at a fixpoint: no single
    remaining element can be deleted.  Returns the shrunk scenario
    (with ``expect_failure`` pinned to the signature) and the probe
    count.
    """
    baseline = failure_signature(run_scenario(scenario))
    probes = 1
    if baseline is None:
        return scenario, probes
    current = scenario
    changed = True
    while changed and probes < max_probes:
        changed = False
        for candidate in reversed(_deletion_candidates(current)):
            probes += 1
            if probes > max_probes:
                break
            if failure_signature(run_scenario(candidate)) == baseline:
                current = candidate
                changed = True
                break
    return dataclasses.replace(current, expect_failure=baseline), probes


def write_fixture(scenario: Scenario, fixture_dir: str) -> str | None:
    """Verify a shrunk scenario replays red, then write its fixture.

    The fixture is only written after one more full replay reproduces
    the expected failure -- the same proven-to-fail contract the model
    checker's counterexample fixtures carry.  Returns the path, or
    None when the replay no longer fails as expected.
    """
    outcome = run_scenario(scenario)
    if not matches_expectation(scenario, outcome) \
            or scenario.expect_failure is None:
        return None
    text = scenario.dumps()
    tag = hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]
    os.makedirs(fixture_dir, exist_ok=True)
    path = os.path.join(fixture_dir,
                        f"{scenario.expect_failure}-{tag}.toml")
    fixture = dataclasses.replace(scenario,
                                  name=f"{scenario.expect_failure}-{tag}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(fixture.dumps())
    return path


# ---------------------------------------------------------------------------
# The fuzzing loop.
# ---------------------------------------------------------------------------

def fuzz(
    budget_seconds: float | None = None,
    max_scenarios: int | None = None,
    seed: int = 1,
    backend=None,
    jobs: int | None = None,
    defect: bool = False,
    fixture_dir: str | None = None,
    batch_size: int = 8,
    max_findings: int = 3,
    shrink: bool = True,
    log=None,
) -> FuzzReport:
    """Run one coverage-guided fuzzing session (see module docstring).

    Stops at ``budget_seconds`` wall time or ``max_scenarios`` runs
    (whichever comes first; at least one batch always runs), or once
    ``max_findings`` failures have been found and processed.  ``log``
    is an optional ``log(text)`` progress sink.
    """
    from repro.harness.sweep import SweepCell, SweepRunner

    if budget_seconds is None and max_scenarios is None:
        max_scenarios = 32
    rng = random.Random(seed)
    # Held open across batches: a pooled session starts one pool.
    runner = SweepRunner(jobs=jobs, backend=backend or "serial",
                         capture_errors=True)
    report = FuzzReport()
    seen: set[str] = set()
    corpus: list[Scenario] = []
    started = time.monotonic()
    index = 0
    with runner:
        while True:
            elapsed = time.monotonic() - started
            if budget_seconds is not None and report.scenarios_run \
                    and elapsed >= budget_seconds:
                break
            if max_scenarios is not None \
                    and report.scenarios_run >= max_scenarios:
                break
            if len(report.findings) >= max_findings:
                break

            batch: list[Scenario] = []
            for _ in range(batch_size):
                if corpus and rng.random() < 0.5:
                    candidate = mutate_scenario(rng.choice(corpus), rng, index)
                    try:
                        candidate = Scenario.from_dict(candidate.to_dict())
                    except ScenarioError:
                        candidate = random_scenario(rng, index, defect=defect)
                else:
                    candidate = random_scenario(rng, index, defect=defect)
                batch.append(candidate)
                index += 1
            by_name = {scenario.name: scenario for scenario in batch}
            cells = [SweepCell(key=s.name, fn=_fuzz_cell,
                               kwargs={"data": s.to_dict()}) for s in batch]
            results = runner.map(cells)
            report.scenarios_run += len(batch)

            for name, outcome in results.items():
                if outcome is None or not isinstance(outcome, dict):
                    continue  # a worker-side crash captured as CellFailure
                novel = set(outcome["coverage"]) - seen
                if novel:
                    seen.update(novel)
                    corpus.append(by_name[name])
                if outcome["status"] != "fail" \
                        or len(report.findings) >= max_findings:
                    continue
                finding = FuzzFinding(scenario=by_name[name], outcome=outcome)
                if log is not None:
                    log(f"[fuzz] {finding.kind}: {name} "
                        f"({outcome['failure']['message'][:70]})")
                if shrink:
                    finding.shrunk, finding.probes = \
                        shrink_scenario(by_name[name])
                    if fixture_dir is not None:
                        finding.fixture = write_fixture(finding.shrunk,
                                                        fixture_dir)
                        if log is not None and finding.fixture:
                            log(f"[fuzz] fixture: {finding.fixture} "
                                f"(shrunk in {finding.probes} probes)")
                report.findings.append(finding)
            if log is not None:
                log(f"[fuzz] {report.scenarios_run} scenarios, "
                    f"{len(seen)} coverage signals, "
                    f"{len(report.findings)} finding(s), "
                    f"{time.monotonic() - started:.1f}s")

    report.elapsed_s = time.monotonic() - started
    report.coverage_size = len(seen)
    report.corpus_size = len(corpus)
    return report


def _fuzz_cell(data: dict) -> dict:
    """Module-level sweep-cell wrapper (pickles by reference)."""
    from repro.scenario.runner import run_scenario_cell

    return run_scenario_cell(data)
