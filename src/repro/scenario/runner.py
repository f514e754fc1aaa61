"""Execute scenarios: build, fault, run, classify, summarize.

:func:`run_scenario` is the single execution path behind the
``scenario run``/``fuzz``/``shrink`` CLI and the fuzzer: it builds the
system a :class:`~repro.scenario.schema.Scenario` describes, installs
the fault plan and host-churn events, always attaches the span layer
(the runtime Rule-II audit) and the periodic invariant monitor, runs
the workload mix, and reduces everything to one canonical, picklable
*outcome* dict.

Outcome contract (the differential tests depend on it):

- pure JSON types with deterministic construction order, so two runs
  of the same scenario -- in any process, serially or through the
  process pool -- compare equal (and serialize to
  identical JSON);
- ``status`` is ``"ok"`` or ``"fail"``; ``failure`` carries
  ``{"kind", "message"}`` with kind in
  :data:`~repro.scenario.schema.FAILURE_KINDS`.  Classification
  priority: a monitored invariant violation beats the exception that
  surfaced it, then deadlock/crash from the run itself, then post-run
  invariants, then the Rule-II span audit;
- ``digest`` hashes the architectural result (exec time, registers,
  op counts), the same fields the engine-parity tests pin;
- ``coverage`` is the sorted set of behaviour signals this run
  visited -- compound-state transitions and span kinds from the span
  layer, message kinds, fired fault verbs, and the verdict -- the
  fuzzer's novelty signal.
"""

from __future__ import annotations

import hashlib
import json

from repro.errors import ConsistencyViolation, ProtocolError
from repro.obs import Observability
from repro.scenario.faults import FaultPlan
from repro.scenario.schema import Scenario
from repro.sim.config import ns
from repro.sim.system import build_system
from repro.verify import invariants
from repro.workloads import WORKLOADS

#: Event cap per scenario run: plenty for corpus scales, and it turns a
#: runaway (livelocked) random scenario into a classified deadlock
#: instead of an unbounded fuzzing stall.
MAX_EVENTS = 10_000_000


def build_programs(scenario: Scenario, total_cores: int) -> list:
    """The per-core thread programs for a scenario's workload mix.

    Workload ``i`` of the mix owns every core index with
    ``index % len(mix) == i``; each workload builds its programs with
    its own derived seed, so adding a workload to the mix never
    perturbs another's memory trace.
    """
    mixes = scenario.workloads
    built = {}
    for mix in mixes:
        if mix.name not in built:
            built[mix.name] = WORKLOADS[mix.name].build(
                total_cores, scale=mix.scale,
                seed=scenario.workload_seed(mix.name))
    return [built[mixes[tid % len(mixes)].name][tid]
            for tid in range(total_cores)]


def run_scenario(scenario: Scenario) -> dict:
    """Run one scenario and return its canonical outcome dict."""
    config = scenario.system_config()
    system = build_system(config,
                          violate_atomicity=scenario.violate_atomicity)
    plan = FaultPlan.from_scenario(scenario)
    if plan is not None:
        system.network.faults = plan
    obs = Observability(spans=True, metrics=False).attach(system)
    violations = invariants.attach_monitor(
        system, period_ticks=ns(scenario.invariant_period_ns))
    if scenario.events:
        system.schedule_host_events(
            [(e.kind, e.cluster, ns(e.at_ns)) for e in scenario.events])
    programs = build_programs(scenario, config.total_cores)

    failure = None
    result = None
    try:
        result = system.run_threads(programs, max_events=MAX_EVENTS)
    except ProtocolError as exc:
        kind = "deadlock" if str(exc).startswith("deadlock") else "crash"
        failure = {"kind": kind, "message": str(exc)}
    except ConsistencyViolation as exc:
        failure = {"kind": "invariant", "message": str(exc)}
    except Exception as exc:
        failure = {"kind": "crash",
                   "message": f"{type(exc).__name__}: {exc}"}
    if violations:
        failure = {"kind": "invariant", "message": str(violations[0])}
    if failure is None:
        try:
            invariants.check_all(system)
        except ConsistencyViolation as exc:
            failure = {"kind": "invariant", "message": str(exc)}
    recorder = obs.recorder
    rule2 = len(recorder.violations) if recorder is not None else 0
    if failure is None and rule2:
        failure = {"kind": "rule2",
                   "message": recorder.violations[0].detail}

    outcome = {
        "scenario": scenario.name,
        "status": "ok" if failure is None else "fail",
        "failure": failure,
        "exec_time": result.exec_time if result is not None else None,
        "events": result.events if result is not None else None,
        "messages": system.network.stats.messages,
        "digest": _result_digest(result),
        "faults": dict(sorted(plan.counters.items())) if plan else {},
        "host_events": dict(sorted(system.host_events.items())),
        "rule2_violations": rule2,
        "coverage": _coverage(system, recorder, plan, failure),
    }
    # The span layer is the one cycle a finished scenario system is
    # part of; unhooked, the system frees itself when dropped.
    obs.detach()
    return outcome


def _result_digest(result) -> str | None:
    """sha256 over the architectural result (None for failed runs)."""
    if result is None:
        return None
    payload = {
        "exec_time": result.exec_time,
        "events": result.events,
        "messages": result.messages,
        "regs": [sorted(regs.items()) for regs in result.per_core_regs],
        "ops": result.stats.ops,
        "misses": result.stats.misses,
        "total_latency": result.stats.total_latency,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _coverage(system, recorder, plan, failure) -> list[str]:
    """The sorted set of behaviour signals this run visited."""
    signals = {"verdict:" + ("ok" if failure is None else failure["kind"])}
    for kind in system.network.stats.per_kind:
        signals.add(f"kind:{kind}")
    if plan is not None:
        for verb in plan.counters:
            signals.add(f"fault:{verb}")
    if recorder is not None:
        for span in recorder.spans:
            signals.add(f"span:{span.cat}:{span.name}")
            if span.states:
                for states in span.states:
                    signals.add(f"state:{states}")
    return sorted(signals)


def run_scenario_cell(data: dict) -> dict:
    """Sweep-cell entry point: validate a scenario dict and run it.

    Module-level and dict-in/dict-out, so it pickles by reference and
    crosses into the sweep runner's pool workers.
    """
    scenario = Scenario.from_dict(data)
    return run_scenario(scenario)


def run_scenarios(scenarios, backend=None, jobs=None, progress=None) -> dict:
    """Run many scenarios through a sweep runner; ``{name: outcome}``.

    Scenario names must be unique within one batch (they key the result
    dict, and the sweep contract keys cells).
    """
    from repro.harness.sweep import SweepCell, SweepRunner

    cells = []
    seen = set()
    for scenario in scenarios:
        if scenario.name in seen:
            raise ValueError(f"duplicate scenario name {scenario.name!r}")
        seen.add(scenario.name)
        cells.append(SweepCell(key=scenario.name, fn=run_scenario_cell,
                               kwargs={"data": scenario.to_dict()}))
    runner = SweepRunner(jobs=jobs, backend=backend or "serial",
                         progress=progress)
    return runner.map(cells)


def matches_expectation(scenario: Scenario, outcome: dict) -> bool:
    """Did the run land where the scenario's ``[expect]`` table says?

    No expectation means the scenario must pass; ``expect.failure``
    means the run must fail with exactly that kind -- the fixture
    replay contract.
    """
    if scenario.expect_failure is None:
        return outcome["status"] == "ok"
    failure = outcome["failure"]
    return failure is not None and failure["kind"] == scenario.expect_failure
