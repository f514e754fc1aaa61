"""``python -m repro scenario ...``: the scenario DSL command surface.

Four subcommands (wired into :mod:`repro.cli`):

- ``validate FILES...`` -- schema-check scenario TOML files.
  Exit 0 all valid / 1 any invalid.
- ``run FILES...``      -- run scenarios serially or over the process
  pool and check each outcome against its ``[expect]`` table (no
  table = must pass).  Exit 0 all as expected / 1 mismatches / 2 bad usage.
- ``fuzz``              -- a budgeted coverage-guided fuzzing session;
  ``--defect`` injects the ``violate_atomicity`` Rule-II defect and
  ``--expect-failure`` makes "found, shrunk, fixture replays red" the
  success criterion (the CI smoke contract).  Exit 0 ok / 1
  expectation not met / 2 bad usage.
- ``shrink FILE``       -- shrink a failing scenario to 1-minimal TOML
  (stdout or ``--out``).  Exit 0 shrunk / 1 scenario does not fail /
  2 bad usage.
"""

from __future__ import annotations

import json
import sys


def add_scenario_parser(sub) -> None:
    """Install the ``scenario`` subcommand on the root subparsers."""
    p = sub.add_parser(
        "scenario",
        help="declarative scenario DSL: validate/run/fuzz/shrink",
        description="Declarative TOML scenarios (topology, workload mix, "
                    "fault injection, host churn) with a coverage-guided "
                    "fuzzer; see docs/SCENARIOS.md and scenarios/.")
    scenario_sub = p.add_subparsers(dest="scenario_command", required=True)

    v = scenario_sub.add_parser("validate",
                                help="schema-check scenario TOML files")
    v.add_argument("files", nargs="+", metavar="FILE")

    r = scenario_sub.add_parser(
        "run", help="run scenarios and check their [expect] tables")
    r.add_argument("files", nargs="+", metavar="FILE")
    r.add_argument("--backend", default=None, choices=("serial", "local"),
                   help="execution backend: serial or local (default: "
                        "serial)")
    r.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for the local pool backend")
    r.add_argument("--json", action="store_true",
                   help="emit every outcome as JSON")
    r.add_argument("--progress", action="store_true",
                   help="report each scenario as it completes (stderr)")

    f = scenario_sub.add_parser(
        "fuzz", help="coverage-guided random-scenario fuzzing")
    f.add_argument("--budget-seconds", type=float, default=None, metavar="S",
                   help="wall-time budget (default: none; see "
                        "--max-scenarios)")
    f.add_argument("--max-scenarios", type=int, default=None, metavar="N",
                   help="stop after N scenario runs (default 32 when no "
                        "budget is given)")
    f.add_argument("--seed", type=int, default=1)
    f.add_argument("--backend", default=None, choices=("serial", "local"),
                   help="execution backend for scenario batches: serial "
                        "or local (default: serial)")
    f.add_argument("--jobs", type=int, default=None, metavar="N")
    f.add_argument("--batch", type=int, default=8, metavar="N",
                   help="scenarios per backend batch (default 8)")
    f.add_argument("--defect", choices=("violate_atomicity",), default=None,
                   help="inject a known defect the fuzzer must find")
    f.add_argument("--out", metavar="DIR", default=None,
                   help="write shrunk failing scenarios as TOML fixtures "
                        "into DIR")
    f.add_argument("--no-shrink", action="store_true",
                   help="keep raw failing scenarios (skip ddmin)")
    f.add_argument("--expect-failure", action="store_true",
                   help="exit 1 unless a failure was found, shrunk and its "
                        "fixture replays red")
    f.add_argument("--json", action="store_true",
                   help="emit the fuzz report as JSON")

    s = scenario_sub.add_parser(
        "shrink", help="shrink one failing scenario to 1-minimal TOML")
    s.add_argument("file", metavar="FILE")
    s.add_argument("--out", metavar="OUT.toml", default=None,
                   help="write the shrunk scenario here (default stdout)")
    s.add_argument("--max-probes", type=int, default=150, metavar="N")


def cmd_scenario(args) -> int:
    """Dispatch one ``scenario`` subcommand; returns the exit code."""
    command = args.scenario_command
    if command == "validate":
        return _cmd_validate(args)
    if command == "run":
        return _cmd_run(args)
    if command == "fuzz":
        return _cmd_fuzz(args)
    if command == "shrink":
        return _cmd_shrink(args)
    raise AssertionError(command)  # pragma: no cover


def _load(path):
    """Load one scenario file, mapping errors to (scenario, message)."""
    from repro.scenario.schema import Scenario, ScenarioError

    try:
        return Scenario.load(path), None
    except ScenarioError as exc:
        return None, str(exc)
    except OSError as exc:
        return None, f"{path}: {exc}"


def _cmd_validate(args) -> int:
    bad = 0
    for path in args.files:
        scenario, error = _load(path)
        if scenario is None:
            print(f"INVALID {error}", file=sys.stderr)
            bad += 1
        else:
            faulted = "faulted" if scenario.faults else "fault-free"
            print(f"ok      {path} ({scenario.name}: "
                  f"{len(scenario.clusters)} cluster(s), "
                  f"{len(scenario.workloads)} workload(s), {faulted})")
    return 1 if bad else 0


def _cmd_run(args) -> int:
    from repro.scenario.runner import matches_expectation, run_scenarios

    scenarios = []
    for path in args.files:
        scenario, error = _load(path)
        if scenario is None:
            print(f"error: {error}", file=sys.stderr)
            return 2
        scenarios.append(scenario)

    def progress(done, total, key, wall):
        print(f"[scenario] {done}/{total} done ({key}, {wall:.2f}s)",
              file=sys.stderr)

    try:
        outcomes = run_scenarios(
            scenarios, backend=args.backend, jobs=args.jobs,
            progress=progress if args.progress else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    mismatched = 0
    for scenario in scenarios:
        outcome = outcomes[scenario.name]
        ok = matches_expectation(scenario, outcome)
        mismatched += 0 if ok else 1
        if args.json:
            print(json.dumps({"name": scenario.name, "expected": ok,
                              "outcome": outcome}, sort_keys=True))
        else:
            mark = "ok      " if ok else "MISMATCH"
            failure = outcome["failure"]
            verdict = "pass" if failure is None else failure["kind"]
            expected = scenario.expect_failure or "pass"
            fired = sum(outcome["faults"].values())
            print(f"{mark} {scenario.name}: {verdict} "
                  f"(expected {expected}; {outcome['messages']} msgs, "
                  f"{fired} fault(s) fired)")
    return 1 if mismatched else 0


def _cmd_fuzz(args) -> int:
    from repro.scenario.fuzz import fuzz
    from repro.scenario.runner import matches_expectation, run_scenario
    from repro.scenario.schema import Scenario

    if args.budget_seconds is not None and args.budget_seconds <= 0:
        print("error: --budget-seconds must be positive", file=sys.stderr)
        return 2
    report = fuzz(
        budget_seconds=args.budget_seconds,
        max_scenarios=args.max_scenarios,
        seed=args.seed,
        backend=args.backend,
        jobs=args.jobs,
        defect=args.defect is not None,
        fixture_dir=args.out,
        batch_size=args.batch,
        shrink=not args.no_shrink,
        log=lambda text: print(text, file=sys.stderr),
    )

    # The --expect-failure contract: found, shrunk, fixture replays red.
    satisfied = False
    for finding in report.findings:
        if finding.shrunk is None:
            continue
        if args.out is not None:
            if finding.fixture is None:
                continue
            replayed = Scenario.load(finding.fixture)
            if not matches_expectation(replayed, run_scenario(replayed)):
                continue
        satisfied = True
        break

    if args.json:
        payload = report.to_dict()
        payload["expectation_satisfied"] = satisfied
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"fuzz: {report.scenarios_run} scenarios in "
              f"{report.elapsed_s:.1f}s "
              f"({report.scenarios_per_s:.2f}/s), "
              f"{report.coverage_size} coverage signals, "
              f"{len(report.findings)} finding(s)")
        for finding in report.findings:
            tag = finding.fixture or "(not written)"
            print(f"  {finding.kind}: {finding.scenario.name} "
                  f"-> {tag}")
    if args.expect_failure:
        return 0 if satisfied else 1
    return 0


def _cmd_shrink(args) -> int:
    from repro.scenario.fuzz import failure_signature, shrink_scenario
    from repro.scenario.runner import run_scenario

    scenario, error = _load(args.file)
    if scenario is None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if failure_signature(run_scenario(scenario)) is None:
        print(f"{args.file}: scenario does not fail; nothing to shrink",
              file=sys.stderr)
        return 1
    shrunk, probes = shrink_scenario(scenario, max_probes=args.max_probes)
    text = shrunk.dumps()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"shrunk to {args.out} in {probes} probes "
              f"(expect: {shrunk.expect_failure})")
    else:
        sys.stdout.write(text)
    return 0
