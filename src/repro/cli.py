"""Command-line interface.

``python -m repro <command>`` (or the installed ``c3-repro`` script)
exposes the library's main entry points without writing any code:

- ``tables``      print Tables I-III.
- ``table4``      run the litmus matrix (Table IV).
- ``litmus``      run one litmus test on a chosen configuration.
- ``workload``    run one kernel and print its statistics.  ``--obs``
  instruments the run (``repro.obs``) and adds the span/metrics
  summary; ``--chrome-trace`` (a Chrome/Perfetto trace), ``--metrics``
  (a JSON metrics dump) and ``--addr`` (per-message trace events for
  one line) turn it on too.  An instrumented run exits 1 if the
  runtime Rule-II audit observed a nesting violation.
- ``fig9/fig10/fig11``  regenerate a figure (``--obs`` for per-cell
  rollups, ``--progress`` for live sweep progress on stderr).
- ``bench report``    print latest-vs-previous deltas across every
  ``BENCH_*.json`` trajectory; exit 1 when a directional field
  regressed beyond the threshold.
- ``scenario``    declarative TOML scenarios: ``validate``/``run`` a
  corpus (fault injection, host churn), ``fuzz`` the scenario space
  with coverage guidance, ``shrink`` a failing scenario to 1-minimal
  TOML (see docs/SCENARIOS.md).
- ``slicc``       dump the generated compound controller.
- ``lint``        statically lint the generated protocol artifacts
  (``--strict`` fails on any finding, ``--self-test`` proves every rule
  fires on its injected-defect fixture; exit 0 clean / 1 findings /
  2 internal error).
- ``check``       exhaustively model-check one litmus program on one
  combo (``repro.verify.mc``): every delivery order explored, invariants
  and deadlock-freedom checked, outcomes compared against the axiomatic
  model.
  Exit 0 verified / 1 counterexamples or truncated / 2 bad usage.
- ``list``        list available workloads and litmus tests.

The sweep subcommands (``table4``, ``fig9``, ``fig10``, ``fig11``)
accept ``--jobs N`` to fan their independent simulation cells out over
N worker processes (default: the ``REPRO_JOBS`` environment variable,
then ``os.cpu_count()``; ``--jobs 1`` forces the serial path).  Results
are bit-identical regardless of the worker count.

A reader that closes stdout early (``| head``) ends no command with a
traceback: the rest of the output is discarded and the exit code is
the command's own verdict.
"""

from __future__ import annotations

import argparse
import os
import sys


def _parse_combo(text: str) -> tuple[str, str, str]:
    # Both L-G-L and L:G:L spellings are accepted (the paper writes
    # pairings with colons; the figure tables with dashes).
    parts = text.replace(":", "-").split("-")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"combo must look like MESI-CXL-MOESI (or MESI:CXL:MOESI), "
            f"got {text!r}")
    return (parts[0], parts[1], parts[2])


def _parse_mcms(text: str) -> tuple[str, str]:
    parts = tuple(text.split(","))
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("mcms must look like TSO,WEAK")
    return parts  # type: ignore[return-value]


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the sweep (default: REPRO_JOBS, then "
             "cpu count; 1 = serial)")


def _add_progress_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--progress", action="store_true",
        help="report each sweep cell as it completes (stderr)")


def _add_obs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs", action="store_true",
        help="collect observability data (spans + metrics) during the run")


def _progress_printer(done: int, total: int, key, wall: float) -> None:
    """Default ``--progress`` sink: one stderr line per finished cell."""
    print(f"[sweep] cell {done}/{total} done ({key}, {wall:.2f}s)",
          file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="C3: CXL coherence controllers -- paper reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I-III")

    p = sub.add_parser("table4", help="run the Table IV litmus matrix")
    p.add_argument("--runs", type=int, default=None)
    _add_jobs_flag(p)
    _add_progress_flag(p)

    p = sub.add_parser("litmus", help="run one litmus test")
    p.add_argument("name", nargs="?", default=None,
                   help="builtin test name, e.g. MP, SB, IRIW, 2+2W")
    p.add_argument("--file", help="parse the test from a .litmus text file")
    p.add_argument("--combo", type=_parse_combo, default=("MESI", "CXL", "MESI"))
    p.add_argument("--mcms", type=_parse_mcms, default=("WEAK", "WEAK"))
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--no-sync", action="store_true",
                   help="remove synchronization (control experiment)")

    p = sub.add_parser("workload", help="run one kernel")
    p.add_argument("name")
    p.add_argument("--combo", type=_parse_combo, default=("MESI", "CXL", "MESI"))
    p.add_argument("--mcms", type=_parse_mcms, default=("WEAK", "WEAK"))
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cores", type=int, default=2,
                   help="cores per cluster")
    p.add_argument("--profile", nargs="?", const=25, type=int, default=None,
                   metavar="N",
                   help="profile the run under cProfile and print the top N "
                        "functions by cumulative time (default 25)")
    p.add_argument("--profile-out", metavar="OUT.pstats", default=None,
                   help="also dump raw pstats data for snakeviz/pstats "
                        "(implies --profile)")
    _add_obs_flag(p)
    p.add_argument("--chrome-trace", metavar="OUT.json", default=None,
                   help="write a Perfetto-loadable trace-event JSON file "
                        "(implies --obs)")
    p.add_argument("--metrics", metavar="OUT.json", default=None,
                   help="write the hierarchical metrics dump as JSON "
                        "(implies --obs)")
    p.add_argument("--addr", type=lambda t: int(t, 0), default=None,
                   help="also record per-message trace events for this "
                        "line address, hex ok (implies --obs)")

    p = sub.add_parser("fig9", help="regenerate Figure 9")
    p.add_argument("--per-suite", type=int, default=None,
                   help="limit workloads per suite")
    _add_jobs_flag(p)
    _add_progress_flag(p)
    _add_obs_flag(p)
    p = sub.add_parser("fig10", help="regenerate Figure 10")
    p.add_argument("--workloads", nargs="*", default=None)
    _add_jobs_flag(p)
    _add_progress_flag(p)
    _add_obs_flag(p)
    p = sub.add_parser("fig11", help="regenerate Figure 11")
    p.add_argument("--workloads", nargs="*", default=None,
                   help="limit to these workloads (default: the paper's "
                        "four)")
    _add_jobs_flag(p)
    _add_progress_flag(p)
    _add_obs_flag(p)

    p = sub.add_parser(
        "lint",
        help="statically lint the generated protocol artifacts",
        description="Run the repro.analysis passes over generated compound "
                    "protocols -- no simulation involved.  Exit codes: 0 "
                    "clean, 1 findings, 2 internal error.")
    p.add_argument("--pair", action="append", metavar="LOCAL:GLOBAL",
                   help="lint only this pairing, e.g. MESI:CXL (repeatable; "
                        "default: every registered pairing)")
    p.add_argument("--json", action="store_true",
                   help="emit the reports as JSON")
    p.add_argument("--strict", action="store_true",
                   help="fail on any finding, not just error severity")
    p.add_argument("--self-test", action="store_true",
                   help="also lint the injected-defect fixtures and verify "
                        "every rule fires")
    p.add_argument("--rules", action="store_true",
                   help="list the rule catalogue and exit")

    p = sub.add_parser(
        "check",
        help="exhaustively model-check one combo (model checker)",
        description="Explore every message delivery order of one litmus "
                    "program on one protocol combo, checking runtime "
                    "invariants, deadlock-freedom and outcome soundness "
                    "against the axiomatic model.  Counterexamples are "
                    "deduplicated, shrunk to a minimal delivery prefix and "
                    "replayable (--ce-out).  Exit codes: 0 verified, 1 "
                    "counterexamples found or search truncated, 2 bad "
                    "usage or internal error.")
    p.add_argument("--combo", type=_parse_combo,
                   default=("MESI", "CXL", "MESI"),
                   help="protocol combo, L:G:L or L-G-L "
                        "(default MESI:CXL:MESI)")
    p.add_argument("--litmus", default="MP", metavar="NAME",
                   help="builtin litmus program to check (default MP; "
                        "see `repro list`)")
    p.add_argument("--mcms", type=_parse_mcms, default=("SC", "SC"),
                   help="per-cluster memory models (default SC,SC -- "
                        "exhaustive exploration is about orderings, not "
                        "timing)")
    p.add_argument("--depth", type=int, default=0, metavar="N",
                   help="delivery-path depth cap (0 = unlimited)")
    p.add_argument("--max-states", type=int, default=200_000, metavar="N",
                   help="state cap; a capped run exits 1 as inconclusive "
                        "(0 = unlimited, default 200000)")
    p.add_argument("--no-shrink", action="store_true",
                   help="keep raw counterexample paths (skip ddmin)")
    p.add_argument("--ce-out", metavar="DIR", default=None,
                   help="write counterexample JSON fixtures into DIR")
    p.add_argument("--json", action="store_true",
                   help="emit the verdict as JSON")

    p = sub.add_parser(
        "bench",
        help="benchmark trajectory tools (see `bench report`)")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    p = bench_sub.add_parser(
        "report",
        help="latest-vs-previous deltas across BENCH_*.json",
        description="Read every BENCH_*.json trajectory, print the delta "
                    "between the two most recent records per file and flag "
                    "directional fields that regressed beyond the "
                    "threshold.  Exit codes: 0 no regressions, 1 "
                    "regressions flagged, 2 unreadable trajectory.")
    p.add_argument("--threshold", type=float, default=10.0, metavar="PCT",
                   help="worse-direction percentage that counts as a "
                        "regression (default 10)")
    p.add_argument("--dir", default=".", metavar="DIR",
                   help="directory holding the BENCH_*.json files "
                        "(default .)")

    from repro.scenario.cli import add_scenario_parser

    add_scenario_parser(sub)

    p = sub.add_parser("slicc", help="dump a generated compound controller")
    p.add_argument("local", help="local protocol (MESI, MESIF, MOESI, RCC; "
                                 "case-insensitive)")
    p.add_argument("global_", metavar="global",
                   help="global protocol (CXL or MESI; case-insensitive)")
    p.add_argument("--table", action="store_true",
                   help="print the translation table instead")

    sub.add_parser("list", help="list workloads and litmus tests")
    return parser


def _parse_lint_pair(text: str) -> tuple[str, str]:
    parts = text.split(":")
    if len(parts) != 2 or not all(parts):
        raise ValueError(f"--pair must look like MESI:CXL, got {text!r}")
    return (parts[0], parts[1])


def _cmd_lint(args) -> int:
    """``repro lint``: run the static protocol linter (exit 0/1/2)."""
    import json

    from repro.analysis import ProtocolLinter, registered_pairs
    from repro.errors import ProtocolError

    linter = ProtocolLinter()
    if args.rules:
        for rule_id, (pass_name, description) in linter.rules().items():
            print(f"{rule_id}  {pass_name:<13} {description}")
        return 0
    try:
        pairs = ([_parse_lint_pair(text) for text in args.pair]
                 if args.pair else registered_pairs())
        reports = []
        for local_name, global_name in pairs:
            reports.append(linter.lint_pair(local_name, global_name))
        self_test_results = None
        if args.self_test:
            from repro.analysis.fixtures import self_test

            self_test_results = self_test(linter)
    except (ProtocolError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal linter failure, not a finding
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    failed = any(not report.clean(strict=args.strict) for report in reports)
    missed_rules = sorted(
        rule for rule, fired in (self_test_results or {}).items() if not fired)
    if args.json:
        payload = {
            "reports": [report.to_dict() for report in reports],
            "findings": sum(len(r.findings) for r in reports),
            "clean": not failed,
        }
        if self_test_results is not None:
            payload["self_test"] = self_test_results
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            print(report.format())
        if self_test_results is not None:
            fired = sum(self_test_results.values())
            print(f"self-test: {fired}/{len(self_test_results)} rules fire "
                  "on their injected-defect fixtures")
            for rule in missed_rules:
                print(f"  MISSED: {rule}")
    return 1 if (failed or missed_rules) else 0


def _cmd_check(args) -> int:
    """``repro check``: exhaustive model check (exit 0/1/2)."""
    import json
    import os

    from repro.errors import ProtocolError
    from repro.obs.metrics import MetricsRegistry
    from repro.verify.axiomatic import enumerate_outcomes
    from repro.verify.litmus import LITMUS_BY_NAME
    from repro.verify.mc import check_model, litmus_model

    if args.litmus not in LITMUS_BY_NAME:
        print(f"unknown litmus test {args.litmus!r}; see `repro list`",
              file=sys.stderr)
        return 2
    test = LITMUS_BY_NAME[args.litmus]
    try:
        model = litmus_model(args.litmus, args.combo, args.mcms)
        thread_mcms = [args.mcms[tid % 2] for tid in range(test.num_threads)]
        allowed = enumerate_outcomes(
            list(model.programs), thread_mcms, test.observed_addrs)
    except (ProtocolError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = MetricsRegistry()
    result = check_model(model, max_states=args.max_states,
                         max_depth=args.depth, metrics=metrics,
                         shrink=not args.no_shrink)

    # Outcome soundness: every terminal outcome the implementation can
    # produce must be allowed by the compound axiomatic model.
    escaped = sorted(result.outcomes - set(allowed))
    forbidden = sorted(o for o in result.outcomes
                       if test.matches_forbidden(dict(o)))
    verified = result.ok and not escaped and not forbidden

    if args.ce_out and result.counterexamples:
        os.makedirs(args.ce_out, exist_ok=True)
        combo_tag = "-".join(model.combo)
        for index, ce in enumerate(result.counterexamples):
            path = os.path.join(
                args.ce_out, f"ce-{args.litmus}-{combo_tag}-{index}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(ce.to_json())
                handle.write("\n")

    if args.json:
        payload = result.to_dict()
        payload["litmus"] = args.litmus
        payload["mcms"] = list(args.mcms)
        payload["allowed_outcomes"] = len(allowed)
        payload["escaped_outcomes"] = [
            [list(pair) for pair in outcome] for outcome in escaped]
        payload["forbidden_outcomes"] = [
            [list(pair) for pair in outcome] for outcome in forbidden]
        payload["verified"] = verified
        payload["metrics"] = metrics.counter_values("mc.")
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if verified else 1

    mark = ("verified" if verified
            else "INCONCLUSIVE" if result.truncated
            and not (result.counterexamples or escaped or forbidden)
            else "FAILED")
    print(f"{args.litmus} on {'-'.join(model.combo)} "
          f"({'/'.join(args.mcms)}): {mark}")
    print(f"  states    : {result.states} ({result.terminals} terminal, "
          f"depth {result.max_depth}, {result.replays} rebuilt from the root, "
          f"{result.restores} restored from a snapshot, "
          f"{result.elapsed:.2f}s)")
    print(f"  outcomes  : {len(result.outcomes)} observed / "
          f"{len(allowed)} allowed by the axiomatic model")
    if result.truncated:
        # The state cap fired exactly when the search reached it;
        # otherwise the depth cap cut the search.
        cap = (f"{args.max_states} states"
               if args.max_states and result.states >= args.max_states
               else f"depth {args.depth}")
        print(f"  truncated : search capped at {cap}; "
              "the verdict proves nothing beyond the cap")
    for outcome in escaped:
        print(f"  ESCAPED   : {dict(outcome)} not allowed by the "
              "axiomatic model")
    for outcome in forbidden:
        print(f"  FORBIDDEN : {dict(outcome)} matches the litmus "
              "forbidden pattern")
    shown = result.counterexamples[:5]
    for ce in shown:
        print(f"  CE        : {ce.describe()}")
    hidden = len(result.counterexamples) - len(shown)
    if hidden > 0:
        print(f"  ... and {hidden} more counterexample(s)"
              + (f"; fixtures in {args.ce_out}" if args.ce_out else ""))
    return 0 if verified else 1


def _print_cell_rollups(result) -> None:
    """Print one compact ``[obs]`` line per sweep cell rollup, if any."""
    rollups = getattr(result, "cell_metrics", None)
    if not rollups:
        return
    from repro.obs import compact_obs

    for key in sorted(rollups, key=str):
        print(f"[obs] {key}: {compact_obs(rollups[key])}")


def _cmd_workload(args) -> int:
    """``repro workload``: run one kernel (exit 0/1/2).

    Observability is on with ``--obs`` or any of its exporters; an
    instrumented run exits 1 when the Rule-II audit saw a violation.
    """
    import json

    from repro.harness.experiments import run_workload
    from repro.stats.collectors import LATENCY_BINS
    from repro.workloads import WORKLOADS

    if args.name not in WORKLOADS:
        print(f"unknown workload {args.name!r}; see `repro list`",
              file=sys.stderr)
        return 2
    obs = None
    if (args.obs or args.chrome_trace or args.metrics
            or args.addr is not None):
        from repro.obs import Observability

        obs = Observability(
            trace_addrs=None if args.addr is None else [args.addr])
    profile_top = args.profile
    if args.profile_out is not None and profile_top is None:
        profile_top = 25
    profiler = None
    if profile_top is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    result = run_workload(args.name, combo=args.combo, mcms=args.mcms,
                          cores_per_cluster=args.cores,
                          scale=args.scale, seed=args.seed, obs=obs)
    if profiler is not None:
        import pstats

        profiler.disable()
        stats = pstats.Stats(profiler)
        if args.profile_out:
            stats.dump_stats(args.profile_out)
            print(f"pstats dump written to {args.profile_out}",
                  file=sys.stderr)
        stats.sort_stats("cumulative").print_stats(profile_top)
    print(f"{args.name} on {'-'.join(args.combo)} ({'/'.join(args.mcms)}):")
    print(f"  execution time : {result.exec_ns:,.0f} ns")
    print(f"  ops            : {result.stats.ops} "
          f"({result.stats.misses} misses)")
    print(f"  messages       : {result.messages}")
    print(f"  BIConflicts    : {result.extra['conflicts']}")
    print(f"  DCOH queueing  : {result.extra['home_queued']} requests")
    for bin_name, _bound in LATENCY_BINS:
        print(f"  {bin_name:>6} miss cycles: "
              f"{result.stats.miss_cycles(bin_name=bin_name):,}")
    if obs is None:
        return 0
    from repro.obs import (
        TraceValidationError,
        summarize_obs,
        write_chrome_trace,
    )

    dump = result.extra["obs"]
    print(summarize_obs(dump))
    if obs.tracer is not None and obs.tracer.dropped:
        print(f"  message trace truncated: {obs.tracer.dropped} dropped")
    if args.chrome_trace:
        try:
            count = write_chrome_trace(args.chrome_trace, obs.recorder,
                                       obs.tracer)
        except TraceValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            for problem in exc.problems[:10]:
                print(f"  - {problem}", file=sys.stderr)
            return 2
        print(f"wrote {count} trace events to {args.chrome_trace}")
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(dump, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote metrics dump to {args.metrics}")
    return 1 if dump["rule2"]["violations"] else 0


class _ClosedPipeGuard:
    """Stand-in for stdout that outlives a reader closing the pipe.

    The first :class:`BrokenPipeError` points the real stream's file
    descriptor at the null device, so that write and every later one
    (the interpreter's exit flush included) succeed silently and the
    command runs on to its own verdict.
    """

    def __init__(self, stream) -> None:
        self._stream = stream

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            self._discard()
            return len(text)

    def flush(self) -> None:
        try:
            self._stream.flush()
        except BrokenPipeError:
            self._discard()

    def _discard(self) -> None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, self._stream.fileno())
        finally:
            os.close(devnull)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    stdout = sys.stdout
    sys.stdout = _ClosedPipeGuard(stdout)
    try:
        code = _run(args)
        sys.stdout.flush()
    finally:
        sys.stdout = stdout
    return code


def _run(args) -> int:
    """Run the parsed command; returns its exit code."""
    command = args.command

    if command == "tables":
        from repro.harness.tables import table1, table2, table3

        print(table1())
        print()
        print(table2())
        print()
        print(table3())
        return 0

    if command == "table4":
        from repro.harness.experiments import table4

        result = table4(runs=args.runs, jobs=args.jobs,
                                    progress=_progress_printer if args.progress else None)
        print(result.format())
        return 0 if result.all_passed() else 1

    if command == "litmus":
        from repro.verify.litmus import LITMUS_BY_NAME
        from repro.verify.runner import run_litmus

        if args.file:
            from repro.verify.litmus_format import loads

            with open(args.file) as handle:
                test = loads(handle.read())
        else:
            if args.name is None:
                print("provide a builtin test name or --file", file=sys.stderr)
                return 2
            test = LITMUS_BY_NAME.get(args.name)
            if test is None:
                print(f"unknown litmus test {args.name!r}; try: "
                      + ", ".join(LITMUS_BY_NAME), file=sys.stderr)
                return 2
        result = run_litmus(test, combo=args.combo, mcms=args.mcms,
                            runs=args.runs, sync=not args.no_sync)
        print(result.summary())
        for outcome, count in sorted(result.observed.items()):
            pretty = ", ".join(f"{k}={v}" for k, v in outcome)
            mark = ""
            if test.matches_forbidden(dict(outcome)):
                mark = "  <-- forbidden"
            elif outcome not in result.allowed:
                mark = "  <-- NOT ALLOWED"
            print(f"  {count:5d}x  {pretty}{mark}")
        return 0 if result.passed or args.no_sync else 1

    if command == "workload":
        return _cmd_workload(args)

    if command == "fig9":
        from repro.harness.experiments import figure9

        result = figure9(
            workloads_per_suite=args.per_suite, jobs=args.jobs, obs=args.obs,
            progress=_progress_printer if args.progress else None)
        print(result.format())
        _print_cell_rollups(result)
        return 0

    if command == "fig10":
        from repro.harness.experiments import figure10

        result = figure10(
            workloads=args.workloads or None, jobs=args.jobs, obs=args.obs,
            progress=_progress_printer if args.progress else None)
        print(result.format())
        _print_cell_rollups(result)
        return 0

    if command == "fig11":
        from repro.harness.experiments import figure11

        from repro.harness.experiments import FIG11_WORKLOADS

        result = figure11(
            workloads=tuple(args.workloads) if args.workloads
            else FIG11_WORKLOADS,
            jobs=args.jobs, obs=args.obs,
            progress=_progress_printer if args.progress else None)
        print(result.format())
        _print_cell_rollups(result)
        return 0

    if command == "bench":
        from repro.harness.bench_report import bench_report

        try:
            text, regressions = bench_report(root=args.dir,
                                             threshold=args.threshold)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text)
        return 1 if regressions else 0

    if command == "lint":
        return _cmd_lint(args)

    if command == "check":
        return _cmd_check(args)

    if command == "scenario":
        from repro.scenario.cli import cmd_scenario

        return cmd_scenario(args)

    if command == "slicc":
        from repro.core.generator import generate
        from repro.core.slicc import emit
        from repro.core.translation import format_table
        from repro.errors import ProtocolError

        try:
            compound = generate(args.local, args.global_)
        except ProtocolError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.table:
            print(format_table(compound.rows,
                               title=f"C3 translation table ({compound.name})"))
        else:
            print(emit(compound))
        return 0

    if command == "list":
        from repro.verify.litmus import LITMUS_BY_NAME
        from repro.workloads import SUITES, workload_names

        for suite in SUITES:
            print(f"{suite}: " + ", ".join(workload_names(suite)))
        print("litmus: " + ", ".join(LITMUS_BY_NAME))
        return 0

    raise AssertionError(command)  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
