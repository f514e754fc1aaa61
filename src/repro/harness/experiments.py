"""Experiment drivers: Figs. 9-11 and Table IV.

Every driver returns a result object with the same rows/series the
paper reports and a ``format()`` method producing the printable table.
Run sizes scale with ``scale`` (and the ``REPRO_BENCH_SCALE`` /
``REPRO_LITMUS_RUNS`` environment knobs used by the benchmark harness):
the paper's absolute numbers came from gem5 on a 32-core server; the
*shapes* -- who wins, by what factor, where the pain concentrates --
are what these drivers reproduce.

Every figure/table driver takes a ``jobs`` keyword (default: the
``REPRO_JOBS`` environment knob, then ``os.cpu_count()``) and fans its
independent simulation cells out over the
:class:`~repro.harness.sweep.SweepRunner` process pool.  Results are
keyed by cell, so a parallel regeneration is bit-identical to a serial
one (``jobs=1``).  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from repro.harness.sweep import CellOutput, SweepCell, SweepRunner, split_metrics
from repro.sim.config import two_cluster_config
from repro.sim.system import build_system
from repro.stats.collectors import LATENCY_BINS, RunResult
from repro.stats.export import merge_obs
from repro.verify.litmus import TABLE4_TESTS
from repro.verify.runner import run_litmus
from repro.workloads import WORKLOADS, workload_names

#: The protocol combinations of Fig. 10.
FIG10_COMBOS = (
    ("MESI", "MESI", "MESI"),
    ("MESI", "CXL", "MESI"),
    ("MESI", "CXL", "MOESI"),
    ("MESI", "CXL", "MESIF"),
)

#: The MCM configurations of Fig. 9 (per-cluster models).
FIG9_MCMS = (
    ("ARM", ("WEAK", "WEAK")),
    ("TSO", ("TSO", "TSO")),
    ("ARM/TSO", ("WEAK", "TSO")),
)

FIG11_WORKLOADS = ("histogram", "barnes", "lu-ncont", "vips")


def combo_name(combo) -> str:
    """Join a protocol combo tuple into its display name."""
    return "-".join(combo)


def geomean(values) -> float:
    """Geometric mean of a non-empty iterable of positive numbers."""
    values = list(values)
    if not values:
        raise ValueError("geomean of an empty sequence is undefined")
    bad = [v for v in values if v <= 0]
    if bad:
        raise ValueError(
            f"geomean requires positive values; got {bad[:5]}"
            f"{'...' if len(bad) > 5 else ''}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def default_scale() -> float:
    """Workload scale factor from REPRO_BENCH_SCALE (default 1.0)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


# ---------------------------------------------------------------------------
# Single-workload runner (the public entry point).
# ---------------------------------------------------------------------------

def run_workload(
    name: str,
    combo=("MESI", "CXL", "MESI"),
    mcms=("WEAK", "WEAK"),
    cores_per_cluster: int = 2,
    scale: float = 1.0,
    seed: int = 1,
    obs=False,
) -> RunResult:
    """Run one kernel on a two-cluster system and return its stats.

    ``obs`` turns observability on for the run: ``True`` attaches a
    default :class:`repro.obs.Observability` (spans + metrics), or pass
    a pre-configured instance.  The finalized dump lands in
    ``result.extra["obs"]``.
    """
    local_a, global_protocol, local_b = combo
    config = two_cluster_config(
        local_a, global_protocol, local_b,
        mcm_a=mcms[0], mcm_b=mcms[1],
        cores_per_cluster=cores_per_cluster, seed=seed,
    )
    system = build_system(config)
    observability = None
    if obs:
        from repro.obs import Observability

        observability = obs if isinstance(obs, Observability) else Observability()
        observability.attach(system)
    threads = config.total_cores
    programs = WORKLOADS[name].build(threads, scale=scale, seed=seed)
    result = system.run_threads(programs)
    if observability is not None:
        merge_obs(result, observability)
    result.extra["workload"] = name
    result.extra["combo"] = combo_name(combo)
    result.extra["conflicts"] = sum(c.bridge.port.conflicts
                                    for c in system.clusters
                                    if hasattr(c.bridge.port, "conflicts"))
    result.extra["home_queued"] = getattr(system.home, "queued_total", 0)
    return result


# ---------------------------------------------------------------------------
# Sweep plumbing shared by the figure/table drivers.
# ---------------------------------------------------------------------------

def _workload_time(obs=False, **kwargs):
    """Sweep cell: one workload run reduced to its execution time (plus
    the per-cell obs rollup as a :class:`CellOutput` when ``obs``)."""
    result = run_workload(obs=obs, **kwargs)
    if obs:
        return CellOutput(result.exec_time, result.extra["obs"])
    return result.exec_time


def _workload_stats(obs=False, **kwargs):
    """Sweep cell: one workload run reduced to its OpStats (plus the
    per-cell obs rollup as a :class:`CellOutput` when ``obs``)."""
    result = run_workload(obs=obs, **kwargs)
    if obs:
        return CellOutput(result.stats, result.extra["obs"])
    return result.stats


# ---------------------------------------------------------------------------
# Figure 10: protocol combinations, normalized execution time.
# ---------------------------------------------------------------------------

@dataclass
class Figure10Result:
    workloads: list[str]
    combos: tuple
    times: dict  # (workload, combo name) -> ticks
    #: cell key -> per-cell obs rollup (empty unless obs=True)
    cell_metrics: dict = field(default_factory=dict)

    def normalized(self, workload: str, combo) -> float:
        """Execution time relative to the first (baseline) combo."""
        base = self.times[(workload, combo_name(self.combos[0]))]
        return self.times[(workload, combo_name(combo))] / base

    def mean_slowdown(self, combo) -> float:
        """Geomean normalized slowdown across all workloads."""
        return geomean(self.normalized(w, combo) for w in self.workloads)

    def max_slowdown(self, combo) -> float:
        """Worst-case normalized slowdown across all workloads."""
        return max(self.normalized(w, combo) for w in self.workloads)

    def format(self) -> str:
        """Render the Fig. 10 table."""
        names = [combo_name(c) for c in self.combos]
        width = max(len(w) for w in self.workloads) + 2
        lines = ["Figure 10: execution time normalized to MESI-MESI-MESI",
                 " " * width + "  ".join(f"{n:>16}" for n in names)]
        for workload in self.workloads:
            row = [f"{self.normalized(workload, c):>16.3f}" for c in self.combos]
            lines.append(f"{workload:<{width}}" + "  ".join(row))
        mean_row = [f"{self.mean_slowdown(c):>16.3f}" for c in self.combos]
        lines.append(f"{'geomean':<{width}}" + "  ".join(mean_row))
        return "\n".join(lines)


def figure10(workloads=None, cores_per_cluster=2, scale=None,
             seeds=(1, 2, 3), combos=FIG10_COMBOS,
             jobs: int | None = None, obs: bool = False,
             progress=None) -> Figure10Result:
    """Regenerate Fig. 10: protocol combinations, normalized time.

    Each (workload, combo, seed) cell is an independent simulation;
    they are fanned out over ``jobs`` worker processes and reduced by
    seed-geomean afterwards, so the result is identical for any
    ``jobs``.  ``obs=True`` collects a per-cell observability rollup
    into ``result.cell_metrics``; ``progress`` is forwarded to the
    sweep runner (see :class:`repro.harness.sweep.SweepRunner`).
    """
    workloads = list(workloads or workload_names())
    scale = default_scale() if scale is None else scale
    cells = [
        SweepCell(
            key=(workload, combo_name(combo), seed),
            fn=_workload_time,
            kwargs=dict(name=workload, combo=combo, mcms=("WEAK", "WEAK"),
                        cores_per_cluster=cores_per_cluster,
                        scale=scale, seed=seed, obs=obs),
        )
        for workload in workloads
        for combo in combos
        for seed in seeds
    ]
    runs, rollups = split_metrics(
        SweepRunner(jobs=jobs, progress=progress).map(cells))
    times = {
        (workload, combo_name(combo)): geomean(
            runs[(workload, combo_name(combo), seed)] for seed in seeds)
        for workload in workloads
        for combo in combos
    }
    return Figure10Result(workloads, tuple(combos), times, cell_metrics=rollups)


# ---------------------------------------------------------------------------
# Figure 9: MCM combinations per suite.
# ---------------------------------------------------------------------------

@dataclass
class Figure9Result:
    combos: tuple  # protocol combos evaluated
    suites: tuple
    #: (combo name, mcm label, suite) -> geomean exec time
    times: dict
    #: cell key -> per-cell obs rollup (empty unless obs=True)
    cell_metrics: dict = field(default_factory=dict)

    def normalized(self, combo, mcm_label, suite) -> float:
        """Suite mean relative to the all-ARM configuration."""
        base = self.times[(combo_name(combo), "ARM", suite)]
        return self.times[(combo_name(combo), mcm_label, suite)] / base

    def format(self) -> str:
        """Render the Fig. 9 table."""
        lines = ["Figure 9: per-suite mean execution time normalized to the ARM MCM"]
        for combo in self.combos:
            lines.append(f"-- {combo_name(combo)}")
            header = f"{'suite':<12}" + "".join(f"{label:>10}" for label, _ in FIG9_MCMS)
            lines.append(header)
            for suite in self.suites:
                row = "".join(
                    f"{self.normalized(combo, label, suite):>10.3f}"
                    for label, _ in FIG9_MCMS
                )
                lines.append(f"{suite:<12}" + row)
        return "\n".join(lines)


def figure9(workloads_per_suite=None, cores_per_cluster=2, scale=None, seed=1,
            combos=(("MESI", "CXL", "MESI"), ("MESI", "CXL", "MOESI")),
            jobs: int | None = None, obs: bool = False,
            progress=None, seeds=(1, 2)) -> Figure9Result:
    """Regenerate Fig. 9: per-suite MCM-combination means.

    Every (combo, suite, MCM label, workload, seed) cell runs
    independently on the sweep pool; the per-suite geomeans are reduced
    afterwards in deterministic cell order.
    """
    scale = default_scale() if scale is None else scale
    suites = ("splash4", "parsec", "phoenix")
    suite_names = {}
    for suite in suites:
        names = workload_names(suite)
        if workloads_per_suite is not None:
            names = names[:workloads_per_suite]
        suite_names[suite] = names
    cells = [
        SweepCell(
            key=(combo_name(combo), label, suite, name, run_seed),
            fn=_workload_time,
            kwargs=dict(name=name, combo=combo, mcms=mcms,
                        cores_per_cluster=cores_per_cluster,
                        scale=scale, seed=run_seed, obs=obs),
        )
        for combo in combos
        for suite in suites
        for label, mcms in FIG9_MCMS
        for name in suite_names[suite]
        for run_seed in seeds
    ]
    runs, rollups = split_metrics(
        SweepRunner(jobs=jobs, progress=progress).map(cells))
    times = {
        (combo_name(combo), label, suite): geomean(
            runs[(combo_name(combo), label, suite, name, run_seed)]
            for name in suite_names[suite]
            for run_seed in seeds)
        for combo in combos
        for suite in suites
        for label, _mcms in FIG9_MCMS
    }
    return Figure9Result(combos, suites, times, cell_metrics=rollups)


# ---------------------------------------------------------------------------
# Figure 11: miss-cycle breakdown by latency range and instruction type.
# ---------------------------------------------------------------------------

@dataclass
class Figure11Result:
    workloads: tuple
    #: (workload, system label) -> OpStats
    stats: dict
    systems: tuple = ("MESI-MESI-MESI", "MESI-CXL-MESI")
    #: cell key -> per-cell obs rollup (empty unless obs=True)
    cell_metrics: dict = field(default_factory=dict)

    def miss_cycles(self, workload, system, group=None, bin_name=None) -> int:
        """Miss ticks for one workload/system, optionally filtered."""
        return self.stats[(workload, system)].miss_cycles(group, bin_name)

    def high_latency_growth(self, workload) -> float:
        """How much the >400ns miss cycles grow under CXL."""
        base = self.miss_cycles(workload, self.systems[0], bin_name="high")
        cxl = self.miss_cycles(workload, self.systems[1], bin_name="high")
        return cxl / base if base else float("inf") if cxl else 1.0

    def total_growth(self, workload) -> float:
        """Total miss-cycle growth of MESI-CXL-MESI over the baseline."""
        base = self.miss_cycles(workload, self.systems[0])
        cxl = self.miss_cycles(workload, self.systems[1])
        return cxl / base if base else 1.0

    def format(self) -> str:
        """Render the Fig. 11 table."""
        lines = ["Figure 11: miss cycles by latency range and instruction type",
                 f"{'workload':<12}{'system':<16}" +
                 "".join(f"{g + '/' + b:>14}"
                         for g in ("load", "store", "rmw")
                         for b, _ in LATENCY_BINS)]
        for workload in self.workloads:
            for system in self.systems:
                stats = self.stats[(workload, system)]
                cells = "".join(
                    f"{stats.miss_cycles(group, bin_name):>14}"
                    for group in ("load", "store", "rmw")
                    for bin_name, _bound in LATENCY_BINS
                )
                lines.append(f"{workload:<12}{system:<16}" + cells)
        lines.append("")
        for workload in self.workloads:
            lines.append(
                f"{workload}: total miss-cycle growth "
                f"{self.total_growth(workload):.2f}x, "
                f">400ns growth {self.high_latency_growth(workload):.2f}x"
            )
        return "\n".join(lines)


def figure11(workloads=FIG11_WORKLOADS, cores_per_cluster=2, scale=None,
             seed=1, jobs: int | None = None, obs: bool = False,
             progress=None) -> Figure11Result:
    """Regenerate Fig. 11: miss-cycle latency breakdown."""
    scale = default_scale() if scale is None else scale
    combos = (("MESI", "MESI", "MESI"), ("MESI", "CXL", "MESI"))
    cells = [
        SweepCell(
            key=(workload, combo_name(combo)),
            fn=_workload_stats,
            kwargs=dict(name=workload, combo=combo, mcms=("WEAK", "WEAK"),
                        cores_per_cluster=cores_per_cluster,
                        scale=scale, seed=seed, obs=obs),
        )
        for workload in workloads
        for combo in combos
    ]
    stats, rollups = split_metrics(
        SweepRunner(jobs=jobs, progress=progress).map(cells))
    return Figure11Result(tuple(workloads), stats, cell_metrics=rollups)


# ---------------------------------------------------------------------------
# Table IV: the litmus matrix.
# ---------------------------------------------------------------------------

TABLE4_PROTOCOLS = (("MESI", "CXL", "MESI"), ("MESI", "CXL", "MOESI"))
TABLE4_MCMS = (
    ("Arm-Arm", ("WEAK", "WEAK")),
    ("TSO-Arm", ("TSO", "WEAK")),
    ("TSO-TSO", ("TSO", "TSO")),
)


@dataclass
class Table4Result:
    #: (test name, combo name, mcm label) -> LitmusResult
    results: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        """True when every litmus configuration passed."""
        return all(r.passed for r in self.results.values())

    def format(self) -> str:
        """Render the Table IV matrix."""
        lines = ["Table IV: litmus results (ok = no forbidden outcome observed)"]
        header = f"{'Test':<10}"
        for combo in TABLE4_PROTOCOLS:
            for label, _ in TABLE4_MCMS:
                header += f"{combo_name(combo).split('-')[-1] + '/' + label:>16}"
        lines.append(header)
        for test in TABLE4_TESTS:
            row = f"{test.name + '-sys':<10}"
            for combo in TABLE4_PROTOCOLS:
                for label, _mcms in TABLE4_MCMS:
                    result = self.results[(test.name, combo_name(combo), label)]
                    mark = "ok" if result.passed else "FAIL"
                    row += f"{mark:>16}"
            lines.append(row)
        return "\n".join(lines)


def table4(runs: int | None = None, seed: int = 0,
           jobs: int | None = None, progress=None) -> Table4Result:
    """Regenerate Table IV: the litmus matrix.

    Each of the 7 tests x 2 combos x 3 MCM pairings is an independent
    randomized litmus campaign (seeded per cell), swept in parallel.
    """
    runs = runs or int(os.environ.get("REPRO_LITMUS_RUNS", "40"))
    cells = [
        SweepCell(
            key=(test.name, combo_name(combo), label),
            fn=run_litmus,
            kwargs=dict(test=test, combo=combo, mcms=mcms, runs=runs,
                        seed0=seed),
        )
        for test in TABLE4_TESTS
        for combo in TABLE4_PROTOCOLS
        for label, mcms in TABLE4_MCMS
    ]
    return Table4Result(
        results=SweepRunner(jobs=jobs, progress=progress).map(cells))
