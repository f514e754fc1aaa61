"""The benchmark's three workloads and their fixed inputs.

Each workload builds its whole input in :meth:`setup` -- importing the
layers, synthesizing every pairing it uses through ``core.generator``
and building thread programs, litmus models or scenario documents --
and then exposes ``ops``, a list of ``(key, payload)`` pairs.  ``run``
executes one op through the program's public entry points only and
returns an :class:`Output`.

Every op builds a fresh ``System``, so modelled caches start empty in
every op.  The simulator is not validated against hardware, so nothing
here is an accuracy figure: outputs are checked against invariants,
axiomatic outcome sets and pinned digests, not against measurements.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The eight Fig. 9/10 pairings: local protocol x global protocol.
LOCALS = ("MESI", "MESIF", "MOESI", "RCC")
GLOBALS = ("CXL", "MESI")
PAIRINGS = tuple((local, glob) for glob in GLOBALS for local in LOCALS)


@dataclasses.dataclass
class Output:
    """What one op produced."""

    #: Simulated messages delivered (cells, faulted) or checker states (verify).
    work: int
    #: Values compared with the pinned ones and with every other pass.
    fingerprint: dict
    #: Failed output checks; empty when the op is correct.
    problems: list
    #: Counts the traced run folds into the per-layer ledger.
    counters: dict = dataclasses.field(default_factory=dict)


def derive_seeds(seed: int, salt: str, count: int) -> list[int]:
    """``count`` op seeds drawn from the benchmark seed.

    ``random.Random`` hashes a string seed with SHA-512, so the stream
    is the same in every process, whatever ``PYTHONHASHSEED`` is.
    """
    rng = random.Random(f"{salt}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def result_digest(result) -> str:
    """sha256 over the architectural result of one simulation.

    The same fields the scenario runner and the engine-parity tests pin:
    execution time, events, messages, registers and op/miss counts.
    """
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


class Workload:
    """Shared set-up bookkeeping."""

    name = ""
    #: What ``Output.work`` counts, for the human-readable report.
    work_unit = ""
    #: Whether the input depends on the benchmark seed (pins then
    #: exist for the default seed only).
    seeded = True

    def __init__(self) -> None:
        self.ops: list[tuple[str, object]] = []
        #: Set-up split for the traced ledger (seconds and counts).
        self.setup_parts: dict[str, float] = {}

    def _synthesize(self, pairs) -> None:
        """Synthesize every (local, global) pairing the input uses."""
        from repro.core import generator

        runs = generator.synthesis_runs()
        started = time.perf_counter()
        generator.warm_fsm_cache(sorted(pairs))
        self.setup_parts["generator.s"] = time.perf_counter() - started
        self.setup_parts["generator.syntheses"] = (
            generator.synthesis_runs() - runs)

    def setup(self, seed: int) -> None:
        """Import the layers, synthesize, and build the fixed input."""
        raise NotImplementedError

    def run(self, payload) -> Output:
        """Execute and check one op."""
        raise NotImplementedError


class Cells(Workload):
    """Fig. 9-11 simulation cells: observability off, no faults."""

    name = "cells"
    work_unit = "sim msgs"
    #: One kernel per sharing pattern: hotspot, migratory, cross-cluster
    #: blocked, read-mostly and streaming (private).
    KERNELS = ("histogram", "barnes", "lu-ncont", "raytrace", "vips")
    SEEDS_PER_CELL = 2
    CORES_PER_CLUSTER = 2
    SCALE = 0.5

    def setup(self, seed: int) -> None:
        import repro.sim.system
        from repro.sim.config import two_cluster_config
        from repro.verify import invariants
        from repro.workloads import WORKLOADS

        self._system = repro.sim.system
        self._invariants = invariants
        self._synthesize(PAIRINGS)
        started = time.perf_counter()
        for local, glob in PAIRINGS:
            mcm = "RCC" if local == "RCC" else "WEAK"
            combo = f"{local}-{glob}-{local}"
            for kernel in self.KERNELS:
                for cell_seed in derive_seeds(seed, f"cells/{kernel}/{combo}",
                                              self.SEEDS_PER_CELL):
                    config = two_cluster_config(
                        local, glob, local, mcm_a=mcm, mcm_b=mcm,
                        cores_per_cluster=self.CORES_PER_CLUSTER,
                        seed=cell_seed)
                    programs = WORKLOADS[kernel].build(
                        config.total_cores, scale=self.SCALE, seed=cell_seed)
                    self.ops.append((f"{kernel}/{combo}/{cell_seed}",
                                     (config, programs)))
        self.setup_parts["inputs.build_s"] = time.perf_counter() - started

    def run(self, payload) -> Output:
        from repro.errors import ConsistencyViolation

        config, programs = payload
        # Looked up at call time, so the traced run sees its wrapper.
        system = self._system.build_system(config)
        result = system.run_threads(programs)
        problems = []
        try:
            self._invariants.check_all(system)
        except ConsistencyViolation as exc:
            problems.append(f"post-run invariant: {exc}")
        return Output(result.messages, {"digest": result_digest(result)},
                      problems)


class Verify(Workload):
    """Serial exhaustive model checks of two-thread litmus tests.

    All seven tests on both RCC pairings, and the three smallest on the
    six MESI-family pairings: every check is replay-bound, the set spans
    both global protocols and RCC, and one pass is short enough that a
    run holds the hundred checks its 90th percentile needs.
    """

    name = "verify"
    work_unit = "states"
    seeded = False
    TESTS = ("CoRR1", "LB", "2+2W", "MP", "SB", "R", "S")
    SMALL_TESTS = ("CoRR1", "LB", "S")
    MCMS = ("SC", "SC")

    def checks(self) -> list[tuple[str, tuple[str, str, str]]]:
        """The fixed (litmus test, combo) list; independent of the seed."""
        out = []
        for local, glob in PAIRINGS:
            tests = self.TESTS if local == "RCC" else self.SMALL_TESTS
            out.extend((test, (local, glob, local)) for test in tests)
        return out

    def setup(self, seed: int) -> None:
        from repro.verify import mc
        from repro.verify.axiomatic import enumerate_outcomes
        from repro.verify.litmus import LITMUS_BY_NAME

        self._mc = mc
        self._synthesize(PAIRINGS)
        started = time.perf_counter()
        for name, combo in self.checks():
            test = LITMUS_BY_NAME[name]
            model = mc.litmus_model(name, combo, self.MCMS)
            thread_mcms = [self.MCMS[tid % 2] for tid in range(test.num_threads)]
            allowed = enumerate_outcomes(list(model.programs), thread_mcms,
                                         test.observed_addrs)
            self.ops.append((f"{name}/{'-'.join(combo)}",
                             (model, test, allowed)))
        self.setup_parts["inputs.build_s"] = time.perf_counter() - started

    def run(self, payload) -> Output:
        model, test, allowed = payload
        result = self._mc.check_model(model, shards=1, backend="serial",
                                      max_states=0)
        # The ``repro check`` verdict: a clean exhaustive search whose
        # outcomes all lie in the axiomatic allowed set, none forbidden.
        problems = []
        if not result.ok:
            problems.append(
                f"check not ok: truncated={result.truncated} "
                f"counterexamples={len(result.counterexamples)} "
                f"terminals={result.terminals}")
        escaped = sorted(result.outcomes - set(allowed))
        if escaped:
            problems.append(f"outcomes outside the allowed set: {escaped}")
        forbidden = sorted(o for o in result.outcomes
                           if test.matches_forbidden(dict(o)))
        if forbidden:
            problems.append(f"forbidden outcomes: {forbidden}")
        return Output(result.states,
                      {"states": result.states, "terminals": result.terminals},
                      problems, counters={"mc.states": result.states})


class Faulted(Workload):
    """The scenario corpus through ``run_scenario``, scaled up.

    Spans and the periodic invariant monitor are always on in a
    scenario run, and scenarios with faults take the generic
    ``Network.send`` lane.
    """

    name = "faulted"
    work_unit = "sim msgs"
    #: Mix scales are multiplied up from the corpus's ~0.1, so the
    #: simulation rather than build and attach dominates each run.
    SCALE_UP = 2
    ROOTS_PER_SCENARIO = 6

    def setup(self, seed: int) -> None:
        from repro.scenario import runner
        from repro.scenario.schema import Scenario, WorkloadMix

        self._runner = runner
        started = time.perf_counter()
        scenarios = [Scenario.load(path)
                     for path in sorted((ROOT / "scenarios").glob("*.toml"))]
        inputs_s = time.perf_counter() - started
        self._synthesize({(cluster.protocol, scenario.global_protocol)
                          for scenario in scenarios
                          for cluster in scenario.clusters})
        started = time.perf_counter()
        for base in scenarios:
            mixes = tuple(WorkloadMix(mix.name, round(mix.scale * self.SCALE_UP, 6))
                          for mix in base.workloads)
            for root in derive_seeds(seed, f"faulted/{base.name}",
                                     self.ROOTS_PER_SCENARIO):
                scenario = dataclasses.replace(base, workloads=mixes,
                                               root_seed=root)
                self.ops.append((f"{base.name}/{root}", scenario))
        self.setup_parts["inputs.build_s"] = (
            inputs_s + time.perf_counter() - started)

    def run(self, payload) -> Output:
        outcome = self._runner.run_scenario(payload)
        problems = []
        if not self._runner.matches_expectation(payload, outcome):
            problems.append(f"[expect] not met: status={outcome['status']} "
                            f"failure={outcome['failure']}")
        text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return Output(outcome["messages"], {"digest": digest}, problems)


WORKLOADS = {cls.name: cls for cls in (Cells, Verify, Faulted)}
