"""Frontier-sharded exhaustive exploration over the sweep runner.

A depth-first search over delivery orders, partitioned by **state
ownership**: shard *k* of *n* owns exactly the states whose canonical
fingerprint satisfies ``fp % n == k``.  Every shard expands only states
it owns, so visited-set membership needs no cross-worker coordination
-- a state is deduplicated, invariant-checked and expanded exactly
once, at its owner.
A successor owned elsewhere is *punted*: the ``(path, fingerprint)``
pair is handed to the owner, which can reject already-visited states
without replaying them.

The search proceeds in waves over one
:class:`~repro.harness.sweep.SweepRunner` (serial loop or local process
pool): each wave fans one :class:`~repro.harness.sweep.SweepCell` per
shard-with-work out through :meth:`~repro.harness.sweep.SweepRunner.map`
and the coordinator routes the punted frontier to the next wave.  The
runner is held open for the whole search, so the pool is started once,
at the first wave that fans out, and reused by every later one.  A
fanned-out wave still pickles each shard's visited set, so small waves
are drained inline in the coordinator (:data:`INLINE_WAVE`) -- the
runner only sees waves big enough to repay the fan-out.

Worker failures degrade deterministically: a cell that comes back as a
:class:`~repro.harness.sweep.CellFailure` is re-run inline, and every
merge below is order-independent, so states / outcomes /
counterexamples are bit-identical across shard counts and backends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import ConsistencyViolation
from repro.harness.sweep import (
    CellFailure,
    SweepCell,
    SweepRunner,
    resolve_jobs,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.verify import invariants
from repro.verify.mc.counterexample import (
    KIND_CRASH,
    KIND_DEADLOCK,
    KIND_INVARIANT,
    Counterexample,
    crash_fingerprint,
    dedup,
)
from repro.verify.mc.fingerprint import canonical_fingerprint
from repro.verify.mc.model import CheckModel

#: Waves with fewer work items than this are drained inline in the
#: coordinator: each fanned-out wave pickles every shard's visited set
#: to its worker and back, a cost a handful of replays never repays.
INLINE_WAVE = 24


def explore_shard(model: CheckModel, shard: int, n_shards: int, work,
                  visited, max_states: int = 0, max_depth: int = 0) -> dict:
    """Expand one shard's work list; the module-level sweep-cell body.

    ``work`` is a list of ``(path, fingerprint-or-None)`` items; an item
    with a fingerprint was punted by another shard (already known to be
    owned here), one without is a locally pushed successor whose
    fingerprint is found on first visit.  ``visited`` holds the
    fingerprints this shard has already expanded in earlier waves.

    Runs a depth-first drain: owned new states are invariant-checked,
    classified (terminal / deadlock / violation) and their successors
    pushed; states owned elsewhere are accumulated per-owner in
    ``emit``.  ``max_states`` bounds the *new* states this call may add
    (0 = unlimited) and ``max_depth`` the path length (0 = unlimited);
    exceeding either sets ``truncated``.

    Successors are pushed in reverse, so the pop right after an
    expansion is always the expanded state's first successor.  It is
    reached by :meth:`CheckModel.advance` on the parent's still-live
    system, since expansion only reads a state; every other pop is a
    :meth:`CheckModel.replay` from the root.  Each replay closes the
    system it replaces (:meth:`~repro.sim.system.System.close`), once
    the replay has returned: an observer wrapping ``build_system`` may
    read the previous system while the next one is built.  The last
    system stays open for the caller's observers.  Every fingerprint
    of the drain goes through one part memo
    (:func:`~repro.verify.mc.fingerprint.state_bytes`), dropped on
    return.

    Returns a plain picklable dict: ``new_fps`` (discovery order),
    ``emit`` (``{owner: [(path, fp)]}``), ``states``, ``terminals``,
    ``outcomes`` (``[(outcome, path)]`` with the minimal path per
    outcome), ``violations`` (``[(path, kind, message, fp, flight)]``
    where ``flight`` is the shard's flight-recorder dump for crashes
    and ``()`` otherwise), ``max_depth``, ``replays`` (root rebuilds;
    live steps are not counted) and ``truncated``.
    """
    seen = set(visited)
    # Reversed so list.pop() explores the first work item's subtree first.
    stack = [(tuple(path), fp) for path, fp in reversed(list(work))]
    new_fps: list[int] = []
    emit: dict[int, list] = {}
    outcomes: dict[tuple, tuple] = {}
    violations: list[tuple] = []
    states = terminals = replays = deepest = 0
    truncated = False
    # Last-N replay events; a crashing interleaving ships what the
    # search was doing just before it, for the postmortem.
    flight = FlightRecorder(64)
    # The (system, network) of the state expanded last, whose first
    # successor is on top of the stack.
    live = None
    # The system the last replay built; live steps keep advancing it.
    current = None
    memo: dict[bytes, bytes] = {}
    while stack:
        path, fp = stack.pop()
        parent, live = live, None
        if fp is not None and fp in seen:
            continue
        flight.record("replay", depth=len(path), states=states)
        try:
            if parent is None:
                replays += 1
                system, network = model.replay(path)
            else:
                system, network = model.advance(*parent, path[-1])
        except ConsistencyViolation as exc:
            # A runtime monitor fired mid-delivery: no end state exists
            # to fingerprint, so the exception identity stands in.
            violations.append(
                (path, KIND_INVARIANT, str(exc), crash_fingerprint(exc), ()))
            continue
        except Exception as exc:
            # The controller itself blew up under this interleaving --
            # as much a found defect as a failed invariant.
            flight.record("crash", depth=len(path),
                          error=f"{type(exc).__name__}: {exc}"[:200])
            violations.append(
                (path, KIND_CRASH, f"{type(exc).__name__}: {exc}",
                 crash_fingerprint(exc), tuple(flight.dump())))
            continue
        if system is not current:
            # A replay built it: the system it replaces is done.
            if current is not None:
                current.close()
            current = system
        if fp is None:
            fp = canonical_fingerprint(system, network, memo)
        owner = fp % n_shards
        if owner != shard:
            emit.setdefault(owner, []).append((path, fp))
            continue
        if fp in seen:
            continue
        seen.add(fp)
        new_fps.append(fp)
        states += 1
        deepest = max(deepest, len(path))
        if model.check_invariants:
            try:
                invariants.check_all(system)
            except ConsistencyViolation as exc:
                violations.append((path, KIND_INVARIANT, str(exc), fp, ()))
                continue
        choices = network.deliverable()
        if not choices:
            stuck = model.stuck_threads(system)
            if stuck:
                violations.append(
                    (path, KIND_DEADLOCK,
                     f"deadlock: {stuck} threads stuck", fp, ()))
            else:
                terminals += 1
                outcome = model.outcome(system)
                held = outcomes.get(outcome)
                if held is None or (len(path), path) < (len(held), held):
                    outcomes[outcome] = path
            continue
        if max_states and states >= max_states:
            truncated = True
            break
        if max_depth and len(path) >= max_depth:
            truncated = True
            continue
        for choice in reversed(choices):
            stack.append((path + (choice,), None))
        live = system, network
    return {
        "shard": shard,
        "new_fps": new_fps,
        "emit": emit,
        "states": states,
        "terminals": terminals,
        "outcomes": sorted(outcomes.items()),
        "violations": violations,
        "max_depth": deepest,
        "replays": replays,
        "truncated": truncated,
    }


@dataclass
class CheckResult:
    """Aggregate verdict of one sharded exhaustive check."""

    model: CheckModel
    shards: int = 1
    backend: str = "serial"
    states: int = 0
    terminals: int = 0
    outcomes: set = field(default_factory=set)
    #: Minimal delivery path witnessing each outcome (for replay).
    outcome_examples: dict = field(default_factory=dict)
    max_depth: int = 0
    truncated: bool = False
    rounds: int = 0
    #: States rebuilt from the root; live steps on a parent not counted.
    replays: int = 0
    elapsed: float = 0.0
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Clean verdict: no counterexamples, ≥1 terminal, exhaustive."""
        return (not self.counterexamples and self.terminals > 0
                and not self.truncated)

    def summary(self) -> str:
        """One-line human summary."""
        mark = ("ok" if self.ok
                else "TRUNCATED" if self.truncated and not self.counterexamples
                else "FAIL")
        return (f"{'-'.join(self.model.combo)}: {mark} "
                f"({self.states} states, {self.terminals} terminals, "
                f"{len(self.outcomes)} outcomes, depth {self.max_depth}, "
                f"{self.rounds} rounds, {self.shards} shard(s), "
                f"{self.elapsed:.2f}s)")

    def to_dict(self) -> dict:
        """JSON-ready representation (sets flattened, sorted)."""
        return {
            "combo": list(self.model.combo),
            "shards": self.shards,
            "backend": self.backend,
            "ok": self.ok,
            "states": self.states,
            "terminals": self.terminals,
            "outcomes": sorted(
                [list(pair) for pair in outcome] for outcome in self.outcomes),
            "max_depth": self.max_depth,
            "truncated": self.truncated,
            "rounds": self.rounds,
            "replays": self.replays,
            "elapsed": self.elapsed,
            "counterexamples": [ce.to_dict() for ce in self.counterexamples],
        }


class ModelChecker:
    """Wave coordinator: routes frontiers between shard owners.

    ``shards=1`` degenerates to a single inline drain (the sharded
    engine's serial mode -- still process-stable fingerprints, still
    counterexample objects) and builds no runner.  ``backend`` is
    ``"serial"`` or ``"local"`` (the process pool); ``jobs`` sizes that
    pool as ``min(jobs, shards)``, with ``jobs`` resolved like every
    runner's (``REPRO_JOBS``, then the CPU count).  ``metrics`` is an
    optional :class:`~repro.obs.metrics.MetricsRegistry` that receives
    the ``mc.*`` counters.
    """

    def __init__(self, model: CheckModel, shards: int = 1,
                 backend: str = "serial", max_states: int = 200_000,
                 max_depth: int = 0, metrics: MetricsRegistry | None = None,
                 shrink: bool = True, shrink_limit: int = 25,
                 jobs: int | None = None) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.model = model
        self.shards = shards
        self.backend = backend
        self.jobs = jobs
        self.max_states = max_states
        self.max_depth = max_depth
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.shrink = shrink
        self.shrink_limit = shrink_limit

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump the ``mc.<name>`` counter."""
        self.metrics.counter(f"mc.{name}").add(amount)

    def run(self, progress=None) -> CheckResult:
        """Explore exhaustively (or to the caps); return the verdict."""
        if self.shards == 1:
            return self._search(None, progress)
        with SweepRunner(jobs=min(resolve_jobs(self.jobs), self.shards),
                         backend=self.backend, capture_errors=True) as runner:
            return self._search(runner, progress)

    def _search(self, runner, progress) -> CheckResult:
        """The wave loop; ``runner`` is None for an inline-only search."""
        started = time.monotonic()
        result = CheckResult(model=self.model, shards=self.shards,
                             backend=self.backend)
        visited: list[set] = [set() for _ in range(self.shards)]
        raw_violations: list[tuple] = []
        outcome_paths: dict[tuple, tuple] = {}
        # The root's owner is unknown until its first replay; hand it to
        # shard 0, which will punt it onward if it lands elsewhere.
        pending: dict[int, list] = {0: [((), None)]}
        while pending and not result.truncated:
            result.rounds += 1
            self._count("waves")
            wave, pending = pending, {}
            budget = (max(1, self.max_states - result.states)
                      if self.max_states else 0)
            outs = self._run_wave(wave, visited, budget, runner)
            for out in outs:
                shard = out["shard"]
                visited[shard].update(out["new_fps"])
                result.states += out["states"]
                result.terminals += out["terminals"]
                result.max_depth = max(result.max_depth, out["max_depth"])
                result.replays += out["replays"]
                result.truncated = result.truncated or out["truncated"]
                raw_violations.extend(out["violations"])
                for outcome, path in out["outcomes"]:
                    held = outcome_paths.get(outcome)
                    if held is None or (len(path), path) < (len(held), held):
                        outcome_paths[outcome] = tuple(path)
                for owner, items in out["emit"].items():
                    self._count("punts", len(items))
                    fresh = [(tuple(path), fp) for path, fp in items
                             if fp not in visited[owner]]
                    if fresh:
                        pending.setdefault(owner, []).extend(fresh)
            if self.max_states and result.states >= self.max_states:
                result.truncated = True
            if progress is not None:
                progress(result.rounds, result.states)
        result.outcomes = set(outcome_paths)
        result.outcome_examples = dict(sorted(outcome_paths.items()))
        result.elapsed = time.monotonic() - started
        self._count("states", result.states)
        self._count("replays", result.replays)
        self._count("terminals", result.terminals)
        result.counterexamples = self._build_counterexamples(raw_violations)
        self._count("violations", len(result.counterexamples))
        return result

    # ------------------------------------------------------------------
    def _run_wave(self, wave, visited, budget, runner) -> list:
        """Execute one wave, inline or fanned out; returns shard outputs."""
        items_total = sum(len(items) for items in wave.values())
        fan_out = (runner is not None and len(wave) > 1
                   and items_total >= INLINE_WAVE)
        if not fan_out:
            self._count("inline_waves")
            return [
                explore_shard(self.model, shard, self.shards, items,
                              visited[shard], budget, self.max_depth)
                for shard, items in sorted(wave.items())
            ]
        cells = [
            SweepCell(
                key=("mc", shard),
                fn=explore_shard,
                kwargs=dict(model=self.model, shard=shard,
                            n_shards=self.shards, work=items,
                            visited=sorted(visited[shard]),
                            max_states=budget, max_depth=self.max_depth),
            )
            for shard, items in sorted(wave.items())
        ]
        submitted = runner.map(cells)
        outs = []
        for cell in cells:
            value = submitted[cell.key]
            if isinstance(value, CellFailure):
                # Deterministic degradation: the cell body is a pure
                # function of its kwargs, so an inline re-run yields the
                # exact result the lost worker would have produced.
                self._count("cell_retries")
                value = explore_shard(**cell.kwargs)
            outs.append(value)
        return outs

    def _build_counterexamples(self, raw) -> list:
        """Dedup raw violations, then shrink survivors via replay.

        Shrinking is replay-heavy (hundreds of probes per trace), so a
        badly broken protocol with thousands of distinct violating
        states only gets its :attr:`shrink_limit` shortest traces
        minimized; the tail keeps its raw paths.
        """
        examples = [
            Counterexample(model=self.model, path=tuple(path), kind=kind,
                           message=message, fingerprint=fp,
                           flight=tuple(flight))
            for path, kind, message, fp, flight in raw
        ]
        survivors = dedup(examples)
        if self.shrink:
            survivors = ([ce.shrink() for ce in survivors[:self.shrink_limit]]
                         + survivors[self.shrink_limit:])
        return survivors


def check_model(model: CheckModel, shards: int = 1, backend: str = "serial",
                max_states: int = 200_000, max_depth: int = 0,
                metrics: MetricsRegistry | None = None, shrink: bool = True,
                shrink_limit: int = 25, progress=None,
                jobs: int | None = None) -> CheckResult:
    """One-call convenience wrapper around :class:`ModelChecker`."""
    checker = ModelChecker(model, shards=shards, backend=backend,
                           max_states=max_states, max_depth=max_depth,
                           metrics=metrics, shrink=shrink,
                           shrink_limit=shrink_limit, jobs=jobs)
    return checker.run(progress=progress)


def check_litmus(name: str, combo, mcms=("SC", "SC"), **kwargs) -> CheckResult:
    """Check one named builtin litmus program on ``combo``."""
    from repro.verify.mc.model import litmus_model

    return check_model(litmus_model(name, combo, mcms), **kwargs)
