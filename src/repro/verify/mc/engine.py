"""Exhaustive depth-first exploration of delivery orders.

One serial search (:func:`explore`) visits every state reachable by
some order of network deliveries, deduplicated by canonical
fingerprint; each new state is invariant-checked and classified as a
terminal, a deadlock or a violation.

The search keeps one live system: the first successor of an expanded
state is a live delivery step, each later sibling restores the
parent's in-place snapshot and delivers one message, and only the root
is replayed from the model.  A :class:`LiveSystem` records which
domain -- one network node: an L1 and its core, a bridge and its port,
or the home -- each step touched, so fingerprints, restores and
snapshots handle only those.

:func:`check_model` runs the search and turns its raw violations into
deduplicated, shrunk counterexamples (:class:`CheckResult`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConsistencyViolation
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
from repro.verify.mc.fingerprint import PartBytes, canonical_fingerprint
from repro.verify.mc.model import CheckModel


class Snapshot:
    """One :meth:`LiveSystem.snapshot`: the saved system, the part bytes
    of the state it saved, and the tick at which the live system last
    matched it."""

    __slots__ = ("saved", "encoded", "synced")

    def __init__(self, saved: list, encoded: tuple, synced: int) -> None:
        self.saved = saved
        self.encoded = encoded
        self.synced = synced


class LiveSystem:
    """The search's one live ``(system, network)``, and the domains each
    change to it touched.

    A delivery to an idle system changes only its destination node's
    domain (:attr:`~repro.sim.system.System.domains`: an L1 and its
    core, a bridge and its port, or the home and the backing store),
    the engine and the outbox; snapshots and restores always handle
    the latter two whole.
    Every change stamps the domains it touched with a tick of a private
    clock: a delivery its destination's (before delivering, so one
    that raises has touched it too), a restore the domains it rewrote.
    A :class:`Snapshot` records the tick at which the live system last
    matched it, so any domain stamped no later than that still holds
    the snapshot's state.  That record serves three operations:

    - :meth:`touched` names the domains to re-encode for
      :func:`~repro.verify.mc.fingerprint.canonical_fingerprint`, whose
      other parts keep the bytes in :attr:`parts`;
    - :meth:`restore` rewrites only the domains changed since the
      snapshot last matched, and puts back the snapshot's part bytes;
    - :meth:`snapshot` shares with the previous snapshot the saved
      state of every domain unchanged since it was taken.
    """

    def __init__(self, system, network) -> None:
        self.system = system
        self.network = network
        self.parts = PartBytes(system)
        self._domain_of = system.node_domains
        self._tick = 0
        #: Per domain, the tick of its last change.
        self._changed = [0] * len(system.domains)
        #: Tick at which :attr:`parts` was last filled; None: never.
        self._encoded: int | None = None
        self._base: Snapshot | None = None

    def advance(self, model, choice: int) -> None:
        """Deliver outbox message ``choice`` (:meth:`CheckModel.advance`)."""
        self._tick += 1
        self._changed[self._domain_of[self.network.outbox[choice].dst]] = (
            self._tick)
        model.advance(self.system, self.network, choice)

    def touched(self) -> list | None:
        """The domains changed since :attr:`parts` was last filled (None
        for all), for a fingerprint that fills it now."""
        encoded, self._encoded = self._encoded, self._tick
        if encoded is None:
            return None
        return [index for index, tick in enumerate(self._changed)
                if tick > encoded]

    def snapshot(self) -> Snapshot:
        """Save the live state (:meth:`~repro.sim.system.System.snapshot`)
        with its part bytes; the state must have been fingerprinted
        since its last change."""
        base = self._base
        clean = () if base is None else [
            index for index, tick in enumerate(self._changed)
            if tick <= base.synced]
        snapshot = Snapshot(
            self.system.snapshot(() if base is None else base.saved, clean),
            tuple(self.parts.encoded), self._tick)
        self._base = snapshot
        return snapshot

    def restore(self, snapshot: Snapshot) -> None:
        """Put ``snapshot`` back (:meth:`~repro.sim.system.System.restore`)."""
        changed = self._changed
        dirty = [index for index, tick in enumerate(changed)
                 if tick > snapshot.synced]
        self.system.restore(snapshot.saved, dirty)
        self._tick += 1
        for index in dirty:
            changed[index] = self._tick
        snapshot.synced = self._tick
        self.parts.encoded[:] = snapshot.encoded
        self._encoded = self._tick


def explore(model: CheckModel, max_states: int = 0,
            max_depth: int = 0) -> dict:
    """Explore every delivery order of ``model`` depth first.

    New states are invariant-checked, classified (terminal / deadlock /
    violation) and their successors pushed.  ``max_states`` bounds the
    new states (0 = unlimited) and ``max_depth`` the path length (0 =
    unlimited); exceeding either sets ``truncated``.

    Successors are pushed in reverse, so the pop right after an
    expansion is always the expanded state's first successor.  It is
    reached by one delivery on the still-live system, since expansion
    only reads a state.  An expansion with two or more choices first
    takes one snapshot, which every later sibling carries on the stack:
    popping a sibling restores that snapshot in place on the same
    system and delivers one message.  Only the root is built by
    :meth:`CheckModel.replay`, and its system stays open for the
    caller's observers.

    Every step goes through one :class:`LiveSystem`, which records the
    domains each delivery and restore touched: a fingerprint re-encodes
    only the touched domains' parts and the messages not yet encoded, a
    restore rewrites only the domains touched since its snapshot, and a
    snapshot shares the saved state of untouched domains with the
    previous one.  The root is fingerprinted with one full walk, which
    seeds the part bytes its successors reuse.  Every fingerprint goes
    through one part memo
    (:func:`~repro.verify.mc.fingerprint.part_bytes`), and every
    invariant check through one verdict memo keyed by those part bytes
    (:func:`~repro.verify.invariants.check_all`), so a state whose L1s
    and bridges match an earlier state's is not walked again; both are
    dropped on return.

    Returns a dict: ``new_fps`` (discovery order), ``states``,
    ``terminals``, ``outcomes`` (``[(outcome, path)]`` with the minimal
    path per outcome), ``violations`` (``[(path, kind, message, fp,
    flight)]`` where ``flight`` is the search's flight-recorder dump
    for crashes and ``()`` otherwise), ``max_depth``, ``replays`` (root
    builds), ``restores`` (siblings reached from a snapshot; live steps
    count in neither) and ``truncated``.
    """
    seen: set[int] = set()
    # Stack items are (path, snapshot-or-None): a sibling carries the
    # snapshot of its parent.
    stack: list[tuple] = [((), None)]
    new_fps: list[int] = []
    outcomes: dict[tuple, tuple] = {}
    violations: list[tuple] = []
    states = terminals = replays = restores = deepest = 0
    truncated = False
    # Last-N steps, each recorded as a "replay" event whichever way it
    # reached its state; a crashing interleaving ships what the search
    # was doing just before it, for the postmortem.
    flight = FlightRecorder(64)
    # True while the top of the stack is the first successor of the
    # state the live system was just expanded at.
    live = False
    # The search's one live system, built by the root's replay.
    cursor: Any = None
    memo: dict[bytes, bytes] = {}
    # Invariant verdicts, keyed by the part bytes of the L1s and bridges.
    verdicts: dict[tuple, tuple] = {}
    while stack:
        path, saved = stack.pop()
        step, live = live, False
        flight.record("replay", depth=len(path), states=states)
        try:
            if step:
                cursor.advance(model, path[-1])
            elif saved is not None:
                restores += 1
                cursor.restore(saved)
                cursor.advance(model, path[-1])
            else:
                replays += 1
                cursor = LiveSystem(*model.replay(path))
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
        system, network = cursor.system, cursor.network
        # The root is fingerprinted in full: that seeds the part bytes
        # its successors start from.
        fp = canonical_fingerprint(system, network, memo, cursor.parts,
                                   cursor.touched())
        if fp in seen:
            continue
        seen.add(fp)
        new_fps.append(fp)
        states += 1
        deepest = max(deepest, len(path))
        if model.check_invariants:
            try:
                invariants.check_all(system, verdicts, cursor.parts.key)
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
        if len(choices) > 1:
            saved = cursor.snapshot()
            for choice in reversed(choices[1:]):
                stack.append((path + (choice,), saved))
        stack.append((path + (choices[0],), None))
        live = True
    return {
        "new_fps": new_fps,
        "states": states,
        "terminals": terminals,
        "outcomes": sorted(outcomes.items()),
        "violations": violations,
        "max_depth": deepest,
        "replays": replays,
        "restores": restores,
        "truncated": truncated,
    }


@dataclass
class CheckResult:
    """Aggregate verdict of one exhaustive check."""

    model: CheckModel
    states: int = 0
    terminals: int = 0
    outcomes: set = field(default_factory=set)
    #: Minimal delivery path witnessing each outcome (for replay).
    outcome_examples: dict = field(default_factory=dict)
    max_depth: int = 0
    truncated: bool = False
    #: States built from the root by replay.
    replays: int = 0
    #: Siblings reached by restoring their parent's snapshot in place.
    restores: int = 0
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
                f"{self.replays} replays, {self.restores} restores, "
                f"{self.elapsed:.2f}s)")

    def to_dict(self) -> dict:
        """JSON-ready representation (sets flattened, sorted)."""
        return {
            "combo": list(self.model.combo),
            "ok": self.ok,
            "states": self.states,
            "terminals": self.terminals,
            "outcomes": sorted(
                [list(pair) for pair in outcome] for outcome in self.outcomes),
            "max_depth": self.max_depth,
            "truncated": self.truncated,
            "replays": self.replays,
            "restores": self.restores,
            "elapsed": self.elapsed,
            "counterexamples": [ce.to_dict() for ce in self.counterexamples],
        }


def check_model(model: CheckModel, shards: int = 1, backend: str = "serial",
                max_states: int = 200_000, max_depth: int = 0,
                metrics: MetricsRegistry | None = None, shrink: bool = True,
                shrink_limit: int = 25) -> CheckResult:
    """Explore ``model`` exhaustively (or to the caps); return the verdict.

    ``max_states`` caps the distinct states and ``max_depth`` the path
    length (0 = unlimited); a capped search is ``truncated``, never ok.
    ``metrics`` is an optional
    :class:`~repro.obs.metrics.MetricsRegistry` that receives the
    ``mc.*`` counters.  Counterexamples are deduplicated, and the
    ``shrink_limit`` shortest are shrunk when ``shrink`` is set.
    ``shards`` and ``backend`` accept only ``1`` and ``"serial"``, the
    one search there is.
    """
    if shards != 1 or backend != "serial":
        raise ValueError(
            f"shards={shards!r}, backend={backend!r}: the sharded search "
            "was removed; the one search is serial (shards=1, "
            "backend='serial')")
    started = time.monotonic()
    out = explore(model, max_states, max_depth)
    outcome_examples = dict(out["outcomes"])
    result = CheckResult(
        model=model, states=out["states"], terminals=out["terminals"],
        outcomes=set(outcome_examples), outcome_examples=outcome_examples,
        max_depth=out["max_depth"],
        truncated=(out["truncated"]
                   or bool(max_states and out["states"] >= max_states)),
        replays=out["replays"], restores=out["restores"])
    result.elapsed = time.monotonic() - started
    result.counterexamples = _counterexamples(
        model, out["violations"], shrink, shrink_limit)
    if metrics is not None:
        for name in ("states", "replays", "restores", "terminals"):
            metrics.counter(f"mc.{name}").add(getattr(result, name))
        metrics.counter("mc.violations").add(len(result.counterexamples))
    return result


def _counterexamples(model, raw, shrink: bool, shrink_limit: int) -> list:
    """Dedup raw violations, then shrink survivors via replay.

    Shrinking is replay-heavy (hundreds of probes per trace), so a
    badly broken protocol with thousands of distinct violating states
    only gets its ``shrink_limit`` shortest traces minimized; the tail
    keeps its raw paths.
    """
    survivors = dedup(
        Counterexample(model=model, path=tuple(path), kind=kind,
                       message=message, fingerprint=fp, flight=tuple(flight))
        for path, kind, message, fp, flight in raw)
    if shrink:
        survivors = ([ce.shrink() for ce in survivors[:shrink_limit]]
                     + survivors[shrink_limit:])
    return survivors


def check_litmus(name: str, combo, mcms=("SC", "SC"), **kwargs) -> CheckResult:
    """Check one named builtin litmus program on ``combo``."""
    from repro.verify.mc.model import litmus_model

    return check_model(litmus_model(name, combo, mcms), **kwargs)
