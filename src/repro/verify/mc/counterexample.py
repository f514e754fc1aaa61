"""Counterexample traces: dedup, shrink, replay.

A violation found by the checker is a *delivery path* -- the exact
sequence of network delivery choices that drives a fresh system into
the bad state.  Raw paths from the search are noisy: many paths
reach the same bad state, and a path may contain deliveries irrelevant
to the failure.  This module

- **dedups** violations by signature (violation kind + the canonical
  fingerprint of the state it was detected in), keeping the
  lexicographically-least shortest path per signature;
- **shrinks** a path to a 1-minimal delivery subsequence: repeatedly
  drop single deliveries while the replayed violation signature is
  preserved (delta debugging against the real implementation, so a
  shrunk trace is *proven* to still fail);
- **replays** a counterexample from its JSON form, re-deriving the
  violation byte-identically -- which is what turns a found bug into a
  permanent regression fixture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ConsistencyViolation
from repro.verify.mc.fingerprint import canonical_fingerprint, fingerprint_parts
from repro.verify.mc.model import CheckModel

#: Violation kinds a counterexample may carry.
KIND_INVARIANT = "invariant"
KIND_DEADLOCK = "deadlock"
KIND_CRASH = "crash"
KIND_OUTCOME = "outcome"


@dataclass
class Counterexample:
    """One reproducible protocol failure."""

    model: CheckModel
    path: tuple
    kind: str  # invariant | deadlock | crash | outcome
    message: str
    fingerprint: int  # canonical fingerprint of the violating state
    shrunk: bool = False
    meta: dict = field(default_factory=dict)
    #: Flight-recorder dump (tuple of event dicts) from the search that
    #: hit a crash -- what it was doing just before it blew up.
    flight: tuple = ()

    @property
    def signature(self) -> tuple:
        """Dedup key: what failed, independent of how it was reached."""
        return (self.kind, self.fingerprint)

    def describe(self) -> str:
        """One-line human summary."""
        tag = " (shrunk)" if self.shrunk else ""
        return (f"{self.kind} after {len(self.path)} deliveries{tag}: "
                f"{self.message}")

    # -- replay --------------------------------------------------------
    def probe(self, path=None) -> tuple | None:
        """Replay ``path`` (default: own path); return the observed
        ``(kind, fingerprint)`` signature or None when the replayed
        state does not fail.

        A replay that blows up yields a crash (or mid-replay invariant)
        signature rather than raising; shrink candidates that merely
        invalidate a delivery index produce a *different* crash
        fingerprint than the original failure and are thus rejected by
        the signature comparison, no special-casing needed.

        The replayed system is closed
        (:meth:`~repro.sim.system.System.close`) once classified: a
        shrink makes hundreds of probes, and a replayed state may hold
        pending work whose closures only the cycle collector could
        otherwise free.
        """
        candidate = self.path if path is None else tuple(path)
        try:
            system, network = self.model.replay(candidate)
        except ConsistencyViolation as exc:
            return (KIND_INVARIANT, crash_fingerprint(exc))
        except Exception as exc:
            return (KIND_CRASH, crash_fingerprint(exc))
        try:
            return _state_signature(self.model, system, network)
        finally:
            system.close()

    def reproduces(self) -> bool:
        """Does replaying the stored path still fail identically?"""
        return self.probe() == self.signature

    def replay_with_trace(self):
        """Replay with a message tracer attached; ``(system, tracer)``.

        The tracer is attached before the programs start, so its
        :meth:`~repro.sim.trace.MessageTracer.timeline` holds every
        message of the path, the root's requests included.
        """
        from repro.sim.trace import MessageTracer

        system, network = self.model.build()
        tracer = MessageTracer(network)
        self.model.play(system, network, self.path)
        return system, tracer

    # -- shrinking -----------------------------------------------------
    def shrink(self, max_probes: int = 400) -> "Counterexample":
        """1-minimal delivery subsequence preserving the signature.

        Repeatedly tries deleting each single delivery (rightmost
        first, so completion tails go before causal prefixes) and keeps
        any deletion after which the replay still produces the same
        violation signature.  Stops at a fixpoint: no single delivery
        can be removed -- the classic ddmin granularity-1 guarantee.
        """
        if self.kind == KIND_OUTCOME:
            # An outcome violation is a property of a *terminal* state;
            # subsequence deletion would change which terminal is hit.
            return self
        path = list(self.path)
        probes = 0
        changed = True
        while changed and probes < max_probes:
            changed = False
            for index in range(len(path) - 1, -1, -1):
                candidate = path[:index] + path[index + 1:]
                probes += 1
                if probes > max_probes:
                    break
                if self.probe(candidate) == self.signature:
                    path = candidate
                    changed = True
        return Counterexample(self.model, tuple(path), self.kind,
                              self.message, self.fingerprint,
                              shrunk=True, meta=dict(self.meta),
                              flight=self.flight)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation (regression-fixture format)."""
        payload = {
            "format": 1,
            "model": self.model.to_dict(),
            "path": list(self.path),
            "kind": self.kind,
            "message": self.message,
            "fingerprint": self.fingerprint,
            "shrunk": self.shrunk,
            "meta": dict(self.meta),
        }
        if self.flight:
            payload["flight"] = [dict(event) for event in self.flight]
        return payload

    def to_json(self) -> str:
        """Serialize as pretty JSON text."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "Counterexample":
        """Rebuild a counterexample from :meth:`to_dict` output."""
        return cls(
            model=CheckModel.from_dict(payload["model"]),
            path=tuple(payload["path"]),
            kind=payload["kind"],
            message=payload["message"],
            fingerprint=payload["fingerprint"],
            shrunk=payload.get("shrunk", False),
            meta=dict(payload.get("meta", ())),
            flight=tuple(payload.get("flight", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "Counterexample":
        """Rebuild a counterexample from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


def crash_fingerprint(exc: BaseException) -> int:
    """Process-stable fingerprint of a replay failure.

    A controller that blows up mid-delivery leaves no state to hash, so
    crash (and mid-replay invariant) signatures are derived from the
    exception identity instead -- deterministic for a deterministic
    replay, and distinct across genuinely different failures.
    """
    return fingerprint_parts((type(exc).__name__, str(exc)))


def _state_signature(model: CheckModel, system, network) -> tuple | None:
    """Classify one replayed state: its violation signature or None."""
    from repro.verify import invariants

    if model.check_invariants:
        try:
            invariants.check_all(system)
        except ConsistencyViolation:
            return (KIND_INVARIANT,
                    canonical_fingerprint(system, network))
    if not network.deliverable() and model.stuck_threads(system) != 0:
        return (KIND_DEADLOCK, canonical_fingerprint(system, network))
    return None


def dedup(examples) -> list:
    """Keep one counterexample per signature: the shortest path wins,
    ties broken lexicographically, so the survivor set is deterministic
    for any exploration order."""
    best: dict = {}
    for example in examples:
        key = example.signature
        held = best.get(key)
        if held is None or ((len(example.path), example.path)
                            < (len(held.path), held.path)):
            best[key] = example
    return sorted(best.values(),
                  key=lambda e: (len(e.path), e.path, e.kind))
