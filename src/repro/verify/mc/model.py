"""The picklable unit of model-checking work.

A :class:`CheckModel` is everything needed to rebuild the system under
test from nothing: the protocol combo, the thread programs, the MCMs,
placement and the observed addresses.  States hold closures inside
controller objects and cannot cross a process boundary; the *model*
can, so a counterexample is a model plus a delivery path, and any
process rebuilds its state by replay.

:meth:`CheckModel.replay` rebuilds a state from the root, and
:meth:`CheckModel.advance` takes one delivery step on a live system.
The search replays only its root and moves one live system around: ``advance`` turns the state it just expanded
into that state's first successor, and every later sibling restores
the parent's in-place snapshot
(:meth:`~repro.sim.system.System.snapshot`) before its ``advance``.
Expanding a state only reads it, so all three ways give the same
state.

``violate_atomicity`` switches off the bridge's Rule-II enforcement --
the paper's Fig. 4 failure injection -- so tests can demand that the
checker *finds* the resulting SWMR violation rather than proving
absence only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.sim.config import SystemConfig
from repro.verify import explorer, invariants
from repro.verify.runner import thread_placement


@dataclass
class CheckModel:
    """Reconstructible specification of one exploration problem."""

    combo: tuple[str, str, str]
    programs: tuple
    mcms: tuple[str, str] = ("SC", "SC")
    placement: tuple | None = None
    observed_addrs: tuple = ()
    check_invariants: bool = True
    violate_atomicity: bool = False

    def system_config(self) -> SystemConfig:
        """The configuration every replay builds (a subclass may override)."""
        return explorer.system_config(self.combo, self.mcms,
                                      len(self.programs))

    @cached_property
    def _config(self) -> SystemConfig:
        """:meth:`system_config`, computed once, on first use."""
        return self.system_config()

    @cached_property
    def _thread_cores(self) -> tuple[int, ...]:
        """Core index per thread: ``placement``, else alternating clusters."""
        if self.placement:
            return tuple(self.placement)
        return tuple(thread_placement(len(self.programs),
                                      self._config.clusters[0].cores))

    def build(self):
        """A fresh intercepted ``(system, network)``, no program started."""
        return explorer.build_intercepted(self._config, self.violate_atomicity)

    def play(self, system, network, path):
        """Start the programs on a :meth:`build` result, then deliver
        ``path``; returns ``(system, network)``."""
        for program, core in zip(self.programs, self._thread_cores):
            system.cores[core].run_program(program, None)
        system.engine.run()
        for choice in path:
            self.advance(system, network, choice)
        return system, network

    def advance(self, system, network, choice):
        """Deliver outbox message ``choice`` on a live state and run the
        engine to quiescence; returns ``(system, network)``, now the
        state at the end of the path extended by ``choice``."""
        network.deliver(choice)
        system.engine.run()
        return system, network

    def replay(self, path):
        """Rebuild the state at the end of ``path`` from scratch.

        Returns ``(system, network)``; the intercepted network's outbox
        holds the deliverable messages of the state.
        """
        return self.play(*self.build(), path)

    def stuck_threads(self, system) -> int:
        """Threads whose program has not finished in ``system``."""
        return sum(system.cores[core].finish_time is None
                   for core in self._thread_cores)

    def outcome(self, system) -> tuple:
        """Terminal outcome tuple (registers + observed memory)."""
        outcome = {}
        for core in system.cores:
            outcome.update(core.regs)
        for addr in self.observed_addrs:
            value = invariants.authoritative_value(system, addr)
            outcome[f"[{addr}]"] = value if value is not None else 0
        return tuple(sorted(outcome.items()))

    # -- serialization for regression fixtures -------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation (programs flattened to op dicts)."""
        return {
            "combo": list(self.combo),
            "mcms": list(self.mcms),
            "placement": list(self.placement) if self.placement else None,
            "observed_addrs": list(self.observed_addrs),
            "check_invariants": self.check_invariants,
            "violate_atomicity": self.violate_atomicity,
            "programs": [
                {
                    "name": program.name,
                    "ops": [
                        {
                            "kind": op.kind, "addr": op.addr,
                            "value": op.value, "reg": op.reg,
                            "fence_kind": op.fence_kind,
                            "deps": list(op.deps), "gap": op.gap,
                        }
                        for op in program.ops
                    ],
                }
                for program in self.programs
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CheckModel":
        """Rebuild a model from :meth:`to_dict` output."""
        from repro.cpu.isa import Op, ThreadProgram

        programs = tuple(
            ThreadProgram(entry["name"], [
                Op(kind=op["kind"], addr=op["addr"], value=op["value"],
                   reg=op["reg"], fence_kind=op["fence_kind"],
                   deps=tuple(op["deps"]), gap=op["gap"])
                for op in entry["ops"]
            ])
            for entry in payload["programs"]
        )
        placement = payload.get("placement")
        return cls(
            combo=tuple(payload["combo"]),
            programs=programs,
            mcms=tuple(payload["mcms"]),
            placement=tuple(placement) if placement else None,
            observed_addrs=tuple(payload.get("observed_addrs", ())),
            check_invariants=payload.get("check_invariants", True),
            violate_atomicity=payload.get("violate_atomicity", False),
        )


def litmus_model(name: str, combo, mcms=("SC", "SC")) -> CheckModel:
    """Build the model for one named builtin litmus test.

    ``mcms`` is the per-*cluster* pair; threads alternate clusters
    (T0 -> A, T1 -> B, ...) exactly as replays place them, so the
    per-thread MCM list handed to :func:`materialize` is expanded the
    same way.
    """
    from repro.core.spec import canonical_global_name, canonical_local_name
    from repro.verify.litmus import LITMUS_BY_NAME, materialize

    local_a, global_, local_b = combo
    combo = (canonical_local_name(local_a), canonical_global_name(global_),
             canonical_local_name(local_b))
    test = LITMUS_BY_NAME[name]
    thread_mcms = [mcms[tid % 2] for tid in range(test.num_threads)]
    programs = tuple(materialize(test, thread_mcms))
    return CheckModel(combo=tuple(combo), programs=programs,
                      mcms=tuple(mcms),
                      observed_addrs=tuple(test.observed_addrs))
