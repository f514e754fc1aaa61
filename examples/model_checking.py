#!/usr/bin/env python
"""Model checking the implementation: the Murphi-substitute in action.

Exhaustively explores every network delivery order of a message-passing
program on a two-cluster CXL system, checking the coherence invariants
in every reachable state, then shows what happens when Rule II is
switched off (Fig. 4): the same exhaustive search immediately finds the
broken interleaving that random testing may miss.

Run:  python examples/model_checking.py
"""

from repro.cpu.isa import ThreadProgram, load, store
from repro.verify.axiomatic import enumerate_outcomes
from repro.verify.litmus import MP, materialize
from repro.verify.mc import CheckModel, check_model

X = 0x10


def main() -> None:
    print("=== Exhaustive exploration: MP on MESI-CXL-MESI ===")
    mcms = ["SC", "SC"]
    programs = materialize(MP, mcms)
    allowed = enumerate_outcomes(programs, mcms, MP.observed_addrs)
    result = check_model(CheckModel(("MESI", "CXL", "MESI"), tuple(programs)),
                         max_states=4_000)
    print(f"states explored : {result.states}")
    print(f"max depth       : {result.max_depth} deliveries")
    print(f"terminal states : {result.terminals}")
    print(f"outcomes        : {len(result.outcomes)} "
          f"(all within the {len(allowed)} the compound model allows)")
    assert result.ok and result.outcomes <= allowed
    for outcome in sorted(result.outcomes):
        print("   ", ", ".join(f"{k}={v}" for k, v in outcome))

    print("\n=== Same search with Rule II (atomicity) disabled ===")
    broken = CheckModel(
        ("MESI", "CXL", "MESI"),
        (ThreadProgram("r0", [load(X, "w0"), load(X, "a")]),
         ThreadProgram("w", [load(X, "w1"), store(X, 1), store(X, 2)])),
        violate_atomicity=True,
    )
    result = check_model(broken, max_states=3_000)
    assert result.counterexamples, "UNEXPECTED: no violation"
    first = result.counterexamples[0]
    print(f"exhaustive search verdict: {len(result.counterexamples)} "
          f"distinct violations in {result.states} states")
    print(f"first (shrunk to {len(first.path)} deliveries): "
          f"{first.kind}: {first.message}")
    print("\nRule II is load-bearing: remove it and the model checker")
    print("finds the breakage within seconds.")


if __name__ == "__main__":
    main()
