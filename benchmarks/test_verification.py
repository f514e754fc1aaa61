"""Sec. VI-A: the formal-verification stage (Murphi-substitute sweep).

Exhaustively explores small two-cluster configurations over all network
delivery orders, checking SWMR / inclusion / value / compound-state
invariants in every reachable state and deadlock-freedom at every
terminal -- then cross-checks terminal outcomes against the compound
memory model's axiomatic allowed sets.
"""

from repro.cpu.isa import ThreadProgram, load, store
from repro.verify.axiomatic import enumerate_outcomes
from repro.verify.litmus import MP, materialize
from repro.verify.mc import CheckModel, check_model

X, Y = 0x10, 0x11

SCENARIOS = [
    ("store-load", [ThreadProgram("w", [store(X, 1)]),
                    ThreadProgram("r", [load(X, "r0")])], ()),
    ("store-store", [ThreadProgram("a", [store(X, 1)]),
                     ThreadProgram("b", [store(X, 2)])], (X,)),
    ("mp", materialize(MP, ["SC", "SC"]), ()),
]

COMBOS = [("MESI", "CXL", "MESI"), ("MESI", "CXL", "MOESI"), ("MESI", "MESI", "MESI")]


def test_exhaustive_exploration_sweep(benchmark, save_result):
    def sweep():
        report = []
        total_states = 0
        for combo in COMBOS:
            for name, programs, observed in SCENARIOS:
                model = CheckModel(combo, tuple(programs),
                                   observed_addrs=observed)
                result = check_model(model, max_states=4_000)
                assert result.ok, (combo, name, [
                    ce.describe() for ce in result.counterexamples[:1]])
                total_states += result.states
                report.append(
                    f"{'-'.join(combo):18s} {name:12s} states={result.states:5d} "
                    f"terminals={result.terminals:3d} depth={result.max_depth:3d} "
                    f"outcomes={len(result.outcomes)}"
                )
        return report, total_states

    report, total_states = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_result("verification_sweep", "\n".join(report))
    assert total_states > 1_000  # a real sweep, not a trivial one


def test_outcomes_match_axiomatic_model(benchmark, save_result):
    def check():
        mcms = ["SC", "SC"]
        allowed = enumerate_outcomes(materialize(MP, mcms), mcms, MP.observed_addrs)
        model = CheckModel(("MESI", "CXL", "MESI"),
                           tuple(materialize(MP, mcms)))
        result = check_model(model, max_states=4_000)
        assert result.ok and result.outcomes <= allowed
        return len(result.outcomes), len(allowed)

    observed, allowed = benchmark.pedantic(check, rounds=1, iterations=1)
    save_result("verification_axiomatic",
                f"MP exhaustive outcomes: {observed} observed, all within "
                f"{allowed} allowed by the compound model")
