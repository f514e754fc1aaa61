"""Run one benchmark workload and print its metrics.

From the root of a checkout of the repository::

    python3 perfbench/run.py --workload cells --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that prints the per-layer
ledger.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``python3 perfbench/run.py --pin`` rewrites ``perfbench/pins.json``
from the default seed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import suite  # noqa: E402
from tracer import OP, Tracer  # noqa: E402

#: Knobs that would change the measured work: with them set, set-up could
#: compile the C engine core or load pairings from a disk cache.
PINNED_ENV = ("REPRO_ENGINE", "REPRO_FSM_CACHE", "REPRO_JOBS",
              "REPRO_BACKEND", "REPRO_BENCH_SCALE")
DEFAULT_SEED = 1
#: Set-up is measured this many times in fresh processes, plus once in
#: the measured process, and reported as the median.
SETUP_PROBES = 4
FAULT_VERBS = ("drop", "delay", "reorder", "duplicate")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pins.json from the default seed")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root of "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(timed_setup(args.workload, args.seed)[0])
        return 0
    if args.pin:
        return write_pins()

    warm_bytecode()
    setup_samples = [probe_setup(args.workload, args.seed)
                     for _ in range(SETUP_PROBES)]
    setup_s, workload, speed = timed_setup(args.workload, args.seed)
    setup_samples.append(setup_s)
    book = measure.Book(
        load_pins().get(workload.name, {}),
        require_pins=args.seed == DEFAULT_SEED or not workload.seeded)
    if args.trace:
        metrics, notes = traced_run(workload, args.seconds, book, speed,
                                    args.seed)
    else:
        passes, rss_mb = measure.measure(workload, args.seconds, book, speed)
        metrics = measure.end_to_end(passes, book, setup_samples, rss_mb)
        raw = statistics.median(done.raw_seconds for done in passes)
        notes = [f"passes {len(passes)} x {len(workload.ops)} ops; "
                 f"throughput counts {workload.work_unit}",
                 f"host seconds per pass {raw:.4f} (unnormalized), "
                 f"set-up samples {[round(s, 4) for s in setup_samples]}"]
    report(args, workload, book, metrics, notes)
    return 0


def timed_setup(name: str, seed: int):
    """Import the layers and build the workload's input.

    Returns (speed-normalized set-up seconds, workload, host speed).
    """
    started = time.perf_counter()
    workload = suite.WORKLOADS[name]()
    workload.setup(seed)
    seconds = time.perf_counter() - started
    speed = measure.Speed()
    return seconds * speed.scale(), workload, speed


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds measured inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def warm_bytecode() -> None:
    """Compile stale ``.pyc`` files now, so no run's set-up pays for it."""
    for directory in (SRC, HERE):
        compileall.compile_dir(str(directory), quiet=1)


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def write_pins() -> int:
    """Pin every op's fingerprint at the default seed (one pass each)."""
    pins = {}
    for name in sorted(suite.WORKLOADS):
        _seconds, workload, speed = timed_setup(name, DEFAULT_SEED)
        book = measure.Book({}, require_pins=False)
        measure.run_pass(workload, book, speed)
        if book.failed:
            print("\n".join(book.problems), file=sys.stderr)
            return 1
        pins[name] = dict(sorted(book.first_seen.items()))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
    return 0


def traced_run(workload, seconds: float, book, speed, seed: int):
    """One untraced pass, then traced passes for the rest of ``seconds``.

    Both kinds of pass land in one :class:`measure.Book`, so a traced
    op whose fingerprint differs from its untraced run is a failed op.
    """
    started = time.perf_counter()
    untraced = [measure.run_pass(workload, book, speed)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [measure.run_pass(workload, book, speed, tracer)]
        while time.perf_counter() - started < seconds:
            traced.append(measure.run_pass(workload, book, speed, tracer))
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-{seed}.jsonl"
    tracer.dump(spans_path)
    metrics = ledger(tracer, workload, untraced, traced)
    notes = [f"untraced passes {len(untraced)}, traced passes {len(traced)}; "
             "per-layer values are per pass",
             f"first {len(tracer.kept)} spans written to "
             f"{spans_path.relative_to(ROOT)}"]
    return metrics, notes


def ledger(tracer: Tracer, workload, untraced, traced) -> dict:
    """The per-layer metrics, per pass over the fixed input."""
    passes = len(traced)

    def self_s(*layers):
        return sum(tracer.self_s.get(layer, 0.0) for layer in layers) / passes

    def calls(*layers):
        return sum(tracer.calls.get(layer, 0) for layer in layers) / passes

    def count(name):
        return tracer.counts.get(name, 0) / passes

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    traced_wall = statistics.median(done.seconds for done in traced)
    untraced_wall = statistics.median(done.seconds for done in untraced)
    metrics = {
        "engine.runs": (calls("engine"), "count"),
        "engine.events": (count("engine.events"), "count"),
        "engine.events_per_run": (
            ratio(count("engine.events"), calls("engine")), "count"),
        "engine.self_s": (self_s("engine"), "s"),
        "network.msgs": (count("network.msgs"), "count"),
        "network.send_calls": (calls("network.send"), "count"),
        "network.send_many_calls": (calls("network.send_many"), "count"),
        "network.self_s": (self_s("network.send", "network.send_many"), "s"),
        "l1.calls": (calls("l1"), "count"),
        "l1.self_s": (self_s("l1"), "s"),
        "l1.miss_ratio": (ratio(count("l1.misses"), count("l1.ops")), "ratio"),
        "bridge.calls": (calls("bridge"), "count"),
        "bridge.self_s": (self_s("bridge"), "s"),
        "bridge.conflicts": (count("bridge.conflicts"), "count"),
        "port.calls": (calls("port"), "count"),
        "port.self_s": (self_s("port"), "s"),
        "home.calls": (calls("home"), "count"),
        "home.self_s": (self_s("home"), "s"),
        "home.queued": (count("home.queued"), "count"),
        "system.builds": (calls("system"), "count"),
        "system.build_s": (self_s("system"), "s"),
        "mc.states": (count("mc.states"), "count"),
        "mc.replays": (calls("mc.replay"), "count"),
        "mc.states_per_replay": (
            ratio(count("mc.states"), calls("mc.replay")), "ratio"),
        "mc.replay_s": (self_s("mc.replay"), "s"),
        "mc.fingerprint_s": (self_s("mc.fingerprint"), "s"),
        "invariants.calls": (calls("invariants"), "count"),
        "invariants.self_s": (self_s("invariants"), "s"),
        "faults.fired": (count("faults.fired"), "count"),
        **{f"faults.fired.{verb}": (count(f"faults.fired.{verb}"), "count")
           for verb in FAULT_VERBS},
        "faults.self_s": (self_s("faults"), "s"),
        "spans.recorded": (count("spans.recorded"), "count"),
        "spans.dropped": (count("spans.dropped"), "count"),
        "spans.self_s": (self_s("spans"), "s"),
        "generator.syntheses": (
            workload.setup_parts["generator.syntheses"], "count"),
        "generator.s": (workload.setup_parts["generator.s"], "s"),
        "inputs.build_s": (workload.setup_parts["inputs.build_s"], "s"),
        # Time inside ops that no wrapped layer claims.
        "unattributed_s": (self_s(OP), "s"),
        "trace_overhead_s": (traced_wall - untraced_wall, "s"),
    }
    return metrics


def environment() -> dict:
    """What the numbers were measured on."""
    from repro.sim.engine import ENGINE_BACKEND

    return {
        "engine_backend": ENGINE_BACKEND,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
    }


def git_sha() -> str | None:
    """HEAD's commit, read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """sha256 over every source file, so a result names the code it ran."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def report(args, workload, book, metrics: dict, notes) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for note in notes:
        print(note)
    print(f"ops attempted {book.attempted}, failed {book.failed}")
    for problem in book.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": book.failed == 0,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
