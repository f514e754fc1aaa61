"""Closed-loop measurement: whole passes over a workload's fixed input.

One caller drives the ops serially; the next op starts when the
previous one has finished.  Each op is timed from outside and its
output checked, and a run always measures *whole* passes, so every run
holds the same multiset of ops and a percentile lands on the same op
sizes every time.

**Speed-normalized host time.**  A shared host's speed drifts by tens
of percent over minutes, for reasons no process inside it can see (its
CPU time drifts with its wall time, and no steal is reported).  So
:class:`Speed` times a fixed pure-Python reference kernel twice after
every op, and each op's host time is scaled by ``REFERENCE_S / kernel
time``, taking the median of the two timings before and the two after
the op: the seconds the op would take on a host where the kernel takes
its nominal :data:`REFERENCE_S`.  The kernel uses none of the
program's code, so a change to the program moves only the measured
side.
"""

from __future__ import annotations

import collections
import resource
import statistics
import time

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise one slow op decides it.
MIN_BEYOND = 10
#: Passes a run measures at least, so ``wall_s`` is a median.
MIN_PASSES = 3
#: Failed-check messages kept for the report.
MAX_PROBLEMS = 20
#: Nominal seconds of one :func:`reference_kernel` call: its median on a
#: 2-vCPU Intel Xeon at 2.0 GHz under Python 3.11.
REFERENCE_S = 0.003
#: Kernel timings taken after every op; an op's speed estimate is the
#: median of these and the ones taken after the op before it.
SAMPLES_PER_OP = 2


def reference_kernel() -> int:
    """Fixed interpreter-bound work: dict probes, integer arithmetic."""
    table: dict[int, int] = {}
    total = 0
    for i in range(20_000):
        key = i & 511
        table[key] = table.get(key, 0) + i
        total += key * 3
    return total


class Speed:
    """The host's current speed, relative to the nominal reference."""

    def __init__(self) -> None:
        self._recent: collections.deque = collections.deque(
            maxlen=2 * SAMPLES_PER_OP)
        reference_kernel()  # warm-up, untimed
        self.sample()
        self.sample()

    def sample(self) -> None:
        """Time the reference kernel :data:`SAMPLES_PER_OP` times."""
        for _ in range(SAMPLES_PER_OP):
            started = time.perf_counter()
            reference_kernel()
            self._recent.append(time.perf_counter() - started)

    def scale(self) -> float:
        """Multiplier from host seconds to speed-normalized seconds."""
        return REFERENCE_S / statistics.median(self._recent)


def percentile(samples, q: int) -> float | None:
    """The ``q``-th percentile of ``samples``, or None when refused.

    Refused when fewer than :data:`MIN_BEYOND` samples lie beyond it.
    """
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=100)[q - 1]
    beyond = sum(1 for sample in samples if sample > value)
    return value if beyond >= MIN_BEYOND else None


class Book:
    """Tally of attempted and failed ops and their latencies.

    Latencies are kept per op.  :meth:`op_latencies` stands each op's
    runs in for its median run, so the percentiles describe how long
    the workload's ops take, and one host hiccup during one run of one
    op cannot decide them.

    ``pins`` maps op keys to pinned fingerprints.  With
    ``require_pins`` (the default seed) an op without a pin fails; with
    any seed an op fails when its fingerprint differs from its pin or
    from the same op in an earlier pass.
    """

    def __init__(self, pins: dict, require_pins: bool) -> None:
        self.pins = pins
        self.require_pins = require_pins
        self.first_seen: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.latencies: dict[str, list[float]] = {}
        self.problems: list[str] = []

    def record(self, key: str, latency: float, fingerprint: dict | None,
               problems: list) -> None:
        """Count one op; a failed check makes it a failed op."""
        problems = list(problems)
        if fingerprint is not None:
            problems.extend(self.verdict(key, fingerprint))
        self.attempted += 1
        self.latencies.setdefault(key, []).append(latency)
        if problems:
            self.failed += 1
            for problem in problems:
                if len(self.problems) < MAX_PROBLEMS:
                    self.problems.append(f"{key}: {problem}")

    def verdict(self, key: str, fingerprint: dict) -> list[str]:
        """Fingerprint problems: pinned value, then cross-pass equality."""
        problems = []
        pinned = self.pins.get(key)
        if pinned is None and self.require_pins:
            problems.append("no pinned value for the default seed")
        elif pinned is not None and pinned != fingerprint:
            problems.append(f"{fingerprint} differs from pinned {pinned}")
        seen = self.first_seen.setdefault(key, fingerprint)
        if seen != fingerprint:
            problems.append(f"{fingerprint} differs from an earlier pass {seen}")
        return problems

    def op_latencies(self) -> list[float]:
        """One sample per op run, each the median over that op's runs."""
        return [statistics.median(runs)
                for runs in self.latencies.values() for _ in runs]


class Pass:
    """One pass: normalized and raw seconds of its ops, and their work."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.raw_seconds = 0.0
        self.work = 0


def run_pass(workload, book: Book, speed: Speed, tracer=None) -> Pass:
    """One pass over the fixed input, each op timed and checked."""
    clock = time.perf_counter
    done = Pass()
    for key, payload in workload.ops:
        if tracer is not None:
            tracer.op_begin(key)
        started = clock()
        try:
            output = workload.run(payload)
        except Exception as exc:  # an op that raises is a failed op
            output = None
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            problems = output.problems
        latency = clock() - started
        speed.sample()
        scale = speed.scale()
        if tracer is not None:
            tracer.op_end(output, scale)
        done.raw_seconds += latency
        done.seconds += latency * scale
        if output is not None:
            done.work += output.work
        book.record(key, latency * scale, output and output.fingerprint,
                    problems)
    return done


def measure(workload, seconds: float, book: Book,
            speed: Speed) -> tuple[list[Pass], float]:
    """Whole passes filling ``seconds`` of speed-normalized time.

    The pass count is the nearest whole number of first-pass durations
    in ``seconds``, at least :data:`MIN_PASSES`, and more if the op
    count does not yet support a 90th percentile.  It depends on the
    input, not on how fast the host happens to be.  Returns the passes
    and the peak memory after :data:`MIN_PASSES` of them, a fixed
    amount of work whatever the pass count.
    """
    passes = [run_pass(workload, book, speed)]
    wanted = max(MIN_PASSES, round(seconds / passes[0].seconds))
    rss_mb = 0.0
    while True:
        if len(passes) == MIN_PASSES:
            rss_mb = peak_rss_mb()
        if (len(passes) >= wanted
                and percentile(book.op_latencies(), 90) is not None):
            return passes, rss_mb
        passes.append(run_pass(workload, book, speed))


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, book: Book, setup_samples, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run (name -> value, unit)."""
    wall = statistics.median(done.seconds for done in passes)
    work = statistics.median(done.work for done in passes)
    latencies = book.op_latencies()
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "throughput_per_s": (work / wall, "1/s"),
        "op_ms_p50": (1000.0 * percentile(latencies, 50), "ms"),
        "op_ms_p90": (1000.0 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
