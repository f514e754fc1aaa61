"""`repro.obs`: spans, metrics and exporters for live simulations.

The :class:`Observability` facade is the one entry point: build it,
:meth:`~Observability.attach` it to a freshly built
:class:`repro.sim.system.System` *before* running, and call
:meth:`~Observability.finalize` afterwards to get a JSON-ready dump
(merge it into a :class:`repro.stats.collectors.RunResult` with
:func:`repro.stats.export.merge_obs`).

Design constraint carried through every hook: with observability off,
the L1s and bridges hold ``obs = None`` as a *class* attribute and pay
exactly one ``is None`` test, and the network's ``observers`` tuple is
empty -- no allocation, no indirection.  See ``docs/OBSERVABILITY.md``
for the measured overhead.
"""

from __future__ import annotations

from repro.obs.export import (
    TraceValidationError,
    chrome_trace,
    compact_obs,
    summarize_obs,
    validate_chrome_trace,
    write_chrome_trace,
    write_trace_file,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    Counter,
    Distribution,
    Histogram,
    MetricsRegistry,
    collect_system_metrics,
)
from repro.obs.spans import CROSSING_CATS, NestingViolation, Span, SpanRecorder

__all__ = [
    "Observability",
    "Span",
    "SpanRecorder",
    "NestingViolation",
    "CROSSING_CATS",
    "Counter",
    "Distribution",
    "Histogram",
    "MetricsRegistry",
    "collect_system_metrics",
    "chrome_trace",
    "write_chrome_trace",
    "write_trace_file",
    "TraceValidationError",
    "validate_chrome_trace",
    "summarize_obs",
    "compact_obs",
    "FlightRecorder",
]


class Observability:
    """Bundle of span recording, metrics and message tracing for one run.

    ``trace_addrs`` (line addresses) also records every message on
    those lines in a :class:`repro.sim.trace.MessageTracer`
    (``self.tracer``), whose entries the Chrome trace exports as
    instant events.
    """

    def __init__(self, spans: bool = True, metrics: bool = True,
                 span_capacity: int = 250_000, trace_addrs=None) -> None:
        self.want_spans = spans
        self.want_metrics = metrics
        self.span_capacity = span_capacity
        self.trace_addrs = trace_addrs
        self.recorder: SpanRecorder | None = None
        self.registry: MetricsRegistry | None = None
        self.tracer = None
        self.system = None
        self._dump: dict | None = None

    def attach(self, system) -> "Observability":
        """Wire hooks into a built (not yet run) system; returns self."""
        self.system = system
        engine = system.engine
        if self.want_spans:
            self.recorder = SpanRecorder(engine, capacity=self.span_capacity)
            engine.span_recorder = self.recorder
            system.network.add_observer(self.recorder)
            for l1 in system.l1s:
                l1.obs = self.recorder
            for cluster in system.clusters:
                cluster.bridge.obs = self.recorder
        if self.want_metrics:
            self.registry = MetricsRegistry()
        if self.trace_addrs is not None:
            from repro.sim.trace import MessageTracer

            self.tracer = MessageTracer(system.network,
                                        addrs=self.trace_addrs)
        return self

    def detach(self) -> None:
        """Unhook from the system :meth:`attach` wired into.

        What was recorded stays readable here.  The system no longer
        refers to the recorder, whose recall spans refer back to the
        bridges, so a finished system is freed by reference counting
        as soon as its last holder drops it.
        """
        system = self.system
        if system is None:
            return
        system.engine.span_recorder = None
        system.network.remove_observer(self.recorder)
        if self.tracer is not None:
            self.tracer.detach()
        for l1 in system.l1s:
            l1.obs = None
        for cluster in system.clusters:
            cluster.bridge.obs = None

    def finalize(self) -> dict:
        """Collect everything into a JSON-ready dump (idempotent)."""
        if self._dump is not None:
            return self._dump
        dump: dict = {}
        if self.recorder is not None:
            dump["spans"] = self.recorder.stats_dict()
            dump["rule2"] = {
                "violations": len(self.recorder.violations),
                "details": [v.to_dict() for v in self.recorder.violations],
            }
        if self.registry is not None:
            if self.system is not None:
                collect_system_metrics(self.system, self.registry)
            dump["metrics"] = self.registry.to_dict()
        self._dump = dump
        return dump

    def summary(self) -> str:
        """Human-readable multi-line summary of the finalized dump."""
        return summarize_obs(self.finalize())

