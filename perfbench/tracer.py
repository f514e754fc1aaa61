"""Per-layer tracer: spans around each layer's public entry points.

The tracer lives entirely in the benchmark.  :meth:`Tracer.install`
wraps each layer's entry points by replacing the *class attribute in
place* (and ``build_system`` at every module that imported it by
name).  It never subclasses and never sets instance attributes:
``Network.send``/``send_many`` choose the fast lane by class identity,
so either would quietly move traced runs onto the generic lane.

Spans are kept in memory as parallel lists -- layer, start, end, parent
span -- per op.  At the end of every op they are folded into per-layer
self times and dropped, except the first :attr:`Tracer.keep` spans of
the run, which :meth:`Tracer.dump` writes out.  A layer's self time is
its span's duration minus the part its child spans cover; the op's own
root span keeps what no layer claims (the benchmark's ``unattributed_s``).

Counts that belong to the modelled design (events, messages, L1
misses, bridge conflicts, home queueing) are read from every
``System`` the op built, so they are the same traced or not.
"""

from __future__ import annotations

import functools
import json
import time

OP = "op"


def self_times(spans) -> list[float]:
    """Self time of each span in ``spans``.

    ``spans`` is a sequence of ``(name, start, end, parent)`` with
    ``parent`` the index of the parent span or -1.  A span's self time
    is its duration minus the part of it that its children cover, so
    over one tree the self times sum to the root's duration.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children[index], key=lambda i: spans[i][1]):
            lo = max(spans[child][1], cursor)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Spans and counts for the layers of one traced run."""

    def __init__(self, keep: int = 20_000) -> None:
        self.keep = keep
        self.layers: list[str] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.kept: list[tuple] = []
        self._op_key = ""
        # The current op's spans; cleared in place, since the wrappers
        # hold references to these very lists.
        self._layer: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._parent: list[int] = []
        self._stack: list[int] = []
        self._systems: list = []
        self._patches: list[tuple] = []

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point (see the module docstring)."""
        import repro.harness.experiments
        import repro.scenario.runner
        import repro.sim.system
        import repro.verify.explorer
        import repro.verify.mc.engine as mc_engine
        from repro.core.bridge import C3Bridge
        from repro.core.global_port import CxlPort, MesiPort
        from repro.obs.spans import SpanRecorder
        from repro.protocols.cxl_mem import Dcoh
        from repro.protocols.global_mesi import GlobalMesiDir
        from repro.scenario.faults import FaultPlan
        from repro.sim.engine import Engine
        from repro.sim.l1 import L1Controller, RccL1
        from repro.sim.network import Network
        from repro.verify import invariants
        from repro.verify.mc.model import CheckModel

        methods = (
            ("engine", Engine, ("run",), None),
            ("network.send", Network, ("send",), None),
            ("network.send_many", Network, ("send_many",), None),
            ("l1", L1Controller, ("handle_message", "core_request"), None),
            ("l1", RccL1, ("handle_message", "core_request"), None),
            ("bridge", C3Bridge, ("handle_message",), None),
            ("port", CxlPort, ("handle",), None),
            ("port", MesiPort, ("handle",), None),
            ("home", Dcoh, ("handle_message",), None),
            ("home", GlobalMesiDir, ("handle_message",), None),
            ("mc.replay", CheckModel, ("replay",), None),
            ("faults", FaultPlan, ("action_for",), self._after_fault),
            ("spans", SpanRecorder, ("open_op", "open_txn", "open_global",
                                     "open_snoop", "open_recall", "open_wb"),
             self._after_open_span),
            ("spans", SpanRecorder, ("close", "on_message"), None),
        )
        for layer, cls, names, after in methods:
            for name in names:
                if name not in cls.__dict__:
                    raise RuntimeError(
                        f"{cls.__name__}.{name} is not defined on the class")
                original = cls.__dict__[name]
                self._patches.append((cls, name, original))
                setattr(cls, name, self._wrap(layer, original, after))
        build = repro.sim.system.build_system
        build_wrapper = self._wrap("system", build, self._after_build)
        for module in (repro.sim.system, repro.harness.experiments,
                       repro.verify.explorer, repro.scenario.runner):
            if module.build_system is not build:
                raise RuntimeError(f"{module.__name__}.build_system is not "
                                   "repro.sim.system.build_system")
            self._patches.append((module, "build_system", build))
            module.build_system = build_wrapper
        for layer, module, name in (
                ("mc.fingerprint", mc_engine, "canonical_fingerprint"),
                ("invariants", invariants, "check_all")):
            original = getattr(module, name)
            self._patches.append((module, name, original))
            setattr(module, name, self._wrap(layer, original, None))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _layer_index(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _wrap(self, layer: str, fn, after):
        index = self._layer_index(layer)
        clock = time.perf_counter
        layers, starts, ends = self._layer, self._start, self._end
        parents, stack = self._parent, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(starts)
            layers.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- counts at the boundaries --------------------------------------
    def _bump(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _after_fault(self, action) -> None:
        if action is not None:
            self._bump("faults.fired")
            self._bump(f"faults.fired.{action[0]}")

    def _after_open_span(self, span) -> None:
        self._bump("spans.recorded" if span is not None else "spans.dropped")

    def _after_build(self, system) -> None:
        # A replaying checker builds a system per replay; each is
        # finished by the time the next one is built.
        for done in self._systems:
            self._fold_system(done)
        self._systems[:] = [system]

    def _fold_system(self, system) -> None:
        """Counts of the modelled design, read from one finished run."""
        self._bump("engine.events", system.engine.events_executed)
        self._bump("network.msgs", system.network.stats.messages)
        for l1 in system.l1s:
            self._bump("l1.ops", l1.stats.ops)
            self._bump("l1.misses", l1.stats.misses)
        for cluster in system.clusters:
            self._bump("bridge.conflicts",
                       getattr(cluster.bridge.port, "conflicts", 0))
        self._bump("home.queued", getattr(system.home, "queued_total", 0))

    # -- ops -----------------------------------------------------------
    def op_begin(self, key: str) -> None:
        """Open the root span of one op (spans made outside ops are dropped)."""
        self._reset()
        self._op_key = key
        self._layer.append(self._layer_index(OP))
        self._parent.append(-1)
        self._end.append(0.0)
        self._stack.append(0)
        self._start.append(time.perf_counter())

    def op_end(self, output, scale: float = 1.0) -> None:
        """Close the op's root span and fold its spans into the ledger.

        ``scale`` converts the op's host seconds to the speed-normalized
        seconds the benchmark reports.
        """
        self._end[0] = time.perf_counter()
        for system in self._systems:
            self._fold_system(system)
        if output is not None:
            for name, amount in output.counters.items():
                self._bump(name, amount)
        spans = [(self.layers[layer], start, end, parent)
                 for layer, start, end, parent in zip(
                     self._layer, self._start, self._end, self._parent)]
        for (name, _start, _end, _parent), own in zip(spans,
                                                      self_times(spans)):
            self.self_s[name] = self.self_s.get(name, 0.0) + own * scale
            self.calls[name] = self.calls.get(name, 0) + 1
        room = self.keep - len(self.kept)
        if room > 0:
            self.kept.extend((self._op_key, *span) for span in spans[:room])
        self._reset()

    def _reset(self) -> None:
        for buffer in (self._layer, self._start, self._end, self._parent,
                       self._stack, self._systems):
            buffer.clear()

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for op, name, start, end, parent in self.kept:
                handle.write(json.dumps({"op": op, "layer": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")
