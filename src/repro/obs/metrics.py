"""Hierarchical metrics registry.

gem5-style statistics: every metric has a dotted component path
(``system.cluster0.l1_2.misses``) and a unit, and the registry is the
single flat namespace they live in.  Components do not hold metric
objects in their hot paths -- everything here is *pull-based*:
:func:`collect_system_metrics` walks a finished :class:`repro.sim.system.System`
once and publishes whatever the components already count, so enabling
metrics adds zero per-event cost to the simulation itself.  Time per
callback is a profiler's question: ``repro workload --profile`` runs a
cell under cProfile.
"""

from __future__ import annotations


class Counter:
    """A monotonically growing scalar metric."""

    __slots__ = ("path", "unit", "value")

    def __init__(self, path: str, unit: str = "count") -> None:
        self.path = path
        self.unit = unit
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increment the counter."""
        self.value += amount

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {"type": "counter", "unit": self.unit, "value": self.value}


class Distribution:
    """Streaming min/max/mean/sum over observed samples."""

    __slots__ = ("path", "unit", "count", "total", "min", "max")

    def __init__(self, path: str, unit: str = "ticks") -> None:
        self.path = path
        self.unit = unit
        self.count = 0
        self.total = 0
        self.min: float | None = None
        self.max: float | None = None

    def record(self, value) -> None:
        """Fold one sample into the distribution."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {"type": "distribution", "unit": self.unit,
                "count": self.count, "total": self.total,
                "min": self.min, "max": self.max, "mean": self.mean}


class Histogram:
    """Samples bucketed against fixed ascending bin edges.

    ``edges=(a, b)`` yields three buckets: ``< a``, ``[a, b)``, ``>= b``
    -- matching the low/medium/high miss-latency binning of Fig. 11.
    """

    __slots__ = ("path", "unit", "edges", "buckets")

    def __init__(self, path: str, edges, unit: str = "ticks") -> None:
        self.path = path
        self.unit = unit
        self.edges = tuple(edges)
        self.buckets = [0] * (len(self.edges) + 1)

    def record(self, value, count: int = 1) -> None:
        """Add ``count`` samples of ``value`` to the right bucket."""
        for i, edge in enumerate(self.edges):
            if value < edge:
                self.buckets[i] += count
                return
        self.buckets[-1] += count

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {"type": "histogram", "unit": self.unit,
                "edges": list(self.edges), "buckets": list(self.buckets)}


class MetricsRegistry:
    """Flat get-or-create namespace of metrics keyed by dotted path."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, path: str) -> bool:
        return path in self._metrics

    def get(self, path: str):
        """Return the metric registered at ``path`` (or None)."""
        return self._metrics.get(path)

    def _register(self, path: str, cls, *args, **kwargs):
        metric = self._metrics.get(path)
        if metric is None:
            metric = cls(path, *args, **kwargs)
            self._metrics[path] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {path!r} already registered as "
                            f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def counter(self, path: str, unit: str = "count") -> Counter:
        """Get or create the :class:`Counter` at ``path``."""
        return self._register(path, Counter, unit)

    def distribution(self, path: str, unit: str = "ticks") -> Distribution:
        """Get or create the :class:`Distribution` at ``path``."""
        return self._register(path, Distribution, unit)

    def histogram(self, path: str, edges, unit: str = "ticks") -> Histogram:
        """Get or create the :class:`Histogram` at ``path``."""
        metric = self._metrics.get(path)
        if metric is None:
            metric = Histogram(path, edges, unit)
            self._metrics[path] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(f"metric {path!r} already registered as "
                            f"{type(metric).__name__}, not Histogram")
        return metric

    def to_dict(self) -> dict:
        """Flat ``{path: metric-dict}`` mapping, sorted by path."""
        return {path: self._metrics[path].to_dict()
                for path in sorted(self._metrics)}

    def counter_values(self, prefix: str = "") -> dict:
        """Flat ``{path: value}`` of the counters under ``prefix``.

        The convenience view ``repro check --json`` and the tests read
        (``registry.counter_values("mc.")``); non-counter metrics are
        skipped.
        """
        return {path: metric.value
                for path, metric in sorted(self._metrics.items())
                if path.startswith(prefix) and isinstance(metric, Counter)}

    def tree(self) -> dict:
        """Nested dict view of the namespace, gem5 ``stats.txt`` style."""
        root: dict = {}
        for path in sorted(self._metrics):
            node = root
            parts = path.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = self._metrics[path].to_dict()
        return root

    def summary(self, prefix: str = "") -> list[str]:
        """Human-readable ``path  value unit`` lines under ``prefix``."""
        lines = []
        for path in sorted(self._metrics):
            if prefix and not path.startswith(prefix):
                continue
            metric = self._metrics[path]
            if isinstance(metric, Counter):
                lines.append(f"{path:<56} {metric.value} {metric.unit}")
            elif isinstance(metric, Distribution):
                lines.append(f"{path:<56} n={metric.count} "
                             f"mean={metric.mean:.1f} {metric.unit}")
            else:
                lines.append(f"{path:<56} buckets={metric.buckets}")
        return lines


def collect_system_metrics(system, registry: MetricsRegistry) -> MetricsRegistry:
    """Walk a finished system and publish component counters by path.

    Pull-based: called once at finalize time, so nothing here runs
    during simulation.  Registers engine totals, per-vnet and per-kind
    network traffic, per-cluster L1 stats (via
    :meth:`repro.stats.collectors.OpStats.register_metrics`), bridge and
    global-port transaction counters, and home-directory queueing.
    """
    engine = system.engine
    registry.counter("system.engine.events", unit="events").add(engine.events_executed)
    registry.counter("system.engine.ticks", unit="ticks").add(engine.now)

    net = system.network
    registry.counter("system.network.messages").add(net.stats.messages)
    registry.counter("system.network.bytes", unit="bytes").add(net.stats.bytes)
    for vnet, count in sorted(net.stats.per_vnet.items()):
        registry.counter(f"system.network.vnet.{vnet}").add(count)
    for kind, count in sorted(net.stats.per_kind.items()):
        registry.counter(f"system.network.kind.{kind}").add(count)
    faults = getattr(net, "faults", None)
    if faults is not None:
        for verb, count in sorted(faults.counters.items()):
            registry.counter(f"system.network.fault.{verb}").add(count)
    host_events = getattr(system, "host_events", None)
    if host_events and any(host_events.values()):
        for kind, count in sorted(host_events.items()):
            registry.counter(f"system.host.{kind}").add(count)

    for ci, cluster in enumerate(system.clusters):
        base = f"system.cluster{ci}"
        for li, l1 in enumerate(cluster.l1s):
            l1.stats.register_metrics(registry, f"{base}.l1_{li}")
        bridge = cluster.bridge
        registry.counter(f"{base}.bridge.local_txns").add(bridge.local_txns)
        registry.counter(f"{base}.bridge.recalls_done").add(bridge.recalls_done)
        port = bridge.port
        registry.counter(f"{base}.port.requests").add(port.requests)
        registry.counter(f"{base}.port.writebacks").add(port.writebacks)
        registry.counter(f"{base}.port.snoops").add(port.snoops)
        registry.counter(f"{base}.port.conflicts").add(port.conflicts)

    registry.counter("system.home.queued_total").add(
        getattr(system.home, "queued_total", 0))
    return registry
