"""Observability exporters: Chrome trace events and text summaries.

:func:`chrome_trace` converts recorded spans (and, optionally, traced
messages) to the Trace Event Format that Perfetto and
``chrome://tracing`` load: a ``traceEvents`` list of complete ("X")
events with microsecond timestamps, plus thread-name metadata so each
simulated node gets its own lane.  :func:`validate_chrome_trace` is the
schema check the CI smoke step and tests assert against.
"""

from __future__ import annotations

import json

from repro.sim.config import TICKS_PER_NS

#: Simulated ticks (ps) per Chrome-trace microsecond.
_TICKS_PER_US = TICKS_PER_NS * 1000


def _node_tids(node_ids) -> dict[str, int]:
    """Assign a stable 1-based tid to every node id, sorted by name."""
    return {node: i + 1 for i, node in enumerate(sorted(node_ids))}


def chrome_trace(recorder, tracer=None) -> dict:
    """Build a Trace Event Format dict from spans (+ optional messages.

    Spans become "X" (complete) events on the lane of the node that
    owns them; traced :class:`repro.sim.trace.MessageTracer` entries
    become "i" (instant) events on the sender's lane.  Only closed
    spans are exported -- open spans have no duration yet.
    """
    nodes = {span.node for span in recorder.spans if span.end is not None}
    entries = list(tracer.entries) if tracer is not None else []
    for entry in entries:
        nodes.add(entry.src)
    tids = _node_tids(nodes)

    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
               "args": {"name": "c3-repro simulation"}}]
    if recorder.dropped:
        events.append({
            "name": "span_truncation", "ph": "M", "pid": 1, "tid": 0,
            "args": {"dropped": recorder.dropped,
                     "note": (f"[truncated: {recorder.dropped} span(s) "
                              f"dropped at capacity {recorder.capacity}]")},
        })
    for node, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tid, "args": {"name": node}})

    for span in recorder.spans:
        if span.end is None:
            continue
        args = {"addr": f"0x{span.addr:x}", "sid": span.sid}
        if span.parent is not None:
            args["parent_sid"] = span.parent.sid
        if span.states:
            args["states"] = span.states
        if span.cat == "op":
            args["bridged_ticks"] = span.bridged_ticks
            args["network_ticks"] = span.network_ticks
        events.append({
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "pid": 1,
            "tid": tids[span.node],
            "ts": span.start / _TICKS_PER_US,
            "dur": max(span.end - span.start, 1) / _TICKS_PER_US,
            "args": args,
        })

    for entry in entries:
        args = {"addr": f"0x{entry.addr:x}", "dst": entry.dst}
        if entry.meta:
            args["meta"] = entry.meta
        events.append({
            "name": entry.msg_kind,
            "cat": "msg",
            "ph": "i",
            "s": "t",
            "pid": 1,
            "tid": tids[entry.src],
            "ts": entry.time / _TICKS_PER_US,
            "args": args,
        })

    return {"traceEvents": events, "displayTimeUnit": "ns"}


class TraceValidationError(RuntimeError):
    """A trace failed :func:`validate_chrome_trace` before writing.

    Carries the individual schema ``problems`` so CLI surfaces can print
    a diagnostic and exit nonzero instead of shipping a broken file.
    """

    def __init__(self, path, problems: list[str]) -> None:
        super().__init__(f"{path}: trace failed schema validation "
                         f"({len(problems)} problem(s))")
        self.path = path
        self.problems = problems


def write_trace_file(path, trace: dict, validate: bool = True) -> int:
    """Write an already-built trace dict to ``path``; return event count.

    Every writer funnels through here so that, by default, no invalid
    trace ever reaches disk: schema problems raise
    :class:`TraceValidationError`.
    """
    if validate:
        problems = validate_chrome_trace(trace)
        if problems:
            raise TraceValidationError(path, problems)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return len(trace["traceEvents"])


def write_chrome_trace(path, recorder, tracer=None, validate: bool = True) -> int:
    """Serialize :func:`chrome_trace` to ``path``; return event count.

    Validates the built trace first (raising
    :class:`TraceValidationError`) unless ``validate=False``.
    """
    return write_trace_file(path, chrome_trace(recorder, tracer), validate)


def validate_chrome_trace(obj) -> list[str]:
    """Schema-check a loaded trace dict; return a list of problems.

    An empty return means the file is valid Trace Event Format as far
    as Perfetto's loader cares: a ``traceEvents`` list whose entries
    all carry ``name``/``ph``/``pid``/``tid``, with numeric ``ts`` and
    ``dur`` on every duration event.
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in ev:
                problems.append(f"event {i}: missing {field!r}")
        ph = ev.get("ph")
        if ph not in ("X", "M", "i", "B", "E"):
            problems.append(f"event {i}: unknown phase {ph!r}")
        if ph in ("X", "i", "B", "E"):
            if not isinstance(ev.get("ts"), (int, float)):
                problems.append(f"event {i}: non-numeric 'ts'")
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            problems.append(f"event {i}: complete event without 'dur'")
        if ph == "i" and ev.get("s") not in ("t", "p", "g"):
            problems.append(f"event {i}: instant event with bad scope")
    return problems


def _pct(part, whole) -> str:
    """Format ``part/whole`` as a percentage string."""
    return f"{100.0 * part / whole:.1f}%" if whole else "n/a"


def summarize_obs(dump: dict) -> str:
    """Multi-line text summary of an :meth:`Observability.finalize` dump."""
    lines = ["== observability summary =="]
    spans = dump.get("spans")
    if spans:
        att = spans["attribution"]
        total = att["total_ticks"]
        lines.append(f"spans: {spans['total']} recorded "
                     f"({spans['open']} open, {spans['dropped']} dropped) "
                     f"by cat {spans['by_cat']}")
        if spans["dropped"]:
            offered = spans["total"] + spans["dropped"]
            lines.append(f"spans TRUNCATED at capacity: {spans['dropped']} "
                         f"dropped ({_pct(spans['dropped'], offered)} of "
                         f"{offered} offered)")
        lines.append(f"latency attribution over {att['ops']} ops: "
                     f"origin {_pct(att['origin_ticks'], total)}, "
                     f"bridged {_pct(att['bridged_ticks'], total)} "
                     f"(network {_pct(att['network_ticks'], total)})")
    rule2 = dump.get("rule2")
    if rule2 is not None:
        if rule2["violations"]:
            lines.append(f"rule-II audit: {rule2['violations']} VIOLATION(S)")
            for detail in rule2["details"][:5]:
                lines.append(f"  - {detail['rule']} {detail['node']} "
                             f"0x{detail['addr']:x}: {detail['detail']}")
        else:
            lines.append("rule-II audit: clean (no nesting violations)")
    engine = dump.get("engine")
    if engine:
        lines.append(f"engine: {engine['events']} events, "
                     f"{engine['events_per_sec']:.0f} events/sec, "
                     f"queue depth mean {engine['queue_depth']['mean']:.1f}")
        top = list(engine["by_callback"].items())[:3]
        for name, cell in top:
            lines.append(f"  {name}: {cell['count']} calls, "
                         f"{cell['mean_us']:.1f} us/call")
    metrics = dump.get("metrics")
    if metrics is not None:
        lines.append(f"metrics: {len(metrics)} registered "
                     "(see --metrics dump for values)")
    return "\n".join(lines)


def compact_obs(dump: dict) -> str:
    """One-line per-cell rollup used by sweep ``--obs`` reporting."""
    parts = []
    spans = dump.get("spans")
    if spans:
        att = spans["attribution"]
        parts.append(f"ops={att['ops']}")
        parts.append(f"bridged={_pct(att['bridged_ticks'], att['total_ticks'])}")
        if spans.get("dropped"):
            parts.append(f"spans_dropped={spans['dropped']}")
    rule2 = dump.get("rule2")
    if rule2 is not None:
        parts.append("rule2=clean" if not rule2["violations"]
                      else f"rule2={rule2['violations']} violation(s)")
    metrics = dump.get("metrics")
    if metrics is not None:
        parts.append(f"metrics={len(metrics)}")
    return " ".join(parts) if parts else "obs=empty"
