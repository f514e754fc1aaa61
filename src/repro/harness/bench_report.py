"""Benchmark trajectory report: latest-vs-previous deltas with a gate.

Every benchmark module appends one flat JSON record per run to its
``BENCH_*.json`` trajectory file (a JSON array).  ``python -m repro
bench report`` reads all of them, flattens nested numeric dicts to
dotted keys, and prints the delta between the two most recent records
per file.

Regression direction is inferred from the field name -- the repo's
benchmark records follow a consistent vocabulary:

- *up is worse*: wall-clock fields (``*_s`` / ``*_seconds`` path
  segments) and normalized costs (``ratio*``, ``*_over_*``,
  ``*overhead*``);
- *down is worse*: throughputs (``*per_s*``, ``*per_sec*``,
  ``speedup*``);
- anything else (counts, metadata) is *neutral*: reported when it
  changed, never flagged.

A directional field whose worse-direction change exceeds ``threshold``
percent is a regression; the CI job runs this advisorily so a noisy
runner cannot block a merge, but the report makes the drift visible.
"""

from __future__ import annotations

import json
import os

#: The benchmark trajectory files the report covers.
BENCH_FILES = (
    "BENCH_engine.json",
    "BENCH_explore.json",
    "BENCH_fuzz.json",
    "BENCH_lint.json",
    "BENCH_obs.json",
    "BENCH_sim.json",
    "BENCH_sweep.json",
)

#: Fields that identify the run rather than measure it.
_METADATA = frozenset({"timestamp", "cpu_count"})


def _flatten(record: dict, prefix: str = "") -> dict:
    """Flatten nested dicts to dotted keys, keeping numeric leaves."""
    flat: dict = {}
    for key, value in record.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{path}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[path] = value
    return flat


def direction(field: str) -> int:
    """Regression direction of a field: +1 up-is-worse, -1 down-is-worse,
    0 neutral (never flagged)."""
    lowered = field.lower()
    if field in _METADATA:
        return 0
    if ("per_s" in lowered or "per_sec" in lowered
            or lowered.startswith("speedup") or ".speedup" in lowered):
        return -1
    if ("overhead" in lowered or lowered.startswith("ratio")
            or "_over_" in lowered):
        return 1
    if any(seg.endswith("_s") or seg.endswith("_seconds")
           for seg in lowered.split(".")):
        return 1
    return 0


def load_trajectory(path: str) -> list[dict]:
    """Load one BENCH_*.json array (missing file -> empty list)."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    return data


def compare(previous: dict, latest: dict) -> list[dict]:
    """Field-by-field deltas between two flattened records.

    Returns one row per field present in both: ``{field, prev, last,
    pct, direction, worse}`` where ``pct`` is the relative change and
    ``worse`` the change along the field's regression direction (both
    in percent; ``None`` when the previous value was 0).
    """
    rows = []
    for field in sorted(set(previous) & set(latest)):
        prev, last = previous[field], latest[field]
        pct = 100.0 * (last - prev) / prev if prev else None
        sign = direction(field)
        worse = pct * sign if (pct is not None and sign) else None
        rows.append({"field": field, "prev": prev, "last": last,
                     "pct": pct, "direction": sign, "worse": worse})
    return rows


def bench_report(root: str = ".", threshold: float = 10.0,
                 files=BENCH_FILES) -> tuple[str, list[dict]]:
    """Build the report text and the list of flagged regressions.

    ``threshold`` is the worse-direction percentage above which a
    directional field is flagged.  Returns ``(text, regressions)``;
    an empty ``regressions`` list means the gate passes.
    """
    lines: list[str] = []
    regressions: list[dict] = []
    for name in files:
        path = os.path.join(root, name)
        records = load_trajectory(path)
        if not records:
            lines.append(f"{name}: no records")
            continue
        latest = _flatten(records[-1])
        stamp = records[-1].get("timestamp", "?")
        if len(records) < 2:
            lines.append(f"{name}: 1 record ({stamp}); nothing to diff")
            continue
        lines.append(f"{name}: {len(records)} records, latest {stamp}")
        for row in compare(_flatten(records[-2]), latest):
            if row["direction"] == 0:
                continue
            pct = row["pct"]
            delta = f"{pct:+.1f}%" if pct is not None else "n/a (prev=0)"
            flag = ""
            if row["worse"] is not None and row["worse"] > threshold:
                flag = f"  << REGRESSION (>{threshold:g}%)"
                regressions.append({"file": name, **row})
            arrow = "down-is-worse" if row["direction"] < 0 else ""
            note = f" [{arrow}]" if arrow and flag else ""
            lines.append(f"  {row['field']:<44} {row['prev']:>10.4g} "
                         f"-> {row['last']:>10.4g}  {delta}{note}{flag}")
    if regressions:
        lines.append(f"{len(regressions)} regression(s) beyond "
                     f"{threshold:g}% -- see flagged rows above")
    else:
        lines.append(f"no regressions beyond {threshold:g}%")
    return "\n".join(lines), regressions
