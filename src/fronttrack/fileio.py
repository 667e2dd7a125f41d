"""Deterministic writers and readers for run artifacts.

All numbers are serialized with 17 significant digits so that re-running an
identical scenario reproduces byte-identical files; every writer has a
matching reader used by the round-trip tests.
"""

from __future__ import annotations

import json
import os


def fmt(x):
    """17-significant-digit representation; normalizes negative zero."""
    if isinstance(x, float):
        if x == 0.0:
            x = 0.0
        return f"{x:.17g}"
    return str(x)


def _state_fields(prefix, u):
    return {f"{prefix}{k}": float(v) for k, v in enumerate(u)}


def write_events_jsonl(path, timeline):
    lines = []
    for ev in timeline.events:
        obj = {
            "t": ev.t, "x": ev.x, "solver": ev.solver,
            "in": [{"family": f.family, "size": f.size, "speed": f.speed}
                   for f in ev.incoming],
            "out": [{"family": f.family, "size": f.size, "speed": f.speed}
                    for f in ev.outgoing],
            "I": ev.amount_I, "cancellation": ev.cancellation,
            "dV": ev.dV, "dQ": ev.dQ,
            "dUpsilon": ev.dV + timeline.C0 * ev.dQ,
        }
        lines.append(_json_line(obj))
    with open(path, "w") as fh:
        fh.write("".join(lines))


def _json_value(v):
    if isinstance(v, float):
        return fmt(v)
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_json_value(x)}"
                              for k, x in v.items()) + "}"
    return json.dumps(v)


def _json_line(obj):
    return _json_value(obj) + "\n"


def read_events_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            if not line.strip():
                continue
            vals = []
            for tok in line.strip().split(","):
                try:
                    vals.append(float(tok))
                except ValueError:
                    vals.append(tok)
            rows.append(dict(zip(header, vals)))
        return rows


def write_ledger_csv(path, timeline):
    led = timeline.ledger
    rows = [(led.ts[0], led.Vs[0], led.Qs[0], led.Upsilons[0], 0.0, 0.0, 0.0)]
    for j in range(len(led.dVs)):
        rows.append((led.ts[j + 1], led.Vs[j + 1], led.Qs[j + 1],
                     led.Upsilons[j + 1], led.dVs[j], led.dQs[j], led.dUps[j]))
    _write_csv(path, ["t", "V", "Q", "Upsilon", "dV", "dQ", "dUpsilon"], rows)


def write_slices_csv(path, timeline, times):
    header = None
    rows = []
    n = timeline.model.N
    for t in times:
        fld = timeline.slice_at(t)
        for f in fld.fronts:
            row = [t, f.x, f.family, f.size, f.speed]
            row += [float(v) for v in f.uL]
            row += [float(v) for v in f.uR]
            rows.append(row)
    header = (["t", "x", "family", "size", "speed"]
              + [f"uL{k}" for k in range(n)] + [f"uR{k}" for k in range(n)])
    _write_csv(path, header, rows)


def write_measures_csv(path, entries):
    """entries: iterable of (kind, family, t, x, w)."""
    _write_csv(path, ["kind", "family", "t", "x", "w"], entries)


def write_curves_csv(path, curves_by_family):
    rows = []
    cid = 0
    for fam in sorted(curves_by_family):
        for curve in curves_by_family[fam]:
            for j, (t, x) in enumerate(curve.nodes):
                size = curve.segment_sizes[j] if j < len(curve.segment_sizes) else ""
                rows.append((cid, fam, t, x, size))
            cid += 1
    _write_csv(path, ["curve_id", "family", "t", "x", "segment_size"], rows)


def write_diagnostics_json(path, report):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(report))


def dumps_canonical(obj, indent=0):
    """JSON with sorted keys and 17-significant-digit floats."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = []
        for k in sorted(obj, key=str):
            items.append(f"{pad}  {json.dumps(str(k))}: "
                         f"{dumps_canonical(obj[k], indent + 2).lstrip()}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_canonical(v, indent).lstrip() for v in obj) + "]"
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return json.dumps(str(obj))
        return fmt(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    return json.dumps(str(obj))


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
