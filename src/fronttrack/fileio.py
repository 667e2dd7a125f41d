"""Deterministic writers for run artifacts.

All numbers are serialized with 17 significant digits so that re-running an
identical scenario reproduces byte-identical files.
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


def write_events_jsonl(path, timeline):
    """One JSON object per event, keys in a fixed order, numbers as fmt."""
    lines = []
    for ev, dups in zip(timeline.events, timeline.ledger.dUps.tolist()):
        ins = ",".join(_front_json(f) for f in ev.incoming)
        outs = ",".join(_front_json(f) for f in ev.outgoing)
        lines.append(
            f'{{"t":{fmt(ev.t)},"x":{fmt(ev.x)},"solver":{json.dumps(ev.solver)},'
            f'"in":[{ins}],"out":[{outs}],'
            f'"I":{fmt(ev.amount_I)},"cancellation":{fmt(ev.cancellation)},'
            f'"dV":{fmt(ev.dV)},"dQ":{fmt(ev.dQ)},"dUpsilon":{fmt(dups)}}}\n')
    with open(path, "w") as fh:
        fh.write("".join(lines))


def _front_json(f):
    return (f'{{"family":{fmt(f.family)},"size":{fmt(f.size)},'
            f'"speed":{fmt(f.speed)}}}')


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_ledger_csv(path, timeline):
    led = timeline.ledger
    ups, dups = led.Upsilons, led.dUps
    rows = [(led.ts[0], led.Vs[0], led.Qs[0], ups[0], 0.0, 0.0, 0.0)]
    for j in range(len(led.dVs)):
        rows.append((led.ts[j + 1], led.Vs[j + 1], led.Qs[j + 1],
                     ups[j + 1], led.dVs[j], led.dQs[j], dups[j]))
    _write_csv(path, ["t", "V", "Q", "Upsilon", "dV", "dQ", "dUpsilon"], rows)


def write_slices_csv(path, timeline, times):
    header = None
    rows = []
    n = timeline.model.N
    for t in times:
        fld = timeline.slice_at(t)
        for f, x in zip(fld.fronts, fld.xs):
            rows.append([t, x, f.family, f.size, f.speed, *f.uL, *f.uR])
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
