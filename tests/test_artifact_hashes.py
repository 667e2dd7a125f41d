"""Byte identity of what the program writes, against committed hashes.

tests/_baselines/artifact_sha256.json holds the sha256 of every artifact
file that `fronttrack run` writes for the shipped scenarios/*.json, keyed by
its path under out/, and one sha256 per run of the benchmark's corpus-200
and sawtooth-ladder workloads at seed 0, over the repr of every float of the
run's events and Glimm ledger (run_digest). A change that moves bits on
purpose rewrites the file in the same commit, with

    PYTHONPATH=src python tests/test_artifact_hashes.py

and says in CHANGES.md which hashes moved and why.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from pathlib import Path

from fronttrack import cli

from conftest import CORPUS, corpus_run, quick_run

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "tests" / "_baselines" / "artifact_sha256.json"
LADDER = (40, 80, 160, 320, 640)


def shipped_artifacts(workdir):
    """{path under out/: sha256} of every file the shipped scenarios write,
    each run from workdir."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for path in sorted((ROOT / "scenarios").glob("*.json")):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", str(path)])
            assert code == cli.EXIT_OK, f"{path.name} exited {code}"
    finally:
        os.chdir(cwd)
    out = Path(workdir) / "out"
    return {p.relative_to(out).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def run_digest(timeline):
    """sha256 over the repr of every event's t, x, solver, interaction
    amount, cancellation, dV, dQ and front ids, of every outgoing front's
    family, size, speed and states, and of the ledger's times, V, Q, dV,
    dQ and C0."""
    h = hashlib.sha256()
    for ev in timeline.events:
        h.update(repr((ev.t, ev.x, ev.solver, ev.amount_I, ev.cancellation,
                       ev.dV, ev.dQ, [f.id for f in ev.incoming],
                       [(f.id, f.family, f.size, f.speed, f.uL, f.uR)
                        for f in ev.outgoing])).encode())
    led = timeline.ledger
    h.update(repr((led.ts.tolist(), led.Vs.tolist(), led.Qs.tolist(),
                   led.dVs.tolist(), led.dQs.tolist(), led.C0)).encode())
    return h.hexdigest()


def corpus_digests():
    """corpus-200 at seed 0: 50 runs of the acceptance corpus per model."""
    return {f"{mid}/{s}": run_digest(corpus_run(mid, s))
            for mid in CORPUS for s in range(50)}


def ladder_digests():
    """sawtooth-ladder at seed 0: the Burgers sawtooth at each sample count."""
    params = {"teeth": 6, "amplitude": 0.3, "x0": -1.0, "x1": 1.0}
    return {f"samples={n}": run_digest(quick_run(
        "burgers", {"kind": "profile", "name": "sawtooth", "samples": n,
                    "params": params}, epsilon=0.02, t_end=2.0))
        for n in LADDER}


def assert_same(got, section):
    """Every name of the baseline section has its hash in got, and no
    other; the message names each one that differs."""
    want = json.loads(BASELINE.read_text())[section]
    moved = sorted(k for k in got.keys() | want.keys()
                   if got.get(k) != want.get(k))
    assert not moved, f"{section}: {len(moved)} moved: {', '.join(moved)}"


def test_shipped_scenario_artifacts_match(tmp_path):
    assert_same(shipped_artifacts(tmp_path), "scenarios")


def test_corpus_events_and_ledgers_match():
    assert_same(corpus_digests(), "corpus-200")


def test_ladder_events_and_ledgers_match():
    assert_same(ladder_digests(), "sawtooth-ladder")


def test_digest_sees_one_ulp():
    tl = corpus_run("burgers", 0)
    before = run_digest(tl)
    ev = tl.events[len(tl.events) // 2]
    ev.dV = math.nextafter(ev.dV, math.inf)
    assert run_digest(tl) != before


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = {"scenarios": shipped_artifacts(tmp),
                  "corpus-200": corpus_digests(),
                  "sawtooth-ladder": ladder_digests()}
    BASELINE.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
