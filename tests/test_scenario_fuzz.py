"""Scenario fuzzing: documents whose numerics, numerics.tolerances and model
parameters mix valid values with strings, bools, lists, nulls, non-finite
numbers, extremes and unknown keys. check exits 0 or 3 and never with a
traceback or a RuntimeWarning; a refusal names a key of README's table, and
run refuses the same document with the same error. Accepted documents are
not run."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fronttrack import cli
from fronttrack import flux_core as fc

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_keys():
    """The dotted keys in the first column of README's key table, and each
    section above them."""
    keys = set()
    for line in README.read_text().splitlines():
        if line.startswith("| `"):
            for key in re.findall(r"`([\w.]+\.[\w.]+)`", line.split("|")[1]):
                parts = key.split(".")
                keys |= {".".join(parts[:n]) for n in range(1, len(parts) + 1)}
    return keys


KEYS = readme_keys()
UNKNOWN = "bogus"
JUNK = ["0.5", "x", True, False, None, [], [1.0], {}, math.nan, math.inf,
        -math.inf, 1e308, -1e308, 0, -1.0, 5e-324]
VALID_PARAMS = {
    "radius": {"burgers": [2.0, 1, 3.5], "cubic": [2.0, 1.5],
               "remark-2x2": [0.32, 0.25], "linear": [1.0, 2]},
    "gamma": [1.4, 2, 1.0], "k": [1.0, 0.5], "v_min": [0.5, 0.4],
    "v_max": [2.0, 1.5], "u_max": [1.0, 2],
    "matrix": [[[1.0]], [[0.0, 1.0], [1.0, 0.0]], [[2, 0], [0, -1]]]}
BAD_MATRICES = [[[0, 1], [-1, 0]], [[1, 0], [0, 1]], [[1, 1], [0, 1]],
                [[0, 1], [1, math.nan]], [["0", "1"], ["1", "0"]], "x", [[]],
                [[1e308, 1e308], [1e308, -1e308]], [[1e308]], [1, 2],
                [[0, 1]]]
# a state inside the default box, and a second one near it
STATES = {"burgers": [0.5], "cubic": [0.5], "remark-2x2": [0.0, 0.0],
          "p-system": [1.0, 0.0], "linear": [0.0]}
NUMERICS = {"epsilon": [0.1, 0.05], "t_end": [1.0, 2], "rho": [1e-3, 0.0],
            "eps0": [0.1], "eps1": [0.4], "C0": ["auto", 0.0, 2],
            "event_cap": [1000, 200000], "front_cap": [20000, 50]}
TOLERANCES = {"tie_tol_factor": [1e-13, 0.0], "audit_rel": [1e-12, 0]}


@st.composite
def section(draw, spec):
    """Each key of spec absent, valid or junk, and now and then the unknown
    key."""
    sec = {}
    for name, valid in spec.items():
        kind = draw(st.sampled_from(["absent", "absent", "valid", "valid",
                                     "junk"]))
        if kind != "absent":
            sec[name] = draw(st.sampled_from(valid if kind == "valid" else JUNK))
    if draw(st.sampled_from([False] * 7 + [True])):
        sec[UNKNOWN] = draw(st.sampled_from(JUNK))
    return sec


@st.composite
def documents(draw):
    model_id = draw(st.sampled_from(fc.catalog_ids()))
    spec = {name: (VALID_PARAMS[name][model_id]
                   if isinstance(VALID_PARAMS[name], dict)
                   else VALID_PARAMS[name])
            for name in fc.make_model(model_id).params}
    params = draw(section(spec))
    if model_id == "linear" and draw(st.booleans()):
        params["matrix"] = draw(st.sampled_from(BAD_MATRICES))
    state = STATES[model_id]
    matrix = params.get("matrix")
    if isinstance(matrix, list) and all(isinstance(r, list) for r in matrix):
        state = [0.0] * max(1, len(matrix))  # the linear model's N
    numerics = draw(section(NUMERICS))
    if "epsilon" not in numerics and draw(st.sampled_from([True] * 3 + [False])):
        numerics["epsilon"] = 0.1
    if draw(st.booleans()):
        numerics["tolerances"] = draw(st.one_of(
            section(TOLERANCES), st.sampled_from([None, [], "x"])))
    second = [state[0] + 0.1, *state[1:]]
    return {"model": {"id": model_id, "params": params},
            "initial": {"kind": "breakpoints", "xs": [0.0],
                        "values": [state, second]},
            "numerics": numerics}


def main(args):
    """(exit code, stderr) of cli.main, with RuntimeWarning an error."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(args)
    return code, err.getvalue()


@settings(max_examples=200)
@given(documents())
def test_check_and_run_refuse_alike(doc):
    with tempfile.TemporaryDirectory() as tmp:
        doc["outputs"] = {"dir": os.path.join(tmp, "out")}
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, err = main(["check", path])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), err
        if code == cli.EXIT_OK:
            return
        key = re.match(r"config error: ([^:\s]+): ", err).group(1)
        section_key, _, name = key.rpartition(".")
        assert key in KEYS or (name == UNKNOWN and section_key in KEYS), err
        run_code, run_err = main(["run", path])
        assert run_code == cli.EXIT_CONFIG
        manifest = os.path.join(tmp, "out", "manifest.json")
        if os.path.exists(manifest):
            # the initial data are refused inside the run, which records it
            with open(manifest) as fh:
                assert f"config error: {json.load(fh)['error']}\n" == err
        else:
            assert run_err == err
