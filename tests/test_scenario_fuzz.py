"""Scenario fuzzing: documents whose numerics, model parameters,
diagnostics and output slice times mix valid values with strings, bools,
lists, nulls, non-finite numbers, extremes and unknown keys, and now and
then a diagnostics key that once placed, counted or bounded an audit.
check exits 0 or 3 and never with a traceback or a RuntimeWarning; a
refusal names a key of README's table, or refuses an unknown key of a
section in it; a deleted key is always refused; and run refuses the same
document with the same error. Accepted documents are not run."""

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
from fronttrack import diagnostics as dg
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
            "eps0": [0.1], "eps1": [0.4], "event_cap": [1000, 200000],
            "front_cap": [20000, 50]}
# the keys deleted from diagnostics, each now an unknown key wherever given
DELETED = ["balance_regions", "tame_triangles", "np_budget_K",
           "positive_decay_t", "positive_decay_s", "decay_t", "decay_tau",
           "positive_decay_sets", "decay_sets", "convergence.t_eval"]
LADDER = [0.1, 0.05, 0.025, 0.10000001, 2, 1e120]


@st.composite
def section(draw, spec):
    """Each key of spec absent, valid (drawn from a list or a strategy) or
    junk, and now and then the unknown key."""
    sec = {}
    for name, valid in spec.items():
        kind = draw(st.sampled_from(["absent", "absent", "valid", "valid",
                                     "junk"]))
        if kind == "valid":
            sec[name] = draw(valid if isinstance(valid, st.SearchStrategy)
                             else st.sampled_from(valid))
        elif kind == "junk":
            sec[name] = draw(st.sampled_from(JUNK))
    if draw(st.sampled_from([False] * 7 + [True])):
        sec[UNKNOWN] = draw(st.sampled_from(JUNK))
    return sec


CONVERGENCE = {"scenario": sorted(dg.CONVERGENCE_SCENARIOS) + ["kdv_soliton"],
               "ladder": st.lists(st.sampled_from(LADDER), max_size=3)}
DIAGNOSTICS = {
    "checks": st.lists(st.sampled_from(list(cli.CHECKS) + ["gnl"]),
                       max_size=4, unique=True),
    "families": [[1], [2], [1, 2], [2, 1], [1, 1], [0], []],
    "seed": [0, 3, 2 ** 40], "sbv_threshold": [1e-8, 1e-6, 0.0],
    "epsilon_ladder": st.lists(st.sampled_from(LADDER), max_size=3),
    "convergence": section(CONVERGENCE)}
OUTPUTS = {"slice_times": st.lists(st.sampled_from([0.0, 0.5, 1, 1.0, 2.0, 3.0]),
                                   max_size=3)}


@st.composite
def documents(draw):
    model_id = draw(st.sampled_from(fc.catalog_ids()))
    spec = {name: (VALID_PARAMS[name][model_id]
                   if isinstance(VALID_PARAMS[name], dict)
                   else VALID_PARAMS[name])
            for name in fc.make_model(model_id).params}
    # a third of the documents keep the model's defaults and a valid
    # epsilon, so that check reaches their diagnostics and outputs
    plan_only = draw(st.sampled_from([False, False, True]))
    params = {} if plan_only else draw(section(spec))
    if model_id == "linear" and not plan_only and draw(st.booleans()):
        params["matrix"] = draw(st.sampled_from(BAD_MATRICES))
    state = STATES[model_id]
    matrix = params.get("matrix")
    if isinstance(matrix, list) and all(isinstance(r, list) for r in matrix):
        state = [0.0] * max(1, len(matrix))  # the linear model's N
    numerics = {} if plan_only else draw(section(NUMERICS))
    if "epsilon" not in numerics and (
            plan_only or draw(st.sampled_from([True] * 3 + [False]))):
        numerics["epsilon"] = 0.1
    second = [state[0] + 0.1, *state[1:]]
    doc = {"model": {"id": model_id, "params": params},
           "initial": {"kind": "breakpoints", "xs": [0.0],
                       "values": [state, second]},
           "numerics": numerics, "outputs": draw(section(OUTPUTS))}
    if plan_only or draw(st.booleans()):
        doc["diagnostics"] = draw(section(DIAGNOSTICS))
        if draw(st.sampled_from([False] * 5 + [True])):
            *parents, leaf = draw(st.sampled_from(DELETED)).split(".")
            sec = doc["diagnostics"]
            for name in parents:
                if not isinstance(sec.get(name), dict):
                    sec[name] = {}
                sec = sec[name]
            sec[leaf] = draw(st.sampled_from([20, 1.0, 0.0, [], *JUNK]))
    return doc


def deleted_keys(doc):
    """The deleted diagnostics keys doc gives, as dotted keys."""
    diag = doc.get("diagnostics", {})
    conv = diag.get("convergence")
    given = {f"diagnostics.{name}" for name in diag if name in DELETED}
    if isinstance(conv, dict) and "t_eval" in conv:
        given.add("diagnostics.convergence.t_eval")
    return given


def main(args):
    """(exit code, stderr) of cli.main, with RuntimeWarning an error."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(args)
    return code, err.getvalue()


@settings(max_examples=300)
@given(documents())
def test_check_and_run_refuse_alike(doc):
    with tempfile.TemporaryDirectory() as tmp:
        doc["outputs"]["dir"] = os.path.join(tmp, "out")
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, err = main(["check", path])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), err
        if code == cli.EXIT_OK:
            assert not deleted_keys(doc)
            return
        key = re.match(r"config error: ([^:\s]+): ", err).group(1)
        section_key, _, name = key.rpartition(".")
        if key in deleted_keys(doc) or name == UNKNOWN:
            assert section_key in KEYS and err.endswith(": unknown key\n"), err
        else:
            assert key in KEYS, err
        run_code, run_err = main(["run", path])
        assert run_code == cli.EXIT_CONFIG
        manifest = os.path.join(tmp, "out", "manifest.json")
        if os.path.exists(manifest):
            # the initial data are refused inside the run, which records it
            with open(manifest) as fh:
                assert f"config error: {json.load(fh)['error']}\n" == err
        else:
            assert run_err == err
