import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fronttrack import cli
from fronttrack import fileio as io
from fronttrack import flux_core as fc
from fronttrack import measures as ms
from fronttrack import tracker as tk
from fronttrack.errors import ConfigError

from conftest import (PSYSTEM_SHOCK_MERGER, child_python, needs_proc_status,
                      quick_run, random_breakpoint_scenario, read_csv,
                      read_events_jsonl, reference_events_jsonl)

TESTS = Path(__file__).resolve().parent
SCENARIOS = TESTS.parent / "scenarios"


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


MINIMAL = {
    "model": {"id": "burgers"},
    "initial": {"kind": "breakpoints", "xs": [-1.0, 0.0],
                "values": [[1.0], [0.5], [0.0]]},
    "numerics": {"epsilon": 0.1, "t_end": 5.0},
}


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg, plan = cli.parse_config(write_scenario(tmp_path, MINIMAL))
        assert cfg.rho == pytest.approx(0.1 ** 3)  # rho = eps^3 default
        assert cfg.audit_rel_tol == 1e-12
        assert cfg.eps0 == 0.1 and cfg.eps1 == pytest.approx(0.4)
        assert "monotonicity" in plan["checks"]

    def test_eps0_above_eps1_names_key(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["numerics"]["eps0"] = 0.5
        doc["numerics"]["eps1"] = 0.1
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write_scenario(tmp_path, doc))
        assert "eps0" in str(err.value)

    def test_ladder_member_configs(self, tmp_path):
        # a given value holds on every member; an absent one takes the
        # member's own default
        doc = json.loads(json.dumps(MINIMAL))
        doc["numerics"]["eps1"] = 0.2
        doc["diagnostics"] = {"epsilon_ladder": [0.1, 0.05]}
        cfg, plan = cli.parse_config(write_scenario(tmp_path, doc))
        assert (cfg.epsilon, cfg.eps0, cfg.eps1) == (0.1, 0.1, 0.2)
        assert [(c.epsilon, c.eps0, c.eps1, c.t_end)
                for c in plan["members"]] == [(0.1, 0.1, 0.2, 5.0),
                                              (0.05, 0.05, 0.2, 5.0)]
        assert [c.rho for c in plan["members"]] == pytest.approx(
            [0.1 ** 3, 0.05 ** 3])
        del doc["diagnostics"]
        _, plan = cli.parse_config(write_scenario(tmp_path, doc, "single.json"))
        assert plan["members"] == []

    def test_inconsistent_member_names_key(self, tmp_path, capsys):
        # the member at 0.00625 defaults eps1 = min(4 epsilon, 8 eps0) =
        # 0.025, below the given eps0
        doc = json.loads(json.dumps(MINIMAL))
        doc["numerics"]["eps0"] = 0.05
        doc["outputs"] = {"dir": str(tmp_path / "out")}
        doc["diagnostics"] = {"epsilon_ladder": [0.1, 0.00625]}
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ConfigError) as err:
            cli.parse_config(path)
        assert err.value.key == "numerics.eps0"
        assert "at epsilon 0.00625" in str(err.value)
        assert cli.main(["check", path]) == cli.EXIT_CONFIG
        assert cli.main(["run", path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("config error: numerics.eps0: need 0 < eps0 <= eps1 "
                         "(at epsilon 0.00625, eps1 0.025)\n") == 2
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("ladder", [
        [0.1, -0.05], [0.1, 0.0], [0.1, float("nan")], [float("inf")],
        [0.1, "coarse"],
        # both members would write to eps_0.1
        [0.1, 0.10000001]])
    def test_bad_ladder_names_key(self, tmp_path, ladder, capsys):
        doc = json.loads(json.dumps(MINIMAL))
        doc["diagnostics"] = {"epsilon_ladder": ladder}
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ConfigError) as err:
            cli.parse_config(path)
        assert err.value.key == "diagnostics.epsilon_ladder"
        assert cli.main(["check", path]) == cli.EXIT_CONFIG
        assert "diagnostics.epsilon_ladder" in capsys.readouterr().err

    def test_unknown_model_names_key(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"]["id"] = "kdv"
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write_scenario(tmp_path, doc))
        assert "model.id" in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("numerics.epsilon", float("nan")),
        ("numerics.t_end", float("inf")),
        ("numerics.rho", float("inf")),
        ("numerics.eps0", float("nan")),
        ("numerics.eps1", float("inf"))])
    def test_non_finite_value_names_key(self, tmp_path, key, value, capsys):
        # json reads Infinity and NaN; each must be refused under its own key
        # before a run can pass or fail an audit on it
        doc = json.loads(json.dumps(MINIMAL))
        *parents, leaf = key.split(".")[1:]
        section = doc["numerics"]
        for name in parents:
            section = section.setdefault(name, {})
        section[leaf] = value
        path = write_scenario(tmp_path, doc)
        assert cli.main(["check", path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{key}: must be finite" in err

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            cli.parse_config(str(path))

    @pytest.mark.parametrize("key, value", [
        pytest.param("diagnostics", ["monotonicity"], id="diagnostics-value0"),
        pytest.param("diagnostics.checks", 5, id="diagnostics.checks-5"),
        pytest.param("diagnostics.families", ["a"],
                     id="diagnostics.families-value2"),
        # the model is scalar
        pytest.param("diagnostics.families", [2],
                     id="diagnostics.families-value3"),
        pytest.param("diagnostics.families", [0],
                     id="diagnostics.families-value4"),
        pytest.param("diagnostics.seed", "x", id="diagnostics.seed-x"),
        pytest.param("diagnostics.seed", -1, id="diagnostics.seed--1"),
        pytest.param("diagnostics.seed", True, id="diagnostics.seed-True"),
        # a key deleted from the plan is refused as unknown, under its name
        pytest.param("diagnostics.balance_regions", "many",
                     id="diagnostics.balance_regions-many"),
        pytest.param("diagnostics.tame_triangles", -3,
                     id="diagnostics.tame_triangles--3"),
        pytest.param("diagnostics.tame_triangles", 2.5,
                     id="diagnostics.tame_triangles-2.5"),
        pytest.param("diagnostics.np_budget_K", "big",
                     id="diagnostics.np_budget_K-big"),
        pytest.param("diagnostics.np_budget_K", -1.0,
                     id="diagnostics.np_budget_K--1.0"),
        pytest.param("diagnostics.sbv_threshold", float("inf"),
                     id="diagnostics.sbv_threshold-inf"),
        pytest.param("outputs", "out", id="outputs-out"),
        pytest.param("outputs.slice_times", [0.0, 6.0],
                     id="outputs.slice_times-value15"),
        pytest.param("outputs.slice_times", [-0.5],
                     id="outputs.slice_times-value16"),
        # deleted, as above
        pytest.param("diagnostics.positive_decay_t", 9.0,
                     id="diagnostics.positive_decay_t-9.0"),
        pytest.param("diagnostics.positive_decay_t", 0.0,
                     id="diagnostics.positive_decay_t-0.0"),
        pytest.param("diagnostics.positive_decay_s", 3.75,
                     id="diagnostics.positive_decay_s-3.75"),
        pytest.param("diagnostics.positive_decay_s", -0.1,
                     id="diagnostics.positive_decay_s--0.1"),
        pytest.param("diagnostics.decay_t", 5.5, id="diagnostics.decay_t-5.5"),
        pytest.param("diagnostics.decay_tau", 0.0,
                     id="diagnostics.decay_tau-0.0"),
        pytest.param("diagnostics.decay_tau", 4.0,
                     id="diagnostics.decay_tau-4.0"),
        # no family to audit
        pytest.param("diagnostics.families", [],
                     id="diagnostics.families-value24"),
        # a family audited twice
        pytest.param("diagnostics.families", [1, 1],
                     id="diagnostics.families-value25")])
    def test_malformed_plan_value_names_key(self, tmp_path, key, value,
                                            capsys):
        # each would crash or be ignored mid-run; check and run refuse it
        # up front under its own key
        doc = json.loads(json.dumps(MINIMAL))
        doc["outputs"] = {"dir": str(tmp_path / "out")}
        *parents, leaf = key.split(".")
        section = doc
        for name in parents:
            section = section.setdefault(name, {})
        section[leaf] = value
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ConfigError) as err:
            cli.parse_config(path)
        assert err.value.key == key
        assert cli.main(["check", path]) == cli.EXIT_CONFIG
        assert cli.main(["run", path]) == cli.EXIT_CONFIG
        assert f"config error: {key}: " in capsys.readouterr().err


    @pytest.mark.parametrize("key, value", [
        ("numerics", 5),
        ("numerics", ["epsilon"]),
        ("numerics.tolerances", "tight"),
        ("numerics.epsilon", "abc"),
        ("numerics.t_end", [2.0]),
        ("numerics.rho", "small"),
        ("numerics.eps0", {}),
        ("numerics.event_cap", "x"),
        ("numerics.front_cap", float("inf"))])
    def test_unconvertible_numerics_names_key(self, tmp_path, key, value,
                                              capsys):
        # float() or int() refuses each value; check and run name the key
        # instead of failing with a traceback
        doc = json.loads(json.dumps(MINIMAL))
        doc["outputs"] = {"dir": str(tmp_path / "out")}
        *parents, leaf = key.split(".")
        section = doc
        for name in parents:
            section = section.setdefault(name, {})
        section[leaf] = value
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ConfigError) as err:
            cli.parse_config(path)
        assert err.value.key == key
        assert cli.main(["check", path]) == cli.EXIT_CONFIG
        assert cli.main(["run", path]) == cli.EXIT_CONFIG
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("key, value", [
        pytest.param("diagnostics.convergence", "cubic_riemann",
                     id="diagnostics.convergence-cubic_riemann"),
        pytest.param("diagnostics.convergence.scenario", "kdv_soliton",
                     id="diagnostics.convergence.scenario-kdv_soliton"),
        pytest.param("diagnostics.convergence.scenario", ["burgers_shock"],
                     id="diagnostics.convergence.scenario-value2"),
        pytest.param("diagnostics.convergence.ladder", "x",
                     id="diagnostics.convergence.ladder-x"),
        pytest.param("diagnostics.convergence.ladder", [],
                     id="diagnostics.convergence.ladder-value4"),
        pytest.param("diagnostics.convergence.ladder", [0.1, -0.05],
                     id="diagnostics.convergence.ladder-value5"),
        pytest.param("diagnostics.convergence.ladder", [0.1, "fine"],
                     id="diagnostics.convergence.ladder-value6"),
        # a key deleted from the plan is refused as unknown, under its name
        pytest.param("diagnostics.convergence.t_eval", "late",
                     id="diagnostics.convergence.t_eval-late"),
        pytest.param("diagnostics.convergence.t_eval", -1.0,
                     id="diagnostics.convergence.t_eval--1.0"),
        pytest.param("diagnostics.positive_decay_sets", [[1, 2]],
                     id="diagnostics.positive_decay_sets-value9"),
        pytest.param("diagnostics.positive_decay_sets", [[[0.0, 1.0, 2.0]]],
                     id="diagnostics.positive_decay_sets-value10"),
        pytest.param("diagnostics.positive_decay_sets", "all",
                     id="diagnostics.positive_decay_sets-all"),
        pytest.param("diagnostics.decay_sets", [[[1.0, 0.0]]],
                     id="diagnostics.decay_sets-value12"),
        pytest.param("diagnostics.decay_sets", [[["a", "b"]]],
                     id="diagnostics.decay_sets-value13"),
        pytest.param("diagnostics.decay_sets", [[[0.0, float("inf")]]],
                     id="diagnostics.decay_sets-value14")])
    def test_malformed_study_value_names_key(self, tmp_path, key, value,
                                             capsys):
        # each would pass check and then stop run mid-checks with a
        # traceback; both refuse it up front under its own key
        doc = json.loads(json.dumps(MINIMAL))
        doc["outputs"] = {"dir": str(tmp_path / "out")}
        doc["diagnostics"] = {"checks": ["monotonicity", "positive_decay",
                                         "decay", "convergence"],
                              "convergence": {"scenario": "burgers_shock",
                                              "ladder": [0.2, 0.1]}}
        *parents, leaf = key.split(".")
        section = doc
        for name in parents:
            section = section.setdefault(name, {})
        section[leaf] = value
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ConfigError) as err:
            cli.parse_config(path)
        assert err.value.key == key
        assert cli.main(["check", path]) == cli.EXIT_CONFIG
        assert cli.main(["run", path]) == cli.EXIT_CONFIG
        assert f"config error: {key}: " in capsys.readouterr().err

    def test_convergence_check_needs_scenario(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["diagnostics"] = {"checks": ["convergence"]}
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write_scenario(tmp_path, doc))
        assert err.value.key == "diagnostics.convergence.scenario"

    def test_well_formed_study_values_accepted(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["numerics"].update({"event_cap": 500})
        doc["diagnostics"] = {
            "checks": ["convergence"],
            "convergence": {"scenario": "burgers_shock", "ladder": [0.2]}}
        cfg, plan = cli.parse_config(write_scenario(tmp_path, doc))
        assert cfg.event_cap == 500
        assert plan["convergence"] == {"scenario": "burgers_shock",
                                       "ladder": [0.2]}

    @pytest.mark.parametrize("key, value", [
        ("diagnostics.balance_regions", 20),
        ("diagnostics.tame_triangles", 20),
        ("diagnostics.np_budget_K", 1.0),
        ("diagnostics.positive_decay_t", 3.75),
        ("diagnostics.positive_decay_s", 0.0),
        ("diagnostics.decay_t", 3.75),
        ("diagnostics.decay_tau", 1.875),
        ("diagnostics.positive_decay_sets", [[[-1.0, 0.0]]]),
        ("diagnostics.decay_sets", []),
        ("diagnostics.convergence.t_eval", 1.0)])
    def test_audit_placement_keys_refused(self, tmp_path, key, value, capsys):
        # no scenario places, counts or bounds its own audit: each key that
        # once did is unknown, even at the value the check now fixes
        doc = json.loads(json.dumps(MINIMAL))
        doc["outputs"] = {"dir": str(tmp_path / "out")}
        *parents, leaf = key.split(".")
        section = doc
        for name in parents:
            section = section.setdefault(name, {})
        section[leaf] = value
        path = write_scenario(tmp_path, doc)
        assert cli.main(["check", path]) == cli.EXIT_CONFIG
        assert cli.main(["run", path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count(f"config error: {key}: unknown key\n") == 2
        assert not os.path.exists(tmp_path / "out")


class TestNullNumerics:
    @pytest.mark.parametrize("key, field", [
        ("numerics.t_end", "t_end"),
        ("numerics.event_cap", "event_cap"),
        ("numerics.front_cap", "front_cap")])
    def test_null_means_absent(self, tmp_path, key, field):
        # a null value takes RunConfig's default; check and run both pass
        doc = json.loads(json.dumps(MINIMAL))
        doc["outputs"] = {"dir": str(tmp_path / "out")}
        *parents, leaf = key.split(".")
        section = doc
        for name in parents:
            section = section.setdefault(name, {})
        section[leaf] = None
        path = write_scenario(tmp_path, doc)
        cfg, _ = cli.parse_config(path)
        default = tk.RunConfig.__dataclass_fields__[field].default
        assert getattr(cfg, field) == default
        assert cli.main(["check", path]) == cli.EXIT_OK
        assert cli.main(["run", path]) == cli.EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest == {"complete": True, "error": None, "members": []}


class TestCheckAgreesWithRun:
    """check refuses every scenario that run refuses, with the same error;
    a refusal of the initial data comes from inside orchestrate, so run
    also records it in manifest.json."""

    @pytest.mark.parametrize("key, section, value, in_manifest", [
        ("initial.xs", "initial",
         {"kind": "breakpoints", "xs": [0.0, -1.0],
          "values": [[1.0], [0.5], [0.0]]}, True),
        ("initial.profile", "initial", {"kind": "profile", "name": "zigzag"},
         True),
        # outside burgers' domain box [-2, 2]
        ("initial.values", "initial",
         {"kind": "breakpoints", "xs": [0.0], "values": [[1.0], [5.0]]}, True),
        # total variation 12 over burgers' budget 8
        ("initial.values", "initial",
         {"kind": "breakpoints", "xs": [-1.0, 0.0, 1.0],
          "values": [[-2.0], [2.0], [-2.0], [2.0]]}, True),
        ("initial", "initial",
         {"kind": "breakpoints", "xs": [0.0], "values": [[1.0, 2.0], [0.0]]},
         True),
        ("initial.samples", "initial", {"kind": "profile", "name": "ramp",
                                        "samples": "many"}, True),
        ("numerics.epsilon", "numerics.epsilon", None, False),
        ("numerics.event_cap", "numerics.event_cap", -3, False),
        ("numerics.event_cap", "numerics.event_cap", 1.5, False),
        ("numerics.event_cap", "numerics.event_cap", True, False),
        ("numerics.front_cap", "numerics.front_cap", -3, False),
        ("numerics.front_cap", "numerics.front_cap", 1.5, False),
        ("numerics.front_cap", "numerics.front_cap", True, False),
        ("outputs.dir", "outputs.dir", 5, False),
        ("outputs.dir", "outputs.dir", "", False),
        # initial data is checked, never coerced with int() or float()
        ("initial.samples", "initial", {"kind": "profile", "name": "ramp",
                                        "samples": 1.5}, True),
        ("initial.samples", "initial", {"kind": "profile", "name": "ramp",
                                        "samples": True}, True),
        ("initial.params.teeth", "initial",
         {"kind": "profile", "name": "sawtooth", "params": {"teeth": 2.7}},
         True),
        ("initial.params.x0", "initial",
         {"kind": "profile", "name": "ramp", "params": {"x0": -math.inf}},
         True),
        ("initial.xs", "initial",
         {"kind": "breakpoints", "xs": "01", "values": [[1.0], [0.5], [0.0]]},
         True),
        ("initial.xs", "initial",
         {"kind": "breakpoints", "xs": [True], "values": [[1.0], [0.0]]}, True),
        ("initial.xs", "initial",
         {"kind": "breakpoints", "xs": [math.nan, 0.0],
          "values": [[1.0], [0.5], [0.0]]}, True),
        ("initial.xs", "initial",
         {"kind": "breakpoints", "xs": [math.inf], "values": [[1.0], [0.0]]},
         True),
        ("initial.values", "initial",
         {"kind": "breakpoints", "xs": [0.0], "values": ["1", [0.0]]}, True),
        # finite bounds whose width x1 - x0 overflows
        ("initial.params", "initial",
         {"kind": "profile", "name": "ramp",
          "params": {"x0": -1e308, "x1": 1e308}}, True),
        ("initial.params", "initial",
         {"kind": "profile", "name": "sawtooth",
          "params": {"x0": -1e308, "x1": 1e308}}, True),
        # a finite width, but a midpoint sum that overflows
        ("initial.params", "initial",
         {"kind": "profile", "name": "sawtooth",
          "params": {"x0": -1.7e308, "x1": 0.0}}, True),
        # a finite width, but a ramp slope product that overflows
        ("initial.params", "initial",
         {"kind": "profile", "name": "ramp",
          "params": {"x0": -8e307, "x1": 8e307}}, True),
        # breakpoints whose gap overflows
        ("initial.xs", "initial",
         {"kind": "breakpoints", "xs": [-1.5e308, 1.5e308],
          "values": [[0.5], [-0.5], [-1.0]]}, True),
        # a key no section knows, ignored or overwritten before
        ("output", "output", {"dir": "elsewhere"}, False),
        ("model.parms", "model.parms", {}, False),
        ("initial.samples", "initial.samples", 40, True),
        ("initial.params.amplitud", "initial",
         {"kind": "profile", "name": "sawtooth", "params": {"amplitud": 0.1}},
         True),
        ("numerics.epsilom", "numerics.epsilom", 0.05, False),
        # the deleted ladder knob, which would now quietly change meaning
        ("numerics.rho_rule", "numerics.rho_rule", "fixed", False),
        # the deleted audit settings: C0 is calibrated on every run, and the
        # audit's slack and the tie tolerance are constants
        ("numerics.tolerances", "numerics.tolerances", {"audit_rel": 1e-3},
         False),
        ("diagnostics.chekcs", "diagnostics.chekcs", ["balance"], False),
        ("diagnostics.outputs", "diagnostics.outputs", {"dir": "x"}, False),
        ("outputs.slice_time", "outputs.slice_time", [1.0], False),
        ("diagnostics.convergence.t_evil",
         "diagnostics.convergence.t_evil", 0.5, False),
        # numerics are checked, never coerced with float()
        ("numerics.epsilon", "numerics.epsilon", "0.05", False),
        ("numerics.epsilon", "numerics.epsilon", True, False),
        ("numerics.t_end", "numerics.t_end", True, False),
        ("numerics.C0", "numerics.C0", "auto", False),
        ("numerics.C0", "numerics.C0", 0, False),
        ("numerics.tolerances", "numerics.tolerances",
         {"tie_tol_factor": 0.0}, False),
        # model parameters: a malformed value names its parameter, a set
        # the model cannot use names model.params
        ("model.params.radius", "model",
         {"id": "burgers", "params": {"radius": "inf"}}, False),
        ("model.params", "model",
         {"id": "burgers", "params": {"radius": 1e308}}, False),
        ("model.params.radius", "model",
         {"id": "burgers", "params": {"radius": True}}, False),
        ("model.params.radius", "model",
         {"id": "burgers", "params": {"radius": "3"}}, False),
        ("model.params", "model",
         {"id": "burgers", "params": {"radius": -1}}, False),
        ("model.params", "model",
         {"id": "cubic", "params": {"radius": 1e200}}, False),
        ("model.params.gamma", "model",
         {"id": "p-system", "params": {"gamma": math.nan}}, False),
        ("model.params.v_max", "model",
         {"id": "p-system", "params": {"v_max": math.inf}}, False),
        ("model.params.k", "model",
         {"id": "p-system", "params": {"k": "2"}}, False),
        ("model.params.radius", "model",
         {"id": "remark-2x2", "params": {"radius": "0.1"}}, False),
        ("model.params.matrix", "model",
         {"id": "linear", "params": {"matrix": [[0, 1], [1, math.nan]]}},
         False),
        ("model.params.matrix", "model",
         {"id": "linear", "params": {"matrix": [["0", "1"], ["1", "0"]]}},
         False),
        ("model.params.matrix", "model",
         {"id": "linear", "params": {"matrix": "x"}}, False),
        # complex and repeated eigenvalues
        ("model.params.matrix", "model",
         {"id": "linear", "params": {"matrix": [[0, 1], [-1, 0]]}}, False),
        ("model.params.matrix", "model",
         {"id": "linear", "params": {"matrix": [[1, 0], [0, 1]]}}, False),
        ("model.params.radius", "model",
         {"id": "linear", "params": {"radius": math.inf}}, False),
        ("model.params.radius", "model",
         {"id": "linear", "params": {"radius": True}}, False)])
    def test_refusal(self, tmp_path, key, section, value, in_manifest,
                     capsys):
        doc = json.loads(json.dumps(MINIMAL))
        doc["outputs"] = {"dir": str(tmp_path / "out")}
        *parents, leaf = section.split(".")
        sec = doc
        for name in parents:
            sec = sec.setdefault(name, {})
        sec[leaf] = value
        path = write_scenario(tmp_path, doc)
        assert cli.main(["check", path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert cli.main(["run", path]) == cli.EXIT_CONFIG
        manifest = tmp_path / "out" / "manifest.json"
        if in_manifest:
            error = json.loads(manifest.read_text())["error"]
            assert f"config error: {error}\n" == err
        else:
            assert capsys.readouterr().err == err
            assert not manifest.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("initial", [
        # the one approaching pair's collision time overflows
        {"kind": "breakpoints", "xs": [-8e307, 8e307],
         "values": [[0.5], [-0.5], [-1.0]]},
        # collision times that overflow or fall after t_end
        {"kind": "profile", "name": "sawtooth",
         "params": {"x0": -4e307, "x1": 4e307}}])
    def test_far_apart_fronts_run(self, tmp_path, initial):
        doc = json.loads(json.dumps(MINIMAL))
        doc["initial"] = initial
        # the audits are not the subject here (conservation's m1 - m0
        # cancels at this scale)
        doc["diagnostics"] = {"checks": []}
        doc["outputs"] = {"dir": str(tmp_path / "out")}
        path = write_scenario(tmp_path, doc)
        assert cli.main(["check", path]) == cli.EXIT_OK
        assert cli.main(["run", path]) == cli.EXIT_OK
        assert read_events_jsonl(tmp_path / "out" / "events.jsonl") == []


class TestMonotonicityCheck:
    def test_zero_c0_fails_strict_clause(self):
        # dQ < 0 carries the merge's decrease; with C0 set to 0 the
        # functional stays flat, so the event is monotone but not strict
        tl = quick_run("burgers", MINIMAL["initial"], epsilon=0.1, t_end=5.0)
        tl.ledger = dataclasses.replace(tl.ledger, C0=0.0)
        plan = {"checks": ["monotonicity"]}
        cli._check_plan(plan, tl.model.N, tl.t_end)
        report, failed = cli.run_checks(tl, plan)
        mono = report["checks"]["monotonicity"]
        assert failed and not mono["pass"]
        assert mono["n_violations"] == 1
        (bad,) = mono["violations"]
        assert bad["monotone"] and not bad["strict"] and not bad["ok"]
        assert bad["t"] == tl.events[0].t

    def test_uncalibrated_psystem_names_violations(self):
        # four simplified 1-shock merges raise V and Q together, so no C0
        # can absorb them and the doubling search gives up above 2**20
        initial = random_breakpoint_scenario("p-system",
                                             np.random.default_rng(1), 32, 0.04)
        tl = quick_run("p-system", initial, epsilon=0.05, t_end=1.5)
        plan = {"checks": ["monotonicity"]}
        cli._check_plan(plan, tl.model.N, tl.t_end)
        report, failed = cli.run_checks(tl, plan)
        mono = report["checks"]["monotonicity"]
        assert failed and not mono["pass"]
        assert report["C0_calibrated"] is False
        assert report["C0"] == 2.0 ** 21
        assert mono["n_violations"] == 4
        assert all(not v["monotone"] and not v["ok"]
                   for v in mono["violations"])
        assert all(v["dUpsilon"] > 0.0 for v in mono["violations"])


class TestNonphysicalBudgetCheck:
    def test_fails_above_the_budget(self, remark_timeline, monkeypatch):
        # the same fronts against an epsilon below their total strength
        # break the bound NP_BUDGET_K * epsilon
        tl = remark_timeline
        plan = {"checks": ["nonphysical_budget"]}
        cli._check_plan(plan, tl.model.N, tl.t_end)
        report, failed = cli.run_checks(tl, plan)
        entry = report["checks"]["nonphysical_budget"]
        assert not failed and entry["pass"]
        total = entry["total_strength"]
        assert 0.0 < total <= cli.NP_BUDGET_K * tl.config.epsilon
        monkeypatch.setattr(tl, "config", dataclasses.replace(
            tl.config, epsilon=0.5 * total / cli.NP_BUDGET_K))
        report, failed = cli.run_checks(tl, plan)
        entry = report["checks"]["nonphysical_budget"]
        assert failed and not entry["pass"]
        assert entry["total_strength"] == total
        assert entry["strength_over_epsilon"] == pytest.approx(
            2.0 * cli.NP_BUDGET_K)


class TestOrchestrate:
    def test_merge_scenario_exit_zero(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["outputs"] = {"dir": str(tmp_path / "out")}
        cfg, plan = cli.parse_config(write_scenario(tmp_path, doc))
        assert cli.orchestrate(cfg, plan) == cli.EXIT_OK
        out = tmp_path / "out"
        for name in ("events.jsonl", "slices.csv", "ledger.csv",
                     "measures.csv", "curves.csv", "diagnostics.json",
                     "manifest.json"):
            assert (out / name).exists()
        events = read_events_jsonl(out / "events.jsonl")
        assert len(events) == 1
        assert events[0]["solver"] == "accurate"
        assert events[0]["I"] == pytest.approx(0.125)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"]

    def test_narrow_window_runs_every_check(self, tmp_path):
        # padded to t_end = 0.01 the window is 0.108 wide, too narrow for
        # the seeded draws; it widens to 1.0 about its middle
        doc = {"model": {"id": "burgers"},
               "initial": {"kind": "breakpoints", "xs": [0.0],
                           "values": [[1.0], [0.0]]},
               "numerics": {"epsilon": 0.1, "t_end": 0.01},
               "outputs": {"dir": str(tmp_path / "out")},
               "diagnostics": {"checks": [c for c in cli.CHECKS
                                          if c != "convergence"]}}
        path = write_scenario(tmp_path, doc)
        assert cli.main(["check", path]) == cli.EXIT_OK
        assert cli.main(["run", path]) == cli.EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest == {"complete": True, "error": None, "members": []}
        rep = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert set(rep["checks"]) == set(cli.CHECKS) - {"convergence"}
        tl = quick_run("burgers", doc["initial"], epsilon=0.1, t_end=0.01)
        assert cli._domain_window(tl) == (-0.5, 0.5)

    def test_forced_zero_c0_fails_audit(self, tmp_path, monkeypatch):
        # no scenario sets C0; with the calibration forced to 0 the merge's
        # strict decrease goes unmet, and orchestrate exits with the
        # audit's code
        monkeypatch.setattr(ms, "calibrate_c0", lambda *args: (0.0, True))
        doc = json.loads(json.dumps(MINIMAL))
        doc["outputs"] = {"dir": str(tmp_path / "out_c0")}
        cfg, plan = cli.parse_config(write_scenario(tmp_path, doc))
        assert cli.orchestrate(cfg, plan) == cli.EXIT_AUDIT

    def test_main_exit_codes(self, tmp_path):
        bad = write_scenario(tmp_path, {"model": {"id": "kdv"}}, "bad.json")
        assert cli.main(["run", bad]) == cli.EXIT_CONFIG
        assert cli.main(["check", bad]) == cli.EXIT_CONFIG
        good = json.loads(json.dumps(MINIMAL))
        good["outputs"] = {"dir": str(tmp_path / "main_out")}
        path = write_scenario(tmp_path, good, "good.json")
        assert cli.main(["check", path]) == cli.EXIT_OK
        assert cli.main(["run", path]) == cli.EXIT_OK
        assert cli.main(["catalog"]) == cli.EXIT_OK

    def test_tv_budget_refusal_is_config_exit(self, tmp_path):
        doc = {
            "model": {"id": "remark-2x2"},
            "initial": {"kind": "breakpoints", "xs": [-0.5, 0.0, 0.5],
                        "values": [[0.0, -0.3], [0.0, 0.3], [0.0, -0.3],
                                   [0.0, 0.3]]},
            "numerics": {"epsilon": 0.05, "t_end": 1.0},
            "outputs": {"dir": str(tmp_path / "out_tv")},
        }
        cfg, plan = cli.parse_config(write_scenario(tmp_path, doc))
        assert cli.orchestrate(cfg, plan) == cli.EXIT_CONFIG
        manifest = json.loads((tmp_path / "out_tv" / "manifest.json").read_text())
        assert not manifest["complete"]
        assert "variation" in manifest["error"]

    def test_event_cap_is_runtime_exit(self, tmp_path):
        doc = {
            "model": {"id": "burgers"},
            "initial": {"kind": "profile", "name": "ramp", "samples": 20},
            "numerics": {"epsilon": 0.05, "t_end": 2.0, "event_cap": 3},
            "outputs": {"dir": str(tmp_path / "out_cap")},
        }
        cfg, plan = cli.parse_config(write_scenario(tmp_path, doc))
        assert cli.orchestrate(cfg, plan) == cli.EXIT_RUNTIME
        manifest = json.loads((tmp_path / "out_cap" / "manifest.json").read_text())
        assert not manifest["complete"]
        assert "cap" in manifest["error"]
        # the cap stops the loop between events, so no event failed
        assert "failed_event" not in manifest

    def test_failed_event_in_manifest(self, tmp_path, capsys):
        # the front cap refuses the fan reflected by the p-system shock
        # merger, which the manifest names as the uncapped run records it
        doc = {"model": {"id": "p-system"}, "initial": PSYSTEM_SHOCK_MERGER,
               "numerics": {"epsilon": 1e-6, "t_end": 15.0, "front_cap": 3},
               "outputs": {"dir": str(tmp_path / "out")}}
        path = write_scenario(tmp_path, doc)
        assert cli.main(["run", path]) == cli.EXIT_RUNTIME
        assert "run failed" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert not manifest["complete"]
        assert manifest["error"] == "a fan of 4 fronts exceeds the front cap 3"
        ev = quick_run("p-system", PSYSTEM_SHOCK_MERGER, epsilon=1e-6,
                       t_end=15.0).events[0]
        assert manifest["failed_event"] == {
            "index": 0, "t": ev.t, "x": ev.x, "solver": ev.solver,
            "incoming": [f.id for f in ev.incoming]}
        assert ev.solver == "accurate"

    def test_initial_field_over_cap_refused_at_t0(self, tmp_path, monkeypatch):
        # the shipped ramp starts with 41 fronts; no event is solved
        def never(*args):
            raise AssertionError("an over-cap initial field went on")

        monkeypatch.setattr(tk, "step", never)
        doc = json.loads((SCENARIOS / "burgers_ramp.json").read_text())
        doc["numerics"]["front_cap"] = 3
        doc["outputs"]["dir"] = str(tmp_path / "out")
        assert cli.main(["run", write_scenario(tmp_path, doc)]) == cli.EXIT_RUNTIME
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest == {
            "complete": False, "members": [],
            "error": "front cap 3 exceeded at t=0 by the initial field"}

    @pytest.mark.parametrize("exc", [ValueError("bad value"),
                                     MemoryError("no room")],
                             ids=["ValueError", "MemoryError"])
    def test_any_failure_recorded_in_manifest(self, tmp_path, monkeypatch, exc):
        # a defect still escapes (exit 1), and the manifest names it
        def fail(config):
            raise exc

        monkeypatch.setattr(tk, "run", fail)
        doc = dict(MINIMAL, outputs={"dir": str(tmp_path / "out")})
        with pytest.raises(type(exc)):
            cli.main(["run", write_scenario(tmp_path, doc)])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest == {"complete": False, "members": [],
                            "error": f"{type(exc).__name__}: {exc}"}

    @needs_proc_status
    def test_over_cap_fan_exits_4_fast_and_small(self, tmp_path):
        # epsilon 1e-5 splits the initial rarefaction into 100,000 fronts,
        # five times the default cap; the dense Q0 masks once asked for
        # 9.3 GiB here
        doc = json.loads((TESTS / "scenarios" / "burgers_fan_over_cap.json").read_text())
        doc["outputs"]["dir"] = str(tmp_path / "out")
        code = ("import sys, time\n"
                "from fronttrack import cli\n"
                "t0 = time.perf_counter()\n"
                "code = cli.main(['run', sys.argv[1]])\n"
                "print(code, time.perf_counter() - t0)")
        (exit_code, seconds), peak_kb = child_python(
            code, write_scenario(tmp_path, doc))
        assert int(exit_code) == cli.EXIT_RUNTIME
        assert float(seconds) < 2.0
        assert peak_kb < 200 * 1024
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["error"] == "a fan of 100000 fronts exceeds the front cap 20000"
        assert "failed_event" not in manifest

    def test_oversized_jump_refused_before_solving(self, tmp_path):
        # the small-BV budget rejects the datum before the Riemann radius
        # check could ever fail at runtime
        doc = {
            "model": {"id": "p-system"},
            "initial": {"kind": "breakpoints", "xs": [0.0],
                        "values": [[0.55, -0.9], [1.95, 0.9]]},
            "numerics": {"epsilon": 0.05, "t_end": 1.0},
            "outputs": {"dir": str(tmp_path / "out_big")},
        }
        cfg, plan = cli.parse_config(write_scenario(tmp_path, doc))
        assert cli.orchestrate(cfg, plan) == cli.EXIT_CONFIG

    def test_convergence_check_emits_table(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["outputs"] = {"dir": str(tmp_path / "out_conv")}
        doc["diagnostics"] = {"checks": ["monotonicity", "convergence"],
                              "convergence": {"scenario": "burgers_rarefaction",
                                              "ladder": [0.1, 0.05]}}
        cfg, plan = cli.parse_config(write_scenario(tmp_path, doc))
        assert cli.orchestrate(cfg, plan) == cli.EXIT_OK
        rep = json.loads((tmp_path / "out_conv" / "diagnostics.json").read_text())
        rows = rep["checks"]["convergence"]["rows"]
        assert [r["epsilon"] for r in rows] == [0.1, 0.05]
        assert all(r["l1_error"] <= r["epsilon"] for r in rows)
        assert rep["checks"]["convergence"]["observed_orders"]

    def test_epsilon_ladder_members(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["outputs"] = {"dir": str(tmp_path / "ladder")}
        doc["diagnostics"] = {"epsilon_ladder": [0.1, 0.05]}
        cfg, plan = cli.parse_config(write_scenario(tmp_path, doc))
        assert cli.orchestrate(cfg, plan) == cli.EXIT_OK
        root = tmp_path / "ladder"
        members = json.loads((root / "manifest.json").read_text())["members"]
        assert len(members) == 2
        for member in members:
            assert (root / member / "events.jsonl").exists()
        summary = json.loads((root / "diagnostics.json").read_text())
        assert [m["epsilon"] for m in summary["ladder"]] == [0.1, 0.05]

    def test_ladder_failure_keeps_earlier_members(self, tmp_path):
        # 3, 6 and 12 events at epsilon 0.1, 0.05 and 0.02: the cap stops
        # the second member
        doc = {
            "model": {"id": "burgers"},
            "initial": {"kind": "breakpoints", "xs": [-1.0, 0.0, 1.0],
                        "values": [[0.0], [1.0], [0.5], [0.0]]},
            "numerics": {"epsilon": 0.1, "t_end": 5.0, "event_cap": 4},
            "diagnostics": {"epsilon_ladder": [0.1, 0.05, 0.02]},
            "outputs": {"dir": str(tmp_path / "ladder")},
        }
        cfg, plan = cli.parse_config(write_scenario(tmp_path, doc))
        assert cli.orchestrate(cfg, plan) == cli.EXIT_RUNTIME
        root = tmp_path / "ladder"
        manifest = json.loads((root / "manifest.json").read_text())
        assert not manifest["complete"] and "cap" in manifest["error"]
        assert manifest["members"] == ["eps_0.1"]
        assert len(read_events_jsonl(root / "eps_0.1" / "events.jsonl")) == 3
        assert sorted(os.listdir(root)) == ["eps_0.1", "manifest.json"]

    def _ladder_members(self, tmp_path, monkeypatch, numerics):
        """Run the merge scenario on a two-member ladder; returns each
        member's config and its events."""
        doc = json.loads(json.dumps(MINIMAL))
        doc["numerics"].update(numerics)
        doc["outputs"] = {"dir": str(tmp_path / "ladder")}
        doc["diagnostics"] = {"epsilon_ladder": [0.1, 0.05]}
        configs = []
        run = tk.run

        def recording_run(cfg):
            configs.append(cfg)
            return run(cfg)

        monkeypatch.setattr(tk, "run", recording_run)
        cfg, plan = cli.parse_config(write_scenario(tmp_path, doc))
        assert cli.orchestrate(cfg, plan) == cli.EXIT_OK
        root = tmp_path / "ladder"
        events = [read_events_jsonl(root / f"eps_{eps:g}" / "events.jsonl")
                  for eps in (0.1, 0.05)]
        return configs, events

    @pytest.mark.parametrize("numerics, expected, solver", [
        # rho = 0.2 >= I = 0.125 sends the merge to the simplified solver
        ({"rho": 0.2}, [(0.1, 0.2, 0.1, 0.4), (0.05, 0.2, 0.05, 0.2)],
         "simplified"),
        ({"eps0": 0.05, "eps1": 0.3},
         [(0.1, 1e-3, 0.05, 0.3), (0.05, 1.25e-4, 0.05, 0.3)], "accurate"),
        ({}, [(0.1, 1e-3, 0.1, 0.4), (0.05, 1.25e-4, 0.05, 0.2)],
         "accurate")], ids=["rho", "thresholds", "absent"])
    def test_given_value_holds_on_every_member(self, tmp_path, monkeypatch,
                                               numerics, expected, solver):
        configs, events = self._ladder_members(tmp_path, monkeypatch,
                                               numerics)
        got = [(c.epsilon, c.rho, c.eps0, c.eps1) for c in configs]
        assert [g[0] for g in got] == [e[0] for e in expected]
        assert np.allclose([g[1:] for g in got], [e[1:] for e in expected],
                           rtol=1e-12, atol=0)
        assert [ev[0]["solver"] for ev in events] == [solver] * 2

    def test_fixed_threshold_ladder(self, tmp_path, monkeypatch):
        # the shipped remark ladder with eps0 and eps1 held at every member
        doc = json.loads((SCENARIOS / "remark_ladder_fixed.json").read_text())
        assert (doc["numerics"]["eps0"], doc["numerics"]["eps1"]) == (0.05, 0.2)
        doc["outputs"]["dir"] = str(tmp_path / "ladder")
        timelines = []
        run = tk.run

        def recording_run(cfg):
            timelines.append(run(cfg))
            return timelines[-1]

        monkeypatch.setattr(tk, "run", recording_run)
        cfg, plan = cli.parse_config(write_scenario(tmp_path, doc))
        assert cli.orchestrate(cfg, plan) == cli.EXIT_OK
        ladder = doc["diagnostics"]["epsilon_ladder"]
        assert [tl.config.epsilon for tl in timelines] == ladder
        assert all((tl.config.eps0, tl.config.eps1) == (0.05, 0.2)
                   for tl in timelines)


class TestDeterminismAndRoundTrip:
    def test_byte_identical_artifacts(self, tmp_path):
        files = ("events.jsonl", "slices.csv", "ledger.csv", "measures.csv",
                 "curves.csv", "diagnostics.json")
        blobs = []
        for run_id in ("a", "b"):
            doc = json.loads(json.dumps(MINIMAL))
            doc["outputs"] = {"dir": str(tmp_path / f"det_{run_id}")}
            doc["diagnostics"] = {"checks": ["monotonicity", "balance",
                                             "sbv_atoms"], "seed": 3}
            cfg, plan = cli.parse_config(write_scenario(tmp_path, doc,
                                                        f"s_{run_id}.json"))
            assert cli.orchestrate(cfg, plan) == cli.EXIT_OK
            blobs.append({f: (tmp_path / f"det_{run_id}" / f).read_bytes()
                          for f in files})
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("fixture", ["remark_timeline", "sawtooth_timeline",
                                         "burgers_merge_timeline"])
    def test_event_lines_match_generic_encoder(self, fixture, request,
                                               tmp_path):
        tl = request.getfixturevalue(fixture)
        path = tmp_path / "events.jsonl"
        io.write_events_jsonl(path, tl)
        assert path.read_text() == reference_events_jsonl(tl)
        assert len(read_events_jsonl(path)) == len(tl.events) > 0

    def test_audit_scenario_eigensystem_budget(self, tmp_path, monkeypatch):
        # system fronts keep the eigensystem their speed came from, and
        # taking each physical front's eigensystem twice would cost about
        # 1300 calls; the run makes 641, since Newton's chain ends on uR bit
        # for bit in all but 3 accurate solves (with finite-difference
        # columns 68 closing fronts took theirs again, and the run 706)
        doc = json.loads((SCENARIOS / "remark_audit.json").read_text())
        doc["outputs"] = {"dir": str(tmp_path / "out")}
        path = write_scenario(tmp_path, doc)
        calls = []
        average_eigs = fc.average_eigs

        def counted(model, uL, uR):
            calls.append(1)
            return average_eigs(model, uL, uR)

        monkeypatch.setattr(fc, "average_eigs", counted)
        assert cli.main(["run", path]) == cli.EXIT_OK
        assert 600 <= len(calls) <= 700

    def test_readers_roundtrip(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["outputs"] = {"dir": str(tmp_path / "rt")}
        cfg, plan = cli.parse_config(write_scenario(tmp_path, doc))
        cli.orchestrate(cfg, plan)
        out = tmp_path / "rt"
        events = read_events_jsonl(out / "events.jsonl")
        assert events[0]["dQ"] == pytest.approx(-0.0625)
        ledger = read_csv(out / "ledger.csv")
        assert ledger[0]["Q"] == pytest.approx(0.0625)
        assert ledger[-1]["Upsilon"] == pytest.approx(1.0)
        slices = read_csv(out / "slices.csv")
        assert {row["t"] for row in slices} == {0.0, 2.5, 5.0}
        measures = read_csv(out / "measures.csv")
        kinds = {row["kind"] for row in measures}
        assert {"I", "IC", "ICJ", "mu_i", "mu_jump"} <= kinds
        curves = read_csv(out / "curves.csv")
        assert {row["curve_id"] for row in curves} == {0.0, 1.0}

    def test_fmt_seventeen_digits(self):
        x = 0.1 + 0.2
        assert float(io.fmt(x)) == x
        assert io.fmt(1.0) == "1"
        assert io.fmt(-0.0) == "0"

    def test_cross_process_determinism(self, tmp_path):
        import subprocess
        import sys
        doc = json.loads(json.dumps(MINIMAL))
        doc["initial"] = {"kind": "profile", "name": "sawtooth", "samples": 12,
                          "params": {"teeth": 2, "amplitude": 0.4}}
        # the child imports the same fronttrack as this process
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        blobs = []
        for rep in ("a", "b"):
            sdoc = json.loads(json.dumps(doc))
            sdoc["outputs"] = {"dir": str(tmp_path / f"proc_{rep}")}
            path = tmp_path / f"proc_{rep}.json"
            path.write_text(json.dumps(sdoc))
            res = subprocess.run(
                [sys.executable, "-m", "fronttrack.cli", "run", str(path)],
                capture_output=True, env=env)
            assert res.returncode == 0, res.stderr
            blobs.append((tmp_path / f"proc_{rep}" / "events.jsonl").read_bytes()
                         + (tmp_path / f"proc_{rep}" / "ledger.csv").read_bytes())
        assert blobs[0] == blobs[1]


def dynamic_arch_openblas():
    """numpy's BLAS is an OpenBLAS that picks its kernel at run time (a
    DYNAMIC_ARCH build) on x86-64, so OPENBLAS_CORETYPE can change it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (platform.machine().lower() in ("x86_64", "amd64")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not dynamic_arch_openblas(),
                    reason="needs a DYNAMIC_ARCH OpenBLAS on x86-64")
def test_system_artifacts_do_not_depend_on_the_blas_kernel(tmp_path):
    # the shipped remark-2x2 and p-system scenarios write the same bytes
    # whichever kernel OpenBLAS runs: the CPU's own, Haswell (AVX2 and FMA)
    # or Prescott (SSE3, no FMA); one child process per kernel
    paths = []
    for name in ("remark_audit", "psystem_waves"):
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
        doc["outputs"] = {"dir": name}
        paths.append(str(write_scenario(tmp_path, doc, f"{name}.json")))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; from fronttrack import cli; "
            "sys.exit(max(cli.main(['run', p]) for p in sys.argv[1:]))")
    blobs = {}
    for coretype in (None, "Haswell", "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        cwd = tmp_path / (coretype or "default")
        cwd.mkdir()
        res = subprocess.run([sys.executable, "-c", code, *paths], cwd=cwd,
                             capture_output=True, env=env, timeout=120)
        assert res.returncode == 0, res.stderr
        blobs[coretype] = {str(f.relative_to(cwd)): f.read_bytes()
                           for f in sorted(cwd.rglob("*")) if f.is_file()}
    assert len(blobs[None]) >= 12
    assert blobs["Haswell"] == blobs[None]
    assert blobs["Prescott"] == blobs[None]


class TestSystemScenarios:
    def test_shipped_psystem_scenario_runs(self, tmp_path):
        # the one shipped scenario that reaches the p-system accurate solver
        doc = json.loads((SCENARIOS / "psystem_waves.json").read_text())
        doc["outputs"] = {"dir": str(tmp_path / "out")}
        assert cli.main(["run", write_scenario(tmp_path, doc)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert report["C0_calibrated"] and report["events"] == 11
        assert set(report["checks"]) == set(doc["diagnostics"]["checks"])
        assert all(check["pass"] for check in report["checks"].values())

    def test_one_by_one_linear_runs(self, tmp_path):
        # the catalog's default linear model, matrix [[1.0]]
        doc = {"model": {"id": "linear"},
               "initial": {"kind": "breakpoints", "xs": [0.0],
                           "values": [[0.0], [0.1]]},
               "numerics": {"epsilon": 0.1},
               "outputs": {"dir": str(tmp_path / "out")}}
        path = write_scenario(tmp_path, doc)
        assert cli.main(["run", path]) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert report["checks"]["conservation"]["audited"]
        assert report["checks"]["conservation"]["pass"]
        rows = read_csv(tmp_path / "out" / "slices.csv")
        assert [(r["family"], r["speed"]) for r in rows] == [(1, 1.0)] * 3
        cfg, _ = cli.parse_config(path)
        timeline = tk.run(cfg)
        (front,) = timeline.initial_field.fronts
        assert (front.kind, front.speed) == ("contact", 1.0)
