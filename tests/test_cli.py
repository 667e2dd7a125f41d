import json
import os

import pytest

from fronttrack import cli
from fronttrack import fileio as io
from fronttrack import tracker as tk
from fronttrack.errors import ConfigError


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
        assert cfg.c0 == "auto"
        assert cfg.eps0 == 0.1 and cfg.eps1 == pytest.approx(0.4)
        assert "monotonicity" in plan["checks"]

    def test_eps0_above_eps1_names_key(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["numerics"]["eps0"] = 0.5
        doc["numerics"]["eps1"] = 0.1
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write_scenario(tmp_path, doc))
        assert "eps0" in str(err.value)

    def test_unknown_model_names_key(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"]["id"] = "kdv"
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write_scenario(tmp_path, doc))
        assert "model.id" in str(err.value)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            cli.parse_config(str(path))

    def test_shock_threshold_schedule(self, tmp_path):
        cfg, _ = cli.parse_config(write_scenario(tmp_path, MINIMAL))
        for k in range(4):
            e0, e1 = cfg.shock_thresholds(k)
            assert 0 < 2.0 ** k * e0 <= e1


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
        events = io.read_events_jsonl(out / "events.jsonl")
        assert len(events) == 1
        assert events[0]["solver"] == "accurate"
        assert events[0]["I"] == pytest.approx(0.125)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"]

    def test_forced_zero_c0_fails_audit(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["numerics"]["C0"] = 0
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
                                              "ladder": [0.1, 0.05],
                                              "t_eval": 1.0}}
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
        events = [io.read_events_jsonl(root / f"eps_{eps:g}" / "events.jsonl")
                  for eps in (0.1, 0.05)]
        return configs, events

    def test_ladder_keeps_fixed_rho(self, tmp_path, monkeypatch):
        # rho = 0.2 >= I = 0.125 sends the merge to the simplified solver
        configs, events = self._ladder_members(
            tmp_path, monkeypatch, {"rho": 0.2, "rho_rule": "fixed"})
        assert [(c.epsilon, c.rho, c.rho_rule) for c in configs] == [
            (0.1, 0.2, "fixed"), (0.05, 0.2, "fixed")]
        assert [ev[0]["solver"] for ev in events] == ["simplified"] * 2

    def test_ladder_scales_eps3_rho_per_member(self, tmp_path, monkeypatch):
        configs, events = self._ladder_members(
            tmp_path, monkeypatch, {"rho": 0.2})
        assert [(c.epsilon, c.rho_rule) for c in configs] == [
            (0.1, "eps3"), (0.05, "eps3")]
        assert [c.rho for c in configs] == pytest.approx([0.1 ** 3, 0.05 ** 3])
        assert [ev[0]["solver"] for ev in events] == ["accurate"] * 2


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

    def test_readers_roundtrip(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["outputs"] = {"dir": str(tmp_path / "rt")}
        cfg, plan = cli.parse_config(write_scenario(tmp_path, doc))
        cli.orchestrate(cfg, plan)
        out = tmp_path / "rt"
        events = io.read_events_jsonl(out / "events.jsonl")
        assert events[0]["dQ"] == pytest.approx(-0.0625)
        ledger = io.read_csv(out / "ledger.csv")
        assert ledger[0]["Q"] == pytest.approx(0.0625)
        assert ledger[-1]["Upsilon"] == pytest.approx(1.0)
        slices = io.read_csv(out / "slices.csv")
        assert {row["t"] for row in slices} == {0.0, 2.5, 5.0}
        measures = io.read_csv(out / "measures.csv")
        kinds = {row["kind"] for row in measures}
        assert {"I", "IC", "ICJ", "mu_i", "mu_jump"} <= kinds
        curves = io.read_csv(out / "curves.csv")
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
