import json
import os
import pathlib
import subprocess
import sys

import pytest

import apmopt
from apmopt import cli, diagnostics, measures, optimize, scenarios
from apmopt.cli import main
from apmopt.config import ConfigError, parse_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
DEMO = json.loads((CONFIGS / "demo.json").read_text())
MC_LADDER = {
    "model": {"m": 1, "K": 2, "mu": [-0.1, -0.05], "beta": [[0.0]],
              "beta_bar": [1.0, 1.0], "noise": {"family": "rademacher"}},
    "solver": {"max_iter": 20, "ladder": [1, 2]},
    "scenario": {"mode": "monte_carlo", "n": 500, "seed": 1},
}


def run(command, config, tmp_path, *extra):
    out = tmp_path / "out"
    code = main([command, "--config", str(config), "--out", str(out), *extra])
    return code, out


class TestParseConfig:
    def test_demo_parses(self):
        cfg = parse_config(str(CONFIGS / "demo.json"))
        assert cfg.model.K == 4
        assert cfg.utility.kind == "appendix_power"
        assert cfg.solver.ladder == (1, 2, 4)

    def test_missing_key_named(self, tmp_path):
        bad = {"model": {"m": 1, "K": 1, "mu": [0.0],
                         "noise": {"family": "rademacher"}}}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(ConfigError) as exc:
            parse_config(str(p))
        assert "beta_bar" in str(exc.value)

    def test_monte_carlo_without_seed_listed(self, tmp_path):
        bad = {
            "model": {"m": 1, "K": 1, "mu": [0.0], "beta": [],
                      "beta_bar": [1.0], "noise": {"family": "rademacher"}},
            "scenario": {"mode": "monte_carlo", "n": 100},
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(ConfigError) as exc:
            parse_config(str(p))
        assert "seed" in str(exc.value)

    def test_all_violations_collected(self, tmp_path):
        bad = {
            "model": {"m": 1, "K": 1, "mu": [0.0], "beta": [],
                      "beta_bar": [1.0], "noise": {"family": "nope"}},
            "scenario": {"mode": "monte_carlo"},
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(ConfigError) as exc:
            parse_config(str(p))
        assert len(exc.value.violations) >= 3

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(str(p))

    def test_model_in_separate_file(self, tmp_path):
        model = {"m": 1, "K": 1, "mu": [0.0], "beta": [], "beta_bar": [1.0],
                 "noise": {"family": "rademacher"}}
        (tmp_path / "model.json").write_text(json.dumps(model))
        (tmp_path / "cfg.json").write_text(json.dumps({"model": "model.json"}))
        cfg = parse_config(str(tmp_path / "cfg.json"))
        assert cfg.model.K == 1

    @pytest.mark.parametrize("ladder", [[1, 8], [0, 2]])
    def test_ladder_level_outside_model_listed(self, tmp_path, ladder):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**DEMO, "solver": {"ladder": ladder}}))
        with pytest.raises(ConfigError) as exc:
            parse_config(str(p))
        assert any(v.startswith("solver.ladder") for v in exc.value.violations)

    def test_power_rule_must_match_drifts(self, tmp_path):
        p = tmp_path / "cfg.json"
        model = {**DEMO["model"], "b_rule": {"kind": "power", "c": 0.4, "p": 1.0}}
        p.write_text(json.dumps({**DEMO, "model": model}))
        with pytest.raises(ConfigError) as exc:
            parse_config(str(p))
        assert exc.value.violations == [
            "model.b_rule: power rule gives b = [0.4, 0.2, 0.13333333333333333, "
            "0.1] but mu gives b = [0.2, 0.1, 0.05, 0.025]"]
        # b = (0.4, 0.4 / sqrt 2) is the head of its rule 0.4 * i^-0.5
        cfg = parse_config(str(CONFIGS / "divergent_b.json"))
        assert cfg.model.spec.b_rule.kind == "power"


class TestExitCodes:
    def test_check_demo_ok(self, tmp_path):
        code, out = run("check", CONFIGS / "demo.json", tmp_path)
        assert code == 0
        report = json.load(open(out / "report.json"))
        assert report["verdicts"]["assumption_b"] == "holds"
        assert report["verdicts"]["novum_na"] == "holds"

    def test_optimize_arbitrage_fixture_exits_2(self, tmp_path, capsys):
        code, out = run("optimize", CONFIGS / "arbitrage.json", tmp_path)
        assert code == 2
        report = json.load(open(out / "report.json"))
        assert report["na_flagged_coordinates"] == [1]
        assert "arbitrage_witness" in report

    def test_check_divergent_b_exits_2(self, tmp_path):
        code, out = run("check", CONFIGS / "divergent_b.json", tmp_path)
        assert code == 2
        report = json.load(open(out / "report.json"))
        assert report["verdicts"]["assumption_b"] == "fails"

    def test_bad_config_exits_1(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        assert main(["check", "--config", str(p)]) == 1

    @pytest.mark.parametrize("config, section", [
        ([], "config"),
        ({**DEMO, "solver": "fast"}, "solver"),
        ({**DEMO, "model": {**DEMO["model"],
                            "noise": ["rademacher"] * 4}}, "model.noise[0]"),
    ])
    def test_non_object_section_exits_1(self, tmp_path, capsys, config, section):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(config))
        code, _ = run("check", p, tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"- {section}: must be a JSON object" in err

    def test_bad_seed_env_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SEED", "abc")
        code, _ = run("check", CONFIGS / "demo.json", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "SEED" in err

    def test_measure_demo(self, tmp_path):
        code, out = run("measure", CONFIGS / "demo.json", tmp_path)
        assert code == 0
        report = json.load(open(out / "report.json"))
        assert report["measure"]["max_pricing_residual"] <= 1e-10
        assert (out / "tables" / "tilt_coordinates.csv").exists()

    def test_optimize_demo_artifacts(self, tmp_path):
        code, out = run("optimize", CONFIGS / "demo.json", tmp_path)
        assert code == 0
        report = json.load(open(out / "report.json"))
        values = [lv["value"] for lv in report["optimizer"]["levels"]]
        assert values == sorted(values)
        assert (out / "tables" / "ladder.csv").exists()


class TestDeterminism:
    def test_report_bytes_identical_across_worker_counts(self, tmp_path):
        code1, out1 = run("report", CONFIGS / "demo.json", tmp_path / "w1",
                          "--workers", "1")
        code2, out2 = run("report", CONFIGS / "demo.json", tmp_path / "w8",
                          "--workers", "8")
        assert code1 == code2 == 0
        for rel in ["report.json", "tables/assumption_b.csv",
                    "tables/ladder.csv", "tables/tilt_coordinates.csv",
                    "tables/exp_moment.csv", "tables/holder_margins.csv"]:
            b1 = (out1 / "out" / rel).read_bytes() if (out1 / "out" / rel).exists() \
                else (out1 / rel).read_bytes()
            b2 = (out2 / "out" / rel).read_bytes() if (out2 / "out" / rel).exists() \
                else (out2 / rel).read_bytes()
            assert b1 == b2, rel

    def test_seed_env_overrides_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEED", "99")
        code, out = run("check", CONFIGS / "demo.json", tmp_path, "--seed", "3")
        assert code == 0
        report = json.load(open(out / "report.json"))
        assert report["seed"] == 99

    def test_seed_flag_overrides_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SEED", raising=False)
        code, out = run("check", CONFIGS / "demo.json", tmp_path, "--seed", "3")
        assert code == 0
        report = json.load(open(out / "report.json"))
        assert report["seed"] == 3


class TestRunShape:
    def test_import_loads_no_scipy(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, apmopt.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_report_builds_the_measure_once(self, tmp_path, monkeypatch):
        counts = {"build_tilted_measure": 0, "verify_pricing": 0, "density": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("build_tilted_measure", "verify_pricing"):
            fn = getattr(measures, name)
            for mod in (apmopt, cli, diagnostics, measures):
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counted(name, fn))
        monkeypatch.setattr(measures.TiltedMeasure, "density",
                            counted("density", measures.TiltedMeasure.density))
        code, _ = run("report", CONFIGS / "demo.json", tmp_path)
        assert code == 0
        assert counts["build_tilted_measure"] == 1
        assert counts["verify_pricing"] == 1
        assert counts["density"] <= 3

    def test_ladder_uses_scenarios_flag(self, tmp_path, monkeypatch):
        p = tmp_path / "mc.json"
        p.write_text(json.dumps(MC_LADDER))
        ladder_rows = []
        ladder = cli.truncation_ladder

        def recording(model, u, cfg, s=None):
            ladder_rows.append(s.n)
            return ladder(model, u, cfg, s)

        monkeypatch.setattr(cli, "truncation_ladder", recording)
        code, _ = run("optimize", p, tmp_path, "--scenarios", "300")
        assert code == 0
        assert ladder_rows == [300]

    @pytest.mark.parametrize("config, built", [
        (MC_LADDER, {"sample_scenarios": 1, "enumerate_scenarios": 0}),
        (DEMO, {"sample_scenarios": 0, "enumerate_scenarios": 1}),
    ])
    def test_report_builds_one_scenario_set(self, tmp_path, monkeypatch,
                                            config, built):
        counts = dict.fromkeys(built, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in counts:
            fn = getattr(scenarios, name)
            for mod in (apmopt, cli, diagnostics, measures, optimize, scenarios):
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counted(name, fn))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        code, _ = run("report", p, tmp_path)
        assert code == 0
        assert counts == built
