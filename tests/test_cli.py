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
            "model: b_rule: power rule gives b = [0.4, 0.2, 0.13333333333333333, "
            "0.1] but mu gives b = [0.2, 0.1, 0.05, 0.025]"]
        # b = (0.4, 0.4 / sqrt 2) is the head of its rule 0.4 * i^-0.5
        cfg = parse_config(str(CONFIGS / "divergent_b.json"))
        assert cfg.model.spec.b_rule.kind == "power"

    @pytest.mark.parametrize("xs, ys, message", [
        ([-10, 0, 10], [-1, 0, 5], "tabulated utility is not concave: slope "
                                   "rises from 0.1 to 0.5 at x = 0"),
        ([-1, 0, 1], [1, 0, 1], "tabulated ys must be nondecreasing"),
        ([0, -1, 1], [-1, 0, 1], "tabulated xs must be strictly increasing"),
    ], ids=["convex-kink", "decreasing", "xs-unsorted"])
    def test_tabulated_utility_must_be_concave(self, tmp_path, capsys, xs, ys,
                                               message):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(
            {**DEMO, "utility": {"kind": "tabulated", "xs": xs, "ys": ys}}))
        code, _ = run("optimize", p, tmp_path)
        assert code == 1
        assert f"- utility: {message}\n" in capsys.readouterr().err

    def test_concave_tabulated_utility_parses(self, tmp_path):
        # slopes 5, 3, 3, 3 in decimal; in binary the second 3 exceeds the
        # first by 3 ulps, a rise the relative tolerance forgives
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**DEMO, "utility": {
            "kind": "tabulated", "xs": [-10, 0, 0.1, 0.3, 0.7],
            "ys": [-50, 0, 0.3, 0.9, 2.1]}}))
        assert parse_config(str(p)).utility.ys == (-50.0, 0.0, 0.3, 0.9, 2.1)


class TestExitCodes:
    def test_check_demo_ok(self, tmp_path):
        code, out = run("check", CONFIGS / "demo.json", tmp_path)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"]["assumption_b"] == "holds"
        assert report["verdicts"]["novum_na"] == "holds"

    def test_optimize_arbitrage_fixture_exits_2(self, tmp_path, capsys):
        code, out = run("optimize", CONFIGS / "arbitrage.json", tmp_path)
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["na_flagged_coordinates"] == [1]
        assert "arbitrage_witness" in report

    def test_check_divergent_b_exits_2(self, tmp_path):
        code, out = run("check", CONFIGS / "divergent_b.json", tmp_path)
        assert code == 2
        report = json.loads((out / "report.json").read_text())
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

    @pytest.mark.parametrize("section, value, key", [
        ("measure", {"fallback_alpha": [1]}, "measure.fallback_alpha"),
        ("measure", {"moment_exponents": 5}, "measure.moment_exponents"),
        ("measure", {"fallback_alpha": "x"}, "measure.fallback_alpha"),
        ("scenario", {"n": "abc"}, "scenario.n"),
        ("utility", {"kind": "crra"}, "utility"),
    ], ids=["alpha-list", "exponents-int", "alpha-str", "n-str", "kind-unknown"])
    def test_bad_value_names_its_key(self, tmp_path, capsys, section, value, key):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**DEMO, section: value}))
        code, _ = run("check", p, tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"- {key}: " in err

    def test_bad_seed_env_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SEED", "abc")
        code, _ = run("check", CONFIGS / "demo.json", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "SEED" in err

    @pytest.mark.parametrize("config, extra, env, source", [
        (DEMO, ("--seed", "-1"), None, "--seed"),
        (MC_LADDER, ("--seed", str(2 ** 64)), None, "--seed"),
        (DEMO, (), "-1", "SEED"),
        (MC_LADDER, (), str(2 ** 64), "SEED"),
        ({**MC_LADDER, "scenario": {"mode": "monte_carlo", "n": 500, "seed": -1}},
         (), None, "- scenario.seed: "),
        ({**MC_LADDER, "scenario": {"mode": "monte_carlo", "n": 500, "seed": 2 ** 64}},
         (), None, "- scenario.seed: "),
        (MC_LADDER, ("--scenarios", "0"), None, "--scenarios"),
        (DEMO, ("--scenarios", "-3"), None, "--scenarios"),
    ], ids=["flag-negative", "flag-2**64", "env-negative", "env-2**64",
            "config-negative", "config-2**64", "scenarios-zero", "scenarios-negative"])
    def test_bad_seed_or_scenario_count_exits_1(self, tmp_path, monkeypatch, capsys,
                                                config, extra, env, source):
        # each used to exit 1 with "internal error: key must be positive ..."
        # or, for --scenarios 0, to sample the config's n rows and exit 0
        if env is None:
            monkeypatch.delenv("SEED", raising=False)
        else:
            monkeypatch.setenv("SEED", env)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        code, _ = run("optimize", p, tmp_path, *extra)
        assert code == 1
        err = capsys.readouterr().err
        assert source in err
        assert "[0, 2**64)" in err or "at least 1" in err
        assert "internal error" not in err and "Traceback" not in err

    def test_largest_seed_runs(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SEED", raising=False)
        p = tmp_path / "mc.json"
        p.write_text(json.dumps(MC_LADDER))
        code, out = run("optimize", p, tmp_path, "--seed", str(2 ** 64 - 1))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 2 ** 64 - 1

    def test_measure_demo(self, tmp_path):
        code, out = run("measure", CONFIGS / "demo.json", tmp_path)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["measure"]["max_pricing_residual"] <= 1e-10
        assert (out / "tables" / "tilt_coordinates.csv").exists()

    def test_report_demo_growth_bounds_not_certified(self, tmp_path):
        # the demo's bounds (0.5, 1.5, 1, 1) fail on appendix_power's linear
        # negative side; the Hoelder chain still runs and says so
        code, out = run("report", CONFIGS / "demo.json", tmp_path)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["holder"]["growth_certified"] is False

    def test_optimize_demo_artifacts(self, tmp_path):
        code, out = run("optimize", CONFIGS / "demo.json", tmp_path)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        values = [lv["value"] for lv in report["optimizer"]["levels"]]
        assert values == sorted(values)
        assert (out / "tables" / "ladder.csv").exists()

    def test_unconverged_levels_reported(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**DEMO, "solver": {**DEMO["solver"], "max_iter": 1}}))
        code, out = run("optimize", p, tmp_path)
        assert code == 0
        levels = json.loads((out / "report.json").read_text())["optimizer"]["levels"]
        assert not any(lv["converged"] for lv in levels)
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"solver did not converge at K={lv['K']}: 1 iterations, "
                         f"grad_norm {lv['grad_norm']:.3e}" for lv in levels]
        run("optimize", CONFIGS / "demo.json", tmp_path)
        assert capsys.readouterr().err == ""


class TestScenarioProvenance:
    @pytest.mark.parametrize("command", ["optimize", "measure", "report"])
    def test_demo_reports_exact_enumeration(self, tmp_path, command):
        code, out = run(command, CONFIGS / "demo.json", tmp_path)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario_set"] == {"provenance": "exact_enumeration",
                                          "rows": 16}

    def test_monte_carlo_reports_seed_and_rows(self, tmp_path):
        p = tmp_path / "mc.json"
        p.write_text(json.dumps(MC_LADDER))
        code, out = run("report", p, tmp_path, "--scenarios", "300")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario_set"] == {
            "provenance": "monte_carlo(seed=1, n=300)", "rows": 300}

    @pytest.mark.parametrize("command, config, exit_code", [
        ("check", "demo.json", 0),
        ("optimize", "arbitrage.json", 2),
        ("report", "divergent_b.json", 2),
    ])
    def test_check_and_failed_assumptions_skip(self, tmp_path, command, config,
                                               exit_code):
        code, out = run(command, CONFIGS / config, tmp_path)
        assert code == exit_code
        report = json.loads((out / "report.json").read_text())
        assert report["scenario_set"] == "skipped"


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
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 99

    def test_seed_flag_overrides_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SEED", raising=False)
        code, out = run("check", CONFIGS / "demo.json", tmp_path, "--seed", "3")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 3


class TestRunShape:
    def test_import_loads_no_scipy(self, tmp_path):
        # neither the import nor an exact or a Monte Carlo report loads
        # scipy: the closed form and the certificate decide arbitrage
        mc = tmp_path / "mc.json"
        mc.write_text(json.dumps(MC_LADDER))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        env.pop("SEED", None)
        script = (
            "import sys, apmopt.cli\n"
            "def scipy(): return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "print(scipy())\n"
            "out, *configs = sys.argv[1:]\n"
            "for i, config in enumerate(configs):\n"
            "    code = apmopt.cli.main(['report', '--config', config, '--out', f'{out}/{i}'])\n"
            "    print(code, scipy())\n")
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path),
             str(CONFIGS / "demo.json"), str(mc)],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == ["[]", "0 []", "0 []"]

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
