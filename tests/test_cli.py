import contextlib
import importlib.util
import io
import json
import logging
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apmopt
from apmopt import cli, diagnostics, measures, optimize, scenarios
from apmopt.cli import main
from apmopt.config import ConfigError, _noise_from_dict, parse_config
from apmopt.distributions import (dyadic_two_sided, finite_discrete,
                                  standardized_two_point, standardized_uniform)

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
DEMO = json.loads((CONFIGS / "demo.json").read_text())
MC_LADDER = {
    "model": {"m": 1, "K": 2, "mu": [-0.1, -0.05], "beta": [[0.0]],
              "beta_bar": [1.0, 1.0], "noise": {"family": "rademacher"}},
    "solver": {"max_iter": 20, "ladder": [1, 2]},
    "scenario": {"mode": "monte_carlo", "n": 500, "seed": 1},
}


# a value of each JSON type, and the non-finite floats JSON can carry
JSON_VALUES = [None, True, 0, 2.5, "x", [], [1.0], {}, {"a": 1}]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _json_type(value) -> str:
    """value's JSON type: null, bool, number, str, list or dict."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def _leaves(value, path=()):
    """(path, value) of each scalar in a JSON value, list items included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        yield path, value
        return
    for key, item in items:
        yield from _leaves(item, path + (key,))


def _replaced(value, path, leaf):
    """A copy of the JSON value with the scalar at path replaced by leaf."""
    if not path:
        return leaf
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], leaf)
    return copy


LEAF_CONFIGS = [DEMO, _perfbench_workloads().mc_report_config(311)]


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

    def test_decreasing_ladder_listed(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**DEMO, "solver": {"ladder": [4, 2]}}))
        with pytest.raises(ConfigError) as exc:
            parse_config(str(p))
        assert exc.value.violations == [
            "solver: ladder levels [4, 2] must be strictly increasing"]
        code, _ = run("optimize", p, tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "- solver: ladder levels [4, 2]" in err
        assert "internal error" not in err

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
        ([-1, float("nan"), 1], [-1, 0, 1], "tabulated xs and ys must be finite"),
    ], ids=["convex-kink", "decreasing", "xs-unsorted", "xs-nan"])
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

    @pytest.mark.parametrize("noise, spec", [
        ({"family": "standardized_two_point", "p": 0.3}, standardized_two_point(0.3)),
        ({"family": "standardized_uniform"}, standardized_uniform()),
        ({"family": "finite_discrete", "points": [2, -0.5], "probs": [0.2, 0.8]},
         finite_discrete([2.0, -0.5], [0.2, 0.8])),
        ({"family": "dyadic_two_sided", "q": 0.1}, dyadic_two_sided(0.1)),
    ], ids=["two-point", "uniform", "finite-discrete", "dyadic"])
    def test_noise_family_gives_its_factory_spec(self, noise, spec):
        errors = []
        assert _noise_from_dict(noise, errors, "model.noise") == spec
        assert errors == []

    def test_moment_exponents_list_parses(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**DEMO, "measure": {"moment_exponents": [1, -2.5, 3]}}))
        assert parse_config(str(p)).moment_exponents == (1.0, -2.5, 3.0)


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
        ({**DEMO, "model": {**DEMO["model"], "b_rule": ["power"]}}, "model.b_rule"),
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
        ("utility", {"kind": ["tabulated"]}, "utility"),
        ("model", {**DEMO["model"], "noise": {"family": ["rademacher"]}}, "model.noise"),
        ("utility", {**DEMO["utility"], "growth": {**DEMO["utility"]["growth"],
                                                   "C1": float("nan")}},
         "utility.growth.C1"),
        ("solver", {"grad_tol": float("nan")}, "solver.grad_tol"),
        ("solver", {"grad_tol": float("inf")}, "solver.grad_tol"),
        ("solver", {"max_iter": -1}, "solver"),
        ("model", {**DEMO["model"], "noise": {"family": "finite_discrete",
                                              "points": [1.0, -1.0],
                                              "probs": [float("nan")] * 2}},
         "model.noise"),
        ("model", {**DEMO["model"], "noise": {"family": "finite_discrete",
                                              "points": [1.0, -1.0, float("nan")],
                                              "probs": [0.5, 0.5, 0.0]}},
         "model.noise"),
        # counts are integers: not truncated, and not bools
        ("model", {**DEMO["model"], "K": 4.5}, "model.K"),
        ("model", {**DEMO["model"], "K": True}, "model.K"),
        ("model", {**DEMO["model"], "m": 1.5}, "model.m"),
        ("model", {**DEMO["model"], "K": 1e20}, "model"),
        ("solver", {"max_iter": 100.5}, "solver.max_iter"),
        ("solver", {"max_iter": False}, "solver.max_iter"),
        ("solver", {"ladder": [1, 2.5, 4]}, "solver.ladder"),
        ("solver", {"ladder": [1, True]}, "solver.ladder"),
        ("scenario", {"mode": "monte_carlo", "n": 100.7, "seed": 3}, "scenario.n"),
        ("scenario", {"mode": "monte_carlo", "n": True, "seed": 3}, "scenario.n"),
        ("scenario", {"mode": "monte_carlo", "n": 100, "seed": 3.9}, "scenario.seed"),
        ("scenario", {"mode": "monte_carlo", "n": 100, "seed": True}, "scenario.seed"),
        ("model", {**DEMO["model"], "b_rule": ["power"]}, "model.b_rule"),
        # float fields are finite numbers, and not bools
        ("solver", {"grad_tol": True}, "solver.grad_tol"),
        ("solver", {"grad_tol": 10 ** 400}, "solver.grad_tol"),
        ("measure", {"p": True}, "measure.p"),
        ("measure", {"p": float("inf")}, "measure.p"),
        ("measure", {"fallback_alpha": False}, "measure.fallback_alpha"),
        ("measure", {"moment_exponents": [1.0, True]}, "measure.moment_exponents"),
        ("utility", {**DEMO["utility"], "alpha": True}, "utility.alpha"),
        ("utility", {**DEMO["utility"], "alpha": float("nan")}, "utility.alpha"),
        ("utility", {**DEMO["utility"], "growth": {**DEMO["utility"]["growth"],
                                                   "beta": True}},
         "utility.growth.beta"),
        ("model", {**DEMO["model"], "b_rule": {"kind": "power", "c": True, "p": 1.0}},
         "model.b_rule.c"),
        ("model", {**DEMO["model"], "b_rule": {"kind": "power", "c": 0.4,
                                               "p": float("nan")}}, "model.b_rule.p"),
        ("model", {**DEMO["model"], "noise": {"family": "standardized_two_point",
                                              "p": True}}, "model.noise"),
        # the market's arrays and the output directory are read like the rest
        ("model", {**DEMO["model"], "mu": [True, -0.1, -0.05, -0.025]}, "model.mu"),
        ("model", {**DEMO["model"], "mu": [float("inf"), -0.1, -0.05, -0.025]},
         "model.mu"),
        ("model", {**DEMO["model"], "beta_bar": [float("inf"), 1.0, 1.0, 1.0]},
         "model.beta_bar"),
        ("model", {**DEMO["model"], "beta": [[True], [0.0], [0.0]]}, "model.beta"),
        ("model", {**DEMO["model"], "mu": {"a": 1}}, "model.mu"),
        ("output", 5, "config.output"),
        ("output", "", "config.output"),
        # keys that the rest of the config leaves unread
        ("scenario", {"mode": "exact", "n": 5}, "scenario.n"),
        ("measure", {"p": 3.0, "moment_exponents": [1.0]}, "measure.p"),
    ], ids=["alpha-list", "exponents-int", "alpha-str", "n-str", "kind-unknown",
            "kind-list", "family-list",
            "growth-c1-nan", "grad-tol-nan", "grad-tol-inf", "max-iter-negative",
            "noise-probs-nan", "noise-point-nan",
            "K-fraction", "K-bool", "m-fraction", "K-huge", "max-iter-fraction", "max-iter-bool",
            "ladder-fraction", "ladder-bool", "n-fraction", "n-bool", "seed-fraction",
            "seed-bool", "b-rule-list", "grad-tol-bool", "grad-tol-huge", "p-bool", "p-inf",
            "fallback-alpha-bool", "exponents-bool", "alpha-bool", "alpha-nan",
            "growth-beta-bool", "b-rule-c-bool", "b-rule-p-nan", "two-point-p-bool",
            "mu-bool", "mu-inf", "beta-bar-inf", "beta-bool", "mu-object", "output-int",
            "output-empty", "n-exact", "p-beside-exponents"])
    def test_bad_value_names_its_key(self, tmp_path, capsys, section, value, key):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**DEMO, section: value}))
        code, _ = run("check", p, tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"- {key}: " in err

    @pytest.mark.parametrize("flags", [(), ("-v",), ("--verbose",)], ids=["quiet", "v", "verbose"])
    def test_internal_error_prints_traceback_only_under_v(self, tmp_path, monkeypatch,
                                                          capsys, flags):
        def boom(model):
            raise RuntimeError("boom 100%")
        monkeypatch.setattr(cli, "subgaussian_scan", boom)
        code, _ = run("check", CONFIGS / "demo.json", tmp_path, *flags)
        assert code == 1
        err = capsys.readouterr().err
        if flags:
            lines = err.splitlines()
            assert lines[0] == "internal error: boom 100%"
            assert lines[1] == "Traceback (most recent call last):"
            assert lines[-1] == "RuntimeError: boom 100%"
        else:
            assert err == "internal error: boom 100%\n"

    def test_second_main_prints_each_message_once(self, tmp_path, monkeypatch, capsys):
        # the logger's handler is added once, and it writes to the stderr
        # of each call, not to the one of the first
        monkeypatch.setattr(cli, "subgaussian_scan", lambda model: 1 / 0)
        for _ in range(2):
            code, _ = run("check", CONFIGS / "demo.json", tmp_path)
            assert code == 1
            assert capsys.readouterr().err == "internal error: division by zero\n"
        assert len(logging.getLogger("apmopt").handlers) == 1

    def test_application_handler_is_left_alone(self, tmp_path, monkeypatch, capsys):
        # an application that set its own handler on the apmopt logger gets
        # the messages there, on its own stream, and none on stderr
        app = logging.StreamHandler(io.StringIO())
        monkeypatch.setattr(logging.getLogger("apmopt"), "handlers", [app])
        monkeypatch.setattr(cli, "subgaussian_scan", lambda model: 1 / 0)
        code, _ = run("check", CONFIGS / "demo.json", tmp_path)
        assert code == 1
        assert app.stream.getvalue() == "internal error: division by zero\n"
        assert capsys.readouterr().err == ""
        assert logging.getLogger("apmopt").handlers == [app]

    @pytest.mark.parametrize("config, violation", [
        ({**DEMO, "max_iters": 1}, "config: unknown key 'max_iters'"),
        ({**DEMO, "model": {**DEMO["model"], "k": 4}}, "model: unknown key 'k'"),
        ({**DEMO, "model": {**DEMO["model"], "b_rule": {"kind": "explicit", "q": 1.0}}},
         "model.b_rule: unknown key 'q'"),
        ({**DEMO, "model": {**DEMO["model"], "noise": {"family": "rademacher", "p": 0.3}}},
         "model.noise: unknown key 'p'"),
        ({**DEMO, "model": {**DEMO["model"], "noise": [{"family": "rademacher"}] * 3 + [
            {"family": "dyadic_two_sided", "q": 0.1, "p": 0.3}]}},
         "model.noise[3]: unknown key 'p'"),
        ({**DEMO, "utility": {**DEMO["utility"], "xs": [-1, 0, 1]}},
         "utility: unknown key 'xs'"),
        ({**DEMO, "utility": {"kind": "tabulated", "alpha": 0.5, "xs": [-1, 0, 1],
                              "ys": [-1, 0, 0.5]}}, "utility: unknown key 'alpha'"),
        ({**DEMO, "utility": {**DEMO["utility"], "growth": {
            **DEMO["utility"]["growth"], "gamma": 1.0}}},
         "utility.growth: unknown key 'gamma'"),
        ({**DEMO, "solver": {**DEMO["solver"], "grad_tl": 1e-3}},
         "solver: unknown key 'grad_tl'"),
        ({**DEMO, "measure": {**DEMO["measure"], "q": 2.0}}, "measure: unknown key 'q'"),
        ({**DEMO, "scenario": {"mode": "exact", "mod": "monte_carlo"}},
         "scenario: unknown key 'mod'"),
    ], ids=["top", "model", "b-rule", "noise", "noise-list", "utility-power",
            "utility-table", "growth", "solver", "measure", "scenario"])
    def test_unknown_key_exits_1(self, tmp_path, capsys, config, violation):
        # a key that nothing reads is named, not run on the defaults
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(config))
        with pytest.raises(ConfigError) as exc:
            parse_config(str(p))
        assert exc.value.violations == [violation]
        code, _ = run("optimize", p, tmp_path)
        assert code == 1
        assert f"- {violation}\n" in capsys.readouterr().err

    def test_every_shipped_config_parses(self, tmp_path, monkeypatch):
        # every config tools/same_numbers.py runs: configs/, the benchmark's,
        # the 4,001-node tables and the noise variants
        monkeypatch.syspath_prepend(str(ROOT / "tools"))
        import same_numbers
        for name, config in same_numbers.configs(str(ROOT)).items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            parse_config(str(path))

    def test_window_variant_ends_in_a_full_window_and_one_row(self, monkeypatch):
        # the tool imports only the standard library, so it spells out the
        # sampler's key block and window: its variant's last key block is
        # one full window of uniforms and then one row
        monkeypatch.syspath_prepend(str(ROOT / "tools"))
        import same_numbers
        n = same_numbers.configs(str(ROOT))[f"mc_report_{same_numbers.MC_SEED}_n20481"][
            "scenario"]["n"]
        assert n == same_numbers.WINDOW_EDGE_ROWS
        assert n > scenarios._BLOCK and n % scenarios._BLOCK == scenarios._WINDOW + 1

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_leaf_of_another_type_is_named_or_runs(self, data):
        # one leaf of the demo or of the benchmark's Monte Carlo config
        # replaced by a value of another JSON type or a non-finite float:
        # the violation names the leaf's section, or the config runs
        config = data.draw(st.sampled_from(LEAF_CONFIGS))
        path, leaf = data.draw(st.sampled_from(list(_leaves(config))))
        value = data.draw(st.sampled_from(
            [v for v in JSON_VALUES if _json_type(v) != _json_type(leaf)] + NON_FINITE))
        with tempfile.TemporaryDirectory() as tmp:
            p = os.path.join(tmp, "cfg.json")
            with open(p, "w") as fh:
                json.dump(_replaced(config, path, value), fh)
            try:
                parse_config(p)
            except ConfigError as exc:
                keys = [k for k in path if isinstance(k, str)]
                section = ".".join(keys[:-1]) or "config"
                assert any(v.startswith(section) for v in exc.violations), exc.violations
                return
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["check", "--config", p, "--out", os.path.join(tmp, "out")])
            assert code in (0, 2)
            assert "internal error" not in err.getvalue()
            assert "Traceback" not in err.getvalue()

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
        (DEMO, ("--scenarios", "300"), None, "--scenarios"),
    ], ids=["flag-negative", "flag-2**64", "env-negative", "env-2**64",
            "config-negative", "config-2**64", "scenarios-zero", "scenarios-negative",
            "scenarios-exact"])
    def test_bad_seed_or_scenario_count_exits_1(self, tmp_path, monkeypatch, capsys,
                                                config, extra, env, source):
        # each used to exit 1 with "internal error: key must be positive ..."
        # or, for --scenarios 0, to sample the config's n rows and exit 0,
        # and for --scenarios on an exact config to enumerate and exit 0
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
        assert "[0, 2**64)" in err or "at least 1" in err or "reads no scenario count" in err
        assert "internal error" not in err and "Traceback" not in err

    def test_empty_out_exits_1(self, tmp_path, monkeypatch, capsys):
        # --out "" used to exit 0 and write the bundle to the config's
        # output directory, though the config's own empty output is refused
        monkeypatch.delenv("SEED", raising=False)
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**MC_LADDER, "output": "bundle"}))
        code = main(["report", "--config", str(p), "--out", ""])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--out" in err and "empty" in err
        assert "internal error" not in err
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize("noise", [{"family": "standardized_uniform"},
                                       {"family": "dyadic_two_sided", "q": 0.1}],
                             ids=["uniform", "dyadic"])
    @pytest.mark.parametrize("command", ["check", "optimize", "measure", "report"])
    def test_tilt_commands_need_discrete_noise(self, tmp_path, monkeypatch, capsys,
                                               noise, command):
        # measure and report used to exit 1 with "internal error: tilt
        # calibration needs a finite-discrete law" after sampling and, for
        # report, solving; now they stop before any work, naming the key
        monkeypatch.delenv("SEED", raising=False)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**MC_LADDER, "model": {**MC_LADDER["model"],
                                                        "noise": noise}}))
        code, out = run(command, p, tmp_path)
        err = capsys.readouterr().err
        if command in ("check", "optimize"):
            assert code == 0 and (out / "report.json").exists()
            return
        assert code == 1 and not out.exists()
        assert (f"- model.noise: {command} calibrates a tilt on every coordinate, "
                f"which needs a finite-discrete law; coordinate 1 is "
                f"{noise['family']!r}\n") in err
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

    @staticmethod
    def bundles_per_thread_count(config, tmp_path):
        bundles = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
            env.pop("SEED", None)
            out = tmp_path / f"t{threads}"
            subprocess.run([sys.executable, "-m", "apmopt.cli", "report", "--config",
                            str(config), "--out", str(out)],
                           env=env, check=True)
            bundles.append({p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        return bundles

    def test_report_bytes_identical_across_blas_thread_counts(self, tmp_path):
        # the gemm blocks of the verification layer reduce over K alone
        bundles = self.bundles_per_thread_count(CONFIGS / "demo.json", tmp_path)
        assert len(bundles[0]) == 6
        assert bundles[0] == bundles[1]

    def test_large_sampled_ladder_identical_across_blas_thread_counts(self, tmp_path):
        # the demo's 16 rows fit in one block; here the Newton and Rogers
        # passes reduce over several ROW_BLOCK blocks at K = 50
        K = 50
        config = tmp_path / "k50.json"
        config.write_text(json.dumps({
            "model": {"m": 1, "K": K, "mu": [-0.4 / i for i in range(1, K + 1)],
                      "beta": [[0.0]] * (K - 1), "beta_bar": [1.0] * K,
                      "noise": {"family": "rademacher"}},
            "utility": DEMO["utility"],
            "solver": {"grad_tol": 1e-8, "max_iter": 50, "ladder": [25, 50]},
            "measure": DEMO["measure"],
            "scenario": {"mode": "monte_carlo", "n": 3 * optimize.ROW_BLOCK + 1000,
                         "seed": 42},
        }))
        bundles = self.bundles_per_thread_count(config, tmp_path)
        assert len(bundles[0]) == 6
        assert bundles[0] == bundles[1]

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
        # scipy: the closed form and the certificate decide arbitrage; nor
        # dataclasses, whose code generation the records do without
        mc = tmp_path / "mc.json"
        mc.write_text(json.dumps(MC_LADDER))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        env.pop("SEED", None)
        script = (
            "import sys, apmopt.cli\n"
            "def scipy(): return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert 'dataclasses' not in sys.modules\n"
            "print(scipy())\n"
            "out, *configs = sys.argv[1:]\n"
            "for i, config in enumerate(configs):\n"
            "    code = apmopt.cli.main(['report', '--config', config, '--out', f'{out}/{i}'])\n"
            "    assert 'dataclasses' not in sys.modules\n"
            "    print(code, scipy())\n")
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path),
             str(CONFIGS / "demo.json"), str(mc)],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == ["[]", "0 []", "0 []"]

    def test_only_sampling_loads_numpy_random(self, tmp_path):
        # the strategies come from the package's own Philox, so an exact
        # API session and an exact report never import numpy.random; the
        # Monte Carlo report's sampler does
        mc = tmp_path / "mc.json"
        mc.write_text(json.dumps(MC_LADDER))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        env.pop("SEED", None)
        script = (
            "import sys, apmopt, apmopt.cli\n"
            "from apmopt import diagnostics\n"
            "def loaded(): return 'numpy.random' in sys.modules\n"
            "out, demo, mc = sys.argv[1:]\n"
            "model = apmopt.build_market(1, 4, mu=[-0.2, -0.1, -0.05, -0.02],\n"
            "                            beta=[[0.0]] * 3, beta_bar=[1.0] * 4,\n"
            "                            noise=apmopt.rademacher())\n"
            "u = apmopt.appendix_power(0.5, apmopt.GrowthBounds(0.5, 1.5, 1.0, 1.0))\n"
            "s = apmopt.enumerate_scenarios(model)\n"
            "level = apmopt.optimize_truncated(model, u, None, s)\n"
            "Q = apmopt.build_tilted_measure(model)\n"
            "apmopt.verify_pricing(Q, model, s=s)\n"
            "apmopt.measure_moments(Q, s)\n"
            "diagnostics.exp_ui_bound(model, s, 1.0, 25, 3)\n"
            "phis = diagnostics.random_strategies(4, 25, 1.0, 4)\n"
            "diagnostics.holder_chain_check(model, Q, u, phis, s)\n"
            "print(level.converged, loaded())\n"
            "for name, config in (('demo', demo), ('mc', mc)):\n"
            "    code = apmopt.cli.main(['report', '--config', config, '--out', f'{out}/{name}'])\n"
            "    print(code, loaded())\n")
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path),
             str(CONFIGS / "demo.json"), str(mc)],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == ["True False", "0 False", "0 True"]

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
        assert counts["density"] == 0  # exact sets build it in product form
        # a sampled set evaluates the density once, for pricing, the
        # moments and the Hoelder constants alike
        config = tmp_path / "mc.json"
        config.write_text(json.dumps(dict(DEMO, scenario=MC_LADDER["scenario"])))
        code, out = run("report", config, tmp_path)
        assert code == 0 and "holder" in json.loads((out / "report.json").read_text())
        assert counts["density"] == 1

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
