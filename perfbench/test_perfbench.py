"""Tests of the benchmark itself (not part of the library suite).

    python3 -m pytest perfbench -q

The repeat test makes two short traced runs of every workload and takes
about two minutes on two cores.
"""

import json
import os
import re
import shutil
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs of each workload, one operation pair each."""
    return {name: [run.run_workload(name, seed=5, seconds=0.1, trace=True)
                   for _ in range(2)]
            for name in run.WORKLOADS}


def test_metric_names_have_units(spec):
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert sorted(names) == sorted(run.WORKLOADS)
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
    assert len({m["name"] for m in metrics}) == len(metrics)


def test_plain_run_reports_every_end_to_end_metric(spec):
    shutil.rmtree(run.WORK, ignore_errors=True)     # as in a fresh checkout
    out = run.run_workload("desk_report", seed=5, seconds=0.1, trace=False)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_child_deadline_follows_the_run_length():
    runner = run.Runner(run.WORKLOADS["desk_report"], seed=5, seconds=600)
    try:
        assert runner.deadline - time.perf_counter() > 600
    finally:
        runner.close()
    assert runner.probe.returncode == 0


def test_traced_runs_report_every_per_layer_metric(spec, traced_runs):
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, outs in traced_runs.items():
        for out in outs:
            assert {k: v["unit"] for k, v in out["metrics"].items()} == expected, name


def test_counts_repeat_across_traced_runs(traced_runs):
    for name, (a, b) in traced_runs.items():
        counted = [k for k in a["metrics"]
                   if k.endswith(".calls")
                   or k in ("optimize.iterations", "scenarios.rows")]
        for key in counted:
            assert a["metrics"][key]["value"] == b["metrics"][key]["value"], (name, key)


def test_desk_report_call_counts(traced_runs):
    m = traced_runs["desk_report"][0]["metrics"]
    assert m["measures.build_tilted_measure.calls"]["value"] == 2
    assert m["measures.verify_pricing.calls"]["value"] == 3
    assert m["scenarios.enumerate_scenarios.calls"]["value"] == 4
    assert m["optimize.saa_objective.calls"]["value"] == 1441
    assert m["scenarios.expectation.calls"]["value"] == 329


@pytest.mark.parametrize("make", [workloads.exact_session_config,
                                  workloads.mc_report_config])
@pytest.mark.parametrize("seed", [0, 12345])
def test_generated_configs_parse_and_match_b_rule(tmp_path, make, seed):
    from apmopt.config import parse_config
    path = tmp_path / "config.json"
    path.write_text(json.dumps(make(seed)))
    cfg = parse_config(str(path))
    rule = cfg.model.spec.b_rule
    K = cfg.model.K
    from_rule = rule.c * np.arange(1, K + 1, dtype=float) ** -rule.p
    np.testing.assert_allclose(cfg.model.b, from_rule, rtol=1e-15, atol=0)
    assert cfg.seed == seed


def test_session_setup_builds_the_configured_market():
    model, u = workloads.session_setup(workloads.exact_session_config(3))
    assert model.K == workloads.EXACT_K and u.certified
    np.testing.assert_allclose(model.b, workloads.DRIFT_C / np.arange(1, model.K + 1))


def _bundle(tmp_path):
    from apmopt.diagnostics import emit_report
    out = tmp_path / "out"
    emit_report({"verdicts": {"assumption_b": "holds"},
                 "measure": {"max_pricing_residual": 1e-13},
                 "assumption_b_partial_sums": [0.16, 0.2]}, str(out))
    return str(out)


def test_corrupted_bundle_is_an_error(tmp_path):
    out = _bundle(tmp_path)
    checks, digest, size = workloads.cli_checks(0, out, None, exact=True)
    assert all(checks.values()) and size > 0
    with open(os.path.join(out, "tables", "assumption_b.csv"), "ab") as fh:
        fh.write(b"x")
    checks = workloads.cli_checks(0, out, digest, exact=True)[0]
    assert not checks["bundle"]
    assert workloads.failed_checks(checks) == ["bundle"]
    op = run.Op(wall_s=1.0, rss_mb=1.0, cpu_s=1.0, checks=checks)
    assert run._checks_ok([op]) == (3, 4)


def test_bad_exit_report_and_residual_are_errors(tmp_path):
    out = _bundle(tmp_path)
    assert not workloads.cli_checks(2, out, None, exact=True)[0]["exit_code"]
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump({"verdicts": {}, "measure": {"max_pricing_residual": 1e-9}}, fh)
    assert not workloads.cli_checks(0, out, None, exact=True)[0]["pricing"]
    assert "pricing" not in workloads.cli_checks(0, out, None, exact=False)[0]
    os.remove(os.path.join(out, "report.json"))
    assert not workloads.cli_checks(0, out, None, exact=True)[0]["report"]


def test_negative_witness_is_an_error():
    import apmopt
    model = apmopt.build_market(1, 2, [-0.2, -0.1], [[0.0]], [1.0, 1.0],
                                apmopt.rademacher())
    s = apmopt.enumerate_scenarios(model)
    assert workloads.witness_valid(model, s, None)
    assert not workloads.witness_valid(model, s, np.array([1.0, 0.0]))

    class Level:
        value = 0.01

    out = {"model": model, "s": s, "witness": np.array([1.0, 0.0]),
           "level": Level(), "pricing": {"max_residual": 0.0},
           "moments": apmopt.MeasureReport({"dQ/dP": {1.0: 1.0}}, 0.0, (), 0.0),
           "exp_moment": {"fitted_C": 0.5}, "holder": {"min_margin": 0.1}}
    checks = workloads.session_checks(out, K=2)
    assert [k for k, ok in checks.items() if not ok] == ["lp_witness"]
    op = run.Op(wall_s=1.0, rss_mb=1.0, cpu_s=1.0, checks=checks)
    assert run._checks_ok([op]) == (6, 7)
