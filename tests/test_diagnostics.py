import json
import math
import os
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from apmopt import (GrowthBounds, appendix_power, build_market,
                    build_tilted_measure, dyadic_two_sided,
                    enumerate_scenarios, eval_u, expectation,
                    sample_scenarios, tabulated)
from apmopt import diagnostics
from apmopt.diagnostics import (assemble_report, check_assumption_relevant,
                                emit_report, exp_ui_bound, holder_chain_check,
                                random_strategies, subgaussian_scan)
from conftest import rademacher_market


class TestRandomStrategies:
    def test_norm_schedule(self):
        phis = random_strategies(4, 10, 1.0, seed=1)
        norms = np.linalg.norm(phis, axis=1)
        assert norms == pytest.approx(np.arange(1, 11) / 10.0)

    def test_seeded(self):
        assert np.array_equal(random_strategies(4, 5, 1.0, 7),
                              random_strategies(4, 5, 1.0, 7))


class TestExpMomentBound:
    def test_cosh_product_cap(self, market_k3):
        # Rademacher: E[e^{sum phi eps}] = prod cosh(phi_i) <= e^{||phi||^2/2}
        s = enumerate_scenarios(market_k3)
        out = exp_ui_bound(market_k3, s, delta=1.0, trials=100, seed=3)
        for row in out["measurements"]:
            assert row["value"] <= 2.0 * math.exp(0.5 * row["norm"] ** 2) * (1 + 1e-9)
        assert out["fitted_C"] <= 0.5 + 1e-9

    def test_zero_strategy_value(self, market_k3):
        s = enumerate_scenarios(market_k3)
        z = np.abs(s.draws @ np.zeros(3))
        assert float(np.sum(s.weights * np.exp(z))) == 1.0 <= 2.0

    def test_single_coordinate_exact(self):
        # phi = (delta): E[e^{|delta eps|}] = e^{delta} for Rademacher
        model = rademacher_market([0.0])
        s = enumerate_scenarios(model)
        val = float(np.sum(s.weights * np.exp(np.abs(s.draws @ np.array([0.7])))))
        assert val == pytest.approx(math.exp(0.7))

    def test_tail_expectation_decay(self, market_k3):
        # uniform integrability witness: E[Z^2 1{Z^2 > T}] decays through T
        s = enumerate_scenarios(market_k3)
        phis = random_strategies(3, 50, 1.0, seed=9)
        for T_small, T_big in [(10.0, 100.0), (100.0, 1000.0)]:
            for phi in phis:
                z2 = (s.draws @ phi) ** 2
                small = float(np.sum(s.weights * z2 * (z2 > T_small)))
                big = float(np.sum(s.weights * z2 * (z2 > T_big)))
                assert big <= small
                assert float(np.sum(s.weights * z2 * (z2 > 1000.0))) < 1e-6


class TestHolderChain:
    @pytest.fixture
    def certified_u(self):
        return appendix_power(0.5, GrowthBounds(0.5, 1.5, 1.0, 1.0))

    def test_margins_nonnegative_identity_measure(self, market_zero_drift,
                                                  certified_u):
        # b = 0: Q = P, C' = C'' = 1
        Q = build_tilted_measure(market_zero_drift)
        s = enumerate_scenarios(market_zero_drift)
        strategies = random_strategies(3, 100, 1.0, seed=2)
        out = holder_chain_check(market_zero_drift, Q, certified_u, strategies, s)
        assert out["C_prime"] == pytest.approx(1.0, abs=1e-12)
        assert out["C_dprime"] == pytest.approx(1.0, abs=1e-12)
        assert out["min_margin"] >= -1e-9

    def test_margins_nonnegative_tilted(self, market_k3, certified_u):
        Q = build_tilted_measure(market_k3)
        s = enumerate_scenarios(market_k3)
        strategies = random_strategies(3, 100, 1.0, seed=4)
        out = holder_chain_check(market_k3, Q, certified_u, strategies, s)
        assert out["min_margin"] >= -1e-9

    def test_zero_strategy_positive_margin(self, market_k3, certified_u):
        Q = build_tilted_measure(market_k3)
        s = enumerate_scenarios(market_k3)
        out = holder_chain_check(market_k3, Q, certified_u, np.zeros((1, 3)), s)
        assert out["margins"][0] > 0

    def test_uncertified_refused(self, market_k3):
        Q = build_tilted_measure(market_k3)
        s = enumerate_scenarios(market_k3)
        with pytest.raises(ValueError, match="certificate"):
            holder_chain_check(market_k3, Q, appendix_power(0.5),
                               np.zeros((1, 3)), s)

    @pytest.mark.parametrize("u", [
        appendix_power(0.5, GrowthBounds(0.5, 1.5, 1.0, 1.0)),
        tabulated((-10.0, -1.0, 0.0, 1.0, 10.0), (-30.0, -2.0, 0.2, 1.0, 3.0),
                  GrowthBounds(0.5, 1.5, 2.0, 2.0)),
    ], ids=["appendix_power", "tabulated_u0_nonzero"])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
    def test_margins_match_two_evaluation_oracle(self, market_k3, u, exact):
        s = (enumerate_scenarios(market_k3) if exact
             else sample_scenarios(market_k3, 500, 5))
        strategies = random_strategies(3, 20, 2.0, seed=6)
        strategies[0] = 0.0
        out = holder_chain_check(market_k3, build_tilted_measure(market_k3), u,
                                 strategies, s)
        g = u.growth
        oracle = []
        for phi in strategies:
            y = (s.draws - market_k3.b) @ phi
            lhs = expectation(s, eval_u(u, np.maximum(y, 0.0)))
            neg = expectation(s, eval_u(u, -np.maximum(-y, 0.0)))
            inner = (-neg / g.C2 + 1.0) ** (g.alpha / g.beta)
            oracle.append(g.C1 * (out["C_prime"] * out["C_dprime"] * inner + 1.0) - lhs)
        assert out["margins"] == oracle

    def test_mispriced_measure_refused_on_exact_set(self, market_k3, certified_u):
        # the guard reads the product-form means; a wrong tilt must trip it
        Q = build_tilted_measure(market_k3)
        coords = (replace(Q.coords[0], a=Q.coords[0].a + 0.1), *Q.coords[1:])
        bad = replace(Q, coords=coords)
        s = enumerate_scenarios(market_k3)
        with pytest.raises(ValueError, match="does not price"):
            holder_chain_check(market_k3, bad, certified_u, np.zeros((1, 3)), s)
        holder_chain_check(market_k3, Q, certified_u, np.zeros((1, 3)), s)

    def test_sampled_set_skips_pricing_guard(self, market_k3, certified_u,
                                             monkeypatch):
        calls = []
        monkeypatch.setattr(diagnostics, "_coordinate_means",
                            lambda *args: calls.append(args))
        s = sample_scenarios(market_k3, 200, 1)
        holder_chain_check(market_k3, build_tilted_measure(market_k3),
                           certified_u, np.zeros((1, 3)), s)
        assert calls == []

    def test_growth_certificate_reported(self, market_k3, certified_u):
        # appendix_power is linear below 0, so the -|x|^1.5 cap fails there
        Q = build_tilted_measure(market_k3)
        s = enumerate_scenarios(market_k3)
        out = holder_chain_check(market_k3, Q, certified_u, np.zeros((1, 3)), s)
        assert out["growth_certified"] is False
        xs = np.concatenate([-np.logspace(8, -8, 400), [0.0], np.logspace(-8, 8, 400)])
        steep = tabulated(xs, np.where(xs >= 0, np.maximum(xs, 0) ** 0.5,
                                       -np.abs(xs) ** 1.5), certified_u.growth)
        out = holder_chain_check(market_k3, Q, steep, np.zeros((1, 3)), s)
        assert out["growth_certified"] is True


class TestAssumptionSets:
    def test_bounded_noise_fails_relevant_passes_novum(self, market_k3):
        # the headline split: bounded noise kills the tail condition but
        # keeps exponential moments finite
        rel = check_assumption_relevant(market_k3)
        assert not rel["tails_ok"]
        assert rel["first_failing_x"] == 1.0  # strict tail: P(eps > 1) = 0
        assert subgaussian_scan(market_k3)["verdict"] == "holds"

    def test_unbounded_fixture_passes_relevant_fails_novum(self):
        model = build_market(1, 2, mu=[0.0, 0.0], beta=[[0.0]],
                             beta_bar=[1.0, 1.0], noise=dyadic_two_sided(0.2))
        rel = check_assumption_relevant(model)
        assert rel["tails_ok"] and rel["ui_ok"]
        scan = subgaussian_scan(model)
        assert scan["verdict"] == "fails"
        assert scan["largest_passing_gamma"] is None

    def test_truncated_moment_zero_beyond_support(self, market_k3):
        # Rademacher: E[eps^2 1{|eps| >= N}] is 1 at N = 1 and 0 beyond
        rel = check_assumption_relevant(market_k3)
        assert [(row["N"], row["sup_trunc_moment"]) for row in rel["ui_trace"]] == [
            (1.0, 1.0), (2.0, 0.0), (4.0, 0.0), (8.0, 0.0)]


class TestReportEmission:
    def test_deterministic_bytes(self, market_k3, tmp_path):
        sections = {
            "relevant": check_assumption_relevant(market_k3),
            "subgauss": subgaussian_scan(market_k3),
            "seed": 7,
        }
        report = assemble_report(market_k3, sections)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        files1 = emit_report(report, str(d1))
        files2 = emit_report(report, str(d2))
        for f1, f2 in zip(files1, files2):
            assert pathlib.Path(f1).read_bytes() == pathlib.Path(f2).read_bytes()

    def test_missing_sections_marked_skipped(self, market_k3, tmp_path):
        report = assemble_report(market_k3, {})
        assert report["optimizer"] == "skipped"
        assert report["verdicts"]["relevant_tails"] == "skipped"
        emit_report(report, str(tmp_path))
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["verdicts"]["assumption_b"] == "holds"

    def test_bundle_has_all_verdict_fields(self, market_k3, tmp_path):
        sections = {
            "relevant": check_assumption_relevant(market_k3),
            "subgauss": subgaussian_scan(market_k3),
        }
        report = assemble_report(market_k3, sections)
        assert set(report["verdicts"]) == {
            "assumption_b", "novum_subgauss", "novum_na",
            "relevant_tails", "relevant_ui",
        }
        files = emit_report(report, str(tmp_path))
        assert all(os.path.exists(f) for f in files)
