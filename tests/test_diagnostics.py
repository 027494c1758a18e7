import json
import math
import os
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmopt import (GrowthBounds, appendix_power, build_market,
                    build_tilted_measure, dyadic_two_sided,
                    enumerate_scenarios, eval_u, eval_u_prime, expectation,
                    rademacher, sample_scenarios, standardized_two_point,
                    tabulated)
from apmopt import diagnostics
from apmopt.diagnostics import (assemble_report, check_assumption_relevant,
                                emit_report, exp_ui_bound, holder_chain_check,
                                random_strategies, subgaussian_scan)
from apmopt.optimize import ROW_BLOCK
from conftest import rademacher_market, stdout_per_blas_thread_count


BLOCK_EDGES = (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 17)
CERTIFIED_UTILITIES = (
    appendix_power(0.5, GrowthBounds(0.5, 1.5, 1.0, 1.0)),
    tabulated((-10.0, -1.0, 0.0, 1.0, 10.0), (-30.0, -2.0, 0.2, 1.0, 3.0),
              GrowthBounds(0.5, 1.5, 2.0, 2.0)),
)


@st.composite
def sampled_markets(draw):
    """m=1 markets of 1-8 coordinates, each Rademacher or a standardized
    two-point law, with b_i strictly inside its support."""
    K = draw(st.integers(1, 8))
    noise, b = [], []
    for _ in range(K):
        law = draw(st.sampled_from([rademacher(), standardized_two_point(0.3),
                                    standardized_two_point(0.8)]))
        frac = draw(st.floats(0.05, 0.95))
        noise.append(law)
        b.append(min(law.points) + frac * (max(law.points) - min(law.points)))
    return build_market(1, K, mu=[-x for x in b], beta=[[0.0]] * (K - 1),
                        beta_bar=[1.0] * K, noise=tuple(noise))


def side_bound(s, v, slope, X, phi):
    """How far a sum over the row blocks may stray from expectation(s, v)
    with v = f(X @ phi): expectation's pairwise rounding bound
    log2(n) 2^-52 sum |w v| once for each summation order, plus the
    payoffs, which the block gemm and this whole-array product may round
    differently, by up to k 2^-52 sum_i |phi_i x_i| per row, times
    |f'| <= slope."""
    k = phi.size
    dy = k * 2.0 ** -52 * (np.abs(X[:, :k]) @ np.abs(phi))
    return (2.0 * math.log2(s.n) * 2.0 ** -52 * float(np.sum(np.abs(s.weights * v)))
            + float(np.sum(s.weights * slope * dy)))


def assert_margins_match_oracle(out, model, u, strategies, s):
    """Each margin against the two-evaluation oracle: E[u(Y+)] and
    E[u(-Y-)] from whole-array expectations, each within side_bound, and
    the margin, which falls as either side rises, between the margins at
    the two ends of those intervals (to 8 ulps of the chain's terms)."""
    g = u.growth
    slope = float(eval_u_prime(u, -1e3))  # concave u: the largest slope right of -1e3

    def margin(lhs, neg):
        inner = (-neg / g.C2 + 1.0) ** (g.alpha / g.beta)
        rhs = g.C1 * (out["C_prime"] * out["C_dprime"] * inner + 1.0)
        return rhs - lhs, 8 * 2.0 ** -52 * (abs(rhs) + abs(lhs))

    X = s.draws - model.b
    assert len(out["margins"]) == len(strategies)
    for m, phi in zip(out["margins"], strategies):
        y = X[:, :phi.size] @ phi
        gains, losses = eval_u(u, np.maximum(y, 0.0)), eval_u(u, -np.maximum(-y, 0.0))
        lhs, neg = expectation(s, gains), expectation(s, losses)
        tl = side_bound(s, gains, slope, X, phi)
        tn = side_bound(s, losses, slope, X, phi)
        lo, slack_lo = margin(lhs + tl, neg + tn)
        hi, slack_hi = margin(lhs - tl, neg - tn)
        assert lo - slack_lo <= m <= hi + slack_hi


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


class TestStrategySums:
    def test_identical_across_blas_thread_counts(self):
        # the payoffs and their sums: every block's gemm has ROW_BLOCK
        # columns; unpadded, a ragged last block (ROW_BLOCK - 1 columns,
        # say) is threaded with other last bits
        code = ("import hashlib, numpy as np\n"
                "from apmopt import ScenarioSet, diagnostics, optimize\n"
                "for n in (optimize.ROW_BLOCK - 1, 3 * optimize.ROW_BLOCK + 17):\n"
                "    for K in (3, 19, 50):\n"
                "        gen = np.random.Generator(np.random.Philox(key=K))\n"
                "        draws = gen.standard_normal((n, K))\n"
                "        s = ScenarioSet(draws, np.full(n, 1.0 / n), 'test')\n"
                "        phis = gen.uniform(-1.0, 1.0, (25, K))\n"
                "        h = hashlib.sha256()\n"
                "        def values(y):\n"
                "            h.update(y.tobytes())\n"
                "            return (y,)\n"
                "        h.update(diagnostics._strategy_sums(s, phis, draws[0], values))\n"
                "        print(n, K, h.hexdigest())\n")
        one, two = stdout_per_blas_thread_count(code)
        assert one == two


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

    @pytest.mark.parametrize("u", CERTIFIED_UTILITIES,
                             ids=["appendix_power", "tabulated_u0_nonzero"])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
    def test_margins_match_two_evaluation_oracle(self, market_k3, u, exact):
        s = (enumerate_scenarios(market_k3) if exact
             else sample_scenarios(market_k3, 500, 5))
        strategies = random_strategies(3, 20, 2.0, seed=6)
        strategies[0] = 0.0
        out = holder_chain_check(market_k3, build_tilted_measure(market_k3), u,
                                 strategies, s)
        assert_margins_match_oracle(out, market_k3, u, strategies, s)

    @settings(max_examples=40, deadline=None)
    @given(model=sampled_markets(), n=st.sampled_from(BLOCK_EDGES),
           u=st.sampled_from(CERTIFIED_UTILITIES), count=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_block_walk_matches_whole_array_oracles(self, model, n, u, count,
                                                    seed, data):
        # the row walk's first, last, partial and exactly full blocks
        s = sample_scenarios(model, n, seed)
        exp_out = exp_ui_bound(model, s, delta=2.0, trials=count, seed=seed)
        phis = random_strategies(model.K, count, 2.0, seed)
        assert len(exp_out["measurements"]) == count
        for phi, row in zip(phis, exp_out["measurements"]):
            y = s.draws @ phi
            v = np.exp(np.abs(y))
            assert abs(row["value"] - expectation(s, v)) <= side_bound(
                s, v, v, s.draws, phi)
        k = data.draw(st.integers(1, model.K))
        strategies = random_strategies(k, count, 2.0, seed + 1)
        out = holder_chain_check(model, build_tilted_measure(model), u,
                                 strategies, s)
        assert_margins_match_oracle(out, model, u, strategies, s)

    def test_no_strategies_refused(self, market_k3, certified_u):
        Q = build_tilted_measure(market_k3)
        s = enumerate_scenarios(market_k3)
        with pytest.raises(ValueError, match="at least one strategy"):
            holder_chain_check(market_k3, Q, certified_u, np.zeros((0, 3)), s)

    def test_strategy_wider_than_market_refused(self, market_k3, certified_u):
        Q = build_tilted_measure(market_k3)
        s = enumerate_scenarios(market_k3)
        with pytest.raises(ValueError, match="4 coordinates; the market has K=3"):
            holder_chain_check(market_k3, Q, certified_u, np.zeros((2, 4)), s)

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
