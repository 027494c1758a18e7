import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apmopt import (ArbitrageError, DiscretePayoff, FactorStrategy,
                    GrowthBounds, appendix_power, build_market,
                    build_tilted_measure, enumerate_scenarios, expectation,
                    finite_discrete, measure_moments, psi, rademacher,
                    sample_scenarios, single_asset_measure, solve_tilt,
                    standardized_two_point, verify_pricing)
from apmopt.diagnostics import holder_chain_check
from apmopt.measures import _pricing_residuals, _tilt_residual
from conftest import rademacher_market


class TestPsi:
    def test_at_zero(self):
        assert psi(0.0) == 1.0

    def test_limits(self):
        assert psi(100.0) == pytest.approx(0.5)
        assert psi(-100.0) == pytest.approx(1.5)

    def test_point_value(self):
        assert psi(1.2) == pytest.approx(0.5 + 1.0 / (1.0 + math.exp(1.2)), abs=1e-12)
        assert psi(1.2) == pytest.approx(0.73148, abs=5e-6)

    def test_strictly_decreasing(self):
        xs = np.linspace(-20, 20, 400)
        vals = psi(xs)
        assert np.all(np.diff(vals) < 0)


class TestSolveTilt:
    def test_zero_drift_gives_zero(self):
        assert solve_tilt(rademacher(), 0.0) == 0.0

    def test_residual_at_zero_is_minus_b(self):
        for b in (0.3, -0.2, 0.05):
            assert _tilt_residual(rademacher(), b, 0.0) == pytest.approx(-b, abs=1e-12)

    def test_rademacher_point_two_fine_grid_oracle(self):
        a = solve_tilt(rademacher(), 0.2)
        # independent oracle: scan g(a) = 0.4 psi(0.8a) - 0.6 psi(-1.2a) on a fine grid
        grid = np.arange(-2.0, 0.0, 1e-5)
        g = 0.5 * psi(0.8 * grid) * 0.8 + 0.5 * psi(-1.2 * grid) * (-1.2)
        a_oracle = grid[int(np.argmin(np.abs(g)))]
        assert a == pytest.approx(a_oracle, abs=1e-3)
        assert a == pytest.approx(-0.820, abs=1e-3)

    def test_sign_law(self):
        # the logistic factor ranges over (1/2, 3/2), which on Rademacher
        # noise can only absorb drifts with |b| < 0.5
        for b in (0.1, 0.3, 0.45):
            assert solve_tilt(rademacher(), b) < 0
            assert solve_tilt(rademacher(), -b) > 0

    def test_drift_beyond_tilt_capacity_raises(self):
        from apmopt.measures import TiltBracketError
        with pytest.raises(TiltBracketError):
            solve_tilt(rademacher(), 0.6)

    def test_residual_at_root(self):
        for b in (0.1, -0.25, 0.4):
            a = solve_tilt(rademacher(), b)
            assert abs(_tilt_residual(rademacher(), b, a)) <= 1e-12

    def test_one_sided_rejected(self):
        with pytest.raises(ArbitrageError):
            solve_tilt(rademacher(), -1.0)

    def test_residual_strictly_decreasing(self):
        gen = np.random.Generator(np.random.Philox(key=5))
        for dist in (rademacher(), standardized_two_point(0.3)):
            for b in (-0.4, 0.0, 0.2):
                pairs = np.sort(gen.uniform(-10, 10, (100, 2)), axis=1)
                for a1, a2 in pairs:
                    if a1 == a2:
                        continue
                    assert (_tilt_residual(dist, b, a1)
                            > _tilt_residual(dist, b, a2))


class TestTiltedMeasure:
    def test_zero_drift_is_identity(self, market_zero_drift):
        Q = build_tilted_measure(market_zero_drift)
        s = enumerate_scenarios(market_zero_drift)
        assert np.all(Q.a == 0.0)
        assert Q.density(s.draws) == pytest.approx(np.ones(s.n), abs=1e-15)

    def test_two_coordinate_calibration(self):
        model = rademacher_market([0.2, 0.1])
        Q = build_tilted_measure(model)
        s = enumerate_scenarios(model)
        assert abs(Q.a[1]) < abs(Q.a[0])  # |a| monotone in |b| on this family
        dens = Q.density(s.draws)
        for k in range(2):
            resid = expectation(s, dens * (s.draws[:, k] - model.b[k]))
            assert abs(resid) <= 1e-10

    def test_normalizers_in_psi_range(self):
        model = rademacher_market([0.2, -0.3, 0.05])
        Q = build_tilted_measure(model)
        assert np.all((Q.z > 0.5) & (Q.z < 1.5))

    def test_density_positive_and_normalized(self):
        model = rademacher_market([0.2, -0.3, 0.05])
        Q = build_tilted_measure(model)
        s = enumerate_scenarios(model)
        dens = Q.density(s.draws)
        assert dens.min() > 0.0
        assert expectation(s, dens) == pytest.approx(1.0, abs=1e-12)

    def test_arbitrage_market_hard_error(self):
        model = rademacher_market([-1.0, 0.0])
        with pytest.raises(ArbitrageError):
            build_tilted_measure(model)


class TestSingleAssetMeasure:
    def test_hand_arithmetic_64_36(self):
        payoff = DiscretePayoff((1.0, -1.0), (0.64, 0.36))
        dens, rep = single_asset_measure(payoff, 0.5)
        assert rep["phi_star"] == pytest.approx((16.0 / 9.0) ** 2 - 1.0, abs=1e-6)
        # unnormalized u' values are (0.28125, 0.5): 0.64*0.28125 = 0.36*0.5
        assert abs(rep["E_W[X]"]) <= 1e-9
        assert dens.min() > 0.0

    def test_symmetric_is_identity(self):
        payoff = DiscretePayoff((1.0, -1.0), (0.5, 0.5))
        dens, rep = single_asset_measure(payoff, 0.3)
        assert rep["phi_star"] == 0.0
        assert dens == pytest.approx(np.ones(2))

    def test_hand_arithmetic_negative_optimum(self):
        payoff = DiscretePayoff((0.8, -1.2), (0.5, 0.5))
        dens, rep = single_asset_measure(payoff, 0.5)
        assert rep["phi_star"] == pytest.approx(-25.0 / 24.0, abs=1e-6)
        assert abs(rep["E_W[X]"]) <= 1e-9
        assert rep["density_max"] <= rep["density_bound"] + 1e-12

    def test_one_sided_rejected(self):
        with pytest.raises(ValueError):
            single_asset_measure(DiscretePayoff((1.0, 2.0), (0.5, 0.5)), 0.5)


@st.composite
def discrete_markets(draw):
    """m=1 markets of 1-4 standardized finite-discrete laws with 2-4
    points of positive probability, each b_i strictly inside its law's
    support.  A b_i near an end of the support needs a tilt beyond the
    bracket, so both tilt methods occur."""
    K = draw(st.integers(1, 4))
    noise, b = [], []
    for _ in range(K):
        k = draw(st.integers(2, 4))
        pts = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k,
                                     unique=True)))
        pr = np.array(draw(st.lists(st.integers(1, 9), min_size=k, max_size=k)),
                      dtype=float)
        pr /= pr.sum()
        spread = float(np.sqrt((pts - pts @ pr) ** 2 @ pr))
        if spread < 1e-3:
            pts = np.arange(k, dtype=float)
            spread = float(np.sqrt((pts - pts @ pr) ** 2 @ pr))
        pts = (pts - pts @ pr) / spread
        noise.append(finite_discrete(pts, pr))
        frac = draw(st.sampled_from([1e-3, 0.02]) | st.floats(0.2, 0.8))
        b.append(pts.min() + frac * (pts.max() - pts.min()))
    return build_market(1, K, mu=[-x for x in b], beta=[[0.0]] * (K - 1),
                        beta_bar=[1.0] * K, noise=tuple(noise))


class TestMoments:
    def test_reverse_moments_are_forward_moments_at_minus_w(self):
        model = rademacher_market([0.2, 0.1, -0.05])
        rep = measure_moments(build_tilted_measure(model),
                              enumerate_scenarios(model),
                              w_list=(-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0))
        fwd, rev = rep.moments["dQ/dP"], rep.moments["dP/dQ"]
        for w in rev:
            assert rev[w] == fwd[-w]

    @settings(max_examples=60, deadline=None)
    @given(model=discrete_markets())
    def test_moments_factorise_over_coordinates(self, model):
        # on an exact product set E[(dQ/dP)^w] = prod_i E[f_i^w], with f_i
        # coordinate i's density factor on its own law's support
        Q = build_tilted_measure(model)
        w_list = (-2.0, -1.0, 0.5, 1.0, 2.0)
        rep = measure_moments(Q, enumerate_scenarios(model), w_list)
        factors = [(Q.coordinate_factor(i, np.asarray(d.points)), np.asarray(d.probs))
                   for i, d in enumerate(model.noise)]
        for w in w_list:
            for key, e in (("dQ/dP", w), ("dP/dQ", -w)):
                oracle = math.prod(float(p @ f ** e) for f, p in factors)
                assert rep.moments[key][w] == pytest.approx(oracle, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(model=discrete_markets(),
           growth=st.sampled_from([GrowthBounds(0.5, 1.5, 1.0, 1.0),
                                   GrowthBounds(0.3, 2.0, 1.0, 1.0)]))
    @example(model=rademacher_market([0.65, 0.1]),  # one coordinate per method
             growth=GrowthBounds(0.5, 1.5, 1.0, 1.0))
    def test_holder_constants_factorise_over_coordinates(self, model, growth):
        # C' and C'' are powers of E[(dQ/dP)^e], which factorises as above
        Q = build_tilted_measure(model)
        u = appendix_power(0.5, growth)
        s = enumerate_scenarios(model)
        strategies = np.zeros((1, model.K))
        if verify_pricing(Q, model, s=s)["max_residual"] > 1e-10:
            with pytest.raises(ValueError, match="tolerance"):
                holder_chain_check(model, Q, u, strategies, s)
            return
        out = holder_chain_check(model, Q, u, strategies, s)
        factors = [(Q.coordinate_factor(i, np.asarray(d.points)), np.asarray(d.probs))
                   for i, d in enumerate(model.noise)]
        a, beta = growth.alpha, growth.beta

        def moment(e):
            return math.prod(float(p @ f ** e) for f, p in factors)

        c_prime = moment(-a / (1.0 - a)) ** (1.0 - a)
        c_dprime = moment(beta / (beta - 1.0)) ** (a * (beta - 1.0) / beta)
        assert out["C_prime"] == pytest.approx(c_prime, rel=1e-12)
        assert out["C_dprime"] == pytest.approx(c_dprime, rel=1e-12)

    def test_identity_measure_all_ones(self, market_zero_drift):
        Q = build_tilted_measure(market_zero_drift)
        s = enumerate_scenarios(market_zero_drift)
        rep = measure_moments(Q, s)
        for tab in rep.moments.values():
            for v in tab.values():
                assert v == pytest.approx(1.0, abs=1e-12)

    def test_w_one_is_exactly_one(self):
        model = rademacher_market([0.2, 0.1])
        Q = build_tilted_measure(model)
        s = enumerate_scenarios(model)
        rep = measure_moments(Q, s, w_list=(1.0,))
        assert rep.moments["dQ/dP"][1.0] == pytest.approx(1.0, abs=1e-12)

    def test_log_moment_cap(self):
        model = rademacher_market([0.2, 0.1])
        Q = build_tilted_measure(model)
        s = enumerate_scenarios(model)
        rep = measure_moments(Q, s, w_list=(2.0, -2.0))
        a = Q.a
        quad = float(np.sum(a ** 2) + np.sum(model.b ** 2))
        for v in rep.moments["dQ/dP"].values():
            assert v > 0 and math.isfinite(v)
            assert math.log(v) <= rep.fitted_c * quad + 1e-12


class TestPricing:
    def test_all_assets_priced(self):
        model = rademacher_market([0.2, 0.1, -0.05])
        Q = build_tilted_measure(model)
        out = verify_pricing(Q, model)
        assert out["max_residual"] <= 1e-10

    def test_cross_loading_assets_priced(self):
        from apmopt import build_market
        model = build_market(1, 3, mu=[0.1, -0.05, 0.2],
                             beta=[[0.4], [-0.8]], beta_bar=[1.0, 2.0, -1.5],
                             noise=rademacher())
        Q = build_tilted_measure(model)
        out = verify_pricing(Q, model)
        assert out["max_residual"] <= 1e-10

    def test_zero_strategy_zero_residual(self, market_k3):
        Q = build_tilted_measure(market_k3)
        out = verify_pricing(Q, market_k3,
                             strategies=(FactorStrategy(np.zeros(3)),))
        assert out["strategy_residuals"][0] == 0.0

    def test_strategy_pricing(self, market_k3):
        Q = build_tilted_measure(market_k3)
        strat = FactorStrategy(np.array([1.0, -2.0, 0.5]))
        out = verify_pricing(Q, market_k3, strategies=(strat,))
        assert abs(out["strategy_residuals"][0]) <= 1e-10


@st.composite
def cross_loaded_markets(draw):
    """m in {1, 2}, K <= 5, random cross and own loadings, and i.i.d.
    two- or three-point noise."""
    m = draw(st.integers(1, 2))
    K = draw(st.integers(m, 5))
    coef = st.floats(-2.0, 2.0)
    own = st.floats(0.3, 2.0) | st.floats(-2.0, -0.3)
    k = draw(st.integers(2, 3))
    pts = np.sort(draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k,
                                unique=True))).astype(float)
    pr = np.array(draw(st.lists(st.integers(1, 9), min_size=k, max_size=k)), float)
    pr /= pr.sum()
    pts = (pts - pts @ pr) / np.sqrt((pts - pts @ pr) ** 2 @ pr)
    return build_market(m, K, mu=draw(st.lists(coef, min_size=K, max_size=K)),
                        beta=draw(st.lists(st.lists(coef, min_size=m, max_size=m),
                                           min_size=K - m, max_size=K - m)),
                        beta_bar=draw(st.lists(own, min_size=K, max_size=K)),
                        noise=finite_discrete(pts, pr))


class TestPricingOracle:
    @settings(max_examples=100, deadline=None)
    @given(model=cross_loaded_markets(), exact=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_residuals_match_row_payoff_sums(self, model, exact, seed):
        # an arbitrary positive density makes the residuals O(1), so the
        # comparison sees more than rounding noise
        s = enumerate_scenarios(model) if exact else sample_scenarios(model, 200, seed)
        gen = np.random.Generator(np.random.Philox(key=seed))
        dens = gen.uniform(0.1, 3.0, s.n)
        strategies = tuple(FactorStrategy(gen.uniform(-2.0, 2.0, size))
                           for size in range(1, model.K + 1))
        out = _pricing_residuals(model, s, dens, strategies)
        centered = s.draws - model.b
        B = model.loading_matrix()
        payoffs = ([[math.fsum(B[i] * row) for row in centered] for i in range(model.K)]
                   + [[math.fsum(f.phi * row[:f.phi.size]) for row in centered]
                      for f in strategies])
        got = out["asset_residuals"] + out["strategy_residuals"]
        assert len(got) == len(payoffs)
        wd = s.weights * dens
        for resid, pay in zip(got, map(np.array, payoffs)):
            assert abs(resid - math.fsum(wd * pay)) <= 1e-12 * math.fsum(wd * np.abs(pay))

