import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apmopt import (ArbitrageError, DiscretePayoff, EnumerationCapError, FactorStrategy,
                    GrowthBounds, appendix_power, build_market,
                    build_tilted_measure, enumerate_scenarios, eval_u_prime,
                    expectation, finite_discrete, measure_moments, psi, rademacher,
                    sample_scenarios, single_asset_measure, solve_tilt,
                    standardized_two_point, standardized_uniform, verify_pricing)
from apmopt import measures, optimize
from apmopt.diagnostics import holder_chain_check
from apmopt.measures import (TILT_TOL, TiltBracketError, TiltedMeasure,
                             _coordinate_means, _density_moments, _residuals,
                             _row_means, _support_factors)
from conftest import rademacher_market


def tilt_residual(dist, b, a):
    """g(a) = E[psi(a (eps - b)) (eps - b)], strictly decreasing in a."""
    x, p = np.asarray(dist.points) - b, np.asarray(dist.probs)
    return math.fsum(p * psi(a * x) * x)


def standardized(pts, weights):
    """The law on pts with weights, centred and scaled to variance 1."""
    pr = np.array(weights[:len(pts)], dtype=float) / sum(weights[:len(pts)])
    pts = np.array(pts)
    spread = float(np.sqrt((pts - pts @ pr) ** 2 @ pr))
    assume(spread > 1e-3)
    return finite_discrete((pts - pts @ pr) / spread, pr)


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
            assert tilt_residual(rademacher(), b, 0.0) == pytest.approx(-b, abs=1e-12)

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
        with pytest.raises(TiltBracketError):
            solve_tilt(rademacher(), 0.6)

    def test_residual_at_root(self):
        for b in (0.1, -0.25, 0.4):
            a = solve_tilt(rademacher(), b)
            assert abs(tilt_residual(rademacher(), b, a)) <= 1e-12

    def test_one_sided_rejected(self):
        with pytest.raises(ArbitrageError):
            solve_tilt(rademacher(), -1.0)

    @settings(max_examples=200, deadline=None)
    @given(pts=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=5, unique=True),
           weights=st.lists(st.integers(1, 9), min_size=5, max_size=5),
           frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_tilt_prices_or_signals_fallback(self, pts, weights, frac):
        # any standardized finite law and any b strictly inside its support:
        # the tilt meets TILT_TOL or says it cannot, and the measure (tilt or
        # fallback) prices the coordinate
        law = standardized(pts, weights)
        lo, hi = min(law.points), max(law.points)
        b = lo + frac * (hi - lo)
        assume(lo < b < hi)
        try:
            a = solve_tilt(law, b)
        except TiltBracketError:
            pass
        else:
            assert abs(tilt_residual(law, b, a)) <= TILT_TOL
        model = build_market(1, 1, mu=[-b], beta=[], beta_bar=[1.0], noise=(law,))
        assert verify_pricing(build_tilted_measure(model), model)["max_residual"] <= 1e-10

    def test_residual_strictly_decreasing(self):
        gen = np.random.Generator(np.random.Philox(key=5))
        for dist in (rademacher(), standardized_two_point(0.3)):
            for b in (-0.4, 0.0, 0.2):
                pairs = np.sort(gen.uniform(-10, 10, (100, 2)), axis=1)
                for a1, a2 in pairs:
                    if a1 == a2:
                        continue
                    assert (tilt_residual(dist, b, a1)
                            > tilt_residual(dist, b, a2))


def scalar_bisect(h, lo, hi, tol, max_iter):
    """The one-lane bisection: stop at the first midpoint with |h| <= tol
    or a bracket narrower than 1e-15 relative to it."""
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        hm = h(mid)
        if abs(hm) <= tol or hi - lo < 1e-15 * max(1.0, abs(mid)):
            break
        if hm > 0:
            lo = mid
        else:
            hi = mid
    return mid, hm


def scalar_tilt(law, b):
    """The logistic tilt of law around b by a scalar bisection, or the
    message of the TiltBracketError that says it has none."""
    g = lambda a: tilt_residual(law, b, a)
    if b == 0.0:
        return 0.0
    lo, hi = (-measures.TILT_BRACKET, 0.0) if b > 0 else (0.0, measures.TILT_BRACKET)
    if g(lo) < 0 or g(hi) > 0:
        return f"no sign change of the tilt residual within |a| <= {measures.TILT_BRACKET}"
    a, ga = scalar_bisect(g, lo, hi, TILT_TOL, 200)
    return a if abs(ga) <= TILT_TOL else "bisection stalled above tolerance"


def scalar_single_asset(law, b, u):
    """phi* of E[u(phi (eps - b))] by bracket doubling and a scalar
    bisection of its derivative."""
    x, p = np.asarray(law.points) - b, np.asarray(law.probs)
    h = lambda phi: math.fsum(p * eval_u_prime(u, phi * x) * x)
    lo, hi = -1.0, 1.0
    while h(lo) <= 0:
        lo *= 2.0
    while h(hi) >= 0:
        hi *= 2.0
    phi, _ = scalar_bisect(h, lo, hi, optimize.SINGLE_ASSET_TOL, 400)
    return 0.0 if abs(h(0.0)) <= optimize.SINGLE_ASSET_TOL else phi


LANE = st.tuples(
    st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=5, unique=True),
    st.lists(st.integers(1, 9), min_size=5, max_size=5),
    st.sampled_from(["zero", "inside", "inside", "inside", "edge"]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
RADEMACHER_LANE = ([-1.0, 1.0], [1] * 5)
TWO_POINT_LANE = ([-2.0, 0.5], [1, 4, 1, 1, 1])


class TestLockstepTilt:
    """build_tilted_measure calibrates every coordinate in one lockstep
    bisection; each lane must be its own scalar bisection, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(lanes=st.lists(LANE, min_size=1, max_size=6),
           one_sided=st.one_of(st.none(), st.tuples(st.integers(0, 6), st.booleans())))
    @example(lanes=[(*RADEMACHER_LANE, "zero", 0.5), (*RADEMACHER_LANE, "inside", 0.6),
                    (*RADEMACHER_LANE, "inside", 0.8), (*RADEMACHER_LANE, "edge", 0.9),
                    (*RADEMACHER_LANE, "inside", 0.35), (*TWO_POINT_LANE, "inside", 0.3),
                    (*TWO_POINT_LANE, "inside", 0.9)],
             one_sided=None)
    @example(lanes=[(*RADEMACHER_LANE, "inside", 0.6)], one_sided=(1, True))
    def test_lanes_match_scalar_bisection(self, lanes, one_sided):
        # lanes mix b = 0, tilts, and drifts near the support's edge that
        # miss the bracket and fall back to the utility gradient; a
        # one-sided lane (b at the support's edge) is inserted at a place
        laws, bs = [], []
        for pts, weights, kind, frac in lanes:
            law = standardized(pts, weights)
            lo, hi = min(law.points), max(law.points)
            b = {"zero": 0.0, "inside": lo + frac * (hi - lo),
                 "edge": (hi - 0.02 * frac * (hi - lo) if frac > 0.5
                          else lo + 0.02 * frac * (hi - lo))}[kind]
            assume(lo < b < hi)
            laws.append(law)
            bs.append(b)
        if one_sided is not None:
            j, top = min(one_sided[0], len(laws)), one_sided[1]
            laws.insert(j, rademacher())
            bs.insert(j, 1.0 if top else -1.0)
        K = len(laws)
        model = build_market(K, K, mu=[-b for b in bs], beta=[], beta_bar=[1.0] * K,
                             noise=tuple(laws))
        if one_sided is not None:
            with pytest.raises(ArbitrageError):
                measures._solve_tilts(laws, bs)
            with pytest.raises(ArbitrageError):
                build_tilted_measure(model)
            with pytest.raises(ArbitrageError):
                solve_tilt(laws[j], bs[j])
            return
        Q = build_tilted_measure(model)
        u = appendix_power(0.5)
        for law, b, got, c in zip(laws, bs, measures._solve_tilts(laws, bs), Q.coords):
            want = scalar_tilt(law, b)
            if isinstance(want, str):
                assert isinstance(got, TiltBracketError) and str(got) == want
                with pytest.raises(TiltBracketError, match=re.escape(want)):
                    solve_tilt(law, b)
                assert c.method == "utility_gradient" and c.a is None
                assert c.phi_star == scalar_single_asset(law, b, u)
            else:
                assert type(got) is float and got == want
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
                assert solve_tilt(law, b) == want
                assert c.method == "logistic_tilt" and c.a == want

    def test_lanes_stop_at_their_own_halvings(self, monkeypatch):
        # a zero drift, three tilts and two bracket misses that fall back
        # to the utility gradient: the three tilts are bisected together,
        # and not all of them stop at the same halving
        live = []

        def logged(h, *args):
            return optimize._bisect(lambda at, lanes: live.append(lanes.size) or h(at, lanes),
                                    *args)
        monkeypatch.setattr(measures, "_bisect", logged)
        Q = build_tilted_measure(rademacher_market([0.0, 0.2, 0.6, 0.964, -0.3, 0.45]))
        assert [c.method for c in Q.coords] == ["logistic_tilt"] * 2 + [
            "utility_gradient"] * 2 + ["logistic_tilt"] * 2
        assert live[0] == 3 and live[-1] < 3


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

    def test_fallback_factor_uses_its_kept_utility(self):
        # b near the support's edge leaves no logistic root, so the
        # coordinate falls back; its factor reads the utility it kept
        model = rademacher_market([0.999])
        Q = build_tilted_measure(model, 0.3)
        (c,) = Q.coords
        assert c.method == "utility_gradient" and c.utility == appendix_power(0.3)
        pts = np.array([1.0, -1.0])
        with mock.patch.object(measures, "appendix_power", side_effect=AssertionError):
            factor = Q.coordinate_factor(0, pts)
        assert factor.tobytes() == (eval_u_prime(c.utility, c.phi_star * (pts - 0.999))
                                    / c.z).tobytes()

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


def with_zero_probability_point(model):
    """The same market with a probability-0 point appended to coordinate
    1's law, above its support: the exact set lists it, with weight 0."""
    d = model.noise[0]
    law = finite_discrete(d.points + (max(d.points) + 1.0,), d.probs + (0.0,))
    return model.replace(spec=model.spec.replace(noise=(law, *model.noise[1:])))


class TestProductDensity:
    @settings(max_examples=100, deadline=None)
    @given(model=discrete_markets(), zero_point=st.booleans())
    @example(model=rademacher_market([0.65, 0.1]), zero_point=True)  # both methods
    def test_support_sums_match_row_sums(self, model, zero_point):
        # E_Q[eps_i - b_i] and E[(dQ/dP)^e] from K support sums against
        # the same expectations over every enumerated row
        if zero_point:
            model = with_zero_probability_point(model)
        Q = build_tilted_measure(model)
        s = enumerate_scenarios(model)
        dens = Q.density(s.draws)
        with mock.patch.object(TiltedMeasure, "density", side_effect=AssertionError):
            sup = _support_factors(Q, s)
            m = _coordinate_means(Q, model, s, sup)
            exps = (-3.0, -1.0, -0.5, 1.0, 1.5, 3.0)
            power = _density_moments(Q, s, exps, sup)
        for i in range(model.K):
            pay = s.draws[:, i] - model.b[i]
            assert abs(m[i] - expectation(s, dens * pay)) <= 1e-12 * expectation(
                s, dens * np.abs(pay))
        for e in exps:
            assert power[e] == pytest.approx(expectation(s, dens ** e), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(model=discrete_markets())
    @example(model=rademacher_market([0.6, 0.7, 0.9]))
    def test_fallback_coordinates_price_to_rounding(self, model):
        # the utility-gradient factor's tilted mean is E[u'(phi* x) x] / z,
        # which the one-asset bisection drives to rounding
        Q = build_tilted_measure(model)
        for i, (c, d) in enumerate(zip(Q.coords, model.noise)):
            if c.method == "utility_gradient":
                pts = np.asarray(d.points)
                mean = math.fsum(np.asarray(d.probs) * Q.coordinate_factor(i, pts)
                                 * (pts - model.b[i]))
                assert abs(mean) <= 1e-11


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
        # both tilt methods price to rounding, so the chain never refuses
        assert verify_pricing(Q, model, s=s)["max_residual"] <= 1e-10
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

    @settings(max_examples=100, deadline=None)
    @given(model=discrete_markets(), zero_point=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_without_a_set_prices_from_the_laws(self, model, zero_point, seed):
        # no rows are built, and the residuals are those of the enumeration
        if zero_point:
            model = with_zero_probability_point(model)
        Q = build_tilted_measure(model)
        gen = np.random.Generator(np.random.Philox(key=seed))
        strategies = tuple(FactorStrategy(gen.uniform(-2.0, 2.0, size))
                           for size in range(1, model.K + 1))
        with mock.patch("apmopt.scenarios.enumerate_scenarios", side_effect=AssertionError), \
                mock.patch("apmopt.measures.enumerate_scenarios", create=True,
                           side_effect=AssertionError):
            out = verify_pricing(Q, model, strategies)
        assert out == verify_pricing(Q, model, strategies, enumerate_scenarios(model))

    def test_without_a_set_refuses_what_enumeration_refuses(self):
        big = rademacher_market([0.1] * 20)  # 2^20 rows
        with pytest.raises(EnumerationCapError, match="cap"):
            verify_pricing(build_tilted_measure(big), big)
        cont = build_market(1, 2, mu=[-0.1, -0.2], beta=[[0.0]], beta_bar=[1.0, 1.0],
                            noise=standardized_uniform())
        Q = build_tilted_measure(rademacher_market([0.1, 0.2])).replace(model=cont)
        with pytest.raises(EnumerationCapError, match="not finite-discrete"):
            verify_pricing(Q, cont)


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
        out = _residuals(model, _row_means(model, s, dens), strategies)
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

    @settings(max_examples=100, deadline=None)
    @given(model=discrete_markets(), zero_point=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(model=rademacher_market([0.65, 0.1]), zero_point=True, seed=0)
    def test_exact_set_pricing_matches_row_payoff_sums(self, model, zero_point, seed):
        # verify_pricing reads K support sums on an exact set; the oracle
        # sums every row's payoff under the row-by-row density
        if zero_point:
            model = with_zero_probability_point(model)
        Q = build_tilted_measure(model)
        s = enumerate_scenarios(model)
        gen = np.random.Generator(np.random.Philox(key=seed))
        strategies = tuple(FactorStrategy(gen.uniform(-2.0, 2.0, size))
                           for size in range(1, model.K + 1))
        out = verify_pricing(Q, model, strategies, s)
        centered = s.draws - model.b
        payoffs = ([centered @ row for row in model.loading_matrix()]
                   + [centered[:, :f.phi.size] @ f.phi for f in strategies])
        wd = s.weights * Q.density(s.draws)
        for resid, pay in zip(out["asset_residuals"] + out["strategy_residuals"],
                              payoffs):
            assert abs(resid - math.fsum(wd * pay)) <= 1e-12 * math.fsum(wd * np.abs(pay))
