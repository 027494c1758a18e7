import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apmopt import (ArbitrageError, DiscretePayoff, SolverConfig, appendix_power,
                    build_market, detect_unbounded,
                    enumerate_scenarios, eval_u, optimize_single_asset,
                    optimize_truncated, rademacher, sample_scenarios,
                    standardized_two_point, standardized_uniform, tabulated,
                    truncation_ladder)
from apmopt.optimize import OneSidedPayoffError, saa_gradient, saa_objective
from conftest import rademacher_market, scaled_utility


def two_point_market(ps, fracs):
    """m=1 market of standardized two-point laws with P(up) = ps[i]; drift
    b_i sits at fraction fracs[i] of the way up its law's support."""
    noise = tuple(standardized_two_point(p) for p in ps)
    b = [n.points[1] + f * (n.points[0] - n.points[1]) for n, f in zip(noise, fracs)]
    K = len(ps)
    return build_market(1, K, mu=[-x for x in b], beta=[[0.0]] * (K - 1),
                        beta_bar=[1.0] * K, noise=noise)


class TestSingleAsset:
    def test_closed_form_asymmetric_up(self):
        # stationarity: (phi+1)^{-1/2} = 0.36/0.64 => phi = (16/9)^2 - 1
        payoff = DiscretePayoff((1.0, -1.0), (0.64, 0.36))
        phi, _ = optimize_single_asset(payoff, appendix_power(0.5))
        assert phi == pytest.approx((16.0 / 9.0) ** 2 - 1.0, abs=1e-6)

    def test_grid_search_oracle(self):
        payoff = DiscretePayoff((1.0, -1.0), (0.64, 0.36))
        u = appendix_power(0.5)
        phi, val = optimize_single_asset(payoff, u)
        grid = np.arange(-5.0, 5.0, 1e-4)
        objs = [0.64 * eval_u(u, g) + 0.36 * eval_u(u, -g) for g in grid]
        assert phi == pytest.approx(grid[int(np.argmax(objs))], abs=2e-4)
        assert val >= max(objs) - 1e-9

    def test_symmetric_payoff_gives_zero(self):
        payoff = DiscretePayoff((1.0, -1.0), (0.5, 0.5))
        for alpha in (0.3, 0.5, 0.8):
            phi, val = optimize_single_asset(payoff, appendix_power(alpha))
            assert phi == 0.0
            assert val == 0.0

    def test_closed_form_negative_optimum(self):
        # 0.3 (1 - 1.2 phi)^{-1/2} = 0.2 => phi = -25/24
        payoff = DiscretePayoff((0.8, -1.2), (0.5, 0.5))
        phi, _ = optimize_single_asset(payoff, appendix_power(0.5))
        assert phi == pytest.approx(-25.0 / 24.0, abs=1e-6)

    def test_one_sided_rejected(self):
        with pytest.raises(OneSidedPayoffError):
            optimize_single_asset(DiscretePayoff((1.0, 2.0), (0.5, 0.5)),
                                  appendix_power(0.5))


class TestTruncated:
    def test_zero_drift_jensen(self, market_zero_drift):
        s = enumerate_scenarios(market_zero_drift)
        res = optimize_truncated(market_zero_drift, appendix_power(0.5), None, s)
        assert np.linalg.norm(res.phi_star) <= 1e-4
        assert res.value == pytest.approx(0.0, abs=1e-8)  # u(0) = 0

    def test_k1_cross_oracle(self):
        # K = 1 with b = 0.2 is the single-asset problem with X = eps - 0.2
        model = rademacher_market([0.2])
        s = enumerate_scenarios(model)
        u = appendix_power(0.5)
        res = optimize_truncated(model, u, None, s)
        phi1, val1 = optimize_single_asset(
            DiscretePayoff.from_noise(rademacher(), 0.2), u)
        assert res.phi_star[0] == pytest.approx(phi1, abs=1e-6)
        assert res.value == pytest.approx(val1, abs=1e-9)

    def test_converged_flags(self, market_k3):
        s = enumerate_scenarios(market_k3)
        res = optimize_truncated(market_k3, appendix_power(0.5), None, s)
        assert res.converged and res.grad_norm <= 1e-8

    def test_arbitrage_refused(self):
        model = rademacher_market([-1.0, 0.0])
        s = enumerate_scenarios(model)
        with pytest.raises(ArbitrageError):
            optimize_truncated(model, appendix_power(0.5), None, s)

    def test_iteration_cap_returns_unconverged(self, market_k3):
        s = enumerate_scenarios(market_k3)
        cfg = SolverConfig(grad_tol=1e-12, max_iter=3)
        res = optimize_truncated(market_k3, appendix_power(0.5), None, s, cfg)
        assert not res.converged and res.iterations == 3

    def test_exact_k12_converges(self):
        model = rademacher_market([0.4 / i for i in range(1, 13)])
        res = optimize_truncated(model, appendix_power(0.5), None,
                                 enumerate_scenarios(model))
        assert res.converged and res.grad_norm <= 1e-8

    def test_tabulated_utility_takes_gradient_steps(self):
        # u'' = 0 for a table, so every step is a shifted gradient step;
        # the table holds appendix_power(0.5) at its nodes
        model = rademacher_market([0.2])
        xs = np.linspace(-10.0, 10.0, 2001)
        u = tabulated(xs, eval_u(appendix_power(0.5), xs))
        res = optimize_truncated(model, u, None, enumerate_scenarios(model))
        assert res.value == pytest.approx(1.0 / 24.0, abs=1e-9)
        assert res.phi_star[0] == pytest.approx(-25.0 / 24.0, abs=1e-4)

    def test_step_too_small_to_move_phi_stops(self):
        # near ||g|| ~ 2e-11 the objective cannot register the Newton step's
        # gain, so backtracking shrinks the step until phi stops moving
        model = build_market(1, 1, mu=[-0.7], beta=[], beta_bar=[1.0],
                             noise=standardized_two_point(0.3))
        res = optimize_truncated(model, appendix_power(0.3), None,
                                 enumerate_scenarios(model),
                                 SolverConfig(grad_tol=1e-15))
        assert not res.converged and res.iterations < 50
        assert res.grad_norm < 1e-9

    def test_value_recomputation_consistent(self, market_k3):
        s = enumerate_scenarios(market_k3)
        res = optimize_truncated(market_k3, appendix_power(0.5), None, s)
        X = s.draws - market_k3.b
        manual = float(np.sum(s.weights * eval_u(appendix_power(0.5),
                                                 X @ res.phi_star)))
        assert res.value == pytest.approx(manual, abs=1e-12)


class TestGradient:
    def test_matches_central_differences(self, market_k3):
        s = enumerate_scenarios(market_k3)
        u = appendix_power(0.5)
        X = s.draws - market_k3.b
        gen = np.random.Generator(np.random.Philox(key=123))
        for _ in range(10):
            phi = gen.uniform(-1.5, 1.5, 3)
            if np.min(np.abs(X @ phi)) < 1e-4:
                phi = phi + 1e-3  # keep scenario values off the kink
            g = saa_gradient(u, X, s.weights, phi)
            fd = np.empty(3)
            h = 1e-6
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd[k] = (saa_objective(u, X, s.weights, phi + e)
                         - saa_objective(u, X, s.weights, phi - e)) / (2 * h)
            assert g == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.floats(min_value=0.05, max_value=0.95))
    def test_objective_concavity(self, seed, lam):
        model = rademacher_market([0.2, 0.1, 0.05])
        s = enumerate_scenarios(model)
        u = appendix_power(0.5)
        X = s.draws - model.b
        gen = np.random.Generator(np.random.Philox(key=seed))
        p1, p2 = gen.uniform(-2, 2, (2, 3))
        mix = saa_objective(u, X, s.weights, lam * p1 + (1 - lam) * p2)
        sep = (lam * saa_objective(u, X, s.weights, p1)
               + (1 - lam) * saa_objective(u, X, s.weights, p2))
        assert mix >= sep - 1e-10

    def test_scale_covariance_of_argmax(self):
        # rescaling u by c > 0 moves the value by c and the argmax not at all
        payoff = DiscretePayoff((1.0, -1.0), (0.64, 0.36))
        u = appendix_power(0.5)
        phi0, val0 = optimize_single_asset(payoff, u)
        for c in (0.5, 2.0):
            phi, val = optimize_single_asset(payoff, scaled_utility(u, c))
            assert phi == pytest.approx(phi0, abs=1e-3)
            assert val == pytest.approx(c * val0, abs=1e-4)


class TestNewtonOracles:
    @settings(deadline=None, max_examples=50)
    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.1, 0.9))
    def test_k1_matches_bisection(self, p, frac, alpha):
        model = two_point_market([p], [frac])
        u = appendix_power(alpha)
        phi1, val1 = optimize_single_asset(
            DiscretePayoff.from_noise(model.noise[0], model.b[0]), u)
        # far optima are flat, and there the oracle's 1e-10 tolerance on the
        # derivative no longer pins phi to 1e-6
        assume(abs(phi1) <= 20.0)
        res = optimize_truncated(model, u, None, enumerate_scenarios(model),
                                 SolverConfig(grad_tol=1e-12, max_iter=100))
        assert res.phi_star[0] == pytest.approx(phi1, abs=1e-6)
        assert res.value == pytest.approx(val1, abs=1e-10)

    @settings(deadline=None, max_examples=30)
    @given(st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
           st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
           st.floats(0.2, 0.8))
    def test_k2_value_reaches_grid_maximum(self, ps, fracs, alpha):
        model = two_point_market(ps, fracs)
        s = enumerate_scenarios(model)
        u = appendix_power(alpha)
        res = optimize_truncated(model, u, None, s)
        g = np.linspace(-4.0, 4.0, 801)
        values = np.stack(np.meshgrid(g, g), axis=-1) @ (s.draws - model.b).T
        assert res.value >= float((eval_u(u, values) @ s.weights).max()) - 1e-9


class TestLadder:
    def test_zero_drift_flat(self):
        model = rademacher_market([0.0] * 8)
        cfg = SolverConfig(ladder=(1, 2, 4, 8))
        rep = truncation_ladder(model, appendix_power(0.5), cfg)
        assert rep.values() == pytest.approx([0.0] * 4, abs=1e-8)
        assert rep.diff_norms == pytest.approx([0.0] * 3, abs=1e-4)

    def test_geometric_drift_monotone(self):
        model = rademacher_market([0.4 * 2.0 ** -(i + 1) for i in range(8)])
        cfg = SolverConfig(ladder=(1, 2, 4, 8))
        rep = truncation_ladder(model, appendix_power(0.5), cfg)
        v = rep.values()
        assert all(b >= a - 1e-8 for a, b in zip(v, v[1:]))
        assert abs(v[3] - v[2]) < abs(v[2] - v[1])

    def test_single_level_reduces(self, market_k3):
        cfg = SolverConfig(ladder=(3,))
        rep = truncation_ladder(market_k3, appendix_power(0.5), cfg)
        s = enumerate_scenarios(market_k3)
        res = optimize_truncated(market_k3, appendix_power(0.5), None, s, cfg)
        assert rep.levels[0].value == pytest.approx(res.value, abs=1e-12)
        assert rep.diff_norms == ()

    def test_empty_ladder_solves_full_model(self, market_k3):
        u = appendix_power(0.5)
        rep = truncation_ladder(market_k3, u, SolverConfig())
        assert [lv.K for lv in rep.levels] == [3]
        assert rep.values() == truncation_ladder(
            market_k3, u, SolverConfig(ladder=(3,))).values()

    def test_levels_read_one_monte_carlo_set(self):
        # every level is the direct solve on the first K columns of the same
        # rows, so the nested levels' values cannot fall with K
        model = build_market(m=1, K=3, mu=[-0.3, -0.2, -0.1], beta=[[0.0]] * 2,
                             beta_bar=[1.0] * 3, noise=standardized_uniform())
        s = sample_scenarios(model, 2000, seed=5)
        u = appendix_power(0.5)
        cfg = SolverConfig(ladder=(1, 2, 3))
        rep = truncation_ladder(model, u, cfg, s)
        for K, level in zip(cfg.ladder, rep.levels):
            direct = optimize_truncated(model, u, K, s, cfg)
            assert level.K == direct.K
            assert np.array_equal(level.phi_star, direct.phi_star)
            assert (level.value, level.grad_norm, level.iterations,
                    level.converged) == (direct.value, direct.grad_norm,
                                         direct.iterations, direct.converged)
        v = rep.values()
        assert all(b >= a for a, b in zip(v, v[1:]))

    @pytest.mark.parametrize("K", [0, 8])
    def test_level_outside_model_rejected(self, K):
        model = rademacher_market([0.2, 0.1, 0.05, 0.025])
        s = enumerate_scenarios(model)
        with pytest.raises(ValueError, match=f"truncation level {K} outside"):
            optimize_truncated(model, appendix_power(0.5), K, s)
        with pytest.raises(ValueError, match=f"truncation level {K} outside"):
            truncation_ladder(model, appendix_power(0.5), SolverConfig(ladder=(1, K)))

    def test_level_beyond_set_columns_rejected(self, market_k3):
        s = enumerate_scenarios(rademacher_market([0.2, 0.1]))
        with pytest.raises(ValueError, match=r"outside \[1, 2\]"):
            optimize_truncated(market_k3, appendix_power(0.5), 3, s)


class TestDetectUnbounded:
    def test_boundary_coordinate_witness(self):
        model = rademacher_market([-1.0, 0.0])
        s = enumerate_scenarios(model)
        found, phi = detect_unbounded(model, s)
        assert found
        vals = (s.draws - model.b) @ phi
        assert vals.min() >= -1e-12 and vals.max() > 1e-9

    def test_zero_drift_none_found(self, market_zero_drift):
        s = enumerate_scenarios(market_zero_drift)
        found, _ = detect_unbounded(market_zero_drift, s)
        assert not found

    def test_consistent_with_tail_check(self, market_k3):
        # full-support noise passing the tail check has no witness
        s = enumerate_scenarios(market_k3)
        found, _ = detect_unbounded(market_k3, s)
        assert not found

    def test_budget_prefix_gives_no_false_witness(self):
        # the first 8 enumerated rows hold eps_1 = 1 fixed; a direction
        # feasible there, e.g. (1, -0.75, 0, 0), goes negative on later rows
        model = rademacher_market([0.4 / i for i in range(1, 5)])
        s = enumerate_scenarios(model)
        assert detect_unbounded(model, s, direction_budget=8) == (False, None)
