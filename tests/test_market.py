import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmopt import (AssetPortfolio, BRule, FactorStrategy, IllPosedModelError,
                    asset_return, build_market, check_assumption_b,
                    check_no_arbitrage, convert_portfolio, enumerate_scenarios,
                    expectation, portfolio_value, rademacher,
                    strategy_values, truncate_model)
from conftest import rademacher_market


def two_factor_market():
    return build_market(1, 2, mu=[0.1, 0.05], beta=[[0.5]], beta_bar=[1.0, 2.0],
                        noise=rademacher())


class TestBuildMarket:
    def test_drift_formulas(self):
        m = two_factor_market()
        # b1 = -0.1/1; b2 = -0.05/2 + 0.1*0.5/(1*2) = 0
        assert m.b == pytest.approx([-0.1, 0.0], abs=1e-15)
        assert m.M == pytest.approx(0.1)

    def test_zero_drift(self):
        m = rademacher_market([0.0, 0.0])
        assert np.all(m.b == 0.0) and m.M == 0.0

    def test_negative_beta_bar_sign(self):
        m = build_market(1, 1, mu=[0.2], beta=[], beta_bar=[-2.0],
                         noise=rademacher())
        assert m.b[0] == pytest.approx(0.1)

    def test_zero_beta_bar_rejected(self):
        with pytest.raises(IllPosedModelError):
            build_market(1, 2, mu=[0, 0], beta=[[0.0]], beta_bar=[1.0, 0.0],
                         noise=rademacher())

    def test_k_below_m_rejected(self):
        with pytest.raises(IllPosedModelError):
            build_market(2, 1, mu=[0.0], beta=[], beta_bar=[1.0],
                         noise=rademacher())

    def test_m_squared_is_partial_sum(self):
        m = rademacher_market([0.3, -0.2, 0.1])
        assert m.M ** 2 == pytest.approx(float(np.sum(m.b ** 2)), rel=1e-12)


class TestAssetReturn:
    def test_hand_value(self):
        m = two_factor_market()
        assert asset_return(m, 2, [1.0, -1.0]) == pytest.approx(-1.45)

    def test_zero_everything(self):
        m = build_market(1, 1, mu=[0.0], beta=[], beta_bar=[1.0],
                         noise=rademacher())
        assert asset_return(m, 1, [0.0]) == 0.0

    def test_noise_at_drift_gives_zero(self):
        m = two_factor_market()
        for i in (1, 2):
            assert asset_return(m, i, m.b) == pytest.approx(0.0, abs=1e-12)

    def test_index_out_of_range(self):
        m = two_factor_market()
        with pytest.raises(IndexError):
            asset_return(m, 3, [1.0, 1.0])

    def test_forms_agree_on_all_scenarios(self):
        m = build_market(2, 4, mu=[0.1, -0.2, 0.05, 0.3],
                         beta=[[0.4, -0.7], [1.1, 0.2]],
                         beta_bar=[1.0, -2.0, 0.5, 3.0], noise=rademacher())
        for eps in itertools.product([1.0, -1.0], repeat=4):
            for i in range(1, 5):
                asset_return(m, i, eps)  # raises if the forms disagree


class TestConvertPortfolio:
    def test_mapping_algebra(self):
        m = two_factor_market()
        strat = convert_portfolio(m, AssetPortfolio((-3.0, 1.0, 2.0)))
        assert strat.phi == pytest.approx([2.0, 4.0])

    def test_zero_portfolio(self):
        m = two_factor_market()
        strat = convert_portfolio(m, AssetPortfolio((0.0, 0.0, 0.0)))
        assert np.all(strat.phi == 0.0)

    def test_single_risky_asset(self):
        m = build_market(1, 1, mu=[0.0], beta=[], beta_bar=[3.0],
                         noise=rademacher())
        strat = convert_portfolio(m, AssetPortfolio((-2.0, 2.0)))
        assert strat.phi == pytest.approx([6.0])

    def test_budget_violation_rejected(self):
        for psi in [(1.0, 1.0), (0.1, 0.2, -0.2)]:
            with pytest.raises(ValueError, match="budget"):
                AssetPortfolio(psi)

    def test_decimal_rounding_accepted(self):
        # the exact sum of these doubles is 2.8e-17, not 0.0
        assert math.fsum((0.1, 0.2, -0.3)) != 0.0
        assert AssetPortfolio((0.1, 0.2, -0.3)).psi == (0.1, 0.2, -0.3)

    def test_payoff_preserved_scenario_by_scenario(self):
        m = build_market(2, 4, mu=[0.1, -0.2, 0.05, 0.3],
                         beta=[[0.4, -0.7], [1.1, 0.2]],
                         beta_bar=[1.0, -2.0, 0.5, 3.0], noise=rademacher())
        psi = (-1.5, 1.0, -2.0, 0.5, 2.0)
        strat = convert_portfolio(m, AssetPortfolio(psi))
        for eps in itertools.product([1.0, -1.0], repeat=4):
            lhs = sum(psi[i] * asset_return(m, i, eps) for i in range(1, 5))
            rhs = portfolio_value(m, strat, eps)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPortfolioValue:
    def test_hand_value(self):
        m = two_factor_market()
        v = portfolio_value(m, FactorStrategy(np.array([2.0, 4.0])), [1.0, -1.0])
        assert v == pytest.approx(-1.8)

    def test_zero_strategy(self):
        m = two_factor_market()
        assert portfolio_value(m, FactorStrategy(np.zeros(2)), [1.0, -1.0]) == 0.0

    def test_noise_at_drift(self):
        m = two_factor_market()
        assert portfolio_value(m, FactorStrategy(np.array([5.0, -7.0])), m.b) == 0.0


class TestOrthonormality:
    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=3, max_size=3),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_variance_equals_norm_squared(self, b, seed):
        # var(V(phi)) = ||phi||^2 for independent mean-0 variance-1 noise,
        # checked by exact enumeration
        model = rademacher_market(b)
        s = enumerate_scenarios(model)
        phi = np.random.Generator(np.random.Philox(key=seed)).uniform(-2, 2, 3)
        vals = strategy_values(model, phi, s.draws)
        mean = expectation(s, vals)
        var = expectation(s, (vals - mean) ** 2)
        assert var == pytest.approx(float(phi @ phi), abs=1e-10, rel=1e-10)


class TestAssumptionB:
    def test_power_rule_criterion(self):
        for p, verdict in [(0.3, "fails"), (0.5, "fails"), (0.51, "holds"),
                           (1.0, "holds"), (2.0, "holds")]:
            m = rademacher_market([0.1], m=1)
            m = build_market(1, 1, mu=[-0.1], beta=[], beta_bar=[1.0],
                             noise=rademacher(), b_rule=BRule("power", c=1.0, p=p))
            assert check_assumption_b(m).verdict == verdict, p

    def test_explicit_always_holds(self):
        m = rademacher_market([0.5, 0.5, 0.5])
        assert check_assumption_b(m).verdict == "holds"

    def test_partial_sums_inverse_squares(self):
        # b_i = 1/i: partial sums approach pi^2/6
        b = [1.0 / i for i in range(1, 9)]
        m = rademacher_market(b)
        v = check_assumption_b(m)
        expected = np.cumsum([1.0 / i ** 2 for i in range(1, 9)])
        assert v.partial_sums == pytest.approx(expected)
        assert v.partial_sums[-1] < math.pi ** 2 / 6


class TestNoArbitrage:
    def test_interior_drift_passes(self, market_k3):
        assert check_no_arbitrage(market_k3).passed

    def test_boundary_drift_flagged(self):
        m = rademacher_market([-1.0, 0.0])
        v = check_no_arbitrage(m)
        assert not v.passed and v.flagged == (1,)
        assert v.tails[0][0] == 0.0  # P(eps < -1) = 0, strict

    def test_zero_drift_passes(self, market_zero_drift):
        assert check_no_arbitrage(market_zero_drift).passed


class TestTruncate:
    def test_prefix_stability(self, market_k3):
        sub = truncate_model(market_k3, 2)
        assert sub.K == 2
        assert sub.b == pytest.approx(market_k3.b[:2])

    def test_bad_level(self, market_k3):
        with pytest.raises(ValueError):
            truncate_model(market_k3, 5)
