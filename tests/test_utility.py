import numpy as np
import pytest

from apmopt import (GrowthBounds, Utility, appendix_power, certify_growth,
                    eval_u, eval_u_prime, eval_u_second, tabulated)
from apmopt.utility import check_shape
from conftest import scaled_utility


class TestEval:
    def test_appendix_power_values(self):
        u = appendix_power(0.5)
        assert eval_u(u, 3.0) == pytest.approx(1.0)    # 2 - 1
        assert eval_u(u, -2.0) == pytest.approx(-1.0)  # 0.5 * (-2)
        assert eval_u(u, 0.0) == 0.0

    def test_appendix_power_derivative_continuous_at_zero(self):
        u = appendix_power(0.5)
        assert eval_u_prime(u, 0.0) == 0.5
        assert eval_u_prime(u, 1e-12) == pytest.approx(0.5)
        assert eval_u_prime(u, -1e-12) == 0.5

    def test_appendix_power_derivative_value(self):
        u = appendix_power(0.5)
        assert eval_u_prime(u, 1.25) == pytest.approx(1.0 / 3.0)

    def test_derivative_bounded_by_alpha(self):
        u = appendix_power(0.7)
        xs = np.linspace(-50, 50, 1001)
        assert np.all(eval_u_prime(u, xs) <= 0.7 + 1e-15)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown utility kind 'crra'"):
            Utility("crra")

    def test_tabulated_interpolates(self):
        u = tabulated([-1.0, 0.0, 1.0], [-1.0, 0.0, 0.5])
        assert eval_u(u, 0.5) == pytest.approx(0.25)

    def test_prime_matches_finite_differences(self):
        u = appendix_power(0.5)
        xs = np.concatenate([np.linspace(-1000, -0.5, 200),
                             np.linspace(0.5, 1000, 200)])
        h = 1e-6 * np.maximum(1.0, np.abs(xs))
        fd = (eval_u(u, xs + h) - eval_u(u, xs - h)) / (2 * h)
        assert eval_u_prime(u, xs) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("u", [appendix_power(0.5)])
    def test_second_matches_finite_differences(self, u):
        xs = np.concatenate([np.linspace(-1000, -0.5, 200),
                             np.linspace(0.5, 1000, 200)])
        h = 1e-6 * np.maximum(1.0, np.abs(xs))
        fd = (eval_u_prime(u, xs + h) - eval_u_prime(u, xs - h)) / (2 * h)
        assert eval_u_second(u, xs) == pytest.approx(fd, rel=1e-5, abs=1e-12)

    def test_second_left_value_at_kink(self):
        assert eval_u_second(appendix_power(0.5), 0.0) == 0.0
        assert eval_u_second(appendix_power(0.5), 3.0) == pytest.approx(-1.0 / 32.0)

    def test_tabulated_second_is_zero(self):
        u = tabulated([-1.0, 0.0, 1.0], [-1.0, 0.0, 0.5])
        assert np.array_equal(eval_u_second(u, np.linspace(-2, 2, 9)), np.zeros(9))


class TestShape:
    @pytest.mark.parametrize("u", [appendix_power(0.2), appendix_power(0.9)])
    def test_builtins_concave_nondecreasing(self, u):
        assert check_shape(u)

    def test_graph_below_tangent_at_zero(self):
        # concavity: u(x) <= u'(0) x everywhere, with equality for x <= 0
        u = appendix_power(0.5)
        xs = np.linspace(-100, 100, 10_001)
        assert np.all(eval_u(u, xs) - 0.5 * xs <= 1e-12)

    def test_convex_table_rejected_by_shape_check(self):
        u = tabulated([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
        assert not check_shape(u)


class TestGrowthBounds:
    def test_beta_must_exceed_one(self):
        with pytest.raises(ValueError):
            GrowthBounds(alpha=0.5, beta=1.0, C1=1.0, C2=1.0)

    def test_alpha_below_one(self):
        with pytest.raises(ValueError):
            GrowthBounds(alpha=1.0, beta=2.0, C1=1.0, C2=1.0)


class TestCertify:
    def test_appendix_positive_side_holds(self):
        # (x+1)^0.5 - 1 <= x^0.5 + 1 by subadditivity of the square root
        u = appendix_power(0.5)
        xs = np.concatenate([[0.0], np.logspace(-8, 8, 200)])
        cap = xs ** 0.5 + 1.0
        assert np.all(eval_u(u, xs) <= cap + 1e-12)

    def test_linear_negative_side_fails_power_cap(self):
        # a linear lower branch eventually exceeds the -|x|^beta cap:
        # at x = -2, u = -1 > -2^1.5 + 1 ~ -1.83
        u = appendix_power(0.5)
        g = GrowthBounds(alpha=0.5, beta=1.5, C1=1.0, C2=1.0)
        v = certify_growth(u, g)
        assert not v.holds and v.side == "negative"
        assert eval_u(u, v.witness) > g.C2 * (-abs(v.witness) ** 1.5 + 1)

    def test_exponent_mismatch_fails_with_witness(self):
        # (x+1)^0.5 - 1 > x^0.4 + 1 for large x, e.g. x = 1e4
        u = appendix_power(0.5)
        g = GrowthBounds(alpha=0.4, beta=2.0, C1=1.0, C2=1.0)
        v = certify_growth(u, g)
        assert not v.holds and v.side == "positive"
        assert eval_u(u, v.witness) > 1.0 * (v.witness ** 0.4 + 1)

    def test_steep_negative_table_certifies(self):
        xs = np.concatenate([-np.logspace(8, -8, 400), [0.0],
                             np.logspace(-8, 8, 400)])
        ys = np.where(xs >= 0, np.maximum(xs, 0) ** 0.5,
                      -np.abs(xs) ** 1.5)
        u = tabulated(xs, ys)
        g = GrowthBounds(alpha=0.5, beta=1.5, C1=1.0, C2=1.0)
        assert certify_growth(u, g).holds


class TestScaled:
    def test_positive_rescale_keeps_shape(self):
        u = scaled_utility(appendix_power(0.5), 2.0)
        xs = np.linspace(-50, 50, 101)
        assert eval_u(u, xs) == pytest.approx(2.0 * eval_u(appendix_power(0.5), xs),
                                              abs=1e-6)
