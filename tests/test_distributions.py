import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmopt import (dyadic_two_sided, estimate_exp_moment, finite_discrete,
                    rademacher, standardized_two_point, standardized_uniform,
                    tail_probability, truncated_second_moment)


def exact_mean_var(dist):
    pts = np.asarray(dist.points)
    pr = np.asarray(dist.probs)
    mean = pts @ pr
    return mean, (pts - mean) ** 2 @ pr


class TestStandardization:
    def test_rademacher(self):
        mean, var = exact_mean_var(rademacher())
        assert abs(mean) < 1e-15 and abs(var - 1) < 1e-15

    def test_two_point_support(self):
        # Bernoulli(0.64) standardized: points (sqrt(q/p), -sqrt(p/q))
        d = standardized_two_point(0.64)
        assert d.points == pytest.approx((0.75, -4.0 / 3.0))
        assert d.probs == (0.64, 0.36)

    def test_named_laws_are_finite_discrete(self):
        assert rademacher() == finite_discrete([1.0, -1.0], [0.5, 0.5])
        d = standardized_two_point(0.64)
        assert d == finite_discrete(d.points, d.probs)

    @given(st.floats(min_value=1e-3, max_value=1 - 1e-3))
    def test_two_point_standardized(self, p):
        mean, var = exact_mean_var(standardized_two_point(p))
        assert abs(mean) < 1e-10
        assert abs(var - 1) < 1e-10

    def test_unstandardized_rejected(self):
        with pytest.raises(ValueError, match="standardized"):
            finite_discrete([0.0, 2.0], [0.5, 0.5])

    def test_bad_probs_rejected(self):
        with pytest.raises(ValueError):
            finite_discrete([1.0, -1.0], [0.7, 0.4])


class TestTails:
    def test_rademacher_strict(self):
        d = rademacher()
        assert tail_probability(d, 0.5, "above") == 0.5
        assert tail_probability(d, 1.0, "above") == 0.0  # strict
        assert tail_probability(d, -1.0, "below") == 0.0
        assert tail_probability(d, 0.2, "below") == 0.5

    def test_two_point_above_zero(self):
        assert tail_probability(standardized_two_point(0.64), 0.0, "above") == 0.64

    def test_uniform(self):
        d = standardized_uniform()
        assert tail_probability(d, 0.0, "above") == pytest.approx(0.5)
        assert tail_probability(d, math.sqrt(3), "above") == 0.0

    def test_dyadic_two_sided_tails_positive_everywhere(self):
        d = dyadic_two_sided(0.2)
        for x in (0.0, 1.0, 10.0, 1000.0):
            assert tail_probability(d, x, "above") > 0
            assert tail_probability(d, -x, "below") > 0

    def test_dyadic_tail_closed_form(self):
        # support s*2^k with s = sqrt((1-4q)/(1-q)); P(eps > s*2^k - eps') = q^{k}/2
        q = 0.2
        d = dyadic_two_sided(q)
        s = math.sqrt((1 - 4 * q) / (1 - q))
        assert tail_probability(d, s * 2 - 1e-9, "above") == pytest.approx(q / 2)
        assert tail_probability(d, s - 1e-12, "above") == pytest.approx(0.5)


class TestExpMoment:
    def test_rademacher_gamma_one(self):
        assert estimate_exp_moment(rademacher(), 1.0) == pytest.approx(math.e)

    def test_two_point_half_is_rademacher(self):
        val = estimate_exp_moment(standardized_two_point(0.5), 0.5)
        assert val == pytest.approx(math.exp(0.5))

    def test_small_gamma_limit(self):
        assert estimate_exp_moment(rademacher(), 1e-12) == pytest.approx(1.0)

    def test_uniform_closed_form(self):
        gamma = 0.7
        val = estimate_exp_moment(standardized_uniform(), gamma)
        # quadrature oracle
        xs = np.linspace(-math.sqrt(3), math.sqrt(3), 200_001)
        oracle = np.trapezoid(np.exp(gamma * np.abs(xs)) / (2 * math.sqrt(3)), xs)
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_dyadic_diverges(self):
        assert estimate_exp_moment(dyadic_two_sided(0.1), 0.25) == math.inf

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            estimate_exp_moment(rademacher(), 0.0)


class TestTruncatedSecondMoment:
    def test_beyond_support_is_zero(self):
        assert truncated_second_moment(rademacher(), 1.5) == 0.0

    def test_full_mass(self):
        assert truncated_second_moment(rademacher(), 0.5) == pytest.approx(1.0)

    def test_dyadic_closed_form(self):
        q = 0.2
        d = dyadic_two_sided(q)
        s = math.sqrt((1 - 4 * q) / (1 - q))
        # mass from index k on: (4q)^k
        assert truncated_second_moment(d, 2 * s) == pytest.approx(4 * q)
        assert truncated_second_moment(d, 0.0) == pytest.approx(1.0)


class TestSampling:
    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_two_point_ppf_matches_probs(self, p):
        d = standardized_two_point(p)
        u = np.linspace(0.0005, 0.9995, 2001)
        vals = d.ppf(u)
        frac_up = (vals == max(d.points)).mean()
        assert frac_up == pytest.approx(p, abs=2e-3)

    def test_uniform_ppf_range(self):
        d = standardized_uniform()
        vals = d.ppf(np.array([0.0, 0.5, 1.0]))
        assert vals == pytest.approx([-math.sqrt(3), 0.0, math.sqrt(3)])
