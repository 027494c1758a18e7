import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmopt import (dyadic_two_sided, estimate_exp_moment, finite_discrete,
                    rademacher, standardized_two_point, standardized_uniform,
                    tail_probability, truncated_second_moment)
from conftest import searchsorted_ppf


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

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_dyadic_atom_is_the_gap_between_strict_tails(self, k):
        # at x = -s 2^k and +s 2^k the two strict tails miss the atom's
        # mass (1 - q) q^k / 2; inside (-s, s) and halfway to the next atom
        # they miss nothing
        q = 0.2
        d = dyadic_two_sided(q)
        s = math.sqrt((1 - 4 * q) / (1 - q))
        for x in (-s * 2 ** k, s * 2 ** k):
            both = tail_probability(d, x, "above") + tail_probability(d, x, "below")
            assert 1.0 - both == pytest.approx((1 - q) * q ** k / 2, rel=1e-12)
            for y in (x / 2 ** (k + 1), 1.5 * x):
                both = tail_probability(d, y, "above") + tail_probability(d, y, "below")
                assert both == pytest.approx(1.0, rel=1e-12)

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


    @pytest.mark.parametrize("N", [-1.0, 0.0, 0.5, 1.0, 1.7, math.sqrt(3), 2.0])
    def test_uniform_closed_form(self, N):
        # 1 - N^3 / 3^(3/2) for N in [0, sqrt 3], and a midpoint rule over
        # the uniform law on [-sqrt 3, sqrt 3]
        r = math.sqrt(3)
        val = truncated_second_moment(standardized_uniform(), N)
        assert val == pytest.approx(1.0 - min(max(N, 0.0), r) ** 3 / r ** 3,
                                    rel=1e-12, abs=1e-15)
        x = ((np.arange(10 ** 6) + 0.5) / 10 ** 6 * 2.0 - 1.0) * r
        assert val == pytest.approx(np.mean(x ** 2 * (np.abs(x) >= N)), abs=1e-5)


class TestSampling:
    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_two_point_ppf_matches_probs(self, p):
        d = standardized_two_point(p)
        u = np.linspace(0.0005, 0.9995, 2001)
        vals = d.ppf(u)
        frac_up = (vals == max(d.points)).mean()
        assert frac_up == pytest.approx(p, abs=2e-3)

    @pytest.mark.parametrize("d", [rademacher(), standardized_two_point(0.3)])
    def test_two_point_ppf_matches_searchsorted(self, d):
        # one comparison against the first cumulative probability picks
        # the point that searchsorted picks, at that probability and below
        lo, hi = sorted(d.points)
        cum0 = d.probs[d.points.index(lo)]
        u = np.array([cum0, np.nextafter(cum0, 0.0), 0.0, 1.0 - 2.0 ** -53])
        vals = d.ppf(u)
        assert vals.tolist() == [hi, lo, lo, hi]
        assert vals.tobytes() == searchsorted_ppf(d, u).tobytes()

    def test_uniform_ppf_range(self):
        d = standardized_uniform()
        vals = d.ppf(np.array([0.0, 0.5, 1.0]))
        assert vals == pytest.approx([-math.sqrt(3), 0.0, math.sqrt(3)])

    def test_dyadic_ppf_on_a_grid_gives_the_atom_masses(self):
        # u = (i + 1/2) / n puts about n (1 - q) q^k / 2 points on each of
        # -s 2^k and s 2^k, and none off the atoms
        q, n = 0.1, 100_000
        d = dyadic_two_sided(q)
        s = math.sqrt((1 - 4 * q) / (1 - q))
        vals = d.ppf((np.arange(n) + 0.5) / n)
        k = np.log2(np.abs(vals) / s)
        assert np.array_equal(k, np.round(k)) and k.min() == 0.0
        for k in range(4):
            for atom in (-s * 2 ** k, s * 2 ** k):
                assert np.mean(vals == atom) == pytest.approx((1 - q) * q ** k / 2,
                                                              abs=2 / n)
