import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apmopt import (dyadic_two_sided, estimate_exp_moment, finite_discrete,
                    rademacher, standardized_two_point, standardized_uniform,
                    tail_probability, truncated_second_moment)
from conftest import searchsorted_ppf

# one law per family and per discrete ppf path (two points, more)
LAWS = pytest.mark.parametrize("d", [
    rademacher(), standardized_two_point(0.106),
    finite_discrete((-1.5, 0.0, 1.5), (2 / 9, 5 / 9, 2 / 9)),
    standardized_uniform(), dyadic_two_sided(0.1)],
    ids=["rademacher", "two-point", "three-point", "uniform", "dyadic"])


def dyadic_scale(q):
    return math.sqrt((1 - 4 * q) / (1 - q))


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

    @pytest.mark.parametrize("points, probs", [
        ([1.0, -1.0], [math.nan, math.nan]),
        ([math.inf, -math.inf], [0.5, 0.5]),
        ([1.0, -1.0, math.nan], [0.5, 0.5, 0.0]),
        ([1.0, -1.0, math.inf], [0.5, 0.5, 0.0]),
    ], ids=["nan-probs", "inf-points", "nan-point", "inf-point"])
    def test_non_finite_law_rejected(self, points, probs):
        # NaN fails no comparison in the other checks, so it is refused first
        with pytest.raises(ValueError, match="finite points and probabilities"):
            finite_discrete(points, probs)

    def test_overflowing_variance_rejected_without_warning(self):
        # 1e200 squared overflows, and times its probability 0 gives a NaN
        # variance, which the standardization test must fail, not pass;
        # it was accepted, with an overflow RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"standardized: mean=0, var=nan"):
                finite_discrete([1.0, -1.0, 1e200], [0.5, 0.5, 0.0])


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


class TestEdgeArguments:
    @LAWS
    def test_nan_argument_raises(self, d):
        for side in ("above", "below"):
            with pytest.raises(ValueError, match="NaN"):
                tail_probability(d, math.nan, side)
        with pytest.raises(ValueError, match="NaN"):
            truncated_second_moment(d, math.nan)
        for gamma in (math.nan, 0.0, -1.0, math.inf):
            with pytest.raises(ValueError, match="gamma"):
                estimate_exp_moment(d, gamma)

    @pytest.mark.parametrize("q", [0.1, 0.2])
    @pytest.mark.parametrize("k", [0, 1, 3, 40])
    def test_dyadic_tails_count_an_atom_only_at_its_float(self, q, k):
        # the atoms are the floats s 2^k that ppf samples: at q = 0.2,
        # s 2 = 0.9999999999999999, so x = 1.0 lies past that atom, and
        # P(eps < 1) = 0.98, not the 0.9 of an atom placed at 1.0.  The
        # oracle: P(eps < x) = 1 - q^k0 / 2 and P(eps > -x) the same, for
        # the smallest k0 with s 2^k0 >= x, found exactly
        d = dyadic_two_sided(q)
        s = dyadic_scale(q)
        atom = s * 2 ** k
        for x in (atom, math.nextafter(atom, 0.0), math.nextafter(atom, math.inf),
                  math.ldexp(1.0, math.frexp(atom)[1])):
            k0 = 0
            while Fraction(s) * 2 ** k0 < Fraction(x):
                k0 += 1
            expected = 1 - Fraction(q) ** k0 / 2
            for value in (tail_probability(d, x, "below"),
                          tail_probability(d, -x, "above")):
                assert abs(Fraction(value) - expected) <= 2 ** -52 * expected
        assert tail_probability(dyadic_two_sided(0.2), 1.0, "below") == 0.98

    @LAWS
    def test_infinite_argument_gives_the_limits(self, d):
        assert tail_probability(d, math.inf, "above") == 0.0
        assert tail_probability(d, -math.inf, "below") == 0.0
        assert tail_probability(d, -math.inf, "above") == pytest.approx(1.0, abs=1e-12)
        assert tail_probability(d, math.inf, "below") == pytest.approx(1.0, abs=1e-12)
        assert truncated_second_moment(d, math.inf) == 0.0
        assert truncated_second_moment(d, -math.inf) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [standardized_uniform(), rademacher()],
                             ids=["uniform", "rademacher"])
    def test_exp_moment_past_the_float_range_is_inf(self, d):
        # warnings are errors here: an overflow must not warn
        assert estimate_exp_moment(d, 1e3) == math.inf

    def test_zero_probability_point_adds_nothing_to_the_exp_moment(self):
        # e^800 overflows at the zero-probability point, and inf * 0 is NaN
        d = finite_discrete((1.0, -1.0, 800.0), (0.5, 0.5, 0.0))
        assert estimate_exp_moment(d, 1.0) == pytest.approx(math.e)

    @pytest.mark.parametrize("q", [0.1, 0.2, 0.2499])
    @pytest.mark.parametrize("x", [1e3, 1e100, 1e300, 1.7e308])
    def test_dyadic_far_arguments_match_the_atom_index(self, q, x):
        # k0, the first atom index with s 2^k0 >= x, found exactly; past
        # s 2^537 the tails underflow to 0, but (4q)^k0 need not
        d = dyadic_two_sided(q)
        s = dyadic_scale(q)
        k0 = 0
        while Fraction(s) * 2 ** k0 < Fraction(x):
            k0 += 1
        assert truncated_second_moment(d, x) == (4 * q) ** k0
        assert tail_probability(d, x, "above") == 0.5 * q ** k0
        assert tail_probability(d, -x, "above") == 1.0 - 0.5 * q ** k0

    @pytest.mark.parametrize("q", [0.1, 0.2])
    @pytest.mark.parametrize("k", [1, 3, 4, 40])
    def test_dyadic_truncated_moment_drops_an_atom_just_below_N(self, q, k):
        # N one ulp past the atom s 2^k leaves that atom out
        d = dyadic_two_sided(q)
        atom = dyadic_scale(q) * 2 ** k
        assert truncated_second_moment(d, atom) == (4 * q) ** k
        assert truncated_second_moment(d, math.nextafter(atom, math.inf)) == (4 * q) ** (k + 1)

    @pytest.mark.parametrize("d", [standardized_uniform(), dyadic_two_sided(0.1),
                                   dyadic_two_sided(0.2)],
                             ids=["uniform", "dyadic-0.1", "dyadic-0.2"])
    @given(x=st.floats(allow_nan=False) | st.sampled_from(
        [0.0, -0.0, 1.0, math.sqrt(3), dyadic_scale(0.1) * 8, dyadic_scale(0.2) * 2]))
    def test_symmetric_below_is_above_of_minus_x(self, d, x):
        for y in (x, -x):
            assert (tail_probability(d, y, "below").hex()
                    == tail_probability(d, -y, "above").hex())

    @LAWS
    def test_pickle_round_trip_builds_the_queries_again(self, d):
        e = pickle.loads(pickle.dumps(d))
        u = np.linspace(0.0, 1.0 - 2.0 ** -53, 1001)
        assert e == d and e.is_discrete == d.is_discrete
        assert e.ppf(u).tobytes() == d.ppf(u).tobytes()
        for x in (-2.0, -1.0, 0.0, 0.5, 1.7, 3.0):
            for side in ("above", "below"):
                assert tail_probability(e, x, side) == tail_probability(d, x, side)
            assert truncated_second_moment(e, x) == truncated_second_moment(d, x)
        assert estimate_exp_moment(e, 0.5) == estimate_exp_moment(d, 0.5)


@st.composite
def standardized_laws(draw):
    """A finite_discrete law of 3 to 17 distinct points, some of zero
    probability, shifted and scaled to mean 0 and variance 1."""
    size = draw(st.integers(3, 17))
    pts = np.array(draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size,
                                 unique=True)), dtype=float)
    weights = draw(st.lists(st.integers(0, 20), min_size=size - 1, max_size=size - 1))
    pr = np.array(weights + [draw(st.integers(1, 20))], dtype=float)
    assume(np.count_nonzero(pr) >= 2)
    pr /= math.fsum(pr)
    pr[-1] = 1.0 - math.fsum(pr[:-1])
    mean = pts @ pr
    return finite_discrete((pts - mean) / math.sqrt((pts - mean) ** 2 @ pr), pr)


class TestDiscreteOracles:
    @settings(max_examples=100, deadline=None)
    @given(d=standardized_laws(), x=st.floats(-10.0, 10.0),
           gamma=st.floats(0.01, 5.0))
    def test_queries_match_mask_sums(self, d, x, gamma):
        pairs = list(zip(d.points, d.probs))
        for y in (x, -x, *d.points):
            above = math.fsum(p for v, p in pairs if v > y)
            below = math.fsum(p for v, p in pairs if v < y)
            trunc2 = math.fsum(p * v * v for v, p in pairs if abs(v) >= abs(y))
            assert tail_probability(d, y, "above") == pytest.approx(above, rel=1e-12, abs=1e-15)
            assert tail_probability(d, y, "below") == pytest.approx(below, rel=1e-12, abs=1e-15)
            assert truncated_second_moment(d, abs(y)) == pytest.approx(trunc2, rel=1e-12,
                                                                       abs=1e-15)
        # a point of zero probability adds 0, as the law's own sum does,
        # even where its exponential would overflow
        moment = math.fsum(p * math.exp(gamma * abs(v)) for v, p in pairs if p > 0)
        assert estimate_exp_moment(d, gamma) == pytest.approx(moment, rel=1e-12)
