import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmopt import (EnumerationCapError, ScenarioSet, build_market,
                    enumerate_scenarios, expectation, finite_discrete, rademacher,
                    sample_scenarios, standardized_two_point,
                    standardized_uniform)
from apmopt.scenarios import _BLOCK
from conftest import rademacher_market


class TestEnumeration:
    def test_three_rademacher(self, market_zero_drift):
        s = enumerate_scenarios(market_zero_drift)
        assert s.n == 8
        assert np.all(s.weights == 0.125)

    def test_cap_exceeded(self):
        m = rademacher_market([0.0] * 21)
        with pytest.raises(EnumerationCapError):
            enumerate_scenarios(m)

    def test_two_point_weights(self):
        m = build_market(1, 1, mu=[0.0], beta=[], beta_bar=[1.0],
                         noise=standardized_two_point(0.64))
        s = enumerate_scenarios(m)
        assert sorted(s.weights) == pytest.approx([0.36, 0.64])

    def test_continuous_refused(self):
        m = build_market(1, 1, mu=[0.0], beta=[], beta_bar=[1.0],
                         noise=standardized_uniform())
        with pytest.raises(EnumerationCapError):
            enumerate_scenarios(m)

    def test_moments_exact(self):
        m = build_market(1, 2, mu=[0.0, 0.0], beta=[[0.0]], beta_bar=[1.0, 1.0],
                         noise=(rademacher(), standardized_two_point(0.3)))
        s = enumerate_scenarios(m)
        for k in range(2):
            assert abs(expectation(s, s.draws[:, k])) <= 1e-12
            assert abs(expectation(s, s.draws[:, k] ** 2) - 1.0) <= 1e-12


def standardized_law(raw_points, raw_probs):
    """finite_discrete law of the given points, shifted and scaled to mean 0
    and variance 1; probabilities normalized to sum to 1."""
    pts = np.asarray(raw_points, dtype=float)
    pr = np.asarray(raw_probs, dtype=float)
    pr = pr / math.fsum(pr)
    pr[-1] = 1.0 - math.fsum(pr[:-1])
    mean = pts @ pr
    return finite_discrete((pts - mean) / math.sqrt((pts - mean) ** 2 @ pr), pr)


@st.composite
def discrete_law(draw):
    size = draw(st.integers(2, 4))
    pts = draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size,
                        unique=True))
    probs = draw(st.lists(st.integers(1, 20), min_size=size, max_size=size))
    return standardized_law(pts, probs)


class TestEnumerationOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(discrete_law(), min_size=1, max_size=5))
    def test_rows_and_weights_match_product_reference(self, laws):
        K = len(laws)
        m = build_market(1, K, mu=[0.0] * K, beta=[[0.0]] * (K - 1),
                         beta_bar=[1.0] * K, noise=tuple(laws))
        s = enumerate_scenarios(m)
        # reference: itertools.product rows, weights multiplied left to right
        ref_draws = np.array(list(itertools.product(*(d.points for d in laws))),
                             dtype=float)
        ref_weights = np.array([math.prod(row) for row in
                                itertools.product(*(d.probs for d in laws))])
        assert np.array_equal(s.draws, ref_draws)
        assert np.array_equal(s.weights, ref_weights)


class TestExpectation:
    def test_constant(self, market_zero_drift):
        s = enumerate_scenarios(market_zero_drift)
        assert expectation(s, np.ones(s.n)) == 1.0

    def test_symmetry(self, market_zero_drift):
        s = enumerate_scenarios(market_zero_drift)
        assert expectation(s, s.draws[:, 0]) == 0.0

    def test_two_point_value(self):
        m = build_market(1, 1, mu=[0.0], beta=[], beta_bar=[1.0],
                         noise=standardized_two_point(0.64))
        s = enumerate_scenarios(m)
        vals = np.where(s.draws[:, 0] > 0, 1.0, -1.0)
        assert expectation(s, vals) == pytest.approx(0.28)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 1 << 17), st.integers(0, 2 ** 32 - 1))
    def test_within_pairwise_bound_of_exact_sum(self, n, seed):
        # signed values over 16 decades; math.fsum is the correctly rounded sum
        gen = np.random.Generator(np.random.Philox(key=seed))
        w = gen.random(n) + 1e-3
        w /= w.sum()
        v = gen.choice([-1.0, 1.0], n) * 10.0 ** gen.uniform(-8.0, 8.0, n)
        s = ScenarioSet(np.zeros((n, 1)), w, "test")
        bound = 64 * 2.0 ** -52 * math.fsum(np.abs(w * v))
        assert abs(expectation(s, v) - math.fsum(w * v)) <= bound

    def test_length_mismatch(self, market_zero_drift):
        s = enumerate_scenarios(market_zero_drift)
        with pytest.raises(ValueError):
            expectation(s, np.ones(3))


class TestSampling:
    def test_bit_identical_repeat(self, market_k3):
        a = sample_scenarios(market_k3, 1000, seed=42)
        b = sample_scenarios(market_k3, 1000, seed=42)
        assert np.array_equal(a.draws, b.draws)

    def test_prefix_property(self, market_k3):
        # row j depends only on (seed, j): a shorter run is a prefix
        a = sample_scenarios(market_k3, 3 * _BLOCK + 17, seed=9)
        b = sample_scenarios(market_k3, _BLOCK + 5, seed=9)
        assert np.array_equal(a.draws[: _BLOCK + 5], b.draws)

    def test_seed_changes_rows(self, market_k3):
        a = sample_scenarios(market_k3, 100, seed=1)
        b = sample_scenarios(market_k3, 100, seed=2)
        assert not np.array_equal(a.draws, b.draws)

    def test_single_row(self, market_k3):
        s = sample_scenarios(market_k3, 1, seed=0)
        assert s.n == 1 and s.weights[0] == 1.0

    def test_rademacher_mean_clt(self):
        m = rademacher_market([0.0])
        s = sample_scenarios(m, 10 ** 6, seed=42)
        assert abs(s.draws[:, 0].mean()) < 4e-3  # ~4 sigma CLT bound

    def test_mc_matches_enumeration(self, market_k3):
        # bounded statistic: u-shaped payoff of the first two coordinates
        s_exact = enumerate_scenarios(market_k3)
        stat = lambda d: np.tanh(d[:, 0] + 0.5 * d[:, 1])
        truth = expectation(s_exact, stat(s_exact.draws))
        s_mc = sample_scenarios(market_k3, 10 ** 5, seed=11)
        est = float(np.mean(stat(s_mc.draws)))
        se = float(np.std(stat(s_mc.draws)) / math.sqrt(s_mc.n))
        assert abs(est - truth) <= 5 * se

    def test_weights_uniform(self, market_k3):
        s = sample_scenarios(market_k3, 10, seed=3)
        assert np.all(s.weights == 0.1)
