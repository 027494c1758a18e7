import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apmopt import (DistributionSpec, EnumerationCapError, GrowthBounds,
                    ScenarioSet, SolverConfig, appendix_power, build_market,
                    build_tilted_measure, detect_unbounded, dyadic_two_sided,
                    enumerate_scenarios, eval_u, expectation,
                    finite_discrete, measure_moments, optimize_truncated,
                    rademacher, sample_scenarios, standardized_two_point,
                    standardized_uniform, truncation_ladder, verify_pricing)
from apmopt import diagnostics
from apmopt.optimize import saa_objective
from apmopt.scenarios import _BLOCK, _WINDOW, _product_weights
from conftest import rademacher_market, row_set, searchsorted_ppf


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


@st.composite
def product_probs(draw):
    """1-12 probability arrays of 1-5 entries, some of them 0, with at most
    2^16 products in all."""
    probs, rows = [], 1
    for _ in range(draw(st.integers(1, 12))):
        m = draw(st.integers(1, max(1, min(5, (1 << 16) // rows))))
        rows *= m
        entries = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
        probs.append(np.array(draw(st.lists(entries, min_size=m, max_size=m))))
    return probs


def probs_with_zeros(m, seed):
    """m probabilities in [0, 1), about a tenth of them 0."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) > 0.1)


class TestProductWeights:
    @settings(max_examples=100, deadline=None)
    @given(product_probs())
    # a law longer than the products before it takes the outer product
    @example([probs_with_zeros(20_001, 1), probs_with_zeros(2, 2)])
    @example([probs_with_zeros(2, 3), probs_with_zeros(20_001, 4)])
    @example([probs_with_zeros(m, 5 + i) for i, m in enumerate((2, 2, 3, 4_197, 2))])
    def test_bytes_match_outer_products(self, probs):
        # one coordinate at a time into columns, against the outer products
        want = functools.reduce(np.multiply.outer, probs).ravel()
        got = _product_weights(probs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_no_law_is_one_row(self):
        assert _product_weights([]).tolist() == [1.0]


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
def discrete_law(draw, max_size=4, max_weight=20):
    size = draw(st.integers(2, max_size))
    pts = draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size,
                        unique=True))
    probs = draw(st.lists(st.integers(1, max_weight), min_size=size, max_size=size))
    return standardized_law(pts, probs)


@st.composite
def clt_markets(draw):
    """(model, level): an m = 1 market of 1-3 standardized laws of 2-3
    points, each probability at least 1/9 and each b_i in the middle three
    fifths of its law's range, and a truncation level in [1, K].  Every
    joint atom has probability at least 1/729, so 2 * 10^4 rows hold about
    27 or more of each, and a sample's standard error sees every atom."""
    laws = draw(st.lists(discrete_law(max_size=3, max_weight=4), min_size=1, max_size=3))
    K = len(laws)
    b = [min(d.points) + draw(st.floats(0.2, 0.8)) * (max(d.points) - min(d.points))
         for d in laws]
    model = build_market(1, K, mu=[-x for x in b], beta=[[0.0]] * (K - 1),
                         beta_bar=[1.0] * K, noise=tuple(laws))
    return model, draw(st.integers(1, K))


def assert_within_clt_band(estimate, truth, samples):
    """|estimate - truth| within 5 standard errors of the samples' mean,
    the error estimated from the samples themselves (plus rounding)."""
    se = float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
    assert abs(estimate - truth) <= 5.0 * se + 1e-12 * max(1.0, abs(truth))


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
        assert (s.n, s.K, s.is_exact) == (len(ref_draws), K, True)


class TestRowsOnRead:
    def test_rows_built_once_on_first_read(self, market_k3):
        s = enumerate_scenarios(market_k3)
        assert (s.n, s.K) == (8, 3)
        assert s.draws is s.draws
        assert s.draws.shape == (8, 3)

    def test_positional_constructor_keeps_its_rows(self):
        draws = np.arange(6.0).reshape(3, 2)
        s = ScenarioSet(draws, np.full(3, 1.0 / 3.0), "given")
        assert s.draws is draws
        assert (s.n, s.K, s.is_exact, s.provenance) == (3, 2, False, "given")
        with pytest.raises(ValueError, match="length mismatch"):
            ScenarioSet(draws, np.full(2, 0.5), "given")
        with pytest.raises(ValueError, match="sum to 1"):
            ScenarioSet(draws, np.full(3, 0.5), "given")

    def test_weights_built_once_on_first_read(self):
        # unequal laws; n needs neither the rows nor the weights
        noise = (standardized_two_point(0.3), rademacher(), standardized_two_point(0.8))
        model = build_market(1, 3, mu=[0.0] * 3, beta=[[0.0]] * 2, beta_bar=[1.0] * 3,
                             noise=noise)
        s = enumerate_scenarios(model)
        assert (s.n, s.K) == (8, 3)
        assert s._weights is None and s._draws is None
        assert s.weights.tobytes() == _product_weights(
            [np.array(d.probs) for d in noise]).tobytes()
        assert s.weights is s.weights and s._draws is None

    def test_rows_make_a_row_set_whatever_the_label(self, market_k3):
        s = enumerate_scenarios(market_k3)
        labelled = ScenarioSet(s.draws, s.weights, s.provenance)
        assert s.is_exact and not labelled.is_exact
        assert labelled.provenance == "exact_enumeration"


class TestExactSetsReadTheirOwnLaws:
    K = 16  # 2^16 rows: in product form

    @classmethod
    def uniform_drift_market(cls, noise):
        return build_market(1, cls.K, mu=[-0.1] * cls.K, beta=[[0.0]] * (cls.K - 1),
                            beta_bar=[1.0] * cls.K, noise=noise)

    @pytest.mark.parametrize("paired", ["same market", "another market"])
    def test_no_call_builds_the_rows(self, paired):
        # A's enumeration, paired with A or with B, which has A's K and
        # drifts but other laws: every call reads A's laws, builds no rows,
        # and matches the same call on A's rows.  Q is A's measure, which
        # prices A's laws, so the Hoelder guard passes under either pairing
        A = self.uniform_drift_market(rademacher())
        model = (A if paired == "same market"
                 else self.uniform_drift_market(standardized_two_point(0.3)))
        u = appendix_power(0.5, GrowthBounds(0.5, 1.5, 1.0, 1.0))
        Q = build_tilted_measure(A)
        strategies = diagnostics.random_strategies(3, 10, 1.0, seed=4)

        def calls(s):
            found = detect_unbounded(model, s)
            ladder = truncation_ladder(model, u, SolverConfig(ladder=(1, 2, 3)), s)
            pricing = verify_pricing(Q, model, s=s)
            moments = measure_moments(Q, s).moments
            exp_moment = diagnostics.exp_ui_bound(model, s, 1.0, 10, seed=3)
            holder = diagnostics.holder_chain_check(model, Q, u, strategies, s)
            values = [*ladder.values(),
                      *(v for tab in moments.values() for v in tab.values()),
                      *(r["value"] for r in exp_moment["measurements"]),
                      *holder["margins"]]
            return found, values, pricing["asset_residuals"]

        s = enumerate_scenarios(A)
        found, values, residuals = calls(s)
        assert s._draws is None
        rows_found, rows_values, rows_residuals = calls(row_set(s))
        assert found == rows_found == (False, None)
        assert values == pytest.approx(rows_values, rel=1e-12)
        assert residuals == pytest.approx(rows_residuals, abs=1e-12)


class TestWeightCheck:
    """A product set checks the product of its K laws' sums; a set given by
    rows sums all its weights."""

    @staticmethod
    def off_law(eps):
        # a Rademacher law whose probabilities sum to 1 + eps: within
        # DistributionSpec's 1e-12, and standardized to 1e-10
        return finite_discrete([-1.0, 1.0], [0.5, 0.5 + eps])

    @pytest.mark.parametrize("eps", [0.9e-12, -0.9e-12])
    def test_laws_off_within_tolerance_pass_alone(self, eps):
        m = build_market(1, 1, mu=[0.0], beta=[], beta_bar=[1.0], noise=self.off_law(eps))
        assert enumerate_scenarios(m).n == 2

    @pytest.mark.parametrize("K", [2, 3, 8])
    @pytest.mark.parametrize("eps", [0.9e-12, -0.9e-12])
    def test_products_of_laws_off_within_tolerance_refused(self, K, eps):
        law = self.off_law(eps)
        m = build_market(1, K, mu=[0.0] * K, beta=[[0.0]] * (K - 1), beta_bar=[1.0] * K,
                         noise=law)
        with pytest.raises(ValueError, match="sum to 1"):
            enumerate_scenarios(m)
        # the same rows and weights given as a matrix: the full sum refuses them
        probs = [np.array(law.probs)] * K
        weights = functools.reduce(np.multiply.outer, probs).ravel()
        draws = np.array(list(itertools.product(*[law.points] * K)))
        assert abs(math.fsum(weights) - 1.0) > 1e-12
        with pytest.raises(ValueError, match="sum to 1"):
            ScenarioSet(draws, weights, "given")

    @pytest.mark.parametrize("weights, message", [
        ([math.nan, 1.0], "weights must be finite"),
        ([math.inf, -math.inf], "weights must be finite"),
        ([2.0, -1.0], "weights must be nonnegative"),
    ])
    def test_positional_set_refuses_bad_weights(self, weights, message):
        with pytest.raises(ValueError, match=message):
            ScenarioSet(np.zeros((2, 1)), np.array(weights), "given")

    def test_nan_sum_refused(self):
        # a product set checks its laws' sums alone; NaN fails that test
        with pytest.raises(ValueError, match="sum to 1"):
            ScenarioSet._product([(np.array([-1.0, 1.0]), np.array([math.nan, 1.0]))])

    def test_positional_set_sums_every_weight(self, market_k3):
        # one weight off by 2e-12 in a set whose laws would pass
        s = enumerate_scenarios(market_k3)
        weights = s.weights.copy()
        weights[5] += 2e-12
        with pytest.raises(ValueError, match="sum to 1"):
            ScenarioSet(s.draws, weights, "given")
        assert ScenarioSet(s.draws, s.weights.copy(), "given").n == 8


class TestExactSetMemory:
    """An exact enumeration keeps its K laws, and no library call on a set
    in product form builds the (n, K) rows: at K = 19 those are 80 MB."""

    K = 19

    @pytest.fixture
    def model(self):
        K = self.K
        return build_market(1, K, mu=[-0.4 / i for i in range(1, K + 1)],
                            beta=[[0.0]] * (K - 1), beta_bar=[1.0] * K,
                            noise=rademacher())

    @staticmethod
    def traced_peak_mb(work):
        tracemalloc.start()
        try:
            out = work()
            return tracemalloc.get_traced_memory()[1] / 2 ** 20, out
        finally:
            tracemalloc.stop()

    def test_enumeration_peak(self, model):
        # the laws alone: the 4 MB of product weights are built on first read
        peak, s = self.traced_peak_mb(lambda: enumerate_scenarios(model))
        assert s.n == 2 ** self.K
        assert peak <= 1.0

    def test_session_peak(self, model, tmp_path):
        # every library call of an exact session on one enumeration
        u = appendix_power(0.5, GrowthBounds(0.5, 1.5, 1.0, 1.0))

        def session():
            s = enumerate_scenarios(model)
            detect_unbounded(model, s)
            optimize_truncated(model, u, None, s, SolverConfig(grad_tol=1e-8, max_iter=25))
            Q = build_tilted_measure(model)
            verify_pricing(Q, model, s=s)
            measure_moments(Q, s)
            sections = {
                "exp_moment": diagnostics.exp_ui_bound(model, s, 1.0, 25, seed=3),
                "holder": diagnostics.holder_chain_check(
                    model, Q, u, diagnostics.random_strategies(self.K, 25, 1.0, 4), s),
            }
            diagnostics.emit_report(diagnostics.assemble_report(model, sections),
                                    str(tmp_path))
            return s

        peak, s = self.traced_peak_mb(session)
        assert peak <= 64.0
        assert s._draws is None  # no call read the rows
        assert s._weights is None  # nor the product weights


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

    def test_rows_match_the_row_major_sampler(self):
        # the column-major sampler against a reference that fills C-ordered
        # rows from one C-ordered uniform block per _BLOCK rows and maps
        # every column by searchsorted
        noise = [rademacher(), standardized_two_point(0.3),
                 finite_discrete((1.0, -2.0, 0.0), (1 / 3, 1 / 6, 1 / 2)),
                 standardized_uniform()]
        model = build_market(1, 4, mu=[0.1, 0.05, -0.2, 0.3], beta=[[0.0]] * 3,
                             beta_bar=[1.0] * 4, noise=noise)
        n, seed = 2 * _BLOCK + 5, 17
        ref = np.empty((n, 4))
        for start in range(0, n, _BLOCK):
            count = min(_BLOCK, n - start)
            gen = np.random.Generator(np.random.Philox(key=(seed << 64) | start // _BLOCK))
            u = gen.random((count, 4))
            for k, dist in enumerate(noise):
                ref[start:start + count, k] = searchsorted_ppf(dist, u[:, k])
        s = sample_scenarios(model, n, seed)
        assert s.draws.shape == (n, 4) and s.draws.flags.f_contiguous
        assert s.draws.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 7])
    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 3 * _BLOCK + _WINDOW + 1))
    @example(1)
    @example(_WINDOW - 1)
    @example(_WINDOW + 1)
    @example(_BLOCK - 1)
    @example(_BLOCK + 1)
    @example(_BLOCK + _WINDOW + 1)
    @example(3 * _BLOCK + _WINDOW + 1)
    def test_one_buffer_keeps_every_blocks_stream(self, K, n):
        # every key block's uniforms go through one reused window buffer:
        # the rows are those of a new gen.random((count, K)) per block,
        # byte for byte, wherever the block and window edges fall
        noise = [standardized_uniform(), dyadic_two_sided(0.1),
                 finite_discrete((1.0, -2.0, 0.0), (1 / 3, 1 / 6, 1 / 2)), rademacher()] * 2
        model = build_market(1, K, mu=[0.0] * K, beta=[[0.0]] * (K - 1),
                             beta_bar=[1.0] * K, noise=noise[:K])
        seed = 2 ** 64 - 3
        ref = np.empty((K, n))
        for start in range(0, n, _BLOCK):
            count = min(_BLOCK, n - start)
            gen = np.random.Generator(np.random.Philox(key=(seed << 64) | start // _BLOCK))
            u = gen.random((count, K))
            for k, dist in enumerate(model.noise):
                ref[k, start:start + count] = dist.ppf(u[:, k])
        assert sample_scenarios(model, n, seed).draws.T.tobytes() == ref.tobytes()

    def test_ppf_runs_once_per_coordinate_and_window(self, monkeypatch):
        # every draw goes through the class attribute DistributionSpec.ppf,
        # one call per coordinate and _WINDOW rows, where a wrapper counts it
        calls = []
        ppf = DistributionSpec.ppf

        def counted(dist, u):
            calls.append((dist.family, u.size))
            return ppf(dist, u)

        monkeypatch.setattr(DistributionSpec, "ppf", counted)
        noise = [rademacher(), standardized_uniform(), dyadic_two_sided(0.1)]
        model = build_market(1, 3, mu=[0.1, 0.05, -0.2], beta=[[0.0]] * 2,
                             beta_bar=[1.0] * 3, noise=noise)
        sample_scenarios(model, 2 * _BLOCK + 5, seed=3)
        windows = [_WINDOW] * (2 * _BLOCK // _WINDOW) + [5]
        assert calls == [(d.family, count) for count in windows for d in noise]

    @pytest.mark.parametrize("n", [5, 3 * _BLOCK + 5])
    def test_sampling_holds_one_window_of_uniforms(self, n):
        # besides the draws and the weights, sampling allocates one
        # (min(_WINDOW, n), K) buffer of uniforms and a fixed slack for one
        # window's quantiles; a (_BLOCK, K) buffer would add 4.7 MB more,
        # and a full window at n = 5 1.6 MB
        K = 50
        noise = [standardized_uniform(), dyadic_two_sided(0.1), rademacher(),
                 finite_discrete((1.0, -2.0, 0.0), (1 / 3, 1 / 6, 1 / 2))] * 13
        model = build_market(1, K, mu=[0.0] * K, beta=[[0.0]] * (K - 1),
                             beta_bar=[1.0] * K, noise=noise[:K])
        sample_scenarios(model, 1, seed=5)  # numpy.random's import, untraced
        tracemalloc.start()
        try:
            s = sample_scenarios(model, n, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.draws.shape == (n, K)
        assert peak <= (K * n + n + K * min(_WINDOW, n)) * 8 + 256 * 1024

    def test_seed_changes_rows(self, market_k3):
        a = sample_scenarios(market_k3, 100, seed=1)
        b = sample_scenarios(market_k3, 100, seed=2)
        assert not np.array_equal(a.draws, b.draws)

    @pytest.mark.parametrize("seed", [3.9, 3.0, True, np.float64(3.0), "3", None])
    def test_non_integer_seed_refused(self, market_k3, seed):
        # before, int(seed) drew seed 3.9's rows as seed 3's, and True as 1
        with pytest.raises(ValueError, match="^" + re.escape(f"seed must be an integer, got {seed!r}") + "$"):
            sample_scenarios(market_k3, 5, seed)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_its_range_refused(self, market_k3, seed):
        # the stream is keyed by (seed << 64) | block: before, numpy's "key
        # must be positive and less than 2**128"
        with pytest.raises(ValueError, match=fr"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
            sample_scenarios(market_k3, 5, seed)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3), np.int8(3)])
    def test_numpy_integer_seed_accepted(self, market_k3, seed):
        s = sample_scenarios(market_k3, 5, seed)
        assert s.draws.tobytes() == sample_scenarios(market_k3, 5, 3).draws.tobytes()
        assert s.provenance == "monte_carlo(seed=3, n=5)"
        top = sample_scenarios(market_k3, 5, np.uint64(2 ** 64 - 1))
        assert top.draws.tobytes() == sample_scenarios(market_k3, 5, 2 ** 64 - 1).draws.tobytes()

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


class TestMonteCarloAgainstEnumeration:
    @settings(max_examples=30, deadline=None)
    @given(clt_markets(), st.integers(0, 2 ** 64 - 1))
    def test_within_clt_bands(self, market, seed):
        # the density moments at w = +-1, +-2 and one level's objective at
        # its exact optimizer, on 2 * 10^4 sampled rows, against their
        # exact values; a 5-standard-error miss has probability near 6e-7
        # per comparison
        model, level = market
        s_exact = enumerate_scenarios(model)
        s_mc = sample_scenarios(model, 20_000, seed)
        Q = build_tilted_measure(model)
        ws = (-2.0, -1.0, 1.0, 2.0)
        exact = measure_moments(Q, s_exact, ws).moments["dQ/dP"]
        sampled = measure_moments(Q, s_mc, ws).moments["dQ/dP"]
        dens = Q.density(s_mc.draws)
        for w in ws:
            assert_within_clt_band(sampled[w], exact[w], dens ** w)
        u = appendix_power(0.5)
        res = optimize_truncated(model, u, level, s_exact)
        X = s_mc.draws[:, :level] - model.b[:level]
        assert_within_clt_band(saa_objective(u, X, s_mc.weights, res.phi_star),
                               res.value, eval_u(u, X @ res.phi_star))
