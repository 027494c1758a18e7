import itertools
import json
import math
import os
import pathlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apmopt import (GrowthBounds, ScenarioSet, appendix_power, build_market,
                    build_tilted_measure, dyadic_two_sided,
                    enumerate_scenarios, eval_u, eval_u_prime, expectation,
                    finite_discrete, measure_moments, rademacher, sample_scenarios,
                    standardized_two_point, tabulated, verify_pricing)
from apmopt import diagnostics, optimize, utility
from apmopt.diagnostics import (assemble_report, check_assumption_relevant,
                                emit_report, exp_ui_bound, holder_chain_check,
                                random_strategies, subgaussian_scan)
from apmopt.optimize import ROW_BLOCK
from conftest import rademacher_market, row_set, stdout_per_blas_thread_count


BLOCK_EDGES = (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 17)
BOUNDED_UTILITIES = (
    appendix_power(0.5, GrowthBounds(0.5, 1.5, 1.0, 1.0)),
    tabulated((-10.0, -1.0, 0.0, 1.0, 10.0), (-30.0, -2.0, 0.2, 1.0, 3.0),
              GrowthBounds(0.5, 1.5, 2.0, 2.0)),
)


def fraction_market(noise, fracs):
    """m=1 market on the given laws with b_i at fraction fracs[i] of the
    way up law i's support."""
    K = len(noise)
    b = [min(law.points) + frac * (max(law.points) - min(law.points))
         for law, frac in zip(noise, fracs)]
    return build_market(1, K, mu=[-x for x in b], beta=[[0.0]] * (K - 1),
                        beta_bar=[1.0] * K, noise=tuple(noise))


@st.composite
def sampled_markets(draw):
    """m=1 markets of 1-8 coordinates, each Rademacher or a standardized
    two-point law, with b_i strictly inside its support."""
    K = draw(st.integers(1, 8))
    laws = [rademacher(), standardized_two_point(0.3), standardized_two_point(0.8)]
    noise = [draw(st.sampled_from(laws)) for _ in range(K)]
    return fraction_market(noise, [draw(st.floats(0.05, 0.95)) for _ in range(K)])


@st.composite
def product_laws(draw):
    """(points, probs) laws of 1-14 coordinates with 1-5 support points
    each, on a 1/100 grid, some probabilities 0, at most 2^16 rows in all.
    Some draws give one coordinate more than ROW_BLOCK points."""
    K = draw(st.integers(1, 14))
    big = draw(st.one_of(st.none(), st.integers(0, K - 1)))
    big_size = draw(st.integers(ROW_BLOCK + 1, ROW_BLOCK + 300))
    rows = 1 if big is None else big_size
    laws = []
    for i in range(K):
        if i == big:
            pts = np.linspace(-2.0, 2.0, big_size)
            raw = np.arange(1.0, big_size + 1)
        else:
            m = draw(st.integers(1, max(1, min(5, (1 << 16) // rows))))
            rows *= m
            pts = np.array(draw(st.lists(st.integers(-400, 400), min_size=m,
                                         max_size=m, unique=True))) / 100.0
            raw = np.array(draw(st.lists(st.integers(0, 3), min_size=m,
                                         max_size=m).filter(any)), dtype=float)
        laws.append((pts, raw / raw.sum()))
    return laws


THREE_POINT = (np.array([-1.5, 0.25, 1.25]), np.array([0.25, 0.5, 0.25]))
LONG_LAW = (np.linspace(-2.0, 2.0, ROW_BLOCK + 101),
            np.arange(1.0, ROW_BLOCK + 102) / ((ROW_BLOCK + 101) * (ROW_BLOCK + 102) / 2))


def side_bound(s, v, slope, X, phi):
    """How far a sum over the row blocks may stray from expectation(s, v)
    with v = f(X @ phi): expectation's pairwise rounding bound
    log2(n) 2^-52 sum |w v| once for each summation order, plus the
    rounding of each f(y) and w f(y) to its own ulp, 2^-52 sum |w v| once
    for each order, plus the payoffs, which the block gemm and this
    whole-array product may round differently, by up to
    k 2^-52 sum_i |phi_i x_i| per row, times |f'| <= slope."""
    k = phi.size
    dy = k * 2.0 ** -52 * (np.abs(X[:, :k]) @ np.abs(phi))
    return (2.0 * (math.log2(s.n) + 1.0) * 2.0 ** -52 * float(np.sum(np.abs(s.weights * v)))
            + float(np.sum(s.weights * slope * dy)))


def assert_margins_match_oracle(out, model, u, strategies, s):
    """Each margin against the two-evaluation oracle: E[u(Y+)] and
    E[u(-Y-)] from whole-array expectations, each within side_bound, and
    the margin, which falls as either side rises, between the margins at
    the two ends of those intervals (to 8 ulps of the chain's terms)."""
    g = u.growth
    slope = float(eval_u_prime(u, -1e3))  # concave u: the largest slope right of -1e3

    def margin(lhs, neg):
        inner = (-neg / g.C2 + 1.0) ** (g.alpha / g.beta)
        rhs = g.C1 * (out["C_prime"] * out["C_dprime"] * inner + 1.0)
        return rhs - lhs, 8 * 2.0 ** -52 * (abs(rhs) + abs(lhs))

    X = s.draws - model.b
    assert len(out["margins"]) == len(strategies)
    for m, phi in zip(out["margins"], strategies):
        y = X[:, :phi.size] @ phi
        gains, losses = eval_u(u, np.maximum(y, 0.0)), eval_u(u, -np.maximum(-y, 0.0))
        lhs, neg = expectation(s, gains), expectation(s, losses)
        tl = side_bound(s, gains, slope, X, phi)
        tn = side_bound(s, losses, slope, X, phi)
        lo, slack_lo = margin(lhs + tl, neg + tn)
        hi, slack_hi = margin(lhs - tl, neg - tn)
        assert lo - slack_lo <= m <= hi + slack_hi


class TestRandomStrategies:
    def test_norm_schedule(self):
        phis = random_strategies(4, 10, 1.0, seed=1)
        norms = np.linalg.norm(phis, axis=1)
        assert norms == pytest.approx(np.arange(1, 11) / 10.0)

    def test_seeded(self):
        assert np.array_equal(random_strategies(4, 5, 1.0, 7),
                              random_strategies(4, 5, 1.0, 7))

    def test_negative_count_refused(self, market_k3):
        # before, numpy's "negative dimensions are not allowed"
        s = enumerate_scenarios(market_k3)
        with pytest.raises(ValueError, match="^strategy count must be >= 0, got -1$"):
            random_strategies(3, -1, 1.0, seed=0)
        with pytest.raises(ValueError, match="^strategy count must be >= 0, got -1$"):
            exp_ui_bound(market_k3, s, delta=1.0, trials=-1, seed=0)
        assert exp_ui_bound(market_k3, s, delta=1.0, trials=0, seed=0)["measurements"] == []

    def test_negative_width_refused(self):
        # before, numpy's "negative dimensions are not allowed"
        with pytest.raises(ValueError, match="^strategy width K must be >= 0, got -1$"):
            random_strategies(-1, 3, 1.0, seed=0)
        assert random_strategies(0, 3, 1.0, seed=0).shape == (3, 0)

    @pytest.mark.parametrize("seed", [-5, 2 ** 128])
    def test_seed_outside_key_range_refused(self, seed):
        # before, numpy's "key must be positive and less than 2**128."
        with pytest.raises(ValueError, match=fr"^seed must lie in \[0, 2\*\*128\), got {seed}$"):
            random_strategies(2, 3, 1.0, seed)

    def test_seed_past_the_cli_range_accepted(self):
        # the CLI draws the Hoelder strategies at seed + 1 for a seed below
        # 2**64, so 2**64 itself must work, as must the largest key
        for seed in (2 ** 64, 2 ** 128 - 1):
            phis = random_strategies(2, 3, 1.0, seed)
            assert phis.shape == (3, 2) and np.all(np.isfinite(phis))

    @settings(max_examples=200, deadline=None)
    @given(key=st.one_of(st.sampled_from([0, 2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1]),
                         st.integers(0, 2 ** 128 - 1)),
           size=st.one_of(st.tuples(st.integers(0, 40)),
                          st.tuples(st.integers(0, 40), st.integers(0, 12))))
    @example(key=0, size=(0, 5))
    @example(key=2 ** 64 - 1, size=(3, 0))
    @example(key=2 ** 64, size=(3, 3))
    @example(key=2 ** 128 - 1, size=(5, 19))
    @example(key=2 ** 128 - 1, size=(1,))
    def test_philox_matches_numpy(self, key, size):
        # the package's Philox4x64-10 against numpy's, byte for byte, for
        # counts that are and are not multiples of the four words a
        # counter gives
        want = np.random.Generator(np.random.Philox(key=key)).uniform(-1.0, 1.0, size)
        got = diagnostics._philox_uniforms(key, size)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [np.uint64(2 ** 64 - 1), np.int64(7), np.int32(0)])
    def test_numpy_integer_seed_accepted(self, seed):
        want = np.random.Generator(np.random.Philox(key=int(seed))).uniform(-1.0, 1.0, (6, 3))
        norms = np.linalg.norm(want, axis=1, keepdims=True)
        want = want / norms * (2.0 * np.arange(1, 7) / 6)[:, None]
        got = random_strategies(3, 6, 2.0, seed)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == random_strategies(3, 6, 2.0, int(seed)).tobytes()

    @pytest.mark.parametrize("seed", [3.5, 3.0, True, np.bool_(True), "3", None])
    def test_non_integer_seed_refused(self, market_k3, seed):
        # before, 3.5 drew seed 3's strategies, and True seed 1's
        s = enumerate_scenarios(market_k3)
        message = "^" + re.escape(f"seed must be an integer, got {seed!r}") + "$"
        with pytest.raises(ValueError, match=message):
            random_strategies(2, 3, 1.0, seed)
        with pytest.raises(ValueError, match=message):
            exp_ui_bound(market_k3, s, delta=1.0, trials=4, seed=seed)

    @pytest.mark.parametrize("max_norm", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_max_norm_refused(self, market_k3, max_norm):
        # before, delta = NaN gave NaN values and fitted_C = 0.0
        s = enumerate_scenarios(market_k3)
        message = f"^max_norm must be finite and >= 0, got {max_norm}$"
        with pytest.raises(ValueError, match=message):
            random_strategies(3, 4, max_norm, seed=0)
        with pytest.raises(ValueError, match=message):
            exp_ui_bound(market_k3, s, delta=max_norm, trials=4, seed=0)
        assert not random_strategies(3, 4, 0.0, seed=0).any()


class TestExpMomentBound:
    def test_cosh_product_cap(self, market_k3):
        # Rademacher: E[e^{sum phi eps}] = prod cosh(phi_i) <= e^{||phi||^2/2}
        s = enumerate_scenarios(market_k3)
        out = exp_ui_bound(market_k3, s, delta=1.0, trials=100, seed=3)
        for row in out["measurements"]:
            assert row["value"] <= 2.0 * math.exp(0.5 * row["norm"] ** 2) * (1 + 1e-9)
        assert out["fitted_C"] <= 0.5 + 1e-9

    def test_zero_strategy_value(self, market_k3):
        s = enumerate_scenarios(market_k3)
        z = np.abs(s.draws @ np.zeros(3))
        assert float(np.sum(s.weights * np.exp(z))) == 1.0 <= 2.0

    def test_single_coordinate_exact(self):
        # phi = (delta): E[e^{|delta eps|}] = e^{delta} for Rademacher
        model = rademacher_market([0.0])
        s = enumerate_scenarios(model)
        val = float(np.sum(s.weights * np.exp(np.abs(s.draws @ np.array([0.7])))))
        assert val == pytest.approx(math.exp(0.7))

    def test_tail_expectation_decay(self, market_k3):
        # uniform integrability witness: E[Z^2 1{Z^2 > T}] decays through T
        s = enumerate_scenarios(market_k3)
        phis = random_strategies(3, 50, 1.0, seed=9)
        for T_small, T_big in [(10.0, 100.0), (100.0, 1000.0)]:
            for phi in phis:
                z2 = (s.draws @ phi) ** 2
                small = float(np.sum(s.weights * z2 * (z2 > T_small)))
                big = float(np.sum(s.weights * z2 * (z2 > T_big)))
                assert big <= small
                assert float(np.sum(s.weights * z2 * (z2 > 1000.0))) < 1e-6


def exp_abs(y):
    return (np.exp(np.abs(y)),)


class TestExpMomentClosedForm:
    """exp_ui_bound on an exact set, in closed form from sorted tile sums
    (``_product_exp_abs``), against the row walk over the set's rows."""

    @settings(max_examples=60, deadline=None)
    @given(laws=product_laws(), count=st.integers(1, 12), width=st.integers(1, 14),
           seed=st.integers(0, 2 ** 32 - 1))
    # a 2187-row tile under nine heads; a long leading law as 4197 heads over
    # a 6-point tile; a long last law as the tile, with narrower strategies;
    # a zero-probability point at each end of a law
    @example(laws=[THREE_POINT] * 9, count=5, width=9, seed=1)
    @example(laws=[LONG_LAW, THREE_POINT, (np.array([-0.5, 1.0]), np.array([0.6, 0.4]))],
             count=7, width=3, seed=2)
    @example(laws=[THREE_POINT, THREE_POINT, LONG_LAW], count=3, width=2, seed=3)
    @example(laws=[(np.array([-4.0, -1.0, 0.5, 4.0]), np.array([0.0, 0.5, 0.5, 0.0]))] * 6,
             count=6, width=6, seed=4)
    def test_matches_row_walk(self, laws, count, width, seed):
        # to 1e-12 of the values' scale: E exp|Y| plus E[exp|Y| sum_i
        # |phi_i x_i|], since either side may round each payoff by a few
        # ulps of sum_i |phi_i x_i|
        s = ScenarioSet._product(laws)
        k = min(width, len(laws))
        phis = random_strategies(k, count, 2.0, seed)
        closed = diagnostics._product_exp_abs(s._laws, phis)
        assert s._draws is None  # the closed form reads the laws alone
        (rows,) = diagnostics._strategy_sums(row_set(s), phis, np.zeros(k), exp_abs)
        X = s.draws[:, :k]
        exp_y = np.exp(np.abs(phis @ X.T))
        scale = (exp_y + exp_y * (np.abs(phis) @ np.abs(X).T)) @ s.weights
        assert np.all(np.abs(closed - rows) <= 1e-12 * scale)

    @pytest.mark.parametrize("laws", [[THREE_POINT] * 9, [LONG_LAW, THREE_POINT],
                                      [THREE_POINT, LONG_LAW]],
                             ids=["three_point_k9", "long_first", "long_last"])
    def test_zero_strategy_gives_one(self, laws):
        # the weights' sum: 1 to rounding
        vals = diagnostics._product_exp_abs(laws, np.zeros((2, len(laws))))
        assert np.all(np.abs(vals - 1.0) <= 1e-14)

    def test_overflow_gives_inf_not_nan(self):
        # payoffs beyond log(max float) ~ 709.8 on one side, then on both;
        # the row walk overflows on the same strategies
        laws = [THREE_POINT] * 9
        phis = np.zeros((3, 9))
        phis[0, 0] = 1.0
        phis[1, :] = 80.0  # Y from -1080 to 900
        phis[2, :3] = -500.0  # Y from -375 to 2250
        s = ScenarioSet._product(laws)
        with np.errstate(over="ignore"):
            closed = diagnostics._product_exp_abs(laws, phis)
            (rows,) = diagnostics._strategy_sums(row_set(s), phis, np.zeros(9), exp_abs)
        assert np.isfinite(closed[0]) and closed[0] == pytest.approx(rows[0], rel=1e-12)
        assert np.array_equal(closed[1:], [math.inf, math.inf])
        assert np.array_equal(rows[1:], [math.inf, math.inf])

    def test_zero_probability_points_add_nothing(self):
        # a point of probability 0 far out: the row walk's inf * 0 is NaN,
        # the closed form leaves the point out, and equals its value on the
        # law without that point
        far = (np.array([-1.5, 0.25, 1.25, 900.0]), np.array([0.25, 0.5, 0.25, 0.0]))
        phis = random_strategies(9, 4, 2.0, seed=5)
        with np.errstate(over="ignore", invalid="ignore"):
            (walk,) = diagnostics._strategy_sums(row_set(ScenarioSet._product([far] * 9)),
                                                 phis, np.zeros(9), exp_abs)
        assert np.isnan(walk).all()
        closed = diagnostics._product_exp_abs([far] * 9, phis)
        assert closed == pytest.approx(
            diagnostics._product_exp_abs([THREE_POINT] * 9, phis), rel=1e-13)

    def test_long_law_peak_memory(self):
        # 100 trials on one 10^5-point law as the tile: one strategy at a
        # time, about 7 MB (the row walk of the same set takes 11-13 MB)
        n = 10 ** 5
        laws = [(np.linspace(-2.0, 2.0, n), np.full(n, 1.0 / n))]
        phis = random_strategies(1, 100, 1.0, seed=3)
        tracemalloc.start()
        try:
            vals = diagnostics._product_exp_abs(laws, phis)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak <= 12.0
        assert np.all(vals >= 1.0) and np.all(np.isfinite(vals))


class TestStrategySums:
    def test_identical_across_blas_thread_counts(self):
        # the payoffs and their sums: every block's gemms have power-of-two
        # widths (``optimize._payoffs``); a ragged last block taken whole
        # (ROW_BLOCK - 1 columns, say) is threaded with other last bits.
        # The rows are C-ordered (a ScenarioSet of a matrix) and
        # column-major (a sample).  Then an exact K = 19 set's exp-moment
        # and Hoelder checks, whose product form makes no BLAS call
        code = ("import hashlib, json, numpy as np\n"
                "from apmopt import *\n"
                "from apmopt import diagnostics, optimize\n"
                "for n in (optimize.ROW_BLOCK - 1, 3 * optimize.ROW_BLOCK + 17):\n"
                "    for K in (3, 19, 50):\n"
                "        gen = np.random.Generator(np.random.Philox(key=K))\n"
                "        draws = gen.standard_normal((n, K))\n"
                "        model = build_market(1, K, [0.1] * K, [[0.0]] * (K - 1), [1.0] * K,\n"
                "                             standardized_uniform())\n"
                "        sampled = sample_scenarios(model, n, K)\n"
                "        assert sampled.draws.flags.f_contiguous\n"
                "        phis = gen.uniform(-1.0, 1.0, (25, K))\n"
                "        for s in (ScenarioSet(draws, np.full(n, 1.0 / n), 'test'), sampled):\n"
                "            h = hashlib.sha256()\n"
                "            def values(y):\n"
                "                h.update(y.tobytes())\n"
                "                return (y,)\n"
                "            h.update(diagnostics._strategy_sums(s, phis, draws[0], values))\n"
                "            print(n, K, s.provenance, h.hexdigest())\n"
                "K = 19\n"
                "model = build_market(1, K, [-0.4 / i for i in range(1, K + 1)],\n"
                "                     [[0.0]] * (K - 1), [1.0] * K, rademacher())\n"
                "u = appendix_power(0.5, GrowthBounds(0.5, 1.5, 1.0, 1.0))\n"
                "s = enumerate_scenarios(model)\n"
                "Q = build_tilted_measure(model)\n"
                "out = [diagnostics.exp_ui_bound(model, s, 1.0, 25, 311),\n"
                "       diagnostics.holder_chain_check(\n"
                "           model, Q, u, diagnostics.random_strategies(K, 25, 1.0, 312), s)]\n"
                "print('exact', hashlib.sha256(json.dumps(out).encode()).hexdigest())\n")
        one, two = stdout_per_blas_thread_count(code)
        assert one == two


class TestHolderChain:
    @pytest.fixture
    def bounded_u(self):
        return appendix_power(0.5, GrowthBounds(0.5, 1.5, 1.0, 1.0))

    def test_margins_nonnegative_identity_measure(self, market_zero_drift,
                                                  bounded_u):
        # b = 0: Q = P, C' = C'' = 1
        Q = build_tilted_measure(market_zero_drift)
        s = enumerate_scenarios(market_zero_drift)
        strategies = random_strategies(3, 100, 1.0, seed=2)
        out = holder_chain_check(market_zero_drift, Q, bounded_u, strategies, s)
        assert out["C_prime"] == pytest.approx(1.0, abs=1e-12)
        assert out["C_dprime"] == pytest.approx(1.0, abs=1e-12)
        assert out["min_margin"] >= -1e-9

    def test_margins_nonnegative_tilted(self, market_k3, bounded_u):
        Q = build_tilted_measure(market_k3)
        s = enumerate_scenarios(market_k3)
        strategies = random_strategies(3, 100, 1.0, seed=4)
        out = holder_chain_check(market_k3, Q, bounded_u, strategies, s)
        assert out["min_margin"] >= -1e-9

    def test_zero_strategy_positive_margin(self, market_k3, bounded_u):
        Q = build_tilted_measure(market_k3)
        s = enumerate_scenarios(market_k3)
        out = holder_chain_check(market_k3, Q, bounded_u, np.zeros((1, 3)), s)
        assert out["margins"][0] > 0

    def test_uncertified_refused(self, market_k3):
        Q = build_tilted_measure(market_k3)
        s = enumerate_scenarios(market_k3)
        with pytest.raises(ValueError, match="^utility has no growth bounds; refusing$"):
            holder_chain_check(market_k3, Q, appendix_power(0.5),
                               np.zeros((1, 3)), s)

    @pytest.mark.parametrize("u", BOUNDED_UTILITIES,
                             ids=["appendix_power", "tabulated_u0_nonzero"])
    @pytest.mark.parametrize("case", ["exact", "exact_three_point_k10", "sampled"])
    def test_margins_match_two_evaluation_oracle(self, market_k3, u, case):
        # exact sets in product form, where the sorted-tile kernel runs:
        # Rademacher K = 15, a 4096-row tile under 8 heads, with strategies
        # on the first 3 coordinates, and three-point K = 10, a 2187-row
        # tile under 27 heads, with strategies on the first 8
        model, k = market_k3, 3
        if case == "exact":
            model = rademacher_market([0.2, 0.1, 0.05] + [0.02] * 12)
        if case == "exact_three_point_k10":
            law = finite_discrete((-math.sqrt(2.0), 0.0, math.sqrt(2.0)), (0.25, 0.5, 0.25))
            model = build_market(1, 10, mu=[-0.3 / i for i in range(1, 11)],
                                 beta=[[0.0]] * 9, beta_bar=[1.0] * 10, noise=law)
            k = 8
        s = (sample_scenarios(model, 500, 5) if case == "sampled"
             else enumerate_scenarios(model))
        assert optimize._product_form(s) is s.is_exact
        strategies = random_strategies(k, 20, 2.0, seed=6)
        strategies[0] = 0.0
        Q = build_tilted_measure(model)
        out = holder_chain_check(model, Q, u, strategies, s)
        assert_margins_match_oracle(out, model, u, strategies, s)
        if s.is_exact:
            # the sorted tiles against the rows' gemm walk
            rows = holder_chain_check(model, Q, u, strategies, row_set(s))
            assert out["margins"] == pytest.approx(rows["margins"], rel=1e-12, abs=1e-12)
            exp_vals = [[r["value"] for r in exp_ui_bound(model, t, 2.0, 20, 7)["measurements"]]
                        for t in (s, row_set(s))]
            assert exp_vals[0] == pytest.approx(exp_vals[1], rel=1e-12)

    @pytest.mark.parametrize("u", BOUNDED_UTILITIES,
                             ids=["appendix_power", "tabulated_u0_nonzero"])
    @pytest.mark.parametrize("case", ["exact", "exact_k14", "sampled"])
    def test_split_matches_two_evaluations_bit_for_bit(self, market_k3, u, case,
                                                       monkeypatch):
        # every block's u(Y+) and u(-Y-) from one evaluation of u against
        # eval_u on max(Y, 0) and on Y - max(Y, 0); the exact sets are not
        # in product form, so they walk their rows too
        model = market_k3
        if case == "exact_k14":  # 2^14 rows: four full blocks
            model = rademacher_market([0.3 / i for i in range(1, 15)])
        s = (sample_scenarios(model, 3 * ROW_BLOCK + 17, 5) if case == "sampled"
             else enumerate_scenarios(model))
        assert not optimize._product_form(s)
        split_u = diagnostics._split_u
        blocks = []

        def checked(u_):
            split = split_u(u_)

            def values(y):
                y = y.copy()
                gain, loss = split(y)
                pos = np.maximum(y, 0.0)
                assert gain.tobytes() == eval_u(u, pos).tobytes()
                assert loss.tobytes() == eval_u(u, y - pos).tobytes()
                blocks.append(y.shape)
                return gain, loss
            return values

        monkeypatch.setattr(diagnostics, "_split_u", checked)
        strategies = random_strategies(model.K, 20, 2.0, seed=6)
        strategies[0] = 0.0
        out = holder_chain_check(model, build_tilted_measure(model), u, strategies, s)
        assert len(out["margins"]) == 20
        assert sum(shape[1] for shape in blocks) == s.n
        assert all(shape[0] == 20 for shape in blocks)

    @pytest.mark.parametrize("u", BOUNDED_UTILITIES,
                             ids=["appendix_power", "tabulated_u0_nonzero"])
    def test_split_keeps_signed_zeros(self, u):
        # payoffs at and next to 0, where u(Y) ties u(0) as +0.0 against -0.0
        y = np.array([[0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300],
                      [1e-17, -1e-17, 1.0, -1.0, 20.0, -20.0]])
        gain, loss = diagnostics._split_u(u)(y.copy())
        pos = np.maximum(y, 0.0)
        assert gain.tobytes() == eval_u(u, pos).tobytes()
        assert loss.tobytes() == eval_u(u, y - pos).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(model=sampled_markets(), n=st.sampled_from(BLOCK_EDGES),
           u=st.sampled_from(BOUNDED_UTILITIES), count=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 8))
    # one row, where a 1-ulp difference in the rounding of exp meets a
    # pairwise-sum slack of log2(1) = 0
    @example(model=fraction_market((standardized_two_point(0.3),
                                    standardized_two_point(0.8)), (0.5, 0.5)),
             n=1, u=BOUNDED_UTILITIES[0], count=9, seed=2784566, k=2)
    def test_block_walk_matches_whole_array_oracles(self, model, n, u, count,
                                                    seed, k):
        # the row walk's first, last, partial and exactly full blocks, with
        # Hoelder strategies of k <= K coordinates
        assume(k <= model.K)
        s = sample_scenarios(model, n, seed)
        exp_out = exp_ui_bound(model, s, delta=2.0, trials=count, seed=seed)
        phis = random_strategies(model.K, count, 2.0, seed)
        assert len(exp_out["measurements"]) == count
        for phi, row in zip(phis, exp_out["measurements"]):
            y = s.draws @ phi
            v = np.exp(np.abs(y))
            assert abs(row["value"] - expectation(s, v)) <= side_bound(
                s, v, v, s.draws, phi)
        strategies = random_strategies(k, count, 2.0, seed + 1)
        out = holder_chain_check(model, build_tilted_measure(model), u,
                                 strategies, s)
        assert_margins_match_oracle(out, model, u, strategies, s)

    def test_no_strategies_refused(self, market_k3, bounded_u):
        Q = build_tilted_measure(market_k3)
        s = enumerate_scenarios(market_k3)
        with pytest.raises(ValueError, match="at least one strategy"):
            holder_chain_check(market_k3, Q, bounded_u, np.zeros((0, 3)), s)

    def test_strategy_wider_than_market_refused(self, market_k3, bounded_u):
        Q = build_tilted_measure(market_k3)
        s = enumerate_scenarios(market_k3)
        with pytest.raises(ValueError, match="4 coordinates; the market has K=3"):
            holder_chain_check(market_k3, Q, bounded_u, np.zeros((2, 4)), s)

    @pytest.mark.parametrize("rows", [[0, 1, 2], [2, 1, 0]])
    def test_non_finite_strategy_refused(self, market_k3, bounded_u,
                                         monkeypatch, rows):
        # refused in either row order, before the measure's moments are read
        Q = build_tilted_measure(market_k3)
        s = enumerate_scenarios(market_k3)
        strategies = np.array([[0.1, 0.2, 0.3], [np.nan, 0.0, 0.0],
                               [np.inf, 0.0, 0.0]])[rows]
        calls = []
        monkeypatch.setattr(diagnostics, "_support_factors",
                            lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="^holder_chain_check needs finite strategies$"):
            holder_chain_check(market_k3, Q, bounded_u, strategies, s)
        assert calls == []

    @pytest.mark.parametrize("kind", ["exact", "rows"])
    def test_set_narrower_than_market_refused(self, market_k3, bounded_u, kind):
        # every walk, and pricing and the moments, name the mismatch before
        # they read a row or a law
        narrow = rademacher_market([0.2, 0.1])
        s = enumerate_scenarios(narrow)
        s = s if kind == "exact" else row_set(s)
        Q = build_tilted_measure(market_k3)
        message = "^scenario set has 2 coordinates; the market has K=3$"
        with pytest.raises(ValueError, match=message):
            exp_ui_bound(market_k3, s, delta=1.0, trials=3, seed=0)
        with pytest.raises(ValueError, match=message):
            holder_chain_check(market_k3, Q, bounded_u, np.zeros((1, 2)), s)
        with pytest.raises(ValueError, match=message):
            verify_pricing(Q, market_k3, s=s)
        with pytest.raises(ValueError, match=message):
            measure_moments(Q, s)

    def test_mispriced_measure_refused_on_exact_set(self, market_k3, bounded_u):
        # the guard reads the product-form means; a wrong tilt must trip it
        Q = build_tilted_measure(market_k3)
        coords = (replace(Q.coords[0], a=Q.coords[0].a + 0.1), *Q.coords[1:])
        bad = replace(Q, coords=coords)
        s = enumerate_scenarios(market_k3)
        with pytest.raises(ValueError, match="does not price"):
            holder_chain_check(market_k3, bad, bounded_u, np.zeros((1, 3)), s)
        holder_chain_check(market_k3, Q, bounded_u, np.zeros((1, 3)), s)

    def test_sampled_set_skips_pricing_guard(self, market_k3, bounded_u,
                                             monkeypatch):
        calls = []
        monkeypatch.setattr(diagnostics, "_coordinate_means",
                            lambda *args: calls.append(args))
        s = sample_scenarios(market_k3, 200, 1)
        holder_chain_check(market_k3, build_tilted_measure(market_k3),
                           bounded_u, np.zeros((1, 3)), s)
        assert calls == []

    def test_growth_certificate_reported(self, market_k3, bounded_u):
        # appendix_power is linear below 0, so the -|x|^1.5 cap fails there
        Q = build_tilted_measure(market_k3)
        s = enumerate_scenarios(market_k3)
        out = holder_chain_check(market_k3, Q, bounded_u, np.zeros((1, 3)), s)
        assert out["growth_certified"] is False
        xs = np.concatenate([-np.logspace(8, -8, 400), [0.0], np.logspace(-8, 8, 400)])
        steep = tabulated(xs, np.where(xs >= 0, np.maximum(xs, 0) ** 0.5,
                                       -np.abs(xs) ** 1.5), bounded_u.growth)
        out = holder_chain_check(market_k3, Q, steep, np.zeros((1, 3)), s)
        assert out["growth_certified"] is True


def sides_oracle(laws, phis, shift, u):
    """(T, 2, 3): per strategy and side, E[u(Y+)] or E[u(-Y-)] as a
    math.fsum of w u(.) over the rows of itertools.product(*laws), with
    Y = (x - shift) @ phi on the strategy's coordinates; E|u(.)|; and
    E[|u'| sum_i |phi_i (x_i - shift_i)|], how far payoffs rounded by a
    few ulps of that sum may move the value."""
    rows = list(itertools.product(*(list(zip(x.tolist(), p.tolist())) for x, p in laws)))
    w = np.array([math.prod(p for _, p in row) for row in rows])
    k = phis.shape[1]
    X = np.array([[x for x, _ in row[:k]] for row in rows]).reshape(len(rows), k) - shift[:k]
    slope = float(eval_u_prime(u, -1e3))  # concave u: the largest slope right of -1e3
    out = []
    for phi in phis:
        y = X @ phi
        pos = np.maximum(y, 0.0)
        reach = math.fsum(w * slope * (np.abs(X) @ np.abs(phi)))
        for v in (eval_u(u, pos), eval_u(u, y - pos)):
            out.append((math.fsum(w * v), math.fsum(w * np.abs(v)), reach))
    return np.array(out).reshape(len(phis), 2, 3)


@st.composite
def sides_laws(draw):
    """(points, probs) laws of 1-10 coordinates with 1-4 support points on
    a 1/100 grid, some probabilities 0, at most 2^12 rows in all."""
    K = draw(st.integers(1, 10))
    laws, rows = [], 1
    for _ in range(K):
        m = draw(st.integers(1, max(1, min(4, (1 << 12) // rows))))
        rows *= m
        pts = np.array(draw(st.lists(st.integers(-300, 300), min_size=m, max_size=m,
                                     unique=True))) / 100.0
        raw = np.array(draw(st.lists(st.integers(0, 3), min_size=m,
                                     max_size=m).filter(any)), dtype=float)
        laws.append((pts, raw / raw.sum()))
    return laws


# THREE_POINT with a fourth point of probability 0: on the leading
# coordinates it makes zero-weight heads, on the last zero-weight tile points
THREE_POINT_ZERO = (np.append(THREE_POINT[0], 2.0), np.append(THREE_POINT[1], 0.0))
# +-100: heads past either end of a tile's payoffs, with splits 0 and T,
# in one staircase group that spans the whole tile
WIDE = (np.array([-100.0, 0.0, 100.0]), np.array([0.25, 0.5, 0.25]))
# 19 heads within 2e-5 of each other, the first and last of weight 0: on a
# 4096-point tile (g = 16 heads a group) the 17 live heads share splits and
# fill a group of 16 and one of 1
CLUSTER = (np.arange(19) * 1e-6, np.array([0.0] + [1.0] * 17 + [0.0]) / 17)
RADEMACHER = (np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


class TestHolderSortedTiles:
    """holder_chain_check on an exact set in product form: each row h + t
    evaluated once, on its own side of a sorted tile (``_product_sides``),
    against a row oracle and the row walk."""

    @settings(max_examples=60, deadline=None)
    @given(laws=sides_laws(), count=st.integers(1, 6),
           u=st.sampled_from(BOUNDED_UTILITIES), width=st.integers(1, 10),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(laws=[THREE_POINT] * 10, count=3, u=BOUNDED_UTILITIES[0], width=10, seed=1)
    @example(laws=[THREE_POINT] * 10, count=3, u=BOUNDED_UTILITIES[1], width=7, seed=2)
    @example(laws=[THREE_POINT_ZERO] * 3 + [THREE_POINT] * 6 + [THREE_POINT_ZERO],
             count=2, u=BOUNDED_UTILITIES[1], width=10, seed=3)
    # a long last law as the tile, under nine heads; a long leading law
    # as 4197 heads, more than ROW_BLOCK, over a 6-point tile
    @example(laws=[THREE_POINT, THREE_POINT, LONG_LAW], count=3,
             u=BOUNDED_UTILITIES[0], width=3, seed=4)
    @example(laws=[LONG_LAW, THREE_POINT, (np.array([-0.5, 1.0]), np.array([0.6, 0.4]))],
             count=3, u=BOUNDED_UTILITIES[1], width=3, seed=10)
    # staircase groups: splits 0 and T in one group, both kinds
    @example(laws=[WIDE] + [THREE_POINT] * 7, count=4, u=BOUNDED_UTILITIES[0],
             width=8, seed=5)
    @example(laws=[WIDE] + [THREE_POINT] * 7, count=4, u=BOUNDED_UTILITIES[1],
             width=8, seed=6)
    # many heads on one split, a head count g does not divide, zero-weight
    # heads; the table takes the mirrored loss side
    @example(laws=[CLUSTER] + [RADEMACHER] * 12, count=2, u=BOUNDED_UTILITIES[0],
             width=13, seed=7)
    @example(laws=[CLUSTER] + [RADEMACHER] * 12, count=2, u=BOUNDED_UTILITIES[1],
             width=13, seed=8)
    @example(laws=[THREE_POINT_ZERO] * 3 + [THREE_POINT] * 6 + [THREE_POINT_ZERO],
             count=2, u=BOUNDED_UTILITIES[0], width=10, seed=9)
    def test_matches_fsum_row_oracle_and_row_walk(self, laws, count, u, width, seed):
        # both kinds, a table with u(0) = 0.2; sets with and without heads,
        # in product form or not: the kernel runs on any product of laws.
        # The rows' gemm walk and the oracle form their payoffs in other
        # orders than the kernel's h + t
        s = ScenarioSet._product(laws)
        K = len(laws)
        k = min(width, K)
        phis = random_strategies(k, count, 2.0, seed)
        shift = np.random.Generator(np.random.Philox(key=seed)).uniform(-1.0, 1.0, K)
        gains, losses = diagnostics._product_sides(s._laws, phis, shift, u)
        assert s._draws is None  # the kernel reads the laws alone
        oracle = sides_oracle(laws, phis, shift, u)
        rows = diagnostics._strategy_sums(row_set(s), phis, shift, diagnostics._split_u(u))
        for j, got in enumerate((gains, losses)):
            want, size, reach = oracle[:, j].T
            assert np.all(np.abs(got - want) <= 1e-12 * (size + reach))
            assert np.all(np.abs(got - rows[j]) <= 1e-12 * (size + reach))

    @pytest.mark.parametrize("u", BOUNDED_UTILITIES,
                             ids=["appendix_power", "tabulated_u0_nonzero"])
    def test_sides_match_split_bit_for_bit(self, u):
        # payoffs on both sides (signed zeros, subnormals, a row at a table
        # node), as the staircase holds them: a C-ordered (rows, L) block
        # overwritten in place by one side; each side gives the walk's
        # chunked values bit for bit
        y = np.array([-20.0, -1.0, -1e-300, -5e-324, -0.0, 0.0, 5e-324, 1e-17,
                      1.0, 10.0, 20.0, 0.5])
        gain, loss = diagnostics._split_u(u)(y)
        sides = (utility._side(u._kernels.gain, True), utility._side(u._kernels.loss, False))
        for side, want in zip(sides, (gain, loss)):
            got = y.reshape(3, 4).copy()
            side(got, got, np.empty(got.shape))
            assert got.tobytes() == want.tobytes()

    def test_identical_across_blas_thread_counts(self):
        # the kernel makes no BLAS call: K = 17 Rademacher and three-point
        # K = 10 sets, both utility kinds, every bit of gains and losses
        code = ("import numpy as np\n"
                "from apmopt import *\n"
                "from apmopt import diagnostics\n"
                "g = GrowthBounds(0.5, 1.5, 2.0, 2.0)\n"
                "xs = (-10.0, -1.0, 0.0, 1.0, 10.0)\n"
                "us = (appendix_power(0.5, g), tabulated(xs, (-30.0, -2.0, 0.2, 1.0, 3.0), g))\n"
                "three = finite_discrete((-2 ** 0.5, 0.0, 2 ** 0.5), (0.25, 0.5, 0.25))\n"
                "for K, law in ((17, rademacher()), (10, three)):\n"
                "    model = build_market(1, K, [-0.4 / i for i in range(1, K + 1)],\n"
                "                         [[0.0]] * (K - 1), [1.0] * K, law)\n"
                "    s = enumerate_scenarios(model)\n"
                "    phis = diagnostics.random_strategies(K, 5, 1.0, 313)\n"
                "    for u in us:\n"
                "        for v in diagnostics._product_sides(s._laws, phis, model.b, u):\n"
                "            print(K, u.kind, [x.hex() for x in v.tolist()])\n")
        one, two = stdout_per_blas_thread_count(code)
        assert one == two and one.count("\n") == 8

class TestAssumptionSets:
    def test_bounded_noise_fails_relevant_passes_novum(self, market_k3):
        # the headline split: bounded noise kills the tail condition but
        # keeps exponential moments finite
        rel = check_assumption_relevant(market_k3)
        assert not rel["tails_ok"]
        assert rel["first_failing_x"] == 1.0  # strict tail: P(eps > 1) = 0
        assert subgaussian_scan(market_k3)["verdict"] == "holds"

    def test_unbounded_fixture_passes_relevant_fails_novum(self):
        model = build_market(1, 2, mu=[0.0, 0.0], beta=[[0.0]],
                             beta_bar=[1.0, 1.0], noise=dyadic_two_sided(0.2))
        rel = check_assumption_relevant(model)
        assert rel["tails_ok"] and rel["ui_ok"]
        scan = subgaussian_scan(model)
        assert scan["verdict"] == "fails"
        assert scan["largest_passing_gamma"] is None

    def test_truncated_moment_zero_beyond_support(self, market_k3):
        # Rademacher: E[eps^2 1{|eps| >= N}] is 1 at N = 1 and 0 beyond
        rel = check_assumption_relevant(market_k3)
        assert [(row["N"], row["sup_trunc_moment"]) for row in rel["ui_trace"]] == [
            (1.0, 1.0), (2.0, 0.0), (4.0, 0.0), (8.0, 0.0)]


class TestReportEmission:
    def test_deterministic_bytes(self, market_k3, tmp_path):
        sections = {
            "relevant": check_assumption_relevant(market_k3),
            "subgauss": subgaussian_scan(market_k3),
            "seed": 7,
        }
        report = assemble_report(market_k3, sections)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        files1 = emit_report(report, str(d1))
        files2 = emit_report(report, str(d2))
        for f1, f2 in zip(files1, files2):
            assert pathlib.Path(f1).read_bytes() == pathlib.Path(f2).read_bytes()

    def test_missing_sections_marked_skipped(self, market_k3, tmp_path):
        report = assemble_report(market_k3, {})
        assert report["optimizer"] == "skipped"
        assert report["verdicts"]["relevant_tails"] == "skipped"
        emit_report(report, str(tmp_path))
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["verdicts"]["assumption_b"] == "holds"

    def test_bundle_has_all_verdict_fields(self, market_k3, tmp_path):
        sections = {
            "relevant": check_assumption_relevant(market_k3),
            "subgauss": subgaussian_scan(market_k3),
        }
        report = assemble_report(market_k3, sections)
        assert set(report["verdicts"]) == {
            "assumption_b", "novum_subgauss", "novum_na",
            "relevant_tails", "relevant_ui",
        }
        files = emit_report(report, str(tmp_path))
        assert all(os.path.exists(f) for f in files)
