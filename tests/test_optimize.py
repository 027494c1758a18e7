import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apmopt import (ArbitrageError, DiscretePayoff, ScenarioSet, SolverConfig,
                    appendix_power, build_market, detect_unbounded,
                    enumerate_scenarios, eval_u, finite_discrete,
                    optimize_single_asset, optimize_truncated, rademacher,
                    sample_scenarios, standardized_two_point,
                    standardized_uniform, tabulated, truncation_ladder)
from apmopt import (GrowthBounds, build_tilted_measure, diagnostics, measure_moments, optimize,
                    verify_pricing)
from apmopt.scenarios import ENUMERATION_CAP
from apmopt.optimize import OneSidedPayoffError, saa_gradient, saa_objective
from conftest import rademacher_market, row_set, scaled_utility, stdout_per_blas_thread_count


def two_point_market(ps, fracs):
    """m=1 market of standardized two-point laws with P(up) = ps[i]; drift
    b_i sits at fraction fracs[i] of the way up its law's support."""
    noise = tuple(standardized_two_point(p) for p in ps)
    b = [n.points[1] + f * (n.points[0] - n.points[1]) for n, f in zip(noise, fracs)]
    K = len(ps)
    return build_market(1, K, mu=[-x for x in b], beta=[[0.0]] * (K - 1),
                        beta_bar=[1.0] * K, noise=noise)


def lp_finds_witness(X):
    """Oracle: the box LP over every row, with the library's witness test."""
    from scipy.optimize import linprog
    res = linprog(-X.sum(axis=0), A_ub=-X, b_ub=np.zeros(X.shape[0]),
                  bounds=[(-1.0, 1.0)] * X.shape[1], method="highs")
    if res.status != 0:
        return False
    vals = X @ res.x
    return bool(vals.min() >= -1e-12 and vals.max() > 1e-9)


def assert_witness(X, phi):
    vals = X @ phi
    assert vals.min() >= -1e-12 and vals.max() > 1e-9


@st.composite
def exact_markets(draw):
    """m=1 markets of 1-4 finite-discrete laws with 2-4 points, some of
    probability zero.  A third of the coordinates are one-sided, with b_i
    at an end of the support or one unit outside it; the rest have b_i at
    an inner support point or the midpoint of two neighbouring points.
    Zero-probability points count as support.  Points start on a 1/4 grid,
    so every centred point is exactly 0 or far from it: within ~1e-12 of 0
    the LP's feasibility tolerance and the witness test's -1e-12 would
    decide differently from any exact rule."""
    K = draw(st.integers(1, 4))
    noise, b = [], []
    for _ in range(K):
        grid = draw(st.lists(st.integers(-8, 8), min_size=2, max_size=4, unique=True))
        raw = [draw(st.integers(1, 3)) for _ in range(2)]  # a law with variance
        raw += [draw(st.integers(0, 3)) for _ in grid[2:]]
        pr = np.array(raw, dtype=float) / sum(raw)
        pts = np.array(grid, dtype=float) / 4.0
        mean = float(pts @ pr)
        pts = (pts - mean) / float(np.sqrt((pts - mean) ** 2 @ pr))
        noise.append(finite_discrete(pts, pr))
        srt = np.sort(pts)
        if draw(st.integers(0, 2)) == 0:  # one-sided
            b.append(draw(st.sampled_from(
                [srt[0], srt[-1], srt[0] - 1.0, srt[-1] + 1.0])))
        else:
            b.append(draw(st.sampled_from(
                list(srt[1:-1]) + list(0.5 * (srt[:-1] + srt[1:])))))
    return build_market(1, K, mu=[-x for x in b], beta=[[0.0]] * (K - 1),
                        beta_bar=[1.0] * K, noise=tuple(noise))


@st.composite
def sampled_sets(draw):
    """Row sets with every weight > 0; entries on a 1/4 grid and b on a
    1/8 grid, so that LP vertices sit far from the tolerances."""
    K = draw(st.integers(1, 3))
    n = draw(st.integers(2, 40))
    cells = draw(st.lists(st.integers(-6, 6), min_size=n * K, max_size=n * K))
    raw = np.array(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)),
                   dtype=float)
    model = rademacher_market([draw(st.integers(-4, 4)) / 8.0 for _ in range(K)])
    draws = np.array(cells, dtype=float).reshape(n, K) / 4.0
    return model, ScenarioSet(draws, raw / raw.sum(), "sampled")


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

    def test_tabulated_left_tail_keeps_falling(self):
        # phi = 3 pays 1 w.p. 0.9 and -9 w.p. 0.1; a table held at u(-1)
        # below its first node would value that at 0.35 > 0 = u(0)
        model = build_market(1, 1, mu=[0.0], beta=[], beta_bar=[1.0],
                             noise=standardized_two_point(0.9))
        s = enumerate_scenarios(model)
        u = tabulated([-1.0, 0.0, 1.0], [-1.0, 0.0, 0.5])
        res = optimize_truncated(model, u, None, s)
        X = s.draws - model.b
        assert saa_objective(u, X, s.weights, np.array([3.0])) <= res.value
        assert res.value == 0.0

    @pytest.mark.parametrize("b", [0.1, 0.7])
    def test_step_too_small_to_move_phi_stops(self, b):
        # near ||g|| ~ 2e-10 the objective cannot register the Newton step's
        # gain, so backtracking shrinks the step until phi stops moving, or
        # (b = 0.7) full steps still move phi but no longer change f.
        # grad_tol lies far below the gradient norms that rounding leaves
        # here, so that exit, not convergence, ends the solve
        model = build_market(1, 1, mu=[-b], beta=[], beta_bar=[1.0],
                             noise=standardized_two_point(0.3))
        res = optimize_truncated(model, appendix_power(0.3), None,
                                 enumerate_scenarios(model),
                                 SolverConfig(grad_tol=1e-300))
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


class TestRowBlocks:
    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from([1, 7, optimize.ROW_BLOCK - 1, optimize.ROW_BLOCK,
                            optimize.ROW_BLOCK + 1, 3 * optimize.ROW_BLOCK + 17]),
           st.one_of(st.integers(1, 8),
                     st.sampled_from([optimize.PANEL + 1, 2 * optimize.PANEL + 5])),
           st.integers(0, 2 ** 32 - 1))
    # two and three panels: the off-diagonal products and their mirror
    @example(optimize.ROW_BLOCK + 1, optimize.PANEL + 1, 0)
    @example(3 * optimize.ROW_BLOCK + 17, 2 * optimize.PANEL + 5, 1)
    def test_matches_whole_array_products(self, n, K, seed):
        gen = np.random.Generator(np.random.Philox(key=seed))
        X = gen.standard_normal((K, n))
        a = gen.standard_normal(n)
        c = gen.uniform(0.0, 2.0, n) * (gen.random(n) < 0.9)  # some zeros
        g, G = optimize._row_sums(X, a), optimize._row_gram(X, c)
        # bounds on the rounding of either summation order
        assert np.all(np.abs(g - X @ a) <= 1e-12 * (np.abs(X) @ np.abs(a)))
        assert np.all(np.abs(G - (X * c) @ X.T) <= 1e-12 * ((np.abs(X) * c) @ np.abs(X).T))
        assert np.array_equal(G, G.T)

    @staticmethod
    def unskipped_row_blocks(X, a, c):
        """The kernel's loop without its zero-curvature skip, on one panel."""
        K, n = X.shape
        g, G = np.zeros(K), np.zeros((K, K))
        root = np.sqrt(c)
        for start in range(0, n, optimize.ROW_BLOCK):
            cols = slice(start, start + optimize.ROW_BLOCK)
            S = np.ascontiguousarray(X[:, cols] * root[cols])
            g += X[:, cols] @ a[cols]
            G += S @ S.T
        return g, G

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 5 * optimize.ROW_BLOCK), st.integers(1, optimize.PANEL),
           st.integers(0, 2 ** 32 - 1))
    def test_zero_curvature_blocks_add_nothing(self, n, K, seed):
        # c vanishes on whole blocks (the first pass of a ladder level has
        # c = 0 everywhere): skipping their syrk keeps every bit
        gen = np.random.Generator(np.random.Philox(key=seed))
        X = gen.standard_normal((K, n))
        a = gen.standard_normal(n)
        c = gen.uniform(0.0, 2.0, n) * (gen.random(n) < 0.9)  # some zeros
        blocks = -(-n // optimize.ROW_BLOCK)
        for b in gen.choice(blocks, gen.integers(0, blocks + 1), replace=False):
            c[b * optimize.ROW_BLOCK:(b + 1) * optimize.ROW_BLOCK] = 0.0
        g, G = optimize._row_sums(X, a), optimize._row_gram(X, c)
        g0, G0 = self.unskipped_row_blocks(X, a, c)
        assert np.array_equal(g, g0) and np.array_equal(G, G0)
        assert not optimize._row_gram(X, np.zeros(n)).any()

    @staticmethod
    def hashes_per_thread_count(Ks):
        code = ("import hashlib, numpy as np\n"
                "from apmopt import optimize\n"
                f"for K in {tuple(Ks)}:\n"
                "    gen = np.random.Generator(np.random.Philox(key=K))\n"
                "    X = gen.standard_normal((K, 3 * optimize.ROW_BLOCK + 17))\n"
                "    b = gen.uniform(-1.0, 1.0, K)\n"
                "    g = optimize._row_sums(X, X[0], b)\n"
                "    G = optimize._row_gram(X, np.abs(X[-1]), b)\n"
                "    v = optimize._payoffs(X, X[:, 0], b)\n"
                "    V = optimize._payoffs(X, gen.uniform(-1.0, 1.0, (25, K)), b)\n"
                "    h = hashlib.sha256(g.tobytes() + G.tobytes() + v.tobytes() + V.tobytes())\n"
                "    print(K, h.hexdigest())\n")
        return stdout_per_blas_thread_count(code)

    def test_panel_sums_identical_across_blas_thread_counts(self):
        # OpenBLAS threads a product over a ragged inner width (2000, 2187
        # or 3001 columns at these shapes) with other last bits, and a
        # product over a power-of-two width alike over 1 and 2 threads
        code = ("import hashlib, numpy as np\n"
                "from apmopt import optimize\n"
                "for k, L, m in ((12, 2000, 96), (19, 2187, 29), (7, 3001, 96), (3, 5000, 200)):\n"
                "    gen = np.random.Generator(np.random.Philox(key=L))\n"
                "    X, Y = gen.standard_normal((k, L)), gen.standard_normal((m, L))\n"
                "    out = optimize._panel_sums(X, Y, np.empty((k, m)))\n"
                "    assert np.all(np.abs(out - X @ Y.T) <= 1e-12 * (np.abs(X) @ np.abs(Y).T))\n"
                "    print(hashlib.sha256(out.tobytes()).hexdigest())\n")
        one, two = stdout_per_blas_thread_count(code)
        assert one == two and len(one.split()) == 4

    def test_identical_across_blas_thread_counts(self):
        # the panels keep each block's gemv and syrk at most PANEL = 96
        # wide: OpenBLAS threads wider ones (the gemv at K = 113 or 150,
        # the syrk at K = 100 or 150) with other last bits.  The payoffs'
        # gemv blocks, and the gemm blocks of 25 strategies' payoffs, have
        # power-of-two widths: a ragged one (n = 3 ROW_BLOCK + 17) is
        # threaded with other last bits
        one, two = self.hashes_per_thread_count((1, 19, 50, 96, 100, 150))
        assert one == two


@st.composite
def product_supports(draw):
    """1-8 coordinates, each with 1-4 centred support points and their
    probabilities, some of them 0."""
    xs, probs = [], []
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(1, 4))
        # on a 1/100 grid: products of subnormal points round absolutely
        grid = draw(st.lists(st.integers(-400, 400), min_size=k, max_size=k, unique=True))
        xs.append(np.array(grid) / 100.0)
        raw = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        probs.append(np.array(raw, dtype=float) / sum(raw))
    return xs, probs


# grids whose (H, T) split has heads: two-point and three-point laws, a
# one-point law in the tile, and a long law before or in a short tile
SPLIT_SIZES = [(2,) * 13, (3,) * 9, (2,) * 12 + (1, 2), (1500, 2, 2), (2, 2, 5000)]


# split grids with their laws' probabilities, the first point of each law
# of more than one point at probability 0: zero-weight heads and tile points
split_laws = st.sampled_from(SPLIT_SIZES).map(lambda sizes: (
    [np.linspace(-1.0, 1.0, m) + 0.1 for m in sizes],
    [np.linspace(0.0, 1.0, m) / np.linspace(0.0, 1.0, m).sum() if m > 1 else np.ones(1)
     for m in sizes]))
# appendix power's loss side is linear; the table's is not, and its u(0)
# and u'(0) are not 0
GRID_UTILITIES = (appendix_power(0.5),
                  tabulated((-10.0, -1.0, 0.0, 1.0, 10.0), (-30.0, -2.0, 0.2, 1.0, 3.0)))


def grid_f_g_H(xs, probs, u, p):
    """f, g and the Hessian at p from an exact solve's value call and its
    step."""
    f, step = optimize._grid_value(u, xs, probs)(p)
    g, hessian, _ = step()
    return f, g, hessian()


def grid_rows(xs, p):
    """The payoffs h + t of the grid's rows that the staircase reads, in
    row order: ``_outer_sum`` on the heads and on the tile."""
    lead, _ = optimize._tile_split(xs)
    heads, tile = xs[:lead], xs[lead:]
    h = optimize._outer_sum(heads, p[:lead], np.empty(math.prod(x.size for x in heads)))
    t = optimize._outer_sum(tile, p[lead:], np.empty(math.prod(x.size for x in tile)))
    return h, t


def grid_oracle(xs, probs, u, p):
    """(f, g, tol_f, tol_g): E[u(Y)] and E[u'(Y) X] by whole-array sums
    over the rows h + t that the staircase reads (``_outer_sum`` on the
    heads and on the tile), and the error bounds of ``_grid_value``'s
    docstring, with the gradient's gemv, at 2^-53 a unit."""
    h, t = grid_rows(xs, p)
    v = (h[:, None] + t).ravel()
    w = optimize._product_weights(probs)
    X = np.array(list(itertools.product(*xs)))
    uv, du = eval_u(u, v), optimize.eval_u_prime(u, v)
    f = math.fsum(w * uv)
    g = np.array([math.fsum(col) for col in X.T * (w * du)])
    eps, (H, T) = 2.0 ** -53, (h.size, t.size)
    slope = u._kernels.loss_slope or 0.0
    size = w @ (np.abs(uv) + abs(eval_u(u, 0.0)))
    reach = slope * (w @ (np.abs(h)[:, None] + np.abs(t)).ravel())
    tol_f = ((math.log2(H * T) + 4) * size
             + (min(T, optimize.ROW_BLOCK) + T / optimize.ROW_BLOCK + 4) * reach) * eps
    tol_g = (H + T + 4 + max(H, T)) * eps * (
        np.abs(X).T @ (w * (np.abs(du) + abs(optimize.eval_u_prime(u, 0.0)))))
    return f, g, tol_f, tol_g


class TestGridStaircase:
    """An exact solve's value and gradient on the staircase
    (``_grid_value`` and its step) against whole-array sums."""

    @settings(deadline=None, max_examples=80)
    @given(st.one_of(product_supports(), split_laws), st.sampled_from(GRID_UTILITIES),
           st.sampled_from([0.0, 0.1, 1.0, 3.0]), st.integers(0, 2 ** 32 - 1))
    def test_matches_whole_array_oracle(self, supports, u, scale, seed):
        xs, probs = supports
        p = scale * np.random.Generator(np.random.Philox(key=seed)).uniform(-1.0, 1.0, len(xs))
        f, g, _ = grid_f_g_H(xs, probs, u, p)
        want_f, want_g, tol_f, tol_g = grid_oracle(xs, probs, u, p)
        assert abs(f - want_f) <= tol_f
        assert np.all(np.abs(g - want_g) <= tol_g)

    @pytest.mark.parametrize("u", GRID_UTILITIES, ids=["appendix_power", "tabulated"])
    @pytest.mark.parametrize("case", ["zero", "edges", "above", "below", "cluster"])
    def test_edge_splits_match_whole_array_oracle(self, u, case):
        # phi = 0 (every row at 0, split T); heads at -100, 0 and 100 over a
        # three-point tile, splits T, inside and 0 in one group; every row
        # above 0 (split 0) or at or below 0 (split T); 17 live heads on
        # one split, in groups of 16 and 1, between two zero-weight heads
        three = np.array([-1.5, 0.0, 1.5])
        tiles = [three - b for b in np.linspace(-0.3, 0.3, 8)]
        probs = [np.array([2 / 9, 5 / 9, 2 / 9])] * 8
        xs, p = {
            "zero": (tiles, np.zeros(8)),
            "edges": ([np.array([-100.0, 0.0, 100.0])] + tiles[:7], np.ones(8)),
            "above": ([np.array([1.0, 2.0])] + [x + 2.0 for x in tiles[:7]], np.ones(8)),
            "below": ([np.array([1.0, 2.0])] + [x + 2.0 for x in tiles[:7]], -np.ones(8)),
            "cluster": ([np.arange(19) * 1e-6] + [np.array([-1.0, 1.0])] * 12, np.ones(13)),
        }[case]
        if case == "cluster":
            probs = [np.array([0.0] + [1.0] * 17 + [0.0]) / 17] + [np.full(2, 0.5)] * 12
        elif case != "zero":
            probs = [np.full(xs[0].size, 1.0 / xs[0].size)] + probs[:7]
        f, g, _ = grid_f_g_H(xs, probs, u, p)
        want_f, want_g, tol_f, tol_g = grid_oracle(xs, probs, u, p)
        assert abs(f - want_f) <= tol_f
        assert np.all(np.abs(g - want_g) <= tol_g)

    @settings(deadline=None, max_examples=30)
    @given(st.one_of(product_supports(), split_laws), st.sampled_from(GRID_UTILITIES),
           st.integers(0, 2 ** 32 - 1))
    def test_kept_scratch_matches_fresh_bit_for_bit(self, supports, u, seed):
        # a solve's value calls, steps and Hessians share the staircase's
        # scratch, each leaving it dirty for the next, and a step runs
        # after later value calls (the line search's trials)
        xs, probs = supports
        gen = np.random.Generator(np.random.Philox(key=seed))
        p, q = gen.uniform(-2.0, 2.0, (2, len(xs)))
        want = grid_f_g_H(xs, probs, u, p)
        value = optimize._grid_value(u, xs, probs)
        for x in (q, p):
            f, step = value(x)
            value(q + 1.0)
            grad, hessian, _ = step()
            value(q - 1.0)
            G = hessian()
        assert [np.float64(f).tobytes(), grad.tobytes(), G.tobytes()] == [
            np.float64(want[0]).tobytes(), want[1].tobytes(), want[2].tobytes()]


def hessian_oracle(xs, probs, u, p):
    """(want, tol): X^T diag(w u''(V)) X on the materialized grid, the rows
    and weights of the product set (``s.draws``, ``s.weights``), with u''
    read at the rows h + t that the staircase reads (``grid_rows``; they
    differ from X @ p only in the rounding of their adds).  Each entry is
    math.fsum's exact sum of its rounded terms.  tol is the bound of
    ``_grid_value``'s docstring, (H + T + 32) units of 2^-53 relative to
    the sum of the terms' magnitudes, plus the oracle's own rounding: a
    row's weight as a product of K probabilities against the product of
    its head's and its tile point's (2K units), and a term's two
    products (2 units)."""
    s = ScenarioSet._product(list(zip(xs, probs)))
    X, w = s.draws, s.weights
    h, t = grid_rows(xs, p)
    c = w * optimize.eval_u_second(u, (h[:, None] + t).ravel())
    K = len(xs)
    want, size = np.empty((K, K)), np.empty((K, K))
    for i, j in itertools.combinations_with_replacement(range(K), 2):
        terms = X[:, i] * X[:, j] * c
        want[i, j] = want[j, i] = math.fsum(terms.tolist())
        size[i, j] = size[j, i] = np.abs(terms).sum()
    return want, (h.size + t.size + 32 + 2 * K + 2) * 2.0 ** -53 * size


@st.composite
def curvature_grids(draw):
    """(xs, probs) of laws of 2-5 points in [-4, 4] on a 1/100 grid, whose
    points have probabilities on a 1/4 grid, about one in four of them 0:
    one to six laws (no heads up to 4096 rows, a split beyond), seven
    five-point laws (25 heads, more than the 20 of a group on their
    3125-point tile, so ``_by_split`` orders them) or a 4500-point law
    under a one-point law (one head)."""
    sizes = draw(st.one_of(st.lists(st.integers(2, 5), min_size=1, max_size=6),
                           st.sampled_from([(5,) * 7, (1, 4500)])))
    gen = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 2 ** 32 - 1))))
    xs, probs = [], []
    for m in sizes:
        span = max(400, m)
        xs.append(gen.choice(np.arange(-span, span + 1), m, replace=False) / 100.0)
        raw = gen.integers(0, 4, m).astype(float)
        raw[gen.integers(m)] += 1.0
        probs.append(raw / raw.sum())
    return xs, probs


class TestGridHessian:
    """An exact solve's Hessian, one rising staircase of u'' over the
    value call's sorted tile (``_grid_value``), against the materialized
    grid."""

    @staticmethod
    def check(xs, probs, u, p):
        _, _, G = grid_f_g_H(xs, probs, u, p)
        want, tol = hessian_oracle(xs, probs, u, p)
        assert np.all(np.abs(G - want) <= tol)
        assert np.array_equal(G, G.T)

    @settings(deadline=None, max_examples=60)
    @given(curvature_grids(), st.sampled_from(GRID_UTILITIES),
           st.sampled_from([0.0, 0.1, 1.0, 3.0]), st.integers(0, 2 ** 32 - 1))
    def test_matches_materialized_grid(self, grid, u, scale, seed):
        xs, probs = grid
        gen = np.random.Generator(np.random.Philox(key=seed))
        self.check(xs, probs, u, scale * gen.uniform(-1.0, 1.0, len(xs)))

    @pytest.mark.parametrize("sizes", SPLIT_SIZES + [(5,) * 7])
    def test_split_grids_match_materialized_grid(self, sizes):
        # every head live: on seven five-point laws the 25 heads fill two
        # groups of the 3125-point tile, so they are ordered by split
        gen = np.random.Generator(np.random.Philox(key=len(sizes)))
        xs = [gen.uniform(-1.0, 1.0, m) for m in sizes]
        probs = [np.full(m, 1.0 / m) for m in sizes]
        lead, tile = optimize._tile_split(xs)
        assert lead
        if sizes == (5,) * 7:
            assert 5 ** lead > optimize._STAIR // tile
        self.check(xs, probs, appendix_power(0.5), gen.uniform(-1.0, 1.0, len(sizes)))


class TestFold:
    """The row path never centres the draws: it reads them raw, as E, and
    folds the shift b into each product.  An oracle that centres E in
    extended precision holds each product to its docstring's bound."""

    @staticmethod
    def inputs(K, n, law, seed):
        gen = np.random.Generator(np.random.Philox(key=seed))
        if law == "edge":  # every drift 0.02 below its law's up point 0.42
            up, down = standardized_two_point(0.85).points
            E = np.where(gen.random((K, n)) < 0.85, up, down)
            b = np.full(K, 0.4)
        else:
            E = gen.standard_normal((K, n)) * gen.uniform(0.1, 3.0, (K, 1))
            b = gen.uniform(-2.0, 2.0, K)
        c = gen.uniform(0.0, 2.0, n) * (gen.random(n) < 0.9)  # some zeros
        return gen, E, b, gen.uniform(-3.0, 3.0, K), gen.standard_normal(n), c

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 6), st.sampled_from([1, 5, 300, optimize.ROW_BLOCK + 7]),
           st.sampled_from(["normal", "edge"]), st.integers(0, 2 ** 32 - 1))
    @example(1, optimize.ROW_BLOCK + 7, "edge", 0)
    @example(6, 300, "edge", 1)
    def test_folded_products_within_their_bounds(self, K, n, law, seed):
        gen, E, b, phi, a, c = self.inputs(K, n, law, seed)
        ld = np.longdouble
        X = E.astype(ld) - b.astype(ld)[:, None]
        # the fold's unit roundoff, plus the oracle's own
        unit = 2.0 ** -53 + float(np.finfo(ld).eps)
        mag = np.abs(E) + np.abs(b)[:, None]  # |E_ij| + |b_i|
        steps = min(n, optimize.ROW_BLOCK) + n / optimize.ROW_BLOCK
        v = optimize._payoffs(E, phi, b)
        assert np.all(np.abs(v - phi.astype(ld) @ X) <= (K + 2) * unit * (np.abs(phi) @ mag))
        g, G = optimize._row_sums(E, a, b), optimize._row_gram(E, c, b)
        assert np.all(np.abs(g - X @ a.astype(ld)) <= (steps + 2) * unit * (mag @ np.abs(a)))
        assert np.all(np.abs(G - (X * c.astype(ld)) @ X.T)
                      <= (steps + 10) * unit * ((mag * c) @ mag.T))
        assert np.array_equal(G, G.T)
        # the certificate at a tilt lam: log E[exp(lam . X)] from its z,
        # and r = X y at its tilted weights y
        lam = gen.uniform(-1.0, 1.0, K)
        w = np.full(n, 1.0 / n)
        L, y = optimize._tilt(E, b, w, lam)
        z = lam.astype(ld) @ X
        z_err = float(np.max((K + 2) * unit * (np.abs(lam) @ mag)))
        exact_L = z.max() + np.log(np.sum(w * np.exp(z - z.max())))
        assert abs(L - exact_L) <= 3 * z_err + (n + 4) * unit * (1 + abs(L))
        r = optimize._row_sums(E, y, b)
        assert np.all(np.abs(r - X @ y.astype(ld)) <= (steps + 2) * unit * (mag @ y))

    def test_memory_order_gives_the_same_bits(self):
        # a sample's column-major draws and their C-ordered twin: the solve,
        # the certificate, and the walks over 20 strategies (groups of 16
        # and 4) read the same (K, n) matrix, a view or a copy
        model = rademacher_market([0.4 / i for i in range(1, 7)])
        s = sample_scenarios(model, 3 * optimize.ROW_BLOCK + 17, 5)
        twin = ScenarioSet(np.ascontiguousarray(s.draws), s.weights, s.provenance)
        assert s.draws.flags.f_contiguous and twin.draws.flags.c_contiguous
        u = appendix_power(0.5, GrowthBounds(0.5, 1.5, 1.0, 1.0))
        Q = build_tilted_measure(model)
        strategies = diagnostics.random_strategies(model.K, 20, 2.0, 7)
        runs = []
        for t in (s, twin):
            level = optimize_truncated(model, u, 4, t)
            holder = diagnostics.holder_chain_check(model, Q, u, strategies, t)
            exp_cap = diagnostics.exp_ui_bound(model, t, 1.0, 20, 3)
            runs.append((level.phi_star.tobytes(), level.value, level.grad_norm,
                         level.iterations, detect_unbounded(model, t)[0],
                         holder["margins"], exp_cap["measurements"]))
        assert runs[0] == runs[1]


class TestStackedPayoffs:
    @settings(deadline=None, max_examples=60)
    @given(product_supports(), st.integers(0, 5), st.integers(0, 2 ** 32 - 1))
    def test_stacked_strategies_match_one_at_a_time_byte_for_byte(self, supports, count, seed):
        # signed zeros among the coordinates, and no strategy at all
        xs, _ = supports
        gen = np.random.Generator(np.random.Philox(key=seed))
        phis = gen.uniform(-3.0, 3.0, (count, len(xs)))
        phis[gen.random(phis.shape) < 0.2] = 0.0
        phis[gen.random(phis.shape) < 0.1] = -0.0
        n = math.prod(x.size for x in xs)
        stacked = optimize._grid_payoffs(xs, phis)
        assert stacked.shape == (count, n)
        for phi, row in zip(phis, stacked):
            assert row.tobytes() == optimize._outer_sum(xs, phi, np.empty(n)).tobytes()


class TestProductPass:
    @settings(deadline=None, max_examples=100)
    @given(product_supports(), st.integers(0, 2 ** 32 - 1))
    def test_matches_whole_array_products(self, supports, seed):
        # rows listed as itertools.product lists them: last coordinate fastest
        xs, _ = supports
        X = np.array(list(itertools.product(*xs)))
        gen = np.random.Generator(np.random.Philox(key=seed))
        phi = gen.uniform(-3.0, 3.0, len(xs))
        v = optimize._outer_sum(xs, phi, np.empty(len(X)))
        assert np.all(np.abs(v - X @ phi) <= 1e-12 * (np.abs(X) @ np.abs(phi)))
        # bit for bit the row loop that adds the last coordinate first
        loop = [0.0] * len(X)
        for r, row in enumerate(X):
            for p, x in reversed(list(zip(phi, row))):
                loop[r] += p * x
        assert np.array_equal(v, loop)

    def test_exact_solve_allocates_no_grid_sized_array(self):
        # K = 16 with five three-point laws ahead of eleven Rademacher ones:
        # 243 heads by a 2048-point tile.  Every buffer of the solve is a
        # staircase group's (2 * _STAIR values), a design's or smaller; on
        # sixteen Rademacher laws that group alone would be twice the grid
        three = finite_discrete([-1.5, 0.0, 1.5], [2 / 9, 5 / 9, 2 / 9])
        K = 16
        model = build_market(1, K, mu=[-0.4 / i for i in range(1, K + 1)],
                             beta=[[0.0]] * (K - 1), beta_bar=[1.0] * K,
                             noise=(three,) * 5 + (rademacher(),) * 11)
        s = enumerate_scenarios(model)
        tracemalloc.start()
        try:
            res = optimize_truncated(model, appendix_power(0.5), None, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak < 8 * s.n
        assert s._weights is None and s._draws is None

    @pytest.mark.parametrize("drifts, levels", [
        ([0.2, 0.1, 0.05] + [0.02] * 13, (None, 1, 2)),
        ([0.4 / i for i in range(1, 17)], (None, 3, 7, 12)),
        ([0.4 * 2.0 ** -(i + 1) for i in range(17)], (None, 4, 13)),
    ])
    @pytest.mark.parametrize("u", [appendix_power(0.5), appendix_power(0.2)])
    def test_solve_matches_row_path(self, drifts, levels, u):
        # sets in product form, so every level runs on the grid: levels
        # with heads (K >= 13) and without
        model = rademacher_market(drifts)
        s = enumerate_scenarios(model)
        assert optimize._product_form(s)
        for K in levels:
            prod = optimize_truncated(model, u, K, s)
            rows = optimize_truncated(model, u, K, row_set(s))
            assert (prod.iterations, prod.converged) == (rows.iterations, rows.converged)
            assert np.linalg.norm(prod.phi_star - rows.phi_star) <= 1e-12 * np.linalg.norm(
                rows.phi_star)
            assert prod.value == pytest.approx(rows.value, rel=1e-12)

    @pytest.mark.parametrize("K, cut, s1", [(15, 4.5, 2.0), (15, 2.5, 1.25), (17, 4.25, 3.0)])
    def test_tabulated_solve_matches_row_path(self, K, cut, s1):
        # A table's u' is a central difference with step 1e-6 max(1, |x|),
        # so a last-bit change of a payoff moves it by about 1e-10: once the
        # two paths have taken a step from gradients equal to rounding,
        # their next gradients differ at that level, and so does every
        # later step.  So the table is built for a solve of one step.  The
        # K coordinates are Rademacher with b = -1/4, so by symmetry
        # g = E[u'(c Y) Y] (1, ..., 1) / K along phi = c (1, ..., 1), with
        # Y = sum_i X_i.  At phi = 0 every row is at 0 and g = u'(0) E[X],
        # with E[X_i] = 1/4, so the full step lands at c1 = 4 / (u'(0) K),
        # where u'(0) = (s0 + s1) / 2.  u has slope s0 below 0, s1 up to
        # a = c1 cut and 1 above, with cut between two levels of Y and s0
        # chosen so that E[u'(c Y) Y] = 0 wherever c Y meets no node: c1 is
        # a flat maximum with rows on both sides of 0 and of a, and u(0) =
        # 0.2 and u'(0) are not 0.  With 15 coordinates the grid has 8
        # heads, the fewest of a Rademacher set in product form; with 17,
        # 32 heads in two groups.
        beta = 0.25
        j = np.arange(K + 1)
        pj = np.array([math.comb(K, int(i)) for i in j]) / 2.0 ** K
        Y = 2.0 * j - K + K * beta
        assert not np.any(Y == 0.0) and not np.any(Y == cut)
        below, middle, above = Y < 0, (Y > 0) & (Y < cut), Y > cut
        s0 = (s1 * (pj[middle] @ Y[middle]) + pj[above] @ Y[above]) / -(pj[below] @ Y[below])
        assert s0 > s1 > 1.0
        a = cut / ((s0 + s1) / 2.0 * K * beta)
        u = tabulated((-100.0, 0.0, a, 100.0),
                      (0.2 - 100.0 * s0, 0.2, 0.2 + a * s1, 0.2 + a * s1 + 100.0 - a))
        model = rademacher_market([-beta] * K)
        s = enumerate_scenarios(model)
        assert optimize._product_form(s)
        prod = optimize_truncated(model, u, None, s)
        rows = optimize_truncated(model, u, None, row_set(s))
        assert (prod.iterations, prod.converged) == (rows.iterations, rows.converged) == (1, True)
        assert np.linalg.norm(prod.phi_star - rows.phi_star) <= 1e-12 * np.linalg.norm(
            rows.phi_star)
        assert prod.value == pytest.approx(rows.value, rel=1e-12)
        assert prod.value > eval_u(u, 0.0)  # the step gained

    def test_two_point_ladder_matches_row_path(self):
        # unequal probabilities, so a level below K weighs its grid points
        # by the product of its own laws; 15 coordinates, so the set is in
        # product form and every level runs on the grid
        model = two_point_market([0.3, 0.6, 0.8, 0.45] + [0.5] * 11,
                                 [0.4, 0.55, 0.3, 0.6] + [0.5] * 11)
        s = enumerate_scenarios(model)
        assert optimize._product_form(s)
        u = appendix_power(0.5)
        for K in (1, 2, 3, 4, 15):
            prod = optimize_truncated(model, u, K, s)
            rows = optimize_truncated(model, u, K, row_set(s))
            assert (prod.iterations, prod.converged) == (rows.iterations, rows.converged)
            assert np.linalg.norm(prod.phi_star - rows.phi_star) <= 1e-12 * np.linalg.norm(
                rows.phi_star)
            assert prod.value == pytest.approx(rows.value, rel=1e-12)

    @pytest.mark.parametrize("where", ["alone", "first", "last"])
    def test_long_law_matches_row_path(self, where):
        # a 20 000-point law: its axis is reduced whole, with no loop over
        # its points, and as the last axis it is never folded.  A set of
        # one law is not in product form, so "alone" solves the first
        # level of a set that is: the long law ahead of a two-point law
        gen = np.random.Generator(np.random.Philox(key=20_000))
        probs = gen.dirichlet(np.full(20_000, 5.0))
        pts = gen.standard_normal(20_000)
        pts -= pts @ probs
        long = finite_discrete(pts / math.sqrt(pts ** 2 @ probs), probs)
        noise = {"last": (rademacher(), standardized_two_point(0.3), long)}.get(
            where, (long, standardized_two_point(0.3)))
        K = len(noise)
        model = build_market(1, K, mu=[0.05, -0.1, 0.02][:K], beta=[[0.0]] * (K - 1),
                             beta_bar=[1.0] * K, noise=noise)
        s = enumerate_scenarios(model)
        assert optimize._product_form(s)
        u = appendix_power(0.5)
        level = 1 if where == "alone" else None
        prod = optimize_truncated(model, u, level, s)
        rows = optimize_truncated(model, u, level, row_set(s))
        assert prod.converged and rows.converged
        assert prod.iterations == rows.iterations
        assert np.linalg.norm(prod.phi_star - rows.phi_star) <= 1e-12 * np.linalg.norm(
            rows.phi_star)
        assert prod.value == pytest.approx(rows.value, rel=1e-12)

    def test_product_form_builds_neither_rows_nor_weights(self, market_k3):
        # a set in product form, solved at a level with heads and at one
        # without, its arbitrage decided in closed form, and its measure,
        # exp cap and Hoelder chain checked: none reads its rows or weights
        model = rademacher_market([0.2, 0.1, 0.05] + [0.02] * 13)
        s = enumerate_scenarios(model)
        assert optimize._product_form(s)
        u = appendix_power(0.5, GrowthBounds(0.5, 1.5, 1.0, 1.0))
        for K in (None, 2):
            assert optimize_truncated(model, u, K, s).converged
        assert detect_unbounded(model, s) == (False, None)
        Q = build_tilted_measure(model)
        assert verify_pricing(Q, model, s=s)["max_residual"] <= 1e-10
        measure_moments(Q, s)
        diagnostics.exp_ui_bound(model, s, 1.0, 5, 1)
        diagnostics.holder_chain_check(
            model, Q, u, diagnostics.random_strategies(model.K, 5, 1.0, 2), s)
        assert s._draws is None and s._weights is None
        # an exact set not in product form builds both on its first solve
        small = enumerate_scenarios(market_k3)
        assert detect_unbounded(market_k3, small) == (False, None)
        assert small._draws is None
        optimize_truncated(market_k3, u, 2, small)
        assert small._draws is not None and small._weights is not None
        model = rademacher_market([-1.0, 0.0])
        found, phi = detect_unbounded(model, enumerate_scenarios(model))
        assert found and phi.tolist() == [1.0, 0.0]

    @staticmethod
    def uniform_drift_market(noise, mu, K=3):
        return build_market(1, K, mu=[mu] * K, beta=[[0.0]] * (K - 1),
                            beta_bar=[1.0] * K, noise=noise)

    @pytest.mark.parametrize("K", [3, 16])
    def test_enumeration_of_another_market_is_solved_from_its_own_laws(self, K):
        # B's laws have the shape and row count of A's but other points:
        # the solve reads A's laws, in product form at K = 16 and through
        # the rows they make at K = 3, whichever market it is paired with
        A = self.uniform_drift_market(rademacher(), -0.1, K)
        B = self.uniform_drift_market(standardized_two_point(0.3), -0.1, K)
        s = enumerate_scenarios(A)
        u = appendix_power(0.5)
        got = optimize_truncated(B, u, None, s)
        assert optimize._product_form(s) is (K == 16) is (s._draws is None)
        rows = optimize_truncated(B, u, None, row_set(s))
        assert got.value == pytest.approx(rows.value, rel=1e-12)
        assert np.linalg.norm(got.phi_star - rows.phi_star) <= 1e-12 * np.linalg.norm(
            rows.phi_star)
        if K == 3:
            assert got.value == pytest.approx(0.0361, abs=1e-4)
            assert got.phi_star == pytest.approx([-0.6166] * 3, abs=1e-4)

    def test_arbitrage_on_another_markets_enumeration(self):
        # b = 1.2 lies inside B's support but above every Rademacher row,
        # so -e_i pays off on A's enumeration
        A = self.uniform_drift_market(rademacher(), -1.2)
        B = self.uniform_drift_market(standardized_two_point(0.3), -1.2)
        assert detect_unbounded(B, enumerate_scenarios(B)) == (False, None)
        s = enumerate_scenarios(A)
        found, phi = detect_unbounded(B, s)
        assert found
        assert_witness(s.draws - B.b, phi)

    def test_identical_across_blas_thread_counts(self):
        # an exact solve's BLAS calls are _row_sums' and _row_gram's on the
        # two designs, for the gradient and the Hessian, and the Hessian's
        # sums against the tile design (``_panel_sums``), on 128 heads by a
        # 4096-point tile at K = 19 and on three-point laws at K = 12, 243
        # heads by a 2187-point tile.  The last grid puts a 20 000-point
        # law ahead of a 9-point tile: 7281 heads a group, in panels of
        # PANEL heads
        code = ("import hashlib, numpy as np\n"
                "from apmopt import optimize, build_market, enumerate_scenarios\n"
                "from apmopt import appendix_power, finite_discrete, rademacher\n"
                "three = finite_discrete([-1.5, 0.0, 1.5], [2 / 9, 5 / 9, 2 / 9])\n"
                "u = appendix_power(0.5)\n"
                "for K, law in ((19, rademacher()), (12, three)):\n"
                "    gen = np.random.Generator(np.random.Philox(key=K))\n"
                "    xs = [np.array(law.points) - b for b in gen.uniform(-0.3, 0.3, K)]\n"
                "    probs = [np.array(law.probs)] * K\n"
                "    p = gen.standard_normal(K)\n"
                "    f, step = optimize._grid_value(u, xs, probs)(p)\n"
                "    g, hessian, _ = step()\n"
                "    G = hessian()\n"
                "    model = build_market(1, K, mu=[-0.4 / i for i in range(1, K + 1)],\n"
                "                         beta=[[0.0]] * (K - 1), beta_bar=[1.0] * K, noise=law)\n"
                "    phi = optimize.optimize_truncated(model, appendix_power(0.5), None,\n"
                "                                      enumerate_scenarios(model)).phi_star\n"
                "    h = hashlib.sha256(np.float64(f).tobytes() + g.tobytes() + G.tobytes()\n"
                "                       + phi.tobytes())\n"
                "    print(K, h.hexdigest())\n"
                "gen = np.random.Generator(np.random.Philox(key=3))\n"
                "xs = [gen.standard_normal(20_000)] + [np.array(three.points) - 0.1] * 2\n"
                "probs = [np.full(20_000, 1 / 20_000)] + [np.array(three.probs)] * 2\n"
                "f, step = optimize._grid_value(u, xs, probs)(np.array([0.7, -1.1, 0.4]))\n"
                "print(hashlib.sha256(step()[1]().tobytes()).hexdigest())\n")
        one, two = stdout_per_blas_thread_count(code)
        assert one == two


class TestProductForm:
    """One rule, ``optimize._product_form``, decides for a whole set
    whether the solve, the Hoelder sides and the exponential-moment cap
    run in product form or on the set's rows."""

    @pytest.mark.parametrize("sizes, product", [
        ((2,) * 4, False),  # the demo's 16 rows: no heads
        ((2,), False),  # the two rows of a K = 1 two-point market
        ((2,) * 14, False),  # 4 heads by a 4096-point tile, 2^14 rows
        ((2,) * 15, True),
        ((2,) * 16, True),
        ((2,) * 17, True),
        ((2,) * 18, True),
        ((2,) * 19, True),
        ((20_001,), False),  # one long law: no heads
        ((ENUMERATION_CAP,), False),
        ((20_001, 2), True),  # 20 001 heads by a 2-point tile
        ((2_000, 64), True),
        ((3,) * 8, False),  # 3 heads by a 2187-point tile, 6561 rows
        ((3,) * 9, True),  # 9 heads, 19 683 rows
        ((3,) * 10, True),
    ])
    def test_predicate_table(self, sizes, product):
        s = ScenarioSet._product([(np.linspace(-1.0, 1.0, m), np.full(m, 1.0 / m))
                                  for m in sizes])
        assert optimize._product_form(s) is product
        assert s._draws is None and s._weights is None  # it reads the support sizes

    @pytest.mark.parametrize("K", [14, 15])
    def test_every_sum_follows_the_rule(self, monkeypatch, K):
        # on either side of the rule's edge, the ladder's levels, the
        # Hoelder sides and the exp cap all take one path: product form
        # reads the laws alone, the row path builds the rows once; both
        # match the same calls on a row set
        model = rademacher_market([0.3 / i for i in range(1, K + 1)])
        s = enumerate_scenarios(model)
        product = optimize._product_form(s)
        assert product is (K == 15)
        u = appendix_power(0.5, GrowthBounds(0.5, 1.5, 1.0, 1.0))
        Q = build_tilted_measure(model)
        strategies = diagnostics.random_strategies(K, 6, 1.0, seed=8)

        def run(t):
            ladder = truncation_ladder(model, u, SolverConfig(ladder=(2, K)), t)
            holder = diagnostics.holder_chain_check(model, Q, u, strategies, t)
            exp = diagnostics.exp_ui_bound(model, t, 2.0, 20, 7)
            return ladder.values() + holder["margins"] + [
                r["value"] for r in exp["measurements"]]

        calls = []
        for module, name in ((optimize, "_grid_value"), (diagnostics, "_product_sides"),
                             (diagnostics, "_product_exp_abs"),
                             (diagnostics, "_strategy_sums")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        got = run(s)
        if product:
            assert calls == ["_grid_value"] * 2 + ["_product_sides", "_product_exp_abs"]
            assert s._draws is None and s._weights is None
        else:
            assert calls == ["_strategy_sums"] * 2
            assert s._draws is not None
        rows = row_set(s)
        assert not optimize._product_form(rows)  # a set of rows never is
        assert got == pytest.approx(run(rows), rel=1e-12)

    def test_two_row_solve_takes_the_row_path(self, monkeypatch):
        # P(up) = 0.106, b at 82 % of the support, appendix_power(0.8775):
        # the maximizer lies near -3.2e12, so the solve runs its 10 000
        # steps, each on the two rows, bit for bit the row set's solve
        model = two_point_market([0.106], [0.82])
        s = enumerate_scenarios(model)
        u = appendix_power(0.8775)
        monkeypatch.setattr(optimize, "_grid_value", mock.Mock(side_effect=AssertionError))
        got = optimize_truncated(model, u, None, s)
        want = optimize_truncated(model, u, None, row_set(s))
        assert got.iterations == SolverConfig().max_iter and not got.converged
        assert got.phi_star.tobytes() == want.phi_star.tobytes()
        assert np.float64(got.grad_norm).tobytes() == np.float64(want.grad_norm).tobytes()

    def test_sets_off_the_rule_build_at_most_their_rows(self):
        # the largest enumerations that fail: one law at the cap and 2^14
        # Rademacher rows.  A solve and the exp cap build the rows and
        # weights once, 8 n (K + 1) bytes: 16 MB and 1.9 MB, within the
        # bounds that _product_form's docstring states
        pts = np.linspace(-1.0, 1.0, ENUMERATION_CAP)
        pts /= math.sqrt(np.mean(pts * pts))
        long = finite_discrete(pts, np.full(ENUMERATION_CAP, 1.0 / ENUMERATION_CAP))
        for model, bound in ((build_market(1, 1, mu=[0.01], beta=[], beta_bar=[1.0],
                                           noise=(long,)), 16e6),
                             (rademacher_market([0.3 / i for i in range(1, 15)]),
                              8 * optimize._PRODUCT_ROWS * 15)):
            s = enumerate_scenarios(model)
            assert not optimize._product_form(s)
            optimize_truncated(model, appendix_power(0.5), None, s, SolverConfig(max_iter=3))
            rows, weights = s._draws, s._weights
            diagnostics.exp_ui_bound(model, s, 1.0, 2, 1)
            assert s._draws is rows and s._weights is weights
            assert rows.nbytes + weights.nbytes == 8 * s.n * (s.K + 1) <= bound


class TestHessianOnDemand:
    """A step forms the Hessian where it starts, or reuses the last step's
    (Newton-chord); the pass that ends a loop forms none.  At the zero
    iterate, where u''(0) = 0, the Hessian's pass finds c all zero on a
    row set and an empty cut in product form, so the matrix is zero."""

    @staticmethod
    def log_halves(monkeypatch):
        """Wrap the row reductions to log each call: "g" for
        optimize._row_sums, and for optimize._row_gram "H", or "H0" with c
        all zero."""
        calls = []
        sums, gram = optimize._row_sums, optimize._row_gram

        def logged_sums(E, a, *shift):
            calls.append("g")
            return sums(E, a, *shift)

        def logged_gram(E, c, *shift):
            calls.append("H" if c.any() else "H0")
            return gram(E, c, *shift)
        monkeypatch.setattr(optimize, "_row_sums", logged_sums)
        monkeypatch.setattr(optimize, "_row_gram", logged_gram)
        return calls

    @staticmethod
    def log_grid_passes(monkeypatch, u):
        """Wrap an exact solve's value (optimize._grid_value) so that each
        step logs "g" per gradient, and its staircase (optimize._staircase)
        to log "H" per Hessian: a run of u's second kernel.  Returns the
        log and the staircase's mock."""
        calls = []
        grid_value, staircase = optimize._grid_value, optimize._staircase

        def logged_value(*args):
            value = grid_value(*args)

            def logged(p):
                f, step = value(p)

                def logged_step():
                    calls.append("g")
                    return step()
                return f, logged_step
            return logged

        def logged_staircase(kernel, *args):
            if kernel is u._kernels.second:
                calls.append("H")
            return staircase(kernel, *args)
        stair = mock.Mock(wraps=logged_staircase)
        monkeypatch.setattr(optimize, "_grid_value", logged_value)
        monkeypatch.setattr(optimize, "_staircase", stair)
        return calls, stair

    @pytest.mark.parametrize("kind", ["exact", "rows", "sampled"])
    def test_solve_hessian_schedule(self, monkeypatch, kind):
        # every solve starts at phi = 0, where u''(0) = 0: its first
        # Hessian is the zero matrix (a row set's u'' gives c all zero,
        # "H0", and an exact solve's u'' staircase runs on an empty cut),
        # so the second step forms H again; no step backtracks, so from
        # there a step reuses H and the next forms it.  An exact solve's
        # value calls, one per step and one at phi = 0, each run one rising
        # staircase for u, each pass one for u' (appendix power's loss side
        # is linear) and each Hessian one for u''.  K = 16: 16 heads by a
        # 4096-point tile, one staircase group, in product form
        model = rademacher_market([0.4 / i for i in range(1, 17)])
        s = enumerate_scenarios(model)
        assert optimize._product_form(s)
        s = {"exact": s, "rows": row_set(s),
             "sampled": sample_scenarios(model, 3 * optimize.ROW_BLOCK + 17, 3)}[kind]
        u = appendix_power(0.5)
        if kind == "exact":
            calls, stair = self.log_grid_passes(monkeypatch, u)
        else:
            calls = self.log_halves(monkeypatch)
            stair = mock.Mock(wraps=optimize._staircase)
            monkeypatch.setattr(optimize, "_staircase", stair)
        second = optimize.eval_u_second
        payoffs = []  # any nonzero, per u'' call

        def logged_second(u, v, **kwargs):
            payoffs.append(bool(v.any()))
            return second(u, v, **kwargs)
        monkeypatch.setattr(optimize, "eval_u_second", logged_second)
        res = optimize_truncated(model, u, None, s)
        assert res.converged and res.iterations == 7
        assert payoffs == ([False] + [True] * 3) * (kind != "exact")
        assert calls == ["g", "H" if kind == "exact" else "H0"] + ["g", "H", "g"] * 3 + ["g"]
        # the staircases' kernels, in order; the first Hessian's at the
        # zero iterate, every split at the tile's end, so its cut is empty,
        # and each later one's at a nonzero iterate: its heads' or its
        # tile's payoffs are not all 0
        kernels = u._kernels
        assert [c.args[0] for c in stair.call_args_list] == (
            [kernels.gain, kernels.prime, kernels.second, kernels.gain, kernels.prime]
            + ([kernels.second] + [kernels.gain, kernels.prime] * 2) * 3) * (kind == "exact")
        assert [c.args[7] for c in stair.call_args_list] == [True] * 20 * (kind == "exact")
        curvature = [c.args for c in stair.call_args_list if c.args[0] is kernels.second]
        if kind == "exact":
            h, k, t = curvature[0][1:4]
            assert not (h.any() or t.any()) and (k == t.size).all()
        assert all(h.any() or t.any() for _, h, _, t, *_ in curvature[1:])

    def test_ladder_levels_hessian_schedule(self, monkeypatch):
        model = rademacher_market([0.4 / i for i in range(1, 7)])
        s = sample_scenarios(model, 5000, 8)
        calls = self.log_halves(monkeypatch)
        second = mock.Mock(wraps=optimize.eval_u_second)
        monkeypatch.setattr(optimize, "eval_u_second", second)
        report = truncation_ladder(model, appendix_power(0.5),
                                   SolverConfig(ladder=(2, 4, 6)), s)
        assert [lv.iterations for lv in report.levels] == [7, 8, 7]
        assert second.call_count == 4 + 5 + 4
        seven = ["g", "H0"] + ["g", "H", "g"] * 3 + ["g"]
        eight = ["g", "H0"] + ["g", "H", "g"] * 4
        assert calls == seven + eight + seven

    def test_certificate_hessian_schedule(self, monkeypatch):
        # at lam = 0 the Hessian r r^T - X^T diag(w) X is not zero, so the
        # second step already reuses it
        model = rademacher_market([0.3, 0.1, 0.05])
        s = sample_scenarios(model, 2000, 4)
        calls = self.log_halves(monkeypatch)
        loop = optimize._damped_newton
        steps = []

        def counted(*args, **kwargs):
            out = loop(*args, **kwargs)
            steps.append(out[-1])
            return out
        monkeypatch.setattr(optimize, "_damped_newton", counted)
        assert detect_unbounded(model, s) == (False, None)
        assert steps == [5]
        assert calls == ["g", "H"] + ["g", "g", "H"] * 2 + ["g"]

    @staticmethod
    def passes(f, grad, hess, x0, slack=0.0, done=None):
        """Run _damped_newton on a 1-d f and log each pass as a string: "g",
        then "H" if it formed a Hessian, then one "f" per line-search trial.
        The first entry is the starting point's value call."""
        log = []

        def value(x):
            log.append("f")
            x = x.copy()

            def step():
                log.append(" g")

                def hessian():
                    log.append("H")
                    return np.array([[hess(x[0])]])
                return np.array([grad(x[0])]), hessian, None
            return f(x[0]), step
        done = done or (lambda g, _: abs(g[0]) <= 1e-10)
        optimize._damped_newton(value, np.array([x0]), done, max_iter=100, slack=slack)
        return "".join(log).split()

    def test_chord_refresh_triggers(self):
        # a zero H: f = 2x - |x|^3 / 3 has f'' = 0 at the start, so the
        # second step forms H again; then H is reused every other step
        assert self.passes(lambda x: 2 * x - abs(x) ** 3 / 3,
                           lambda x: 2 - x * abs(x), lambda x: -2 * abs(x),
                           0.0) == ["f", "gHf", "gHf", "gf", "gHf", "gf", "gHf", "g"]
        # a backtrack: on f = x - x^8 / 8 from 0.5 the first step halves
        # once, so the second forms H again though the first did too
        assert self.passes(lambda x: x - x ** 8 / 8, lambda x: 1 - x ** 7,
                           lambda x: -7 * x ** 6,
                           0.5) == ["f", "gHff", "gHf", "gf", "gHf", "gf", "gHf", "g"]
        # a flat prediction from a held H: on f = -e^-x - x / 10, whose
        # curvature falls as x rises, the held H of the sixth step predicts a
        # gain within the slack and a fresh one does not, so the loop goes
        # on; at the seventh both do, and the loop stops after that step.
        # Every run ends on a pass that forms no Hessian
        assert self.passes(lambda x: -math.exp(-x) - x / 10,
                           lambda x: math.exp(-x) - 0.1, lambda x: -math.exp(-x),
                           0.0, slack=1e-3, done=lambda g, _: False) == [
            "f", "gHf", "gf", "gHf", "gf", "gHf", "gHf", "gHf", "g"]

    @pytest.mark.parametrize("u", GRID_UTILITIES, ids=["appendix_power", "tabulated"])
    def test_product_hessian_runs_one_staircase_and_its_reductions(self, monkeypatch, u):
        # three-point laws at K = 9: 9 heads by a 2187-point tile of 7
        # coordinates.  Either kind runs u'' on one staircase and takes one
        # Gram reduction per design and one row sum per tile coordinate.
        # A table's u'' is 0 everywhere, so its Hessian is the zero matrix;
        # appendix power's has a negative diagonal
        xs = [np.array([-1.0, 0.5, 1.0]) - b for b in np.linspace(-0.3, 0.3, 9)]
        probs = [np.array([0.25, 0.5, 0.25])] * 9
        _, step = optimize._grid_value(u, xs, probs)(np.linspace(-1.0, 1.0, 9))
        _, hessian, _ = step()
        sums = mock.Mock(wraps=optimize._row_sums)
        gram = mock.Mock(wraps=optimize._row_gram)
        stair = mock.Mock(wraps=optimize._staircase)
        monkeypatch.setattr(optimize, "_row_sums", sums)
        monkeypatch.setattr(optimize, "_row_gram", gram)
        monkeypatch.setattr(optimize, "_staircase", stair)
        G = hessian()
        assert G.shape == (9, 9)
        assert (gram.call_count, sums.call_count) == (2, 7)
        assert [c.args[0] for c in stair.call_args_list] == [u._kernels.second]
        if u.kind == "tabulated":
            assert not G.any()
        else:
            assert np.all(np.diag(G) < 0)

    @pytest.mark.parametrize("exact", [True, False], ids=["product_form", "rows"])
    def test_table_solve_forms_zero_hessians(self, monkeypatch, exact):
        # u'' = 0 for a table, so on either path every Hessian its solve
        # forms is the zero matrix, one per step (a zero H is never
        # reused), and every step is the one that the zero matrix, taken
        # with no pass, gives, bit for bit
        model = rademacher_market([0.4 / i for i in range(1, 17)])
        s = enumerate_scenarios(model)
        xs = np.linspace(-20.0, 20.0, 401)
        u = tabulated(xs, eval_u(appendix_power(0.5), xs))
        loop = optimize._damped_newton

        def solve(zero):
            hessians = []

            def logged_loop(value, *args, **kwargs):
                def logged_value(p):
                    f, step = value(p)

                    def logged_step():
                        g, hessian, aux = step()

                        def logged_hessian():
                            H = np.zeros((p.size, p.size)) if zero else hessian()
                            hessians.append(H)
                            return H
                        return g, logged_hessian, aux
                    return f, logged_step
                return loop(logged_value, *args, **kwargs)
            monkeypatch.setattr(optimize, "_damped_newton", logged_loop)
            res = optimize_truncated(model, u, None, s if exact else row_set(s),
                                     SolverConfig(max_iter=6))
            return res, hessians
        want, _ = solve(True)
        got, hessians = solve(False)
        assert optimize._product_form(s) and got.iterations == 6
        assert len(hessians) == 6 and not any(H.any() for H in hessians)
        assert (got.phi_star.tobytes(), got.value) == (want.phi_star.tobytes(), want.value)


class TestNewtonOracles:
    @settings(deadline=None, max_examples=50)
    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.1, 0.9))
    def test_k1_matches_bisection(self, p, frac, alpha):
        model = two_point_market([p], [frac])
        u = appendix_power(alpha)
        phi1, val1 = optimize_single_asset(
            DiscretePayoff.from_noise(model.noise[0], model.b[0]), u)
        # far optima are flat, and there the oracle's tolerance on the
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

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.integers(-20, 20), min_size=2, max_size=6, unique=True),
           st.lists(st.integers(0, 8), min_size=5, max_size=5),
           st.integers(-8, 8), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_tabulated_value_reaches_grid_maximum(self, nodes, slopes, y0, p, frac):
        # a concave table: nonincreasing slopes on a 1/4 grid, the first > 0
        xs = np.sort(np.array(nodes, dtype=float)) / 4.0
        slopes = np.sort(slopes[:xs.size - 1])[::-1] / 4.0
        assume(slopes[0] > 0)
        u = tabulated(xs, y0 / 4.0 + np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))]))
        model = two_point_market([p], [frac])
        s = enumerate_scenarios(model)
        X = (s.draws - model.b)[:, 0]
        res = optimize_truncated(model, u, None, s)
        # the loop stops by itself (about 20 steps, 34 the most in 4000
        # draws), though often short of grad_tol near a kink maximum
        assert res.iterations <= 100
        # the optimum pays a table node in some scenario, inside this range
        reach = np.abs(xs).max() / np.abs(X).min() + 1.0
        grid = np.linspace(-reach, reach, 40_001)
        best = float((eval_u(u, np.outer(grid, X)) @ s.weights).max())
        # u' is a central difference, blurring each node over a relative
        # 1e-6, so the loop may stop that close to a kink maximum (gaps of
        # up to 5e-8 relative seen in 4000 draws)
        assert res.value >= best - 1e-6 * max(1.0, abs(best))


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
            truncation_ladder(model, appendix_power(0.5),
                              SolverConfig(ladder=tuple(sorted((1, K)))))

    @pytest.mark.parametrize("ladder", [(4, 2), (2, 2), (1, 3, 2)])
    def test_ladder_levels_must_increase(self, ladder):
        with pytest.raises(ValueError, match="must be strictly increasing"):
            SolverConfig(ladder=ladder)

    @pytest.mark.parametrize("kwargs, message", [
        ({"grad_tol": math.nan}, "grad_tol must be finite and positive"),
        ({"grad_tol": math.inf}, "grad_tol must be finite and positive"),
        ({"grad_tol": 0.0}, "grad_tol must be finite and positive"),
        ({"max_iter": -1}, "max_iter must be >= 0"),
    ], ids=["grad-tol-nan", "grad-tol-inf", "grad-tol-zero", "max-iter-negative"])
    def test_solver_settings_validated(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**kwargs)

    def test_level_beyond_set_columns_rejected(self, market_k3):
        s = enumerate_scenarios(rademacher_market([0.2, 0.1]))
        with pytest.raises(ValueError, match=r"outside \[1, 2\]"):
            optimize_truncated(market_k3, appendix_power(0.5), 3, s)


class TestDetectUnbounded:
    def test_set_narrower_than_market_rejected(self, market_k3):
        s = enumerate_scenarios(rademacher_market([0.2, 0.1]))
        for t in (s, row_set(s)):
            with pytest.raises(ValueError, match="scenario set has 2 coordinates"):
                detect_unbounded(market_k3, t)

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

    @settings(deadline=None, max_examples=100)
    @given(exact_markets())
    def test_exact_verdict_matches_lp_over_every_row(self, model):
        s = enumerate_scenarios(model)
        X = s.draws - model.b
        found, phi = detect_unbounded(model, s)
        assert found == lp_finds_witness(X)
        if found:
            assert_witness(X, phi)
        else:
            assert phi is None

    @settings(deadline=None, max_examples=100)
    @given(sampled_sets())
    def test_sampled_verdict_matches_lp_over_every_row(self, case):
        model, s = case
        X = s.draws - model.b
        lp_found = lp_finds_witness(X)
        if optimize._no_arbitrage_certificate(optimize._raw_draws(s, model.K), model.b,
                                              s.weights):
            assert not lp_found
        found, phi = detect_unbounded(model, s)
        assert found == lp_found
        if found:
            assert_witness(X, phi)

    def test_certificate_decides_without_the_lp(self, market_k3, monkeypatch):
        import scipy.optimize

        def no_lp(*args, **kwargs):
            raise AssertionError("the LP ran")

        monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
        s = sample_scenarios(market_k3, 2000, seed=1)
        assert detect_unbounded(market_k3, s) == (False, None)

    def test_planted_arbitrage_goes_to_the_lp(self, market_k3, monkeypatch):
        # keep only rows where phi = (1, -0.5, 0.25) pays >= 0
        s0 = sample_scenarios(market_k3, 400, seed=2)
        rows = s0.draws[(s0.draws - market_k3.b) @ np.array([1.0, -0.5, 0.25]) >= 0]
        s = ScenarioSet(rows, np.full(len(rows), 1.0 / len(rows)), "planted")
        verdicts = []
        certificate = optimize._no_arbitrage_certificate

        def spy(E, shift, w):
            verdicts.append(certificate(E, shift, w))
            return verdicts[-1]

        monkeypatch.setattr(optimize, "_no_arbitrage_certificate", spy)
        found, phi = detect_unbounded(market_k3, s)
        assert verdicts == [False]
        assert found
        assert_witness(rows - market_k3.b, phi)

    def test_undecided_certificate_goes_to_the_lp(self, monkeypatch):
        # b_5 = 1.5 sits near the top of the uniform's support sqrt(3), so
        # min y is too small for the bound: the certificate is undecided on
        # a sample without arbitrage, and the LP decides
        import scipy.optimize

        b = [0.1, 0.05, 0.2, -0.1, 1.5, 0.0]
        model = build_market(1, 6, mu=[-x for x in b], beta=[[0.0]] * 5,
                             beta_bar=[1.0] * 6, noise=standardized_uniform())
        s = sample_scenarios(model, 2000, seed=1)
        verdicts, lp_calls = [], []
        certificate = optimize._no_arbitrage_certificate
        linprog = scipy.optimize.linprog

        def spy(E, shift, w):
            verdicts.append(certificate(E, shift, w))
            return verdicts[-1]

        def counted_linprog(*args, **kwargs):
            lp_calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(optimize, "_no_arbitrage_certificate", spy)
        monkeypatch.setattr(scipy.optimize, "linprog", counted_linprog)
        found, phi = detect_unbounded(model, s)
        assert verdicts == [False] and lp_calls == [1]
        assert not found and phi is None
        assert not lp_finds_witness(s.draws - model.b)

    def test_zero_weight_skips_the_certificate(self, market_k3, monkeypatch):
        s0 = sample_scenarios(market_k3, 200, seed=3)
        w = s0.weights.copy()
        w[0] = 0.0
        s = ScenarioSet(s0.draws, w / w.sum(), "zero weight")
        calls = []
        monkeypatch.setattr(optimize, "_no_arbitrage_certificate",
                            lambda E, shift, w: calls.append(1))
        found, _ = detect_unbounded(market_k3, s)
        assert calls == []
        assert found == lp_finds_witness(s.draws - market_k3.b)
