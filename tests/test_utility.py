import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmopt import (GrowthBounds, Utility, appendix_power, certify_growth,
                    eval_u, eval_u_prime, eval_u_second, tabulated)
from apmopt.utility import _BUILDERS, _side, _split_u
from conftest import scaled_utility

# the tests' arrays run around this length, with edge values at both
# ends of each piece of it
CHUNK = 1 << 14


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

    def test_tabulated_continues_first_slope_below_table(self):
        u = tabulated([-1.0, 0.0, 1.0], [-1.0, 0.0, 0.5])
        xs = np.array([-9.0, -1.5, -1.0, 0.5, 1.0, 4.0])
        assert np.array_equal(eval_u(u, xs), [-9.0, -1.5, -1.0, 0.25, 0.5, 0.5])
        assert eval_u(u, -3.0) == -3.0

    def test_tabulated_prime_continues_first_slope_below_table(self):
        # the first slope below the table, the segment slopes inside, 0 above
        u = tabulated([-1.0, 0.0, 1.0], [-1.0, 0.0, 0.5])
        xs = np.array([-5.0, -1.5, -0.5, 0.5, 1.5, 4.0])
        assert eval_u_prime(u, xs) == pytest.approx([1.0, 1.0, 1.0, 0.5, 0.0, 0.0],
                                                    abs=1e-9)
        assert type(eval_u_prime(u, -3.0)) is float

    def test_tabulated_prime_at_infinities(self):
        # the first slope at -inf and 0 at +inf, with no inf - inf step (a
        # RuntimeWarning is an error here); NaN stays NaN, and finite
        # arguments keep the finite difference's bits
        u = tabulated([-1.0, 0.0, 1.0], [-1.0, 0.0, 0.5])
        xs = np.array([-np.inf, np.inf, np.nan, -5.0, 0.5, 4.0])
        finite = eval_u_prime(u, xs[3:])
        got = eval_u_prime(u, xs)
        assert np.array_equal(got[:2], [1.0, 0.0]) and np.isnan(got[2])
        assert got[3:].tobytes() == finite.tobytes()
        assert eval_u_prime(u, -np.inf) == 1.0 and eval_u_prime(u, np.inf) == 0.0
        assert type(eval_u_prime(u, np.inf)) is float
        assert np.isnan(eval_u_prime(u, np.nan))
        out = np.empty(xs.shape)
        assert eval_u_prime(u, xs, out=out) is out
        assert out.tobytes() == got.tobytes()
        scalar = np.empty(())
        assert eval_u_prime(u, -np.inf, out=scalar) is scalar and scalar[()] == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=2, max_size=6, unique=True),
           st.lists(st.integers(0, 8), min_size=6, max_size=6),
           st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=20))
    def test_tabulated_prime_matches_one_sided_difference(self, nodes, drops, x):
        # slopes from a decreasing list of integers: a concave table
        xs = np.sort(np.array(nodes, dtype=float)) / 4.0
        slopes = np.cumsum(drops[:len(xs) - 1])[::-1] / 8.0
        ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
        u = tabulated(xs, ys)
        h = 1e-7
        # away from the nodes both differences see one segment
        x = np.array([v for v in x if np.abs(v - xs).min() > 2e-6 * max(1.0, abs(v))])
        fd = (eval_u(u, x) - eval_u(u, x - h)) / h
        assert eval_u_prime(u, x) == pytest.approx(fd, abs=1e-6)

    def test_tabulated_second_is_zero(self):
        u = tabulated([-1.0, 0.0, 1.0], [-1.0, 0.0, 0.5])
        assert np.array_equal(eval_u_second(u, np.linspace(-2, 2, 9)), np.zeros(9))


def where_formulas(alpha, x):
    """u, u', u'' of appendix_power as np.where over both branches: the
    reference the live-branch evaluators must match bit for bit."""
    x = np.asarray(x, dtype=float)
    pos = np.maximum(x, 0.0)
    return (np.where(x > 0, (pos + 1.0) ** alpha - 1.0, alpha * x),
            np.where(x > 0, alpha * (pos + 1.0) ** (alpha - 1.0), alpha),
            np.where(x > 0, alpha * (alpha - 1.0) * (pos + 1.0) ** (alpha - 2.0), 0.0))


EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-17, 1.0, -1.0,
         1e300, -1e300, np.inf, -np.inf, np.nan]
REALS = st.sampled_from(EDGES) | st.floats(allow_nan=True, allow_infinity=True)


class TestLiveBranch:
    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(0.01, 0.99), xs=st.lists(REALS, max_size=40))
    def test_arrays_match_where_bit_for_bit(self, alpha, xs):
        u = appendix_power(alpha)
        x = np.array(EDGES + xs)
        for arr in (x, x.reshape(2, -1) if x.size % 2 == 0 else x[None, :]):
            got = [f(u, arr) for f in (eval_u, eval_u_prime, eval_u_second)]
            for g, ref in zip(got, where_formulas(alpha, arr)):
                assert g.shape == ref.shape and g.tobytes() == ref.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(0.01, 0.99), x=REALS)
    def test_scalars_match_where_bit_for_bit(self, alpha, x):
        # a 0-d x is one element of the array kernel: numpy's scalar pow,
        # which can differ from its array pow in the last bit, never runs
        u = appendix_power(alpha)
        refs = where_formulas(alpha, [x])
        for arg in (x, np.float64(x), np.array(x)):
            got = [f(u, arg) for f in (eval_u, eval_u_prime, eval_u_second)]
            for g, ref in zip(got, refs):
                assert type(g) is float
                assert np.float64(g).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
    def test_lengths_around_the_chunk_match_where_bit_for_bit(self, n):
        # edge values at both ends of every chunk, random signs between
        x = np.random.default_rng(n).standard_normal(n) * 10.0 ** (n % 7)
        for start in range(0, n, CHUNK):
            for end in (start, min(start + CHUNK, n) - len(EDGES)):
                x[end:end + len(EDGES)] = EDGES[:n - end]
        u = appendix_power(0.37)
        refs = where_formulas(u.alpha, x)
        strided = np.stack([x, -x], axis=1)[:, 0]  # x's values, not contiguous
        for f, ref in zip((eval_u, eval_u_prime, eval_u_second), refs):
            assert f(u, x).tobytes() == ref.tobytes()
            assert f(u, strided).tobytes() == ref.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(0.01, 0.99), xs=st.lists(REALS, min_size=1, max_size=60))
    def test_layouts_match_where_bit_for_bit(self, alpha, xs):
        # non-contiguous, Fortran-ordered and 3-d inputs read in C order
        u = appendix_power(alpha)
        x = np.array((EDGES + xs) * 4)
        n = x.size // 12 * 12
        cube = x[:n].reshape(2, 3, -1)
        for arr in (x[::3], x[1::2][::-1], np.asfortranarray(x[:n].reshape(4, -1)),
                    cube, cube.transpose(2, 0, 1), cube[:, ::2, 1:]):
            refs = where_formulas(alpha, np.ascontiguousarray(arr))
            for f, ref in zip((eval_u, eval_u_prime, eval_u_second), refs):
                got = f(u, arr)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_no_full_size_temporaries(self):
        # the output plus the one scratch of x's size, and for u'' the
        # mask x > 0, a byte an element; 1/16 of x's bytes covers numpy's
        # casting buffers
        u = appendix_power(0.5)
        x = np.random.default_rng(0).standard_normal(1 << 19)
        for f, scratch in ((eval_u, 1), (eval_u_prime, 1), (eval_u_second, 1 + 1 / 8)):
            tracemalloc.start()
            try:
                out = f(u, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= out.nbytes + (scratch + 1 / 16) * x.nbytes


TABLE = tabulated((-10.0, -1.0, 0.0, 1.0, 10.0), (-30.0, -2.0, 0.2, 1.0, 3.0))


FINITE_EDGES = [e for e in EDGES if np.isfinite(e)]


def edged(n, edges=EDGES):
    """n values with the edge values at both ends of every chunk and
    random signs and scales between."""
    x = np.random.default_rng(n).standard_normal(n) * 10.0 ** (n % 7)
    for start in range(0, n, CHUNK):
        for end in (start, min(start + CHUNK, n) - len(edges)):
            x[end:end + len(edges)] = edges[:n - end]
    return x


class TestOut:
    @pytest.mark.parametrize("u", [appendix_power(0.37), TABLE],
                             ids=["appendix_power", "tabulated"])
    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_out_is_returned_bit_for_bit(self, u, n):
        # a table's continuation is inf - inf at infinities: finite values
        x = edged(n, EDGES if u.kind == "appendix_power" else FINITE_EDGES)
        for f in (eval_u, eval_u_prime, eval_u_second):
            out = np.full(n, np.nan)
            got = f(u, x, out=out)
            assert got is out
            assert out.tobytes() == f(u, x).tobytes()
            # a strided x, and 2-d: read in C order like the allocating call
            out2 = np.empty((1, n))
            assert f(u, x[None, ::-1], out=out2) is out2
            assert out2.tobytes() == f(u, x[None, ::-1]).tobytes()

    @pytest.mark.parametrize("u", [appendix_power(0.37), TABLE],
                             ids=["appendix_power", "tabulated"])
    def test_out_on_a_scalar_holds_the_float(self, u):
        for f in (eval_u, eval_u_prime, eval_u_second):
            for x in (-2.5, 0.0, 3.0):
                out = np.empty(())
                assert f(u, x, out=out) is out
                assert out[()] == f(u, x)

    def test_out_may_be_x(self):
        u = appendix_power(0.37)
        x = edged(CHUNK + 1)
        for f in (eval_u, eval_u_prime, eval_u_second):
            y = x.copy()
            assert f(u, y, out=y).tobytes() == f(u, x).tobytes()

    @pytest.mark.parametrize("u", [appendix_power(0.37), TABLE],
                             ids=["appendix_power", "tabulated"])
    def test_wrong_out_refused(self, u):
        x = np.zeros(8)
        for bad in (np.empty(7), np.empty(8, dtype=np.float32), np.empty(16)[::2]):
            with pytest.raises(ValueError, match="C-contiguous float64 array of shape"):
                eval_u(u, x, out=bad)


def split_oracle(u, y):
    """u(Y+) and u(-Y-) as two whole-array evaluations of u."""
    pos = np.maximum(y, 0.0)
    return eval_u(u, pos), eval_u(u, y - pos)


class TestSplit:
    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
    def test_lengths_around_the_chunk_match_two_evaluations(self, n):
        # payoffs are finite; the oracle's Y - max(Y, 0) is NaN at +inf
        x = edged(n, FINITE_EDGES)
        u = appendix_power(0.37)
        strided = np.stack([x, -x], axis=1)[:, 0]
        for y in (x, strided, x[:n // 2 * 2].reshape(2, -1)):
            gain, loss = _split_u(u)(y)
            ref_gain, ref_loss = split_oracle(u, np.ascontiguousarray(y))
            assert gain.shape == loss.shape == y.shape
            assert gain.tobytes() == ref_gain.tobytes()
            assert loss.tobytes() == ref_loss.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(0.01, 0.99),
           xs=st.lists(st.sampled_from(FINITE_EDGES)
                       | st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_matches_two_evaluations_bit_for_bit(self, alpha, xs):
        u = appendix_power(alpha)
        y = np.array(FINITE_EDGES + xs)
        gain, loss = _split_u(u)(y)
        ref_gain, ref_loss = split_oracle(u, y)
        assert gain.tobytes() == ref_gain.tobytes()
        assert loss.tobytes() == ref_loss.tobytes()

    def test_no_full_size_temporaries(self):
        # its two outputs plus one side's scratch of y's size at a time,
        # and no u(0)
        u = appendix_power(0.5)
        y = np.random.default_rng(0).standard_normal((25, 1 << 14))
        tracemalloc.start()
        try:
            gain, loss = _split_u(u)(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gain.nbytes + loss.nbytes + (1 + 1 / 16) * y.nbytes


# one utility of each kind: appendix power's alpha, or a table with
# strictly increasing nodes and any finite values
KINDS = {
    "appendix_power": st.floats(0.01, 0.99).map(appendix_power),
    "tabulated": st.lists(st.tuples(st.floats(0.01, 100.0), st.floats(-1e3, 1e3)),
                          min_size=2, max_size=8).map(lambda nodes: tabulated(
                              np.cumsum([dx for dx, _ in nodes]) - 50.0,
                              [y for _, y in nodes])),
}


class TestSecondOffTheGainSide:
    """u'' = 0 on Y <= 0 for every utility kind, so the exact solver's
    Hessian runs u'' through the gain side's clamp (``_side``) on the rows
    above 0 alone: u''(max(Y, 0)) is u''(Y)."""

    def test_every_kind_is_drawn(self):
        assert set(KINDS) == set(_BUILDERS)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(*KINDS.values()),
           st.lists(st.floats(max_value=0.0, allow_nan=False), max_size=40),
           st.lists(st.floats(min_value=0.0, allow_nan=False), max_size=40))
    def test_second_is_zero_at_and_below_zero(self, u, losses, gains):
        y = np.array(losses + [0.0, -0.0, -np.inf, -5e-324])
        assert eval_u_second(u, y).tobytes() == np.zeros(y.size).tobytes()
        y = np.concatenate([y, gains])
        out = np.empty(y.size)
        _side(u._kernels.second, True)(y, out, np.empty(y.size))
        assert out.tobytes() == eval_u_second(u, y).tobytes()


def table_u(u, x):
    """A tabulated u as whole-array numpy: the interpolant plus its first
    slope continued below the table."""
    first = (u.ys[1] - u.ys[0]) / (u.xs[1] - u.xs[0])
    return np.interp(x, u.xs, u.ys) + first * np.minimum(x - u.xs[0], 0.0)


def table_formulas(u, x):
    """u, u', u'' of a tabulated u as whole-array numpy: the reference its
    chunk kernels must match bit for bit."""
    first = (u.ys[1] - u.ys[0]) / (u.xs[1] - u.xs[0])
    ends = np.isinf(x)
    xf = np.where(ends, 0.0, x)
    h = 1e-6 * np.maximum(1.0, np.abs(xf))
    slope = (table_u(u, xf + h) - table_u(u, xf - h)) / (2 * h)
    return (table_u(u, x), np.where(ends, np.where(x < 0, first, 0.0), slope),
            np.zeros(x.shape))


def layouts(x):
    """x itself, strided, Fortran-ordered, 3-d and a transposed 3-d view."""
    n = x.size // 6 * 6
    cube = x[:n].reshape(2, 3, -1)
    return [x, np.stack([x, -x], axis=1)[:, 0], np.asfortranarray(x[:n].reshape(6, -1)),
            cube, cube.transpose(2, 0, 1)]


class TestTabulatedChunks:
    """A tabulated u runs the chunk driver that appendix power runs, with
    the values of the whole-array formulas it replaced."""

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
    def test_layouts_match_whole_array_formulas_bit_for_bit(self, n):
        x = edged(n)
        for arr in layouts(x):
            refs = table_formulas(TABLE, np.ascontiguousarray(arr))
            for f, ref in zip((eval_u, eval_u_prime, eval_u_second), refs):
                got = f(TABLE, arr)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
                y = np.array(arr, order="C")
                assert f(TABLE, y, out=y) is y and y.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
    def test_split_matches_whole_array_formulas_bit_for_bit(self, n):
        # payoffs are finite; Y - max(Y, 0) is NaN at +inf
        x = edged(n, FINITE_EDGES)
        for arr in layouts(x):
            y = np.ascontiguousarray(arr)
            pos = np.maximum(y, 0.0)
            gain, loss = _split_u(TABLE)(arr)
            assert gain.shape == loss.shape == y.shape
            assert gain.tobytes() == table_u(TABLE, pos).tobytes()
            assert loss.tobytes() == table_u(TABLE, y - pos).tobytes()

    def test_scalars_are_one_element_arrays(self):
        for f in (eval_u, eval_u_prime, eval_u_second):
            for x in EDGES:
                got = f(TABLE, x)
                assert type(got) is float
                assert np.float64(got).tobytes() == f(TABLE, np.array([x])).tobytes()

    def test_no_full_size_temporaries(self):
        # the output plus the counted arrays of x's size: the scratch, and
        # np.interp's result for u; for u' also the finite difference's
        # point, step and upper point, and its two masks, a byte an
        # element; 1/16 of x's bytes covers numpy's casting buffers
        x = np.random.default_rng(0).standard_normal(1 << 19) * 5.0
        for f, scratch in ((eval_u, 2), (eval_u_prime, 5 + 2 / 8), (eval_u_second, 1)):
            tracemalloc.start()
            try:
                out = f(TABLE, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= out.nbytes + (scratch + 1 / 16) * x.nbytes
        tracemalloc.start()
        try:
            gain, loss = _split_u(TABLE)(x.reshape(32, -1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gain.nbytes + loss.nbytes + (2 + 1 / 16) * x.nbytes


class TestShape:
    @pytest.mark.parametrize("u", [appendix_power(0.2), appendix_power(0.9)])
    def test_builtins_concave_nondecreasing(self, u):
        ys = eval_u(u, np.linspace(-100.0, 100.0, 10_001))
        tol = 1e-12 * np.max(np.abs(ys))
        assert np.all(np.diff(ys) >= -tol)
        assert np.all(np.diff(ys, 2) <= tol)

    def test_graph_below_tangent_at_zero(self):
        # concavity: u(x) <= u'(0) x everywhere, with equality for x <= 0
        u = appendix_power(0.5)
        xs = np.linspace(-100, 100, 10_001)
        assert np.all(eval_u(u, xs) - 0.5 * xs <= 1e-12)


NAN, INF = float("nan"), float("inf")


class TestConstruction:
    """A kind's parameters are checked once, when the utility is made,
    through its factory and through Utility(...) alike."""

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2, NAN, INF])
    def test_alpha_outside_the_unit_interval_refused(self, alpha):
        for make in (lambda: appendix_power(alpha),
                     lambda: Utility("appendix_power", alpha=alpha)):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0,1\)"):
                make()

    @pytest.mark.parametrize("xs, ys, message", [
        ((), (), "at least two points"),
        ((0.0,), (0.0,), "at least two points"),
        ((0.0, 1.0), (0.0,), "matching tables"),
        ((0.0, NAN, 2.0), (0.0, 1.0, 1.5), "must be finite"),
        ((-INF, 0.0), (0.0, 1.0), "must be finite"),
        ((0.0, 1.0), (0.0, INF), "must be finite"),
        ((0.0, 1.0), (NAN, 1.0), "must be finite"),
        ((1.0, 0.0), (0.0, 1.0), "xs must be strictly increasing"),
        ((0.0, 0.0, 1.0), (0.0, 0.5, 1.0), "xs must be strictly increasing"),
    ], ids=["empty", "one-point", "lengths", "xs-nan", "xs-inf", "ys-inf", "ys-nan",
            "xs-decreasing", "xs-repeated"])
    def test_bad_table_refused(self, xs, ys, message):
        for make in (lambda: tabulated(xs, ys), lambda: Utility("tabulated", xs=xs, ys=ys)):
            with pytest.raises(ValueError, match=message):
                make()

    @pytest.mark.parametrize("u", [appendix_power(0.37), TABLE],
                             ids=["appendix_power", "tabulated"])
    def test_pickle_round_trip_builds_the_kernels_again(self, u):
        v = pickle.loads(pickle.dumps(u))
        x = edged(CHUNK + 1, FINITE_EDGES)
        assert v == u and eval_u(v, x).tobytes() == eval_u(u, x).tobytes()

    def test_table_is_not_converted_per_call(self):
        # 16 points on a 40,001-point table allocate less than the table:
        # its arrays are built once, with the utility
        u = scaled_utility(appendix_power(0.5), 1.0)
        x = np.linspace(-250.0, 250.0, 16)
        for f in (eval_u, eval_u_prime):
            f(u, x)
            tracemalloc.start()
            try:
                f(u, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < len(u.xs) * 8


class TestGrowthBounds:
    @pytest.mark.parametrize("field", ["beta", "C1", "C2"])
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_non_finite_constants_refused(self, field, value):
        # with a NaN C2 no negative-side comparison could fail, so
        # certify_growth would hold
        bounds = {"alpha": 0.5, "beta": 1.5, "C1": 1.0, "C2": 1.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            GrowthBounds(**bounds)

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
