"""Concave nondecreasing utilities with growth-bound certification.

Built-in kinds:

* ``appendix_power(alpha)`` -- u(x) = alpha*x for x <= 0 and
  (x+1)**alpha - 1 for x > 0; continuously differentiable, u' <= alpha,
  concave and nondecreasing for every alpha in (0,1).
* ``tabulated(xs, ys)`` -- piecewise linear interpolation of a user table,
  continued below xs[0] along the first segment and held at ys[-1] above
  xs[-1], so a table with nonnegative, nonincreasing slopes gives a
  concave nondecreasing u on the whole line; u' is a central finite
  difference of u and u'' is 0.  Shape is the caller's responsibility; a
  config file's table is checked from its own slopes when it is parsed.

``Utility`` rejects any other kind when it is built, so each evaluator
below picks its kernel by a two-way branch.

Each evaluator is one per-chunk kernel per kind, run by one driver
(``_evaluate``) over fixed chunks of ``_CHUNK`` elements, so every
temporary is a chunk or a few, whatever the array's size; a 0-d argument
is one element of the same kernel, so its float is the one-element
array's value bit for bit.  The appendix-power kernels are branch-free:
each applies the x > 0 formula to max(x, 0), which leaves x > 0 as it is
and maps the rest to 0, where that formula is exact, and joins the x <= 0
formula by arithmetic or a bit mask, with no boolean gather or scatter,
so the time per element does not depend on the signs' pattern.  Their
values are bit for bit those of np.where over the two formulas, -0.0,
infinities and NaN payloads included; a table's are those of its
formulas on the whole array.

Each evaluator takes a keyword-only ``out``, as numpy's ufuncs do: a
C-contiguous float64 array of x's shape that receives the values and is
returned, bit for bit the allocating call's, so a caller that evaluates
at every step can reuse one buffer.  Without it a new array is returned.

``_split_u(u)`` gives the Hoelder walk's evaluator of the pair
(u(Y+), u(-Y-)), one chunk kernel per kind under one driver: appendix
power evaluates its two terms apart, with no u(0) and no mask; a
tabulated u evaluates u(Y) once and splits it by bit masks.

A GrowthBounds certificate records constants (alpha, beta, C1, C2) for the
caps u(x) <= C1(x**alpha + 1) on x >= 0 and u(x) <= C2(-|x|**beta + 1) on
x < 0.  ``certify_growth`` checks the caps and returns a verdict with a
witness on failure; note the negative-side cap forces decay at least like
-|x|**beta, which linear-below utilities violate for large |x|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GrowthBounds",
    "Utility",
    "GrowthVerdict",
    "appendix_power",
    "tabulated",
    "eval_u",
    "eval_u_prime",
    "eval_u_second",
    "certify_growth",
]


@dataclass(frozen=True)
class GrowthBounds:
    alpha: float
    beta: float
    C1: float
    C2: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("need 0 <= alpha < 1")
        if not self.beta > 1.0:
            raise ValueError("need beta > 1 strictly")
        if self.C1 <= 0 or self.C2 <= 0:
            raise ValueError("need C1, C2 > 0")


@dataclass(frozen=True)
class Utility:
    kind: str                      # "appendix_power" | "tabulated"
    alpha: float = 0.5
    xs: tuple[float, ...] = ()     # tabulated only
    ys: tuple[float, ...] = ()
    growth: GrowthBounds | None = None

    def __post_init__(self):
        if self.kind not in ("appendix_power", "tabulated"):
            raise ValueError(f"unknown utility kind {self.kind!r}")

    @property
    def certified(self) -> bool:
        return self.growth is not None


def appendix_power(alpha: float, growth: GrowthBounds | None = None) -> Utility:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    return Utility("appendix_power", alpha=alpha, growth=growth)


def tabulated(xs, ys, growth: GrowthBounds | None = None) -> Utility:
    xs = tuple(map(float, xs))
    ys = tuple(map(float, ys))
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need matching tables with at least two points")
    return Utility("tabulated", xs=xs, ys=ys, growth=growth)


_CHUNK = 1 << 14  # elements per kernel pass: 128 KB temporaries stay in cache


def _chunks(kernel, x: np.ndarray, *outs: np.ndarray) -> None:
    """kernel(xc, *out chunks, tmp) on _CHUNK elements of x at a time: xc
    holds them in C order, each out chunk the same elements of one of the
    C-ordered outs, and tmp one chunk of scratch."""
    flats = [o.reshape(-1) for o in outs]
    src = x.reshape(-1) if x.flags.c_contiguous else x.flat
    tmp = np.empty(min(_CHUNK, x.size))
    for start in range(0, x.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        xc = src[chunk]
        kernel(xc, *[f[chunk] for f in flats], tmp[:xc.size])


def _evaluate(kernel, x, out):
    """out, or a new C-ordered array of x's shape, that kernel(xc, out,
    tmp) fills _CHUNK elements at a time (``_chunks``); on a 0-d x with no
    out, its one value as a float.  A 0-d x is one element of the same
    kernel, so its value is the one-element array's bit for bit.  Each
    kernel reads an element of xc before it writes that element of out, so
    out may be x itself."""
    x = np.asarray(x, dtype=float)
    scalar = out is None and x.ndim == 0
    if out is None:
        out = np.empty(x.shape)
    elif out.shape != x.shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {x.shape}")
    _chunks(kernel, x, out)
    return float(out[()]) if scalar else out


def _live_bits(x, out=None):
    """int64 all ones where x > 0 and 0 elsewhere (NaN included): a mask
    that selects by bits, with no branch per element."""
    return np.subtract(0, x > 0, out=out, dtype=np.int64)


def _first_slope(u: Utility) -> float:
    """A table's first segment slope, which u continues below the table."""
    return (u.ys[1] - u.ys[0]) / (u.xs[1] - u.xs[0])


def _u_kernel(u: Utility):
    """The kernel(xc, out, tmp) that writes u(xc) into out."""
    if u.kind == "appendix_power":
        a = u.alpha

        def kernel(xc, out, tmp):
            # a min(0, x) - (1 - (max(x, 0) + 1)**a).  On x <= 0 the second
            # term is +0.0, which subtracts exactly even from -0.0, and
            # min(0, x) keeps x's -0.0 and NaN; on x > 0 the first is +0.0,
            # and 0 - (1 - p) = p - 1 exactly.  fmax maps NaN to 0.
            np.fmax(xc, 0.0, out=tmp)
            tmp += 1.0
            np.power(tmp, a, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.minimum(0.0, xc, out=out)
            out *= a
            out -= tmp
        return kernel
    xs, ys = np.array(u.xs), np.array(u.ys)
    first = _first_slope(u)

    def kernel(xc, out, tmp):
        # the interpolant plus first * min(x - xs[0], 0), which continues
        # the first segment below the table
        np.subtract(xc, xs[0], out=tmp)
        np.minimum(tmp, 0.0, out=tmp)
        tmp *= first
        np.add(np.interp(xc, xs, ys), tmp, out=out)
    return kernel


def eval_u(u: Utility, x, *, out=None):
    """u(x), vectorized; written into out when given."""
    return _evaluate(_u_kernel(u), x, out)


def eval_u_prime(u: Utility, x, *, out=None):
    """u'(x), vectorized; left derivative at kinks, common value when equal;
    written into out when given.

    For tabulated utilities this is a central finite difference of u with
    step 1e-6 max(1, |x|): the segment slope away from the nodes, and
    between the two slopes within a step of a node.  The one-sided slope
    would never vanish at a maximum on a node, and the Newton loop would
    not stop there before max_iter.  At x = -inf it is the first segment's
    slope, which u continues below the table, and at +inf 0, where u is
    held; there the step would be infinite.
    """
    if u.kind == "appendix_power":
        a = u.alpha

        def kernel(xc, out, tmp):
            # a (max(x, 0) + 1)**(a - 1): on x <= 0 and NaN, a * 1**(a - 1)
            # = a, the value at and below the kink
            np.fmax(xc, 0.0, out=out)
            out += 1.0
            np.power(out, a - 1.0, out=out)
            out *= a
    else:
        value, first = _u_kernel(u), _first_slope(u)

        def kernel(xc, out, tmp):
            ends = np.isinf(xc)
            low = ends & (xc < 0)
            xf = np.where(ends, 0.0, xc)
            h = np.abs(xf)
            np.maximum(1.0, h, out=h)
            h *= 1e-6
            up = xf + h
            xf -= h
            value(up, up, tmp)
            value(xf, xf, tmp)
            up -= xf
            h *= 2.0
            np.divide(up, h, out=out)
            np.copyto(out, 0.0, where=ends)
            np.copyto(out, first, where=low)
    return _evaluate(kernel, x, out)


def eval_u_second(u: Utility, x, *, out=None):
    """u''(x), vectorized; left second derivative at kinks (0 at x = 0);
    written into out when given.

    Tabulated utilities are piecewise linear, so theirs is 0.
    """
    if u.kind == "appendix_power":
        a = u.alpha
        k = a * (a - 1.0)

        def kernel(xc, out, tmp):
            # k (max(x, 0) + 1)**(a - 2), its bits masked to +0.0 off x > 0:
            # k < 0, so no product with a 0/1 mask gives +0.0 there
            live = _live_bits(xc, tmp.view(np.int64))
            np.fmax(xc, 0.0, out=out)
            out += 1.0
            np.power(out, a - 2.0, out=out)
            out *= k
            bits = out.view(np.int64)
            bits &= live
    else:
        def kernel(xc, out, tmp):
            out.fill(0.0)
    return _evaluate(kernel, x, out)


def _split_u(u: Utility):
    """values(Y) for the Hoelder walk: the pair (u(Y+), u(-Y-)) of new
    C-ordered arrays of Y's shape, with Y+ = max(Y, 0) and -Y- = Y - Y+,
    filled _CHUNK elements at a time (``_chunks``) by the kind's kernel.
    On non-NaN Y both equal eval_u(u, max(Y, 0)) and eval_u(u, Y - max(Y,
    0)) bit for bit, -0.0 included, and no boolean gather or scatter runs.

    Appendix power takes the two terms of u apart: u(Y+) = (max(Y, 0) +
    1)**alpha - 1, where Y <= 0 gives +0.0 = u(0), and u(-Y-) = alpha
    min(0, Y), where Y > 0 gives +0.0.  No u(0) and no mask is needed.  A
    tabulated u is evaluated once on Y, with u(0) evaluated once per split,
    and the halves are joined by bit masks: u(Y+) is u(Y) where Y > 0 and
    u(0) elsewhere, u(-Y-) the reverse.  max/min of u(Y) and u(0) would not
    do, since np.interp is not monotone in the last bit next to a node.
    """
    if u.kind == "appendix_power":
        a = u.alpha

        def kernel(yc, gain, loss, tmp):
            np.maximum(yc, 0.0, out=gain)
            gain += 1.0
            np.power(gain, a, out=gain)
            gain -= 1.0
            np.minimum(0.0, yc, out=loss)
            loss *= a
    else:
        value = _u_kernel(u)
        zero = np.float64(eval_u(u, 0.0)).view(np.int64)

        def kernel(yc, gain, loss, tmp):
            value(yc, loss, tmp)
            val, flip = loss.view(np.int64), _live_bits(yc, gain.view(np.int64))
            val ^= zero
            flip &= val  # where Y > 0, the bits that turn u(0) into u(Y)
            val ^= flip
            val ^= zero
            flip ^= zero

    def split(y):
        y = np.asarray(y, dtype=float)
        gain, loss = np.empty(y.shape), np.empty(y.shape)
        _chunks(kernel, y, gain, loss)
        return gain, loss
    return split


@dataclass(frozen=True)
class GrowthVerdict:
    holds: bool
    witness: float | None = None
    side: str = ""


def _scan(u: Utility, xs: np.ndarray, cap: np.ndarray, side: str) -> GrowthVerdict:
    vals = eval_u(u, xs)
    bad = vals > cap + 1e-12 * (1.0 + np.abs(cap))
    if np.any(bad):
        return GrowthVerdict(False, float(xs[np.argmax(bad)]), side)
    return GrowthVerdict(True)


def certify_growth(u: Utility, g: GrowthBounds) -> GrowthVerdict:
    """Check u(x) <= C1(x**alpha + 1) on x >= 0 and u(x) <= C2(-|x|**beta + 1)
    on x < 0, by log-spaced witness scan up to 1e8 on both sides.

    For appendix_power the positive side is also decided analytically
    through the exponents (a grid cannot rule out a crossover beyond its
    range when the utility's exponent exceeds the certified one).
    """
    if u.kind == "appendix_power" and u.alpha > g.alpha:
        # u grows like x**u.alpha; the cap only allows x**g.alpha
        x = max(10.0, (2 * g.C1) ** (2.0 / (u.alpha - g.alpha)))
        while eval_u(u, x) <= g.C1 * (x ** g.alpha + 1):
            x *= 10.0
        return GrowthVerdict(False, x, "positive")
    xs_pos = np.concatenate([[0.0], np.logspace(-8, 8, 801)])
    v = _scan(u, xs_pos, g.C1 * (xs_pos ** g.alpha + 1.0), "positive")
    if not v.holds:
        return v
    xs_neg = -np.logspace(-8, 8, 801)
    return _scan(u, xs_neg, g.C2 * (-np.abs(xs_neg) ** g.beta + 1.0), "negative")
