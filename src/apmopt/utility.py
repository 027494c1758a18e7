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
below is a two-way branch.

On arrays the appendix-power evaluators are branch-free and run in
fixed chunks of ``_CHUNK`` elements: the x > 0 formula is applied to
max(x, 0) and joined to the x <= 0 formula by arithmetic or a bit mask,
with no boolean gather or scatter, so the time per element does not
depend on the signs' pattern and every temporary is one chunk, whatever
the array's size.  Values are bit for bit those of np.where over the two
formulas; a 0-d argument gives a float from numpy's scalar arithmetic.

Each evaluator takes a keyword-only ``out``, as numpy's ufuncs do: a
C-contiguous float64 array of x's shape that receives the values and is
returned, bit for bit the allocating call's, so a caller that evaluates
at every step can reuse one buffer.  Without it a new array is returned.

``_split_u(u)`` gives the Hoelder walk's evaluator of the pair
(u(Y+), u(-Y-)), one branch per kind: appendix power evaluates its two
terms apart in the same chunks, with no u(0) and no mask; a tabulated u
evaluates u(Y) once and splits it by bit masks.

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


def _target(x: np.ndarray, out):
    """out, checked to be a C-ordered float array of x's shape, or a new
    one when out is None."""
    if out is None:
        return np.empty(x.shape)
    if out.shape != x.shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {x.shape}")
    return out


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


def _kinked(x, scalar, kernel, out=None):
    """An appendix-power evaluator: scalar(x) on a 0-d x, as a float (or
    written into out and out returned), and otherwise out, or a new
    C-ordered array of x's shape, that kernel(xc, out, tmp) fills _CHUNK
    elements at a time (``_chunks``).  The 0-d path keeps numpy's scalar
    pow, which can differ from its array pow in the last bit.

    Each kernel is branch-free: it applies the x > 0 formula to max(x, 0),
    which leaves x > 0 as it is and maps the rest to 0, where that formula
    is exact, and joins the x <= 0 formula arithmetically or by a bit
    mask.  No boolean gather or scatter runs, every temporary is one
    chunk, and the result equals np.where(x > 0, x > 0 formula, x <= 0
    formula) bit for bit, -0.0, infinities and NaN payloads included.
    Each kernel reads an element of xc before it writes that element of
    out, so out may be x itself.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 and out is None:
        return float(scalar(x[()]))
    out = _target(x, out)
    if x.ndim == 0:
        out[()] = scalar(x[()])
    else:
        _chunks(kernel, x, out)
    return out


def _plain(x: np.ndarray, out, values: np.ndarray):
    """A tabulated evaluator's whole-array values: a float on a 0-d x with
    no out, else written into out (or returned as they are)."""
    if out is not None:
        _target(x, out)[...] = values
        return out
    return float(values) if values.ndim == 0 else values


def _live_bits(x, out=None):
    """int64 all ones where x > 0 and 0 elsewhere (NaN included): a mask
    that selects by bits, with no branch per element."""
    return np.subtract(0, x > 0, out=out, dtype=np.int64)


def _first_slope(u: Utility) -> float:
    """A table's first segment slope, which u continues below the table."""
    return (u.ys[1] - u.ys[0]) / (u.xs[1] - u.xs[0])


def eval_u(u: Utility, x, *, out=None):
    """u(x), vectorized; written into out when given."""
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

        return _kinked(x, lambda v: (v + 1.0) ** a - 1.0 if v > 0 else a * v, kernel, out)
    x = np.asarray(x, dtype=float)
    return _plain(x, out, np.interp(x, u.xs, u.ys)
                  + _first_slope(u) * np.minimum(x - u.xs[0], 0.0))


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

        return _kinked(x, lambda v: a * (v + 1.0) ** (a - 1.0) if v > 0 else a, kernel, out)
    x = np.asarray(x, dtype=float)
    ends = np.isinf(x)
    xf = np.where(ends, 0.0, x)
    h = 1e-6 * np.maximum(1.0, np.abs(xf))
    slope = (eval_u(u, xf + h) - eval_u(u, xf - h)) / (2 * h)
    return _plain(x, out, np.where(ends, np.where(x < 0, _first_slope(u), 0.0), slope))


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

        return _kinked(x, lambda v: k * (v + 1.0) ** (a - 2.0) if v > 0 else 0.0, kernel, out)
    x = np.asarray(x, dtype=float)
    return _plain(x, out, np.zeros(x.shape))


def _split_u(u: Utility):
    """values(Y) for the Hoelder walk: the pair (u(Y+), u(-Y-)) of new
    C-ordered arrays of Y's shape, with Y+ = max(Y, 0) and -Y- = Y - Y+.
    On non-NaN Y both equal eval_u(u, max(Y, 0)) and eval_u(u, Y - max(Y,
    0)) bit for bit, -0.0 included, and no boolean gather or scatter runs.

    Appendix power takes the two terms of u apart, in _CHUNK-element
    chunks: u(Y+) = (max(Y, 0) + 1)**alpha - 1, where Y <= 0 gives +0.0
    = u(0), and u(-Y-) = alpha min(0, Y), where Y > 0 gives +0.0.  No u(0)
    and no mask is needed.  A tabulated u is evaluated once on Y, with u(0)
    evaluated once per split, and the halves are joined by bit masks:
    u(Y+) is u(Y) where Y > 0 and u(0) elsewhere, u(-Y-) the reverse.
    max/min of u(Y) and u(0) would not do, since np.interp is not monotone
    in the last bit next to a node.
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

        def split(y):
            y = np.asarray(y, dtype=float)
            gain, loss = np.empty(y.shape), np.empty(y.shape)
            _chunks(kernel, y, gain, loss)
            return gain, loss
        return split

    zero = eval_u(u, np.zeros(1)).view(np.int64)[0]  # the array path's u(0)

    def split(y):
        val = eval_u(u, y).view(np.int64)
        flip = _live_bits(y)
        val ^= zero
        flip &= val  # where Y > 0, the bits that turn u(0) into u(Y)
        val ^= flip
        val ^= zero
        flip ^= zero
        return flip.view(float), val.view(float)
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
