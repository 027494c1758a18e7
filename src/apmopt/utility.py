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


def _kinked(x, scalar, kernel):
    """An appendix-power evaluator: scalar(x) on a 0-d x, as a float, and
    otherwise a new C-ordered array of x's shape that kernel(xc, out, tmp)
    fills _CHUNK elements at a time, xc holding them in C order and tmp
    one chunk of scratch.  The 0-d path keeps numpy's scalar pow, which
    can differ from its array pow in the last bit.

    Each kernel is branch-free: it applies the x > 0 formula to max(x, 0),
    which leaves x > 0 as it is and maps the rest to 0, where that formula
    is exact, and joins the x <= 0 formula arithmetically or by a bit
    mask.  No boolean gather or scatter runs, every temporary is one
    chunk, and the result equals np.where(x > 0, x > 0 formula, x <= 0
    formula) bit for bit, -0.0, infinities and NaN payloads included.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return float(scalar(x[()]))
    out = np.empty(x.shape)
    flat = out.reshape(-1)
    src = x.reshape(-1) if x.flags.c_contiguous else x.flat
    tmp = np.empty(min(_CHUNK, flat.size))
    for start in range(0, flat.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        xc = src[chunk]
        kernel(xc, flat[chunk], tmp[:xc.size])
    return out


def _live_bits(x, out=None):
    """int64 all ones where x > 0 and 0 elsewhere (NaN included): a mask
    that selects by bits, with no branch per element."""
    return np.subtract(0, x > 0, out=out, dtype=np.int64)


def eval_u(u: Utility, x):
    """u(x), vectorized."""
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

        return _kinked(x, lambda v: (v + 1.0) ** a - 1.0 if v > 0 else a * v, kernel)
    x = np.asarray(x, dtype=float)
    first = (u.ys[1] - u.ys[0]) / (u.xs[1] - u.xs[0])
    out = np.interp(x, u.xs, u.ys) + first * np.minimum(x - u.xs[0], 0.0)
    return float(out) if out.ndim == 0 else out


def eval_u_prime(u: Utility, x):
    """u'(x), vectorized; left derivative at kinks, common value when equal.

    For tabulated utilities this is a central finite difference of u with
    step 1e-6 max(1, |x|): the segment slope away from the nodes, and
    between the two slopes within a step of a node.  The one-sided slope
    would never vanish at a maximum on a node, and the Newton loop would
    not stop there before max_iter.
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

        return _kinked(x, lambda v: a * (v + 1.0) ** (a - 1.0) if v > 0 else a, kernel)
    x = np.asarray(x, dtype=float)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    out = (eval_u(u, x + h) - eval_u(u, x - h)) / (2 * h)
    return float(out) if out.ndim == 0 else out


def eval_u_second(u: Utility, x):
    """u''(x), vectorized; left second derivative at kinks (0 at x = 0).

    Tabulated utilities are piecewise linear, so theirs is 0.
    """
    if u.kind == "appendix_power":
        a = u.alpha
        k = a * (a - 1.0)

        def kernel(xc, out, tmp):
            # k (max(x, 0) + 1)**(a - 2), its bits masked to +0.0 off x > 0:
            # k < 0, so no product with a 0/1 mask gives +0.0 there
            np.fmax(xc, 0.0, out=out)
            out += 1.0
            np.power(out, a - 2.0, out=out)
            out *= k
            bits = out.view(np.int64)
            bits &= _live_bits(xc, tmp.view(np.int64))

        return _kinked(x, lambda v: k * (v + 1.0) ** (a - 2.0) if v > 0 else 0.0, kernel)
    out = np.zeros_like(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


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
