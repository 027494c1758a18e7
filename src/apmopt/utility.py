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

Each kind has one builder (``_BUILDERS``) that checks its parameters and
returns its kernel set: the kernels of u, u', u'', u's gain and loss
sides for the Hoelder chain, u's growth exponent above 0 and the loss
side's slope where that side is linear.  The solver runs every kind's
u'' alike; a table's fills zeros, so its Hessian comes out as the zero
matrix.
``Utility.__post_init__`` runs it once, when the utility is made, and is
the one place that reads ``kind``.  So alpha outside (0,1), or a table
with fewer than two points, unequal lengths, a non-finite node or xs that
do not increase strictly, raises ValueError there, and a table becomes
arrays once, not per call.

Each evaluator is one kernel per kind, run by one driver (``_evaluate``)
once over the whole array, with one scratch of the array's size; a 0-d
argument is one element of the same kernel, so its float is the
one-element array's value bit for bit.  The appendix-power kernels are
branch-free: each applies the x > 0 formula to max(x, 0), which leaves
x > 0 as it is and maps the rest to 0, where that formula is exact, and
joins the x <= 0 formula by arithmetic or a bit mask, with no boolean
gather or scatter, so the time per element does not depend on the signs'
pattern.  Their
values are bit for bit those of np.where over the two formulas, -0.0,
infinities and NaN payloads included; a table's are those of its
formulas on the whole array.

Each evaluator takes a keyword-only ``out``, as numpy's ufuncs do: a
C-contiguous float64 array of x's shape that receives the values and is
returned, bit for bit the allocating call's, so a caller that evaluates
at every step can reuse one buffer.  Without it a new array is returned.

Each kind defines the Hoelder chain's two sides once, as its gain kernel
(u on Y >= 0: appendix power's (Y + 1)**alpha - 1) and its loss kernel
(u on Y <= 0: alpha Y, so its loss slope is alpha); a table's are both
its value kernel, and it has no loss slope.  ``_side`` clamps and runs
one kernel: the gain kernel on max(Y, 0) gives u(Y+) and the loss kernel
on min(0, Y) gives u(-Y-).  The row walk runs each over the whole
array (``_split_u``), so a table runs twice per payoff.  The exact sets'
staircase (``optimize._staircase``) runs the same clamps on its blocks of
rows, with the gain or loss kernel (the exact solver also with its u'
kernel, and with its u'' kernel on the gain side alone, since u'' = 0 on
Y <= 0 for every kind); where the loss side is linear it reads the slope
and evaluates no row there.

A GrowthBounds certificate records finite constants (alpha, beta, C1,
C2) for the caps u(x) <= C1(x**alpha + 1) on x >= 0 and
u(x) <= C2(-|x|**beta + 1) on x < 0.  ``certify_growth`` checks the caps
and returns a verdict with a witness on failure; note the negative-side
cap forces decay at least like -|x|**beta, which linear-below utilities
violate for large |x|.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from ._record import Record

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


class GrowthBounds(Record):
    alpha: float
    beta: float
    C1: float
    C2: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("need 0 <= alpha < 1")
        if not 1.0 < self.beta < math.inf:
            raise ValueError("need finite beta > 1 strictly")
        if not (0.0 < self.C1 < math.inf and 0.0 < self.C2 < math.inf):
            raise ValueError("need finite C1, C2 > 0")


class _Kernels(NamedTuple):
    """A utility's kernel set, each kernel run once over a whole array
    with one scratch of its size (``_evaluate``); gain, loss, prime and
    second also on staircase blocks.  Every kind's second is 0 on Y <= 0
    (u is linear there, or piecewise linear everywhere), so the exact
    solver runs it on the gain side's clamp alone, on the rows above 0;
    a table's is 0 on Y > 0 too."""
    value: Callable   # kernel(x, out, tmp) that writes u(x) into out
    prime: Callable   # the same for u'
    second: Callable  # the same for u''
    gain: Callable    # kernel(y, out, tmp): u(Y) where every Y >= 0
    loss: Callable    # the same where every Y <= 0
    growth: float     # u grows like x**growth as x -> +inf
    loss_slope: float | None  # a where loss is u(Y) = a Y, else None


class Utility(Record):
    kind: str                      # "appendix_power" | "tabulated"
    alpha: float = 0.5
    xs: tuple[float, ...] = ()     # tabulated only
    ys: tuple[float, ...] = ()
    growth: GrowthBounds | None = None

    def __post_init__(self):
        build = _BUILDERS.get(self.kind)
        if build is None:
            raise ValueError(f"unknown utility kind {self.kind!r}")
        object.__setattr__(self, "_kernels", build(self))

    @property
    def has_growth_bounds(self) -> bool:
        """u carries GrowthBounds; whether they hold is ``certify_growth``'s
        to decide."""
        return self.growth is not None

    # the former name of has_growth_bounds, which perfbench's tests read
    certified = has_growth_bounds


def appendix_power(alpha: float, growth: GrowthBounds | None = None) -> Utility:
    return Utility("appendix_power", alpha=alpha, growth=growth)


def tabulated(xs, ys, growth: GrowthBounds | None = None) -> Utility:
    return Utility("tabulated", xs=tuple(map(float, xs)), ys=tuple(map(float, ys)),
                   growth=growth)


def _evaluate(kernel, x, out):
    """out, or a new C-ordered array of x's shape, that kernel(x, out, tmp)
    fills in one pass over x's elements in C order, with tmp one scratch
    of x's size; on a 0-d x with no out, its one value as a float.  A 0-d
    x is one element of the same kernel, so its value is the one-element
    array's bit for bit.  Each kernel reads an element of x before it
    writes that element of out, so out may be x itself."""
    x = np.asarray(x, dtype=float)
    scalar = out is None and x.ndim == 0
    if out is None:
        out = np.empty(x.shape)
    elif out.shape != x.shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {x.shape}")
    kernel(x.reshape(-1), out.reshape(-1), np.empty(x.size))
    return float(out[()]) if scalar else out


def _appendix_power_kernels(u: Utility) -> _Kernels:
    a = u.alpha
    if not 0.0 < a < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    k = a * (a - 1.0)

    def value(x, out, tmp):
        # a min(0, x) - (1 - (max(x, 0) + 1)**a).  On x <= 0 the second
        # term is +0.0, which subtracts exactly even from -0.0, and
        # min(0, x) keeps x's -0.0 and NaN; on x > 0 the first is +0.0,
        # and 0 - (1 - p) = p - 1 exactly.  fmax maps NaN to 0.
        np.fmax(x, 0.0, out=tmp)
        tmp += 1.0
        np.power(tmp, a, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.minimum(0.0, x, out=out)
        out *= a
        out -= tmp

    def prime(x, out, tmp):
        # a (max(x, 0) + 1)**(a - 1): on x <= 0 and NaN, a * 1**(a - 1)
        # = a, the value at and below the kink
        np.fmax(x, 0.0, out=out)
        out += 1.0
        np.power(out, a - 1.0, out=out)
        out *= a

    def second(x, out, tmp):
        # k (max(x, 0) + 1)**(a - 2), its bits masked to +0.0 off x > 0:
        # k < 0, so no product with a 0/1 mask gives +0.0 there
        live = np.subtract(0, x > 0, out=tmp.view(np.int64), dtype=np.int64)
        np.fmax(x, 0.0, out=out)
        out += 1.0
        np.power(out, a - 2.0, out=out)
        out *= k
        bits = out.view(np.int64)
        bits &= live

    def gain(y, out, tmp):
        # u's x > 0 term (Y + 1)**a - 1 on Y >= 0, where Y = 0 gives +0.0
        np.add(y, 1.0, out=out)
        np.power(out, a, out=out)
        out -= 1.0

    def loss(y, out, tmp):
        # u's x <= 0 term a Y on Y <= 0, -0.0 included
        np.multiply(y, a, out=out)
    return _Kernels(value, prime, second, gain, loss, a, a)


def _tabulated_kernels(u: Utility) -> _Kernels:
    xs, ys = np.array(u.xs, dtype=float), np.array(u.ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need matching tables with at least two points")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("tabulated xs and ys must be finite")
    if np.any(xs[1:] <= xs[:-1]):
        raise ValueError("tabulated xs must be strictly increasing")
    first = (ys[1] - ys[0]) / (xs[1] - xs[0])  # u's slope below the table

    def value(x, out, tmp):
        # the interpolant plus first * min(x - xs[0], 0), which continues
        # the first segment below the table
        np.subtract(x, xs[0], out=tmp)
        np.minimum(tmp, 0.0, out=tmp)
        tmp *= first
        np.add(np.interp(x, xs, ys), tmp, out=out)

    def prime(x, out, tmp):
        # the central difference; the first slope at -inf and 0 at +inf
        ends = np.isinf(x)
        low = ends & (x < 0)
        xf = np.where(ends, 0.0, x)
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

    def second(x, out, tmp):
        out.fill(0.0)

    return _Kernels(value, prime, second, value, value, 0.0, None)


_BUILDERS = {"appendix_power": _appendix_power_kernels,
             "tabulated": _tabulated_kernels}


def eval_u(u: Utility, x, *, out=None):
    """u(x), vectorized; written into out when given."""
    return _evaluate(u._kernels.value, x, out)


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
    return _evaluate(u._kernels.prime, x, out)


def eval_u_second(u: Utility, x, *, out=None):
    """u''(x), vectorized; left second derivative at kinks (0 at x = 0);
    written into out when given.

    Tabulated utilities are piecewise linear, so theirs is 0.
    """
    return _evaluate(u._kernels.second, x, out)


def _side(kernel, rising: bool):
    """side(y, out, tmp): kernel on max(Y, 0) (rising) or on min(0, Y),
    written into out, which may be y itself; tmp is the kernel's scratch,
    of y's shape.  With the kind's gain kernel rising this is u(Y+), and
    with its loss kernel falling u(-Y-), where Y+ = max(Y, 0) and -Y- =
    Y - Y+: on non-NaN Y the values equal eval_u(u, max(Y, 0)) and
    eval_u(u, Y - max(Y, 0)) bit for bit, -0.0 included, and no boolean
    gather or scatter runs.  The row walk (``_split_u``) and the exact
    sets' staircase (``optimize._staircase``) both clamp through it."""
    def side(y, out, tmp):
        if rising:
            np.maximum(y, 0.0, out=out)
        else:
            np.minimum(0.0, y, out=out)
        kernel(out, out, tmp)
    return side


def _split_u(u: Utility):
    """values(Y) for the Hoelder walk: the pair (u(Y+), u(-Y-)) of new
    C-ordered arrays of Y's shape, each one ``_evaluate`` of one of the
    kind's two sides (``_side``), so a table runs twice per payoff."""
    gain_of, loss_of = _side(u._kernels.gain, True), _side(u._kernels.loss, False)
    return lambda y: (_evaluate(gain_of, y, None), _evaluate(loss_of, y, None))


class GrowthVerdict(Record):
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

    Where u's growth exponent (alpha for appendix_power, 0 for a table)
    exceeds the certified one, the positive side is decided analytically
    instead: a grid cannot rule out a crossover beyond its range.
    """
    a = u._kernels.growth
    if a > g.alpha:
        # u grows like x**a; the cap only allows x**g.alpha
        x = max(10.0, (2 * g.C1) ** (2.0 / (a - g.alpha)))
        while eval_u(u, x) <= g.C1 * (x ** g.alpha + 1):
            x *= 10.0
        return GrowthVerdict(False, x, "positive")
    xs_pos = np.concatenate([[0.0], np.logspace(-8, 8, 801)])
    v = _scan(u, xs_pos, g.C1 * (xs_pos ** g.alpha + 1.0), "positive")
    if not v.holds:
        return v
    xs_neg = -np.logspace(-8, 8, 801)
    return _scan(u, xs_neg, g.C2 * (-np.abs(xs_neg) ** g.beta + 1.0), "negative")
