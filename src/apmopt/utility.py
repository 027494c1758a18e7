"""Concave nondecreasing utilities with growth-bound certification.

Built-in kinds:

* ``appendix_power(alpha)`` -- u(x) = alpha*x for x <= 0 and
  (x+1)**alpha - 1 for x > 0; continuously differentiable, u' <= alpha.
* ``capped_power(alpha, c)`` -- u(x) = x**alpha for x >= 0, c*x for x < 0.
* ``tabulated(xs, ys)`` -- monotone interpolation of a user table;
  derivative falls back to finite differences (flagged).

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
    "capped_power",
    "tabulated",
    "eval_u",
    "eval_u_prime",
    "certify_growth",
    "check_shape",
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
    kind: str                      # "appendix_power" | "capped_power" | "tabulated"
    alpha: float = 0.5
    c: float = 1.0                 # capped_power negative slope
    xs: tuple[float, ...] = ()     # tabulated only
    ys: tuple[float, ...] = ()
    growth: GrowthBounds | None = None

    @property
    def certified(self) -> bool:
        return self.growth is not None


def appendix_power(alpha: float, growth: GrowthBounds | None = None) -> Utility:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    return Utility("appendix_power", alpha=alpha, growth=growth)


def capped_power(alpha: float, c: float, growth: GrowthBounds | None = None) -> Utility:
    if not 0.0 < alpha < 1.0 or c <= 0:
        raise ValueError("need alpha in (0,1) and c > 0")
    return Utility("capped_power", alpha=alpha, c=c, growth=growth)


def tabulated(xs, ys, growth: GrowthBounds | None = None) -> Utility:
    xs = tuple(map(float, xs))
    ys = tuple(map(float, ys))
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need matching tables with at least two points")
    return Utility("tabulated", xs=xs, ys=ys, growth=growth)


def eval_u(u: Utility, x):
    """u(x), vectorized."""
    x = np.asarray(x, dtype=float)
    if u.kind == "appendix_power":
        pos = np.maximum(x, 0.0)
        out = np.where(x > 0, (pos + 1.0) ** u.alpha - 1.0, u.alpha * x)
    elif u.kind == "capped_power":
        pos = np.maximum(x, 0.0)
        out = np.where(x >= 0, pos ** u.alpha, u.c * x)
    elif u.kind == "tabulated":
        out = np.interp(x, u.xs, u.ys)
    else:
        raise ValueError(f"unknown utility kind {u.kind!r}")
    return float(out) if out.ndim == 0 else out


def eval_u_prime(u: Utility, x):
    """u'(x), vectorized; left derivative at kinks, common value when equal.

    For tabulated utilities this is a central finite difference (flagged
    second-class: excluded from measure construction).
    """
    x = np.asarray(x, dtype=float)
    if u.kind == "appendix_power":
        pos = np.maximum(x, 0.0)
        # both one-sided derivatives at 0 equal alpha
        out = np.where(x > 0, u.alpha * (pos + 1.0) ** (u.alpha - 1.0), u.alpha)
    elif u.kind == "capped_power":
        pos = np.maximum(x, 1e-300)
        out = np.where(x > 0, u.alpha * pos ** (u.alpha - 1.0), u.c)
    elif u.kind == "tabulated":
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        out = (np.interp(x + h, u.xs, u.ys) - np.interp(x - h, u.xs, u.ys)) / (2 * h)
    else:
        raise ValueError(f"unknown utility kind {u.kind!r}")
    return float(out) if out.ndim == 0 else out


def check_shape(u: Utility, lo: float = -100.0, hi: float = 100.0,
                n: int = 10_000, tol: float = 1e-9) -> bool:
    """Grid check that u is nondecreasing and concave on [lo, hi]."""
    xs = np.linspace(lo, hi, n)
    ys = eval_u(u, xs)
    d1 = np.diff(ys)
    scale = max(1.0, float(np.max(np.abs(ys))))
    if np.any(d1 < -tol * scale):
        return False
    return not np.any(np.diff(d1) > tol * scale)


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

    For the built-in power kinds the positive side is also decided
    analytically through the exponents (a grid cannot rule out a crossover
    beyond its range when the utility's exponent exceeds the certified one).
    """
    if u.kind in ("appendix_power", "capped_power") and u.alpha > g.alpha:
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
