"""Noise distributions for the factor market.

All families used as model noise are standardized: mean 0, variance 1.
Discrete families support exact tail queries, exact exponential moments
and exact enumeration; the continuous uniform family supports analytic
tails and moments but cannot be enumerated.

The ``dyadic_two_sided`` family (mass at +/- s*2^k) is a test fixture:
it is unbounded on both sides but has infinite exponential moments for
every gamma > 0, which is exactly what negative tests of the moment
conditions need.

Each family has one builder (``_FAMILIES``) that checks its parameters
and returns its query set (``_Law``): inverse CDF, both strict tails,
exponential and truncated second moments.  ``DistributionSpec.__post_init__``
runs it once, when the law is made, and is the one place that reads
``family``: a bad law (discrete points and probabilities that do not
match, are not finite, are negative, do not sum to 1 or are not
standardized; a dyadic q outside (0, 1/4)) raises ValueError there, and
a discrete law is sorted and summed once, not per query.  The uniform
and dyadic laws are symmetric: one tail formula, P(eps < x) = P(eps > -x).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from ._record import Record

__all__ = [
    "DistributionSpec",
    "rademacher",
    "standardized_two_point",
    "standardized_uniform",
    "finite_discrete",
    "dyadic_two_sided",
    "tail_probability",
    "estimate_exp_moment",
    "truncated_second_moment",
]

_SQRT3 = math.sqrt(3.0)


class _Law(NamedTuple):
    """A noise law's query set, built once by its family's builder."""
    ppf: Callable         # ppf(u) -> the inverse CDF at a float array u
    above: Callable       # above(x) -> P(eps > x), x not NaN
    below: Callable       # below(x) -> P(eps < x)
    exp_moment: Callable  # exp_moment(gamma) -> E[exp(gamma |eps|)], 0 < gamma < inf
    trunc2: Callable      # trunc2(N) -> E[eps^2 1{|eps| >= N}]
    discrete: bool        # finite support: enumerable and tilt-calibratable


class DistributionSpec(Record):
    """A standardized noise distribution (mean 0, variance 1).

    family is one of "finite_discrete", "standardized_uniform",
    "dyadic_two_sided"; ``__post_init__`` rejects any other.
    finite_discrete carries explicit (points, probs), and ``rademacher()``
    and ``standardized_two_point(p)`` build it too; dyadic_two_sided
    carries the geometric ratio q and is queried analytically.
    """

    family: str
    points: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()
    q: float = 0.0  # dyadic_two_sided only

    def __post_init__(self):
        build = _FAMILIES.get(self.family)
        if build is None:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "_law", build(self))

    @property
    def is_discrete(self) -> bool:
        return self._law.discrete

    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF, vectorized; the single uniform-draw sampler."""
        return self._law.ppf(np.asarray(u, dtype=float))


def _discrete_law(d: DistributionSpec) -> _Law:
    pts = np.asarray(d.points, dtype=float)
    pr = np.asarray(d.probs, dtype=float)
    if pts.shape != pr.shape or pts.ndim != 1 or pts.size < 2:
        raise ValueError("discrete family needs matching points/probs")
    if not (np.isfinite(pts).all() and np.isfinite(pr).all()):
        raise ValueError("discrete family needs finite points and probabilities")
    if np.any(pr < 0):
        raise ValueError("negative probability")
    if abs(pr.sum() - 1.0) > 1e-12:
        raise ValueError("probabilities must sum to 1")
    with np.errstate(all="ignore"):  # a square past the float range is inf
        mean = float(pts @ pr)
        var = float((pts - mean) ** 2 @ pr)
    # written so that NaN fails: a zero-probability point whose square
    # overflows gives inf * 0 = NaN
    if not (abs(mean) <= 1e-10 and abs(var - 1.0) <= 1e-10):
        raise ValueError(f"noise must be standardized: mean={mean:.3g}, var={var:.3g}")
    order = np.argsort(pts)
    ordered, cum = pts[order], np.cumsum(pr[order])
    # a point of zero probability adds exp(0) * 0, even where its own
    # exponential would overflow and give inf * 0
    mags = np.where(pr > 0, np.abs(pts), 0.0)

    if pts.size == 2:  # searchsorted's index is 0 iff u < cum[0]
        flipped, cum0 = ordered[::-1], cum[0]

        def ppf(u):
            return flipped[(u < cum0).view(np.uint8)]
    else:
        last = pts.size - 1

        def ppf(u):
            return ordered[np.clip(np.searchsorted(cum, u, side="right"), 0, last)]

    def exp_moment(gamma):
        with np.errstate(over="ignore"):  # an overflow is the moment's inf
            return float(pr @ np.exp(gamma * mags))

    def trunc2(N):
        mask = np.abs(pts) >= N
        return float(pr[mask] @ pts[mask] ** 2)

    return _Law(ppf=ppf, above=lambda x: float(pr[pts > x].sum()),
                below=lambda x: float(pr[pts < x].sum()),
                exp_moment=exp_moment, trunc2=trunc2, discrete=True)


def _uniform_law(d: DistributionSpec) -> _Law:
    def above(x):
        return float(np.clip((_SQRT3 - x) / (2 * _SQRT3), 0.0, 1.0))

    def exp_moment(gamma):
        t = gamma * _SQRT3
        try:
            return (math.exp(t) - 1.0) / t
        except OverflowError:  # e^t past the float range
            return math.inf

    def trunc2(N):
        if N <= 0:
            return 1.0
        if N >= _SQRT3:
            return 0.0
        # 2 * int_N^{sqrt3} x^2 / (2 sqrt3) dx
        return (_SQRT3 ** 3 - N ** 3) / (3.0 * _SQRT3)

    return _Law(ppf=lambda u: (2.0 * u - 1.0) * _SQRT3, above=above,
                below=lambda x: above(-x), exp_moment=exp_moment, trunc2=trunc2,
                discrete=False)


def _dyadic_law(d: DistributionSpec) -> _Law:
    q = d.q
    if not 0.0 < q < 0.25:
        raise ValueError("dyadic_two_sided needs 0 < q < 1/4")
    # var = s^2 (1-q)/(1-4q) sum over both sides => s = sqrt((1-4q)/(1-q))
    s = math.sqrt((1.0 - 4.0 * q) / (1.0 - q))
    log_q = math.log(q)
    ms, es = math.frexp(s)
    far = math.ldexp(s, 600)  # an atom's mass q^k (1-q)/2 past it underflows to 0

    def ppf(u):
        # symmetric: sign from u<0.5, magnitude index geometric
        v = np.where(u < 0.5, 1.0 - 2.0 * u, 2.0 * u - 1.0)  # in (0,1]
        v = np.clip(v, 1e-300, 1.0)
        # tail mass beyond index k (one side, renormalized): q^k
        k = np.floor(np.log(v) / log_q)
        k = np.clip(k, 0, 4096)
        mag = s * np.exp2(k)
        return np.where(u < 0.5, -mag, mag)

    def upper(t):
        # P(eps > t) for t >= 0: 0.5 q^k for the smallest k with s*2^k > t,
        # read off the binary exponents, so no t overflows it
        if t < s:
            return 0.5
        if t == math.inf:
            return 0.0
        mt, et = math.frexp(t)
        return 0.5 * q ** (et - es + (mt >= ms))

    def atom(x):
        # P(eps == x) for x > 0: x is the atom s*2^k, the float ppf
        # samples, exactly when it has s's mantissa and an exponent k above
        # s's
        if not s <= x < far:
            return 0.0
        mx, ex = math.frexp(x)
        return 0.5 * (1 - q) * q ** (ex - es) if mx == ms else 0.0

    def above(x):
        return upper(x) if x >= 0 else 1.0 - upper(-x) - atom(-x)

    def trunc2(N):
        if N <= s:
            return 1.0
        if N == math.inf:
            return 0.0
        # sum_{k>=k0} 2 * (1-q)/2 q^k * s^2 4^k = (4q)^{k0}, for the
        # smallest k0 with s*2^k0 >= N
        mN, eN = math.frexp(N)
        return (4.0 * q) ** (eN - es + (mN > ms))

    # e^{gamma 2^k} dominates q^k for every gamma > 0
    return _Law(ppf=ppf, above=above, below=lambda x: above(-x),
                exp_moment=lambda gamma: math.inf, trunc2=trunc2, discrete=False)


_FAMILIES = {"finite_discrete": _discrete_law, "standardized_uniform": _uniform_law,
             "dyadic_two_sided": _dyadic_law}


def rademacher() -> DistributionSpec:
    return finite_discrete((1.0, -1.0), (0.5, 0.5))


def standardized_two_point(p: float) -> DistributionSpec:
    """Two-point law with P(up) = p, standardized to mean 0, variance 1.

    Support is (sqrt((1-p)/p), -sqrt(p/(1-p))).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0,1)")
    up = math.sqrt((1.0 - p) / p)
    dn = -math.sqrt(p / (1.0 - p))
    return finite_discrete((up, dn), (p, 1.0 - p))


def standardized_uniform() -> DistributionSpec:
    return DistributionSpec("standardized_uniform")


def finite_discrete(points, probs) -> DistributionSpec:
    return DistributionSpec("finite_discrete", points=tuple(map(float, points)),
                            probs=tuple(map(float, probs)))


def dyadic_two_sided(q: float) -> DistributionSpec:
    return DistributionSpec("dyadic_two_sided", q=q)


def tail_probability(dist: DistributionSpec, x: float, side: str) -> float:
    """P(eps > x) for side="above", P(eps < x) for side="below".

    Strict inequalities on both sides; exact for discrete families.  An
    infinite x gives the limits 0 and 1; a NaN x raises ValueError.
    """
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    return dist._law.above(x) if side == "above" else dist._law.below(x)


def estimate_exp_moment(dist: DistributionSpec, gamma: float) -> float:
    """E[exp(gamma * |eps|)], exact; math.inf when the moment diverges or
    passes the float range.  gamma must be positive and finite."""
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    return dist._law.exp_moment(gamma)


def truncated_second_moment(dist: DistributionSpec, N: float) -> float:
    """E[eps^2 * 1{|eps| >= N}], exact; 0 at N = inf, and a NaN N raises
    ValueError."""
    if math.isnan(N):
        raise ValueError("N must not be NaN")
    return dist._law.trunc2(N)
