"""Noise distributions for the factor market.

All families used as model noise are standardized: mean 0, variance 1.
Discrete families support exact tail queries, exact exponential moments
and exact enumeration; the continuous uniform family supports analytic
tails and moments but cannot be enumerated.

The ``dyadic_two_sided`` family (mass at +/- s*2^k) is a test fixture:
it is unbounded on both sides but has infinite exponential moments for
every gamma > 0, which is exactly what negative tests of the moment
conditions need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class DistributionSpec:
    """A standardized noise distribution (mean 0, variance 1).

    family is one of "finite_discrete", "standardized_uniform",
    "dyadic_two_sided"; ``__post_init__`` rejects any other, so every
    query below ends in the dyadic branch.  finite_discrete carries
    explicit (points, probs), and ``rademacher()`` and
    ``standardized_two_point(p)`` build it too; dyadic_two_sided carries
    the geometric ratio q and is queried analytically.
    """

    family: str
    points: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()
    q: float = 0.0  # dyadic_two_sided only

    def __post_init__(self):
        if self.family == "finite_discrete":
            pts = np.asarray(self.points, dtype=float)
            pr = np.asarray(self.probs, dtype=float)
            if pts.shape != pr.shape or pts.ndim != 1 or pts.size < 2:
                raise ValueError("discrete family needs matching points/probs")
            if np.any(pr < 0):
                raise ValueError("negative probability")
            if abs(pr.sum() - 1.0) > 1e-12:
                raise ValueError("probabilities must sum to 1")
            mean = float(pts @ pr)
            var = float((pts - mean) ** 2 @ pr)
            if abs(mean) > 1e-10 or abs(var - 1.0) > 1e-10:
                raise ValueError(
                    f"noise must be standardized: mean={mean:.3g}, var={var:.3g}"
                )
        elif self.family == "dyadic_two_sided":
            if not 0.0 < self.q < 0.25:
                raise ValueError("dyadic_two_sided needs 0 < q < 1/4")
        elif self.family != "standardized_uniform":
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def is_discrete(self) -> bool:
        return self.family == "finite_discrete"

    # --- dyadic helpers -------------------------------------------------
    def _dyadic_scale(self) -> float:
        # var = s^2 (1-q)/(1-4q) sum over both sides => s = sqrt((1-4q)/(1-q))
        return math.sqrt((1.0 - 4.0 * self.q) / (1.0 - self.q))

    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF, vectorized; the single uniform-draw sampler."""
        u = np.asarray(u, dtype=float)
        if self.family == "standardized_uniform":
            return (2.0 * u - 1.0) * _SQRT3
        if self.is_discrete:
            pts = np.asarray(self.points, dtype=float)
            order = np.argsort(pts)
            cum = np.cumsum(np.asarray(self.probs, dtype=float)[order])
            if len(pts) == 2:  # searchsorted's index is 0 iff u < cum[0]
                return pts[order][::-1][(u < cum[0]).view(np.uint8)]
            idx = np.searchsorted(cum, u, side="right")
            idx = np.clip(idx, 0, len(pts) - 1)
            return pts[order][idx]
        # dyadic_two_sided, symmetric: sign from u<0.5, magnitude index geometric
        s = self._dyadic_scale()
        v = np.where(u < 0.5, 1.0 - 2.0 * u, 2.0 * u - 1.0)  # in (0,1]
        v = np.clip(v, 1e-300, 1.0)
        # tail mass beyond index k (one side, renormalized): q^k
        k = np.floor(np.log(v) / math.log(self.q))
        k = np.clip(k, 0, 4096)
        mag = s * np.exp2(k)
        return np.where(u < 0.5, -mag, mag)


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

    Strict inequalities on both sides; exact for discrete families.
    """
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    if dist.is_discrete:
        pts = np.asarray(dist.points)
        pr = np.asarray(dist.probs)
        mask = pts > x if side == "above" else pts < x
        return float(pr[mask].sum())
    if dist.family == "standardized_uniform":
        if side == "above":
            return float(np.clip((_SQRT3 - x) / (2 * _SQRT3), 0.0, 1.0))
        return float(np.clip((x + _SQRT3) / (2 * _SQRT3), 0.0, 1.0))
    s = dist._dyadic_scale()  # dyadic_two_sided
    q = dist.q

    def upper(t: float) -> float:
        # P(eps > t) for t >= 0: smallest k with s*2^k > t
        if t < s:
            return 0.5
        k0 = math.floor(math.log2(t / s)) + 1
        if s * 2 ** (k0 - 1) > t:  # guard float rounding
            k0 -= 1
        return 0.5 * q ** k0

    if side == "above":
        return upper(x) if x >= 0 else 1.0 - upper(-x) - _dyadic_atom(dist, -x)
    return upper(-x) if x <= 0 else 1.0 - upper(x) - _dyadic_atom(dist, x)


def _dyadic_atom(dist: DistributionSpec, x: float) -> float:
    """P(eps == x) for the dyadic family (x on one side)."""
    s = dist._dyadic_scale()
    if x <= 0:
        x = -x
    if x < s:
        return 0.0
    k = math.log2(x / s)
    kr = round(k)
    if abs(k - kr) < 1e-12:
        return 0.5 * (1 - dist.q) * dist.q ** kr
    return 0.0


def estimate_exp_moment(dist: DistributionSpec, gamma: float) -> float:
    """E[exp(gamma * |eps|)], exact; math.inf when the moment diverges."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if dist.is_discrete:
        pts = np.abs(np.asarray(dist.points))
        pr = np.asarray(dist.probs)
        return float(pr @ np.exp(gamma * pts))
    if dist.family == "standardized_uniform":
        return (math.exp(gamma * _SQRT3) - 1.0) / (gamma * _SQRT3)
    return math.inf  # dyadic_two_sided: e^{gamma 2^k} dominates q^k for every gamma > 0


def truncated_second_moment(dist: DistributionSpec, N: float) -> float:
    """E[eps^2 * 1{|eps| >= N}], exact."""
    if dist.is_discrete:
        pts = np.asarray(dist.points)
        pr = np.asarray(dist.probs)
        mask = np.abs(pts) >= N
        return float(pr[mask] @ pts[mask] ** 2)
    if dist.family == "standardized_uniform":
        if N <= 0:
            return 1.0
        if N >= _SQRT3:
            return 0.0
        # 2 * int_N^{sqrt3} x^2 / (2 sqrt3) dx
        return (_SQRT3 ** 3 - N ** 3) / (3.0 * _SQRT3)
    s = dist._dyadic_scale()  # dyadic_two_sided
    q = dist.q
    if N <= s:
        return 1.0
    k0 = math.ceil(math.log2(N / s))
    if s * 2 ** (k0 - 1) >= N:
        k0 -= 1
    # sum_{k>=k0} 2 * (1-q)/2 q^k * s^2 4^k = (4q)^{k0}
    return (4.0 * q) ** k0
