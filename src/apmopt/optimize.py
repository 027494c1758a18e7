"""Expected-utility maximization over scenario sets.

The one-asset problem sup_phi E[u(phi X)] is solved by bisection on the
(nonincreasing) derivative.  The K-coordinate problem maximizes the
scenario expectation of u(V(phi)) by gradient ascent with Armijo
backtracking; the objective is concave, so this is robust at the small
dimensions we care about.  The truncation ladder solves every level on
one scenario set.  A linear program searches for scenario-set arbitrage
directions, which make the supremum unattained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec
from .market import (ArbitrageError, FactorStrategy, MarketModel,
                     check_no_arbitrage, truncate_model)
from .scenarios import ScenarioSet, enumerate_scenarios, expectation
from .utility import Utility, eval_u, eval_u_prime

__all__ = [
    "DiscretePayoff",
    "SolverConfig",
    "LevelResult",
    "OptimizationReport",
    "OneSidedPayoffError",
    "optimize_single_asset",
    "optimize_truncated",
    "truncation_ladder",
    "detect_unbounded",
    "saa_objective",
    "saa_gradient",
]


class OneSidedPayoffError(ValueError):
    """The payoff never takes both signs; no interior maximizer guaranteed."""


@dataclass(frozen=True)
class DiscretePayoff:
    """A finitely supported payoff X for the one-asset problem."""

    points: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.probs):
            raise ValueError("points/probs length mismatch")
        if abs(math.fsum(self.probs) - 1.0) > 1e-12 or min(self.probs) < 0:
            raise ValueError("probs must be a probability vector")

    @classmethod
    def from_noise(cls, dist: DistributionSpec, shift: float = 0.0) -> "DiscretePayoff":
        """X = eps - shift for a finite-discrete noise law."""
        if not dist.is_discrete:
            raise ValueError("need a finite-discrete noise law")
        return cls(tuple(p - shift for p in dist.points), dist.probs)

    def two_sided(self) -> bool:
        pts = np.asarray(self.points)
        pr = np.asarray(self.probs)
        return bool(pr[pts > 0].sum() > 0 and pr[pts < 0].sum() > 0)


def optimize_single_asset(payoff: DiscretePayoff, u: Utility,
                          tol: float = 1e-10) -> tuple[float, float]:
    """Maximize phi -> E[u(phi X)] over the reals.

    The derivative h(phi) = E[u'(phi X) X] is nonincreasing by concavity;
    we bracket its sign change and bisect.  Returns (phi_star, value).
    """
    if not payoff.two_sided():
        raise OneSidedPayoffError(
            "payoff is one-sided; no interior maximizer guaranteed"
        )
    x = np.asarray(payoff.points)
    w = np.asarray(payoff.probs)

    def h(phi: float) -> float:
        return float(math.fsum(w * eval_u_prime(u, phi * x) * x))

    lo, hi = -1.0, 1.0
    for _ in range(200):
        if h(lo) > 0:
            break
        lo *= 2.0
    for _ in range(200):
        if h(hi) < 0:
            break
        hi *= 2.0
    if h(lo) < 0 or h(hi) > 0:
        raise OneSidedPayoffError("could not bracket a stationary point")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        hm = h(mid)
        if abs(hm) <= tol or hi - lo < 1e-15 * max(1.0, abs(mid)):
            break
        if hm > 0:
            lo = mid
        else:
            hi = mid
    phi_star = 0.5 * (lo + hi)
    if abs(h(0.0)) <= tol:  # symmetric payoffs: keep the exact stationary point
        phi_star = 0.0
    value = float(math.fsum(w * eval_u(u, phi_star * x)))
    return phi_star, value


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-8
    max_iter: int = 10_000
    ladder: tuple[int, ...] = ()

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


def _centered(model: MarketModel, s: ScenarioSet, K: int) -> np.ndarray:
    return s.draws[:, :K] - model.b[:K]


def saa_objective(u: Utility, X: np.ndarray, w: np.ndarray, phi: np.ndarray) -> float:
    return float(math.fsum(w * eval_u(u, X @ phi)))


def saa_gradient(u: Utility, X: np.ndarray, w: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return X.T @ (w * eval_u_prime(u, X @ phi))


@dataclass(frozen=True)
class LevelResult:
    K: int
    phi_star: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool


def optimize_truncated(model: MarketModel, u: Utility, K: int | None,
                       s: ScenarioSet, cfg: SolverConfig | None = None) -> LevelResult:
    """Maximize the scenario expectation of u(V(phi)) over phi in R^K.

    The scenario set must cover at least K coordinates of the model's
    noise; extra columns are ignored (marginalization keeps exactness).
    """
    cfg = cfg or SolverConfig()
    K = model.K if K is None else K
    top = min(model.K, s.draws.shape[1])
    if not model.m <= K <= top:
        raise ValueError(f"truncation level {K} outside [{model.m}, {top}]")
    sub = truncate_model(model, K) if K < model.K else model
    na = check_no_arbitrage(sub)
    if not na.passed:
        raise ArbitrageError(
            f"no-arbitrage condition fails at coordinates {na.flagged}"
        )
    X = _centered(model, s, K)
    w = s.weights
    phi = np.zeros(K)
    f = saa_objective(u, X, w, phi)
    g = saa_gradient(u, X, w, phi)
    it = 0
    while it < cfg.max_iter:
        gn = float(np.linalg.norm(g))
        if gn <= cfg.grad_tol:
            break
        t = 1.0
        while t > 1e-18:
            cand = phi + t * g
            fc = saa_objective(u, X, w, cand)
            if fc >= f + 1e-4 * t * gn * gn:
                break
            t *= 0.5
        if t <= 1e-18:
            break  # no ascent step; report best iterate
        phi, f = cand, fc
        g = saa_gradient(u, X, w, phi)
        it += 1
    gn = float(np.linalg.norm(g))
    value = expectation(s, eval_u(u, X @ phi))  # independent recomputation
    return LevelResult(K=K, phi_star=phi, value=value, grad_norm=gn,
                       iterations=it, converged=gn <= cfg.grad_tol)


@dataclass(frozen=True)
class OptimizationReport:
    levels: tuple[LevelResult, ...]
    diff_norms: tuple[float, ...]  # between consecutive ladder levels

    def values(self) -> list[float]:
        return [lv.value for lv in self.levels]

    def to_dict(self) -> dict:
        return {
            "levels": [
                {
                    "K": lv.K,
                    "phi_star": [float(x) for x in lv.phi_star],
                    "value": lv.value,
                    "grad_norm": lv.grad_norm,
                    "iterations": lv.iterations,
                    "converged": lv.converged,
                }
                for lv in self.levels
            ],
            "diff_norms": list(self.diff_norms),
        }


def truncation_ladder(model: MarketModel, u: Utility, cfg: SolverConfig,
                      s: ScenarioSet | None = None) -> OptimizationReport:
    """Solve the problem at each ladder level (default: K = model.K alone).

    Every level reads the first K columns of the same rows of s (default:
    the exact enumeration), so the levels' strategies nest and the
    differences between levels measure truncation, not sampling noise.
    """
    s = s or enumerate_scenarios(model)
    levels = [optimize_truncated(model, u, K, s, cfg)
              for K in cfg.ladder or (model.K,)]
    diffs = [float(np.linalg.norm(
        cur.phi_star - np.pad(prev.phi_star, (0, cur.K - prev.K))))
        for prev, cur in zip(levels, levels[1:])]
    return OptimizationReport(levels=tuple(levels), diff_norms=tuple(diffs))


def detect_unbounded(model: MarketModel, s: ScenarioSet,
                     direction_budget: int = 100_000) -> tuple[bool, np.ndarray | None]:
    """Search for a direction phi with V(phi) >= 0 on all scenarios and
    > 0 on some (scenario-set arbitrage).

    Solved as an LP over the box ||phi||_inf <= 1: maximize the total
    payoff subject to nonnegativity on the first direction_budget
    scenarios.  The direction is then checked on every scenario, so a
    returned witness is valid on the whole set; "not found" is not a proof
    of absence beyond the scenario budget.
    """
    # imported here so that importing apmopt loads no scipy module
    from scipy.optimize import linprog

    X_all = _centered(model, s, model.K)
    X = X_all[:direction_budget]
    c = -X.sum(axis=0)
    res = linprog(c, A_ub=-X, b_ub=np.zeros(X.shape[0]),
                  bounds=[(-1.0, 1.0)] * model.K, method="highs")
    if res.status != 0:
        return False, None
    phi = res.x
    vals = X_all @ phi
    if vals.min() >= -1e-12 and vals.max() > 1e-9:
        return True, phi
    return False, None
