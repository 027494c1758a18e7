"""Expected-utility maximization over scenario sets.

Two loops serve the package.  ``_bisect`` finds the root of a
nonincreasing function: the one-asset problem sup_phi E[u(phi X)] bisects
its derivative, and ``measures.solve_tilt`` bisects the tilt residual.
``_damped_newton`` ascends a concave function: the direction is
(-H + ||g||^2 I)^{-1} g, with gradient g and Hessian H taken from one pass,
and Armijo backtracking picks the step.  The K-coordinate problem runs it
on the scenario expectation of u(V(phi)), with one pass over X @ phi.  -H
is positive semidefinite because u'' <= 0 for every utility kind, so the
shifted system is positive definite; the shift vanishes with g near the
optimum, where the step is the Newton step, and for a tabulated utility
(u'' = 0) the step is a scaled gradient step.  The truncation ladder
solves every level on one scenario set.

``detect_unbounded`` decides whether the scenario set admits an arbitrage
direction, which makes the supremum unattained.  On an exact product set
the answer is a closed form in each coordinate's support.  On a sampled
set the same Newton loop minimizes Rogers' log E[exp(lam . X)]; its
tilted weights give a bound that rules every witness out.  Only when that
bound is not small enough does a HiGHS linear program (scipy, imported
then) search for a direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec
from .market import ArbitrageError, MarketModel, check_no_arbitrage
from .scenarios import ScenarioSet, enumerate_scenarios
from .utility import Utility, eval_u, eval_u_prime, eval_u_second

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

SINGLE_ASSET_TOL = 1e-10  # |E[u'(phi X) X]| at which the one-asset bisection stops


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


def _bisect(h, lo: float, hi: float, tol: float,
            max_iter: int) -> tuple[float, float]:
    """Bisect a nonincreasing h with h(lo) >= 0 >= h(hi).

    Returns (x, h(x)) at the first midpoint x where |h(x)| <= tol or the
    bracket is narrower than 1e-15 relative to x, or at the last midpoint
    after max_iter halvings.
    """
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        hm = h(mid)
        if abs(hm) <= tol or hi - lo < 1e-15 * max(1.0, abs(mid)):
            break
        if hm > 0:
            lo = mid
        else:
            hi = mid
    return mid, hm


def optimize_single_asset(payoff: DiscretePayoff, u: Utility) -> tuple[float, float]:
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
    phi_star, _ = _bisect(h, lo, hi, SINGLE_ASSET_TOL, 400)
    if abs(h(0.0)) <= SINGLE_ASSET_TOL:  # symmetric payoff: keep phi* = 0 exactly
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
    return float(np.sum(w * eval_u(u, X @ phi)))


def saa_gradient(u: Utility, X: np.ndarray, w: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return X.T @ (w * eval_u_prime(u, X @ phi))


def _newton_pass(u: Utility, X: np.ndarray, w: np.ndarray, phi: np.ndarray):
    """Objective, gradient and Hessian at phi from one product v = X @ phi."""
    v = X @ phi
    f = float(np.sum(w * eval_u(u, v)))
    g = X.T @ (w * eval_u_prime(u, v))
    H = (X.T * (w * eval_u_second(u, v))) @ X
    return f, g, H


def _damped_newton(step_pass, value, x: np.ndarray, done, max_iter: int,
                   slack: float):
    """Ascend a concave f from x; step_pass(x) gives (f, g, H, aux) and
    value(x) gives f alone, for the line search.

    The direction is d = (||g||^2 I - H)^{-1} g, and Armijo halving picks
    the step, accepting a fall of f within slack * max(1, |f|).  The loop
    stops when done(g, aux) holds, after max_iter steps, when no step
    moves x, or after a step whose predicted gain g . d is within that
    slack.  Returns (x, f, g, aux, steps).
    """
    f, g, H, aux = step_pass(x)
    steps = 0
    flat = False
    while steps < max_iter and not flat and not done(g, aux):
        gn = float(np.linalg.norm(g))
        d = np.linalg.solve(gn * gn * np.eye(x.size) - H, g)
        slope = float(g @ d)
        tol = slack * max(1.0, abs(f))
        flat = slope <= tol
        t = 1.0
        while t > 1e-18:
            cand = x + t * d
            if value(cand) >= f + 1e-4 * t * slope - tol:
                break
            t *= 0.5
        if t <= 1e-18 or np.array_equal(cand, x):
            break  # no ascent step that moves x; report the best iterate
        x = cand
        f, g, H, aux = step_pass(x)
        steps += 1
    return x, f, g, aux, steps


def _tilt(X: np.ndarray, w: np.ndarray, lam: np.ndarray):
    """L(lam) = log sum_j w_j exp(x_j . lam), max-shifted, and the tilted
    weights y = w e^{X lam} / sum(w e^{X lam})."""
    z = X @ lam
    zmax = float(z.max())
    e = w * np.exp(z - zmax)
    total = float(np.sum(e))
    return zmax + math.log(total), e / total


def _no_arbitrage_certificate(X: np.ndarray, w: np.ndarray) -> bool:
    """True if no phi with ||phi||_inf <= 1 and X @ phi >= 0 reaches 1e-9
    on any row.

    Minimizes the convex L(lam) = log sum_j w_j exp(x_j . lam) (Rogers
    1994) from lam = 0 by running the solver's loop on -L, with gradient
    -r = -X^T y and Hessian r r^T - X^T diag(y) X.  A rise of L within
    1e-14 max(1, |L|) counts as none, since L is flat to rounding near its
    minimum.  At every lam the tilted weights y are strictly positive, and
    for such a phi  max_j (X phi)_j <= y . X phi / min_j y_j
    = r . phi / min_j y_j <= ||r||_1 / min_j y_j.  The certificate holds
    once that bound is below 1e-9.  A small gradient alone proves nothing:
    under an arbitrage lam runs off along it and min_j y_j -> 0.  False
    (after at most 50 passes) means undecided.
    """
    def rogers_pass(lam):
        L, y = _tilt(X, w, lam)
        r = X.T @ y
        return -L, -r, np.outer(r, r) - (X.T * y) @ X, y

    def bound_small(g, y):
        return float(np.abs(g).sum()) < 1e-9 * float(y.min())

    _, _, g, y, _ = _damped_newton(rogers_pass, lambda lam: -_tilt(X, w, lam)[0],
                                   np.zeros(X.shape[1]), bound_small,
                                   max_iter=49, slack=1e-14)  # <= 50 passes
    return bound_small(g, y)


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
    flagged = tuple(i for i in check_no_arbitrage(model).flagged if i <= K)
    if flagged:
        raise ArbitrageError(
            f"no-arbitrage condition fails at coordinates {flagged}"
        )
    X = _centered(model, s, K)
    w = s.weights
    phi, f, g, _, it = _damped_newton(
        lambda p: (*_newton_pass(u, X, w, p), None),
        # saa_objective is looked up at call time, so a wrapper bound on
        # the module counts the line-search trials
        lambda p: saa_objective(u, X, w, p),
        np.zeros(K), lambda g, _: float(np.linalg.norm(g)) <= cfg.grad_tol,
        cfg.max_iter, slack=0.0)
    gn = float(np.linalg.norm(g))
    return LevelResult(K=K, phi_star=phi, value=f, grad_norm=gn,
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

    Three deciders, tried in order:

    * exact product sets: min over rows of V(phi) is sum_i min_j phi_i x_ij,
      so an arbitrage exists iff some coordinate's centred support points
      eps_i - b_i share one sign and are not all zero, and then +-e_i is a
      witness.  Zero-weight support points count as rows.
    * sampled sets with every weight > 0: a Rogers certificate (see
      ``_no_arbitrage_certificate``) proves that no direction in the box
      ||phi||_inf <= 1 reaches 1e-9 on any row while staying >= 0 on all.
    * otherwise, an LP over the box: maximize the total payoff subject to
      nonnegativity on the first direction_budget scenarios (the budget
      caps only this fallback).  scipy is imported for it alone.

    A returned witness is checked on every scenario, so it is valid on the
    whole set; the LP's "not found" is not a proof of absence beyond the
    scenario budget.
    """
    K = model.K
    if s.is_exact:
        for i, dist in enumerate(model.noise):
            x = np.asarray(dist.points) - model.b[i]
            if (x.min() >= 0 or x.max() <= 0) and x.any():
                phi = np.zeros(K)
                phi[i] = 1.0 if x.max() > 0 else -1.0
                if _pays_off(_centered(model, s, K), phi):
                    return True, phi
        return False, None
    X_all = _centered(model, s, K)
    if s.weights.min() > 0 and _no_arbitrage_certificate(X_all, s.weights):
        return False, None
    # imported here so that apmopt loads scipy only for this fallback
    from scipy.optimize import linprog

    X = X_all[:direction_budget]
    res = linprog(-X.sum(axis=0), A_ub=-X, b_ub=np.zeros(X.shape[0]),
                  bounds=[(-1.0, 1.0)] * K, method="highs")
    if res.status == 0 and _pays_off(X_all, res.x):
        return True, res.x
    return False, None


def _pays_off(X: np.ndarray, phi: np.ndarray) -> bool:
    """X @ phi is >= 0 on every row (to -1e-12) and > 1e-9 on some."""
    vals = X @ phi
    return bool(vals.min() >= -1e-12 and vals.max() > 1e-9)
