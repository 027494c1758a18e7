"""Equivalent measures that kill all asset drifts.

Two per-coordinate constructions, combined into a product density:

* logistic tilt: density factor psi(a (eps - b)) / E[psi(a (eps - b))]
  with psi(x) = 1 - tanh(x/2)/2 = 1/2 + 1/(1 + e^x), a calibrated by
  bisection so the tilted mean of eps equals b;
* utility-gradient fallback: u'(phi* (eps - b)) / E[u'(phi* (eps - b))]
  with u the kinked power utility and phi* the one-asset optimizer, whose
  stationarity makes the tilted mean exact as well.

Both factors are strictly positive, so the product measure is equivalent
to the physical one and prices every asset to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, tail_probability
from .market import ArbitrageError, FactorStrategy, MarketModel, check_no_arbitrage
from .optimize import DiscretePayoff, optimize_single_asset
from .scenarios import ScenarioSet, enumerate_scenarios, expectation
from .utility import appendix_power, eval_u_prime

__all__ = [
    "TiltedMeasure",
    "MeasureReport",
    "TiltBracketError",
    "psi",
    "solve_tilt",
    "build_tilted_measure",
    "single_asset_measure",
    "measure_moments",
    "verify_pricing",
]

TILT_BRACKET = 50.0


class TiltBracketError(RuntimeError):
    """No tilt root inside the bisection bracket; caller should fall back."""


def psi(x):
    """1/2 + 1/(1+e^x) = 1 - tanh(x/2)/2: strictly decreasing, psi(0)=1,
    range (1/2, 3/2)."""
    x = np.asarray(x, dtype=float)
    out = 1.0 - 0.5 * np.tanh(0.5 * x)
    return float(out) if out.ndim == 0 else out


def _tilt_residual(dist: DistributionSpec, b: float, a: float) -> float:
    """g(a) = E[psi(a (eps - b)) (eps - b)]; strictly decreasing in a."""
    pts = np.asarray(dist.points) - b
    pr = np.asarray(dist.probs)
    return float(math.fsum(pr * psi(a * pts) * pts))


def solve_tilt(dist: DistributionSpec, b: float, tol: float = 1e-12,
               bracket: float = TILT_BRACKET) -> float:
    """Find a with E[psi(a (eps - b)) (eps - b)] = 0 by bisection.

    g is strictly decreasing (psi' < 0 weighs the two tails against each
    other), so the root is unique whenever both tails of eps - b carry
    mass.  g(0) = -b exactly, so b = 0 gives a = 0 without iteration.
    """
    if not dist.is_discrete:
        raise ValueError("tilt calibration needs a finite-discrete law")
    if tail_probability(dist, b, "below") <= 0 or tail_probability(dist, b, "above") <= 0:
        raise ArbitrageError(f"one-sided noise around b={b}: no equivalent tilt")
    if b == 0.0:
        return 0.0
    g = lambda a: _tilt_residual(dist, b, a)
    lo, hi = (-bracket, 0.0) if b > 0 else (0.0, bracket)
    if g(lo) < 0 or g(hi) > 0:
        raise TiltBracketError(
            f"no sign change of the tilt residual within |a| <= {bracket}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(gm) <= tol:
            return mid
        if gm > 0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    if abs(g(mid)) > tol:
        raise TiltBracketError("bisection budget exhausted above tolerance")
    return mid


@dataclass(frozen=True)
class CoordinateTilt:
    method: str          # "logistic_tilt" | "utility_gradient"
    a: float | None      # logistic tilt parameter (None for fallback)
    z: float             # normalizer E[factor numerator]
    phi_star: float      # fallback optimizer (0.0 for logistic)
    alpha: float         # fallback utility exponent


@dataclass(frozen=True)
class TiltedMeasure:
    model: MarketModel
    coords: tuple[CoordinateTilt, ...]

    @property
    def a(self) -> np.ndarray:
        return np.array([c.a if c.a is not None else np.nan for c in self.coords])

    @property
    def z(self) -> np.ndarray:
        return np.array([c.z for c in self.coords])

    def coordinate_factor(self, i: int, eps_col: np.ndarray) -> np.ndarray:
        """Density factor of coordinate i (0-based) at noise values."""
        c = self.coords[i]
        centered = eps_col - self.model.b[i]
        if c.method == "logistic_tilt":
            return psi(c.a * centered) / c.z
        u = appendix_power(c.alpha)
        return eval_u_prime(u, c.phi_star * centered) / c.z

    def density(self, draws: np.ndarray) -> np.ndarray:
        """dQ/dP on each scenario row: product of coordinate factors."""
        out = np.ones(draws.shape[0])
        for i in range(len(self.coords)):
            out *= self.coordinate_factor(i, draws[:, i])
        return out


def build_tilted_measure(model: MarketModel, fallback_alpha: float = 0.5,
                         tol: float = 1e-12) -> TiltedMeasure:
    """Calibrate every coordinate; logistic tilt first, utility-gradient
    fallback where the tilt residual cannot be driven to tolerance.

    Coordinates violating the per-coordinate no-arbitrage condition are a
    hard error: no equivalent drift-killing measure exists.
    """
    na = check_no_arbitrage(model)
    if not na.passed:
        raise ArbitrageError(f"no-arbitrage fails at coordinates {na.flagged}")
    coords = []
    for i, dist in enumerate(model.noise):
        b = float(model.b[i])
        pts = np.asarray(dist.points) - b
        pr = np.asarray(dist.probs)
        try:
            a = solve_tilt(dist, b, tol=tol)
            z = float(math.fsum(pr * psi(a * pts)))
            coords.append(CoordinateTilt("logistic_tilt", a, z, 0.0, fallback_alpha))
        except TiltBracketError:
            u = appendix_power(fallback_alpha)
            phi_star, _ = optimize_single_asset(DiscretePayoff.from_noise(dist, b), u)
            z = float(math.fsum(pr * eval_u_prime(u, phi_star * pts)))
            coords.append(CoordinateTilt("utility_gradient", None, z, phi_star,
                                         fallback_alpha))
    return TiltedMeasure(model=model, coords=tuple(coords))


@dataclass(frozen=True)
class MeasureReport:
    moments: dict            # {"dQ/dP": {w: value}, "dP/dQ": {w: value}}
    tilt_to_drift: tuple[float, ...]  # |a_i| / |b_i| where both defined
    fitted_c: float          # log-moment vs sum(a^2 + b^2) ratio

    def to_dict(self) -> dict:
        return {
            "moments": {k: {str(w): v for w, v in tab.items()}
                        for k, tab in self.moments.items()},
            "tilt_to_drift": list(self.tilt_to_drift),
            "fitted_c": self.fitted_c,
        }


def single_asset_measure(payoff: DiscretePayoff, alpha: float,
                         p_list=(1.0, 2.0)) -> tuple[np.ndarray, dict]:
    """The utility-gradient measure for a single payoff X.

    dW/dP = u'(phi* X) / E[u'(phi* X)] with the kinked power utility;
    stationarity of phi* gives E_W[X] = 0, and u' <= alpha bounds the
    unnormalized density.  Returns per-scenario density values and a
    report with E_W[X], the density bound and reciprocal moments.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    u = appendix_power(alpha)
    phi_star, _ = optimize_single_asset(payoff, u)
    x = np.asarray(payoff.points)
    w = np.asarray(payoff.probs)
    uprime = eval_u_prime(u, phi_star * x)
    norm = float(math.fsum(w * uprime))
    dens = uprime / norm
    report = {
        "phi_star": phi_star,
        "E_W[X]": float(math.fsum(w * dens * x)),
        "density_max": float(dens.max()),
        "density_bound": alpha / norm,
        "reciprocal_moments": {p: float(math.fsum(w * dens ** (-p))) for p in p_list},
    }
    return dens, report


def verify_pricing(Q: TiltedMeasure, model: MarketModel,
                   strategies: tuple[FactorStrategy, ...] = (),
                   s: ScenarioSet | None = None) -> dict:
    """Residuals of E_Q[R_i] for every asset and E_Q[V(phi)] for the
    supplied strategies, computed on the scenario set."""
    s = s or enumerate_scenarios(model)
    return _pricing_residuals(model, s, Q.density(s.draws), strategies)


def _pricing_residuals(model: MarketModel, s: ScenarioSet, dens: np.ndarray,
                       strategies: tuple[FactorStrategy, ...] = ()) -> dict:
    """verify_pricing's residuals for a density already evaluated on s."""
    centered = s.draws - model.b
    B = model.loading_matrix()
    asset_resid = [expectation(s, dens * (centered @ B[i]))
                   for i in range(model.K)]
    strat_resid = [expectation(s, dens * (centered[:, :f.phi.size] @ f.phi))
                   for f in strategies]
    return {
        "asset_residuals": asset_resid,
        "strategy_residuals": strat_resid,
        "max_residual": max(map(abs, asset_resid + strat_resid), default=0.0),
    }


def measure_moments(Q: TiltedMeasure, s: ScenarioSet,
                    w_list=(-2.0, -1.0, 1.0, 2.0)) -> MeasureReport:
    """Tabulate E[(dQ/dP)^w] and E[(dP/dQ)^w] and fit the log-moment
    growth constant c in log E[(dQ/dP)^w] <= c sum(a_i^2 + b_i^2)."""
    dens = Q.density(s.draws)
    fwd = {float(w): expectation(s, dens ** w) for w in w_list}
    rev = {float(w): expectation(s, dens ** (-w)) for w in w_list}
    a = np.array([c.a if c.a is not None else 0.0 for c in Q.coords])
    quad = float(np.sum(a ** 2) + np.sum(Q.model.b ** 2))
    ratios = [math.log(v) / quad for v in list(fwd.values()) + list(rev.values())
              if v > 0 and quad > 0]
    drift_ratio = tuple(
        float(abs(c.a) / abs(b)) for c, b in zip(Q.coords, Q.model.b)
        if c.a is not None and b != 0.0
    )
    return MeasureReport(
        moments={"dQ/dP": fwd, "dP/dQ": rev},
        tilt_to_drift=drift_ratio,
        fitted_c=max(ratios, default=0.0),
    )
