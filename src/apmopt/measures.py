"""Equivalent measures that kill all asset drifts.

Two per-coordinate constructions, combined into a product density:

* logistic tilt: density factor psi(a (eps - b)) / E[psi(a (eps - b))]
  with psi(x) = 1 - tanh(x/2)/2 = 1/2 + 1/(1 + e^x), a calibrated by
  bisection so the tilted mean of eps equals b, all K coordinates in one
  lockstep bisection;
* utility-gradient fallback: u'(phi* (eps - b)) / E[u'(phi* (eps - b))]
  with u the kinked power utility and phi* the one-asset optimizer, whose
  stationarity makes the tilted mean exact as well.

Both factors are strictly positive, so the product measure is equivalent
to the physical one and prices every asset to zero.  Payoffs are linear in
eps - b, so pricing is checked through the K tilted means E_Q[eps_i - b_i].

On an exact set every expectation of a product of per-coordinate functions
factorises: E_Q[eps_i - b_i] = E[f_i (eps_i - b_i)] prod_{j != i} E[f_j]
and E[(dQ/dP)^e] = prod_i E[f_i^e], with f_i coordinate i's factor, so the
density moments and the pricing residuals, those of ``verify_pricing`` and
of the Hoelder chain's guard alike, read K support sums over the set's own
laws and no per-row density; ``verify_pricing`` without a set prices from
the laws of Q's market alone.  Row sets evaluate the density on their rows
once per measure: the set keeps the last measure's density, so pricing,
the moments and the Hoelder constants share one evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .distributions import DistributionSpec, tail_probability
from .market import ArbitrageError, FactorStrategy, MarketModel, check_no_arbitrage
from .optimize import DiscretePayoff, _bisect, _require_width, optimize_single_asset
from .scenarios import ScenarioSet, _enumerable, expectation
from .utility import Utility, appendix_power, eval_u_prime

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
TILT_TOL = 1e-12
RECIPROCAL_POWERS = (1.0, 2.0)  # single_asset_measure's E_W[(dW/dP)^-p]


class TiltBracketError(RuntimeError):
    """No tilt root inside the bisection bracket; caller should fall back."""


def psi(x):
    """1/2 + 1/(1+e^x) = 1 - tanh(x/2)/2: strictly decreasing, psi(0)=1,
    range (1/2, 3/2)."""
    x = np.asarray(x, dtype=float)
    out = 1.0 - 0.5 * np.tanh(0.5 * x)
    return float(out) if out.ndim == 0 else out


def solve_tilt(dist: DistributionSpec, b: float) -> float:
    """Find a with E[psi(a (eps - b)) (eps - b)] = 0 by bisection.

    g is strictly decreasing (psi' < 0 weighs the two tails against each
    other), so the root is unique whenever both tails of eps - b carry
    mass.  g(0) = -b exactly, so b = 0 gives a = 0 without iteration.
    """
    (a,) = _solve_tilts([dist], [b])
    if isinstance(a, TiltBracketError):
        raise a
    return a


def _solve_tilts(dists, bs) -> list:
    """``solve_tilt`` for each law of dists around its b in bs, all in one
    lockstep bisection (``_bisect``): a list of the tilts, with the
    TiltBracketError that solve_tilt raises in place of a lane's tilt.
    Its other errors are raised for the first law that has one.  The
    lanes' residuals g(a) = E[psi(a (eps - b)) (eps - b)] come from one
    psi over all their points, and only a live lane's terms are read back,
    as a math.fsum over its own law's points."""
    for dist, b in zip(dists, bs):
        if not dist.is_discrete:
            raise ValueError("tilt calibration needs a finite-discrete law")
        if tail_probability(dist, b, "below") <= 0 or tail_probability(dist, b, "above") <= 0:
            raise ArbitrageError(f"one-sided noise around b={b}: no equivalent tilt")
    miss = f"no sign change of the tilt residual within |a| <= {TILT_BRACKET}"
    out = [0.0 if b == 0.0 else TiltBracketError(miss) for b in bs]
    tilted = [i for i, b in enumerate(bs) if b != 0.0]
    if not tilted:
        return out
    pts = [np.asarray(dists[i].points) - bs[i] for i in tilted]
    x, pr = np.concatenate(pts), np.concatenate([dists[i].probs for i in tilted])
    sizes = [q.size for q in pts]
    ends = np.cumsum(sizes).tolist()
    spans = [slice(e - m, e) for e, m in zip(ends, sizes)]
    a = np.zeros(len(pts))

    def g(at, lanes):
        a[lanes] = at
        terms = pr * psi(np.repeat(a, sizes) * x) * x
        return np.array([math.fsum(terms[spans[j]].tolist()) for j in lanes.tolist()])

    up = np.array([bs[i] > 0 for i in tilted])
    lo, hi = np.where(up, -TILT_BRACKET, 0.0), np.where(up, 0.0, TILT_BRACKET)
    lanes = np.arange(len(pts))
    bracketed = lanes[~((g(lo, lanes) < 0) | (g(hi, lanes) > 0))]
    roots, residuals = _bisect(lambda at, j: g(at, bracketed[j]),
                               lo[bracketed], hi[bracketed], TILT_TOL, 200)
    for j, root, res in zip(bracketed.tolist(), roots.tolist(), residuals.tolist()):
        out[tilted[j]] = (root if abs(res) <= TILT_TOL
                          else TiltBracketError("bisection stalled above tolerance"))
    return out


class CoordinateTilt(Record):
    method: str          # "logistic_tilt" | "utility_gradient"
    a: float | None      # logistic tilt parameter (None for fallback)
    z: float             # normalizer E[factor numerator]
    phi_star: float      # fallback optimizer (0.0 for logistic)
    utility: Utility | None  # fallback utility (None for logistic)

    def numerator(self, x):
        """Unnormalised factor at centred noise x: psi(a x) or u'_alpha(phi* x)."""
        if self.method == "logistic_tilt":
            return psi(self.a * x)
        return eval_u_prime(self.utility, self.phi_star * x)


class TiltedMeasure(Record):
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
        return c.numerator(eps_col - self.model.b[i]) / c.z

    def density(self, draws: np.ndarray) -> np.ndarray:
        """dQ/dP on each scenario row: product of coordinate factors."""
        out = np.ones(draws.shape[0])
        for i in range(len(self.coords)):
            out *= self.coordinate_factor(i, draws[:, i])
        return out


def _support_factors(Q: TiltedMeasure, s: ScenarioSet | None):
    """On an exact set s, [(x_i, p_i, f_i)] for each of the K coordinates
    of Q's market: s's own law's support points, their probabilities and
    the density factor there; None on a row set.  s = None stands for the
    laws of Q's market (``scenarios._enumerable``).  Every expectation of a
    product of per-coordinate functions over the set is the product of K
    support sums.
    """
    if s is not None:
        _require_width(Q.model, s)
    laws = _enumerable(Q.model) if s is None else s._laws
    if laws is None:
        return None
    return [(x, p, Q.coordinate_factor(i, x))
            for i, (x, p) in enumerate(laws[:Q.model.K])]


def _row_density(Q: TiltedMeasure, s: ScenarioSet) -> np.ndarray:
    """Q.density on the rows of s, read-only.  s keeps the last one with
    its Q, and a call for that same Q reads it back: Q is matched by
    identity, which the kept reference keeps from being reused."""
    if s._density is None or s._density[0] is not Q:
        dens = Q.density(s.draws)
        dens.flags.writeable = False
        s._density = (Q, dens)
    return s._density[1]


def _density_moments(Q: TiltedMeasure, s: ScenarioSet, exponents, sup) -> dict:
    """{e: E[(dQ/dP)^e]} over s: prod_i E[f_i^e] from the support sums sup
    = _support_factors(Q, s) on an exact set, else the density over the
    rows (``_row_density``)."""
    if sup is None:
        dens = _row_density(Q, s)
        return {e: expectation(s, dens ** e) for e in exponents}
    return {e: math.prod(math.fsum(p * f ** e) for _, p, f in sup)
            for e in exponents}


def _coordinate_means(Q: TiltedMeasure, model: MarketModel, s: ScenarioSet,
                      sup) -> np.ndarray:
    """E_Q[eps_i - b_i] over s: E[f_i (eps_i - b_i)] prod_{j != i} E[f_j]
    from the support sums sup = _support_factors(Q, s) on an exact set,
    else over the rows."""
    if sup is None:
        return _row_means(model, s, _row_density(Q, s))
    mass = [math.fsum(p * f) for _, p, f in sup]
    return np.array([math.fsum(p * f * (x - model.b[i]))
                     * math.prod(mass[:i] + mass[i + 1:])
                     for i, (x, p, f) in enumerate(sup)])


def build_tilted_measure(model: MarketModel, fallback_alpha: float = 0.5) -> TiltedMeasure:
    """Calibrate every coordinate; logistic tilt first, all K in one
    lockstep bisection (``_solve_tilts``), utility-gradient fallback where
    the tilt residual cannot be driven to tolerance.

    Coordinates violating the per-coordinate no-arbitrage condition are a
    hard error: no equivalent drift-killing measure exists.
    """
    na = check_no_arbitrage(model)
    if not na.passed:
        raise ArbitrageError(f"no-arbitrage fails at coordinates {na.flagged}")
    coords = []
    bs = model.b.tolist()
    for dist, b, a in zip(model.noise, bs, _solve_tilts(model.noise, bs)):
        if not isinstance(a, TiltBracketError):
            c = CoordinateTilt("logistic_tilt", a, 1.0, 0.0, None)
        else:
            u = appendix_power(fallback_alpha)
            phi_star, _ = optimize_single_asset(DiscretePayoff.from_noise(dist, b), u)
            c = CoordinateTilt("utility_gradient", None, 1.0, phi_star, u)
        pts = np.asarray(dist.points) - b
        z = float(math.fsum(np.asarray(dist.probs) * c.numerator(pts)))
        coords.append(c.replace(z=z))
    return TiltedMeasure(model=model, coords=tuple(coords))


class MeasureReport(Record):
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


def single_asset_measure(payoff: DiscretePayoff, alpha: float) -> tuple[np.ndarray, dict]:
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
        "reciprocal_moments": {p: float(math.fsum(w * dens ** (-p)))
                               for p in RECIPROCAL_POWERS},
    }
    return dens, report


def verify_pricing(Q: TiltedMeasure, model: MarketModel,
                   strategies: tuple[FactorStrategy, ...] = (),
                   s: ScenarioSet | None = None) -> dict:
    """Residuals of E_Q[R_i] for every asset and E_Q[V(phi)] for the given
    strategies, priced from the coordinate means E_Q[eps_i - b_i] on s:
    K support sums over its own laws on an exact set, else the rows.
    Without s, the sums run over the laws of Q's market, as on its exact
    enumeration, which is never built; a market that
    ``enumerate_scenarios`` refuses raises its EnumerationCapError."""
    return _residuals(model, _coordinate_means(Q, model, s, _support_factors(Q, s)),
                      strategies)


def _row_means(model: MarketModel, s: ScenarioSet, dens: np.ndarray) -> np.ndarray:
    """E_Q[eps_i - b_i] for a density already evaluated on the rows of s."""
    return np.array([expectation(s, dens * (s.draws[:, i] - model.b[i]))
                     for i in range(model.K)])


def _residuals(model: MarketModel, m: np.ndarray,
               strategies: tuple[FactorStrategy, ...] = ()) -> dict:
    """Asset and strategy residuals priced from the coordinate means m."""
    B = model.loading_matrix()
    asset_resid = [math.fsum(B[i] * m) for i in range(model.K)]
    strat_resid = [math.fsum(f.phi * m[:f.phi.size]) for f in strategies]
    return {
        "asset_residuals": asset_resid,
        "strategy_residuals": strat_resid,
        "max_residual": max(map(abs, asset_resid + strat_resid), default=0.0),
    }


def measure_moments(Q: TiltedMeasure, s: ScenarioSet,
                    w_list=(-2.0, -1.0, 1.0, 2.0)) -> MeasureReport:
    """Tabulate E[(dQ/dP)^w] and E[(dP/dQ)^w] and fit the log-moment
    growth constant c in log E[(dQ/dP)^w] <= c sum(a_i^2 + b_i^2)."""
    # E[(dP/dQ)^w] = E[(dQ/dP)^-w]: one moment per distinct exponent
    ws = [float(w) for w in w_list]
    power = _density_moments(Q, s, {*ws, *(-w for w in ws)}, _support_factors(Q, s))
    fwd = {w: power[w] for w in ws}
    rev = {w: power[-w] for w in ws}
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
