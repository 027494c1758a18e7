"""Truncated factor market: returns, reparametrized drifts, strategies.

The market has m factor assets and K >= m tradeable risky assets.  Asset 0
is riskless with zero rate.  Returns are

    R_i = mu_i + bbar_i eps_i                          (i <= m)
    R_i = mu_i + sum_j beta[i,j] eps_j + bbar_i eps_i  (i > m)

with independent standardized noise eps_i.  The drifts are absorbed into
per-coordinate constants b_i so that every payoff becomes a combination of
the centered terms (eps_i - b_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec, tail_probability

__all__ = [
    "BRule",
    "ModelSpec",
    "MarketModel",
    "AssetPortfolio",
    "FactorStrategy",
    "NoArbitrageVerdict",
    "AssumptionVerdict",
    "build_market",
    "asset_return",
    "convert_portfolio",
    "portfolio_value",
    "strategy_values",
    "check_assumption_b",
    "check_no_arbitrage",
    "truncate_model",
]


class IllPosedModelError(ValueError):
    """Raised for structurally invalid model parameters."""


class ArbitrageError(RuntimeError):
    """Raised when an operation requires the no-arbitrage condition."""


@dataclass(frozen=True)
class BRule:
    """Analytic rule for the drift coefficients b_i beyond the truncation.

    kind: "explicit" (finite list, zero tail), "power" (b_i = c * i**-p),
    or "zero".  Only the square-summability check reads the tail.
    """

    kind: str = "explicit"
    c: float = 0.0
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in ("explicit", "power", "zero"):
            raise ValueError(f"unknown b_rule kind {self.kind!r}")


@dataclass(frozen=True)
class ModelSpec:
    m: int
    K: int
    mu: tuple[float, ...]
    beta: tuple[tuple[float, ...], ...]  # (K-m) rows of m loadings, for assets i > m
    beta_bar: tuple[float, ...]
    noise: tuple[DistributionSpec, ...]  # one per coordinate
    b_rule: BRule = field(default_factory=BRule)

    def __post_init__(self):
        if self.m < 1:
            raise IllPosedModelError("need at least one factor (m >= 1)")
        if self.K < self.m:
            raise IllPosedModelError(f"K={self.K} < m={self.m}")
        if len(self.mu) != self.K or len(self.beta_bar) != self.K:
            raise IllPosedModelError("mu and beta_bar must have length K")
        if len(self.beta) != self.K - self.m:
            raise IllPosedModelError("beta needs one row per asset i > m")
        for row in self.beta:
            if len(row) != self.m:
                raise IllPosedModelError("each beta row needs m loadings")
        if any(bb == 0.0 for bb in self.beta_bar):
            raise IllPosedModelError("beta_bar entries must be nonzero")
        if len(self.noise) != self.K:
            raise IllPosedModelError("need one noise spec per coordinate")


def _spec(m, K, mu, beta, beta_bar, noise, b_rule=None) -> ModelSpec:
    """Internal: normalize python containers into the frozen spec."""
    if isinstance(noise, DistributionSpec):
        noise = (noise,) * K
    return ModelSpec(
        m=m, K=K,
        mu=tuple(map(float, mu)),
        beta=tuple(tuple(map(float, row)) for row in beta),
        beta_bar=tuple(map(float, beta_bar)),
        noise=tuple(noise),
        b_rule=b_rule or BRule(),
    )


@dataclass(frozen=True)
class MarketModel:
    spec: ModelSpec
    b: np.ndarray        # length K, derived drifts
    M: float             # sqrt(sum b_i^2) at truncation

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def K(self) -> int:
        return self.spec.K

    @property
    def noise(self) -> tuple[DistributionSpec, ...]:
        return self.spec.noise

    def loading_matrix(self) -> np.ndarray:
        """(K, K) matrix B with R = mu + B eps (rows are assets 1..K)."""
        m, K = self.m, self.K
        B = np.zeros((K, K))
        for i in range(K):
            B[i, i] = self.spec.beta_bar[i]
            if i >= m:
                B[i, :m] = self.spec.beta[i - m]
        return B


def build_market(m, K, mu, beta=(), beta_bar=(), noise=None, b_rule=None) -> MarketModel:
    """Assemble the market and derive the reparametrized drifts.

    b_i = -mu_i / bbar_i for i <= m;
    b_i = -mu_i / bbar_i + sum_j mu_j beta[i,j] / (bbar_j bbar_i) for i > m.
    """
    spec = _spec(m, K, mu, beta, beta_bar, noise, b_rule)
    b = np.empty(K)
    for i in range(K):  # 0-based; asset index is i+1
        bb = spec.beta_bar[i]
        b[i] = -spec.mu[i] / bb
        if i >= m:
            b[i] += sum(
                spec.mu[j] * spec.beta[i - m][j] / (spec.beta_bar[j] * bb)
                for j in range(m)
            )
    M = math.sqrt(math.fsum(x * x for x in b))
    return MarketModel(spec=spec, b=b, M=M)


@dataclass(frozen=True)
class AssetPortfolio:
    """Dollar amounts psi_0..psi_k; must sum to zero (zero initial capital)."""

    psi: tuple[float, ...]

    def __post_init__(self):
        # decimal inputs such as (0.1, 0.2, -0.3) carry rounding error
        if abs(math.fsum(self.psi)) > 1e-12 * math.fsum(map(abs, self.psi)):
            raise ValueError("portfolio violates the zero-budget constraint")


@dataclass(frozen=True)
class FactorStrategy:
    """Positions phi_1..phi_K on the centered coordinates (eps_i - b_i)."""

    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", np.atleast_1d(np.asarray(self.phi, dtype=float)))

    @property
    def norm(self) -> float:
        return math.sqrt(math.fsum(x * x for x in self.phi))


def asset_return(model: MarketModel, i: int, eps) -> float:
    """Return of asset i (1-based) on a realized noise vector.

    Evaluates both the raw and the reparametrized form and insists they
    agree to 1e-12 absolute; this is a structural identity of the model.
    """
    m, K = model.m, model.K
    if not 1 <= i <= K:
        raise IndexError(f"asset index {i} outside 1..{K}")
    eps = np.asarray(eps, dtype=float)
    if eps.size < max(i, m):
        raise IndexError("noise vector too short for this asset")
    spec = model.spec
    k = i - 1
    raw = spec.mu[k] + spec.beta_bar[k] * eps[k]
    rep = spec.beta_bar[k] * (eps[k] - model.b[k])
    if i > m:
        row = spec.beta[k - m]
        raw += sum(row[j] * eps[j] for j in range(m))
        rep += sum(row[j] * (eps[j] - model.b[j]) for j in range(m))
    if abs(raw - rep) > 1e-12 * max(1.0, abs(raw)):
        raise AssertionError(f"return forms disagree: {raw} vs {rep}")
    return raw


def convert_portfolio(model: MarketModel, portfolio: AssetPortfolio) -> FactorStrategy:
    """Map dollar positions psi to coordinate positions phi.

    phi_j = psi_j bbar_j + sum_{i>m} psi_i beta[i,j] for j <= m;
    phi_i = psi_i bbar_i for i > m.  Payoffs agree scenario by scenario.
    """
    m, K = model.m, model.K
    psi = portfolio.psi
    if len(psi) > K + 1:
        raise ValueError("portfolio longer than the tradeable universe")
    amounts = np.zeros(K)
    amounts[: len(psi) - 1] = psi[1:]
    phi = np.zeros(K)
    for j in range(m):
        phi[j] = amounts[j] * model.spec.beta_bar[j]
        for i in range(m, K):
            phi[j] += amounts[i] * model.spec.beta[i - m][j]
    for i in range(m, K):
        phi[i] = amounts[i] * model.spec.beta_bar[i]
    return FactorStrategy(phi=phi)


def portfolio_value(model: MarketModel, strategy: FactorStrategy, eps) -> float:
    """V(phi) = sum_i phi_i (eps_i - b_i) at truncation K."""
    phi = strategy.phi
    if phi.size > model.K:
        raise IndexError("strategy support exceeds truncation level")
    eps = np.asarray(eps, dtype=float)
    n = phi.size
    return float(math.fsum(phi * (eps[:n] - model.b[:n])))


def strategy_values(model: MarketModel, phi: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Vectorized V(phi) over the rows of a draws matrix."""
    phi = np.asarray(phi, dtype=float)
    n = phi.size
    return (draws[:, :n] - model.b[:n]) @ phi


@dataclass(frozen=True)
class AssumptionVerdict:
    verdict: str                 # "holds" | "fails"
    partial_sums: np.ndarray     # cumulative sum of b_i^2 up to K
    detail: str = ""


def check_assumption_b(model: MarketModel) -> AssumptionVerdict:
    """Decide square-summability of the full drift sequence.

    Explicit/zero tails are finite sums; a power tail c*i**-p is square
    summable iff p > 1/2 (or c == 0).
    """
    partial = np.cumsum(model.b ** 2)
    rule = model.spec.b_rule
    if rule.kind in ("explicit", "zero"):
        return AssumptionVerdict("holds", partial, "finite tail")
    if rule.c == 0.0 or rule.p > 0.5:
        return AssumptionVerdict("holds", partial, f"p-series, p={rule.p} > 1/2")
    return AssumptionVerdict("fails", partial, f"p-series, p={rule.p} <= 1/2")


@dataclass(frozen=True)
class NoArbitrageVerdict:
    passed: bool
    flagged: tuple[int, ...]     # 1-based coordinates with a one-sided tail
    tails: tuple[tuple[float, float], ...]  # (P(eps<b), P(eps>b)) per coordinate


def check_no_arbitrage(model: MarketModel) -> NoArbitrageVerdict:
    """Per-coordinate check that P(eps_i < b_i) and P(eps_i > b_i) are positive."""
    flagged, tails = [], []
    for i, dist in enumerate(model.noise):
        lo = tail_probability(dist, float(model.b[i]), "below")
        hi = tail_probability(dist, float(model.b[i]), "above")
        tails.append((lo, hi))
        if lo <= 0.0 or hi <= 0.0:
            flagged.append(i + 1)
    return NoArbitrageVerdict(
        passed=not flagged,
        flagged=tuple(flagged),
        tails=tuple(tails),
    )


def truncate_model(model: MarketModel, K: int) -> MarketModel:
    """The same market cut at a lower truncation level (K >= m)."""
    spec = model.spec
    if not spec.m <= K <= spec.K:
        raise ValueError(f"truncation level {K} outside [{spec.m}, {spec.K}]")
    return build_market(
        spec.m, K, spec.mu[:K],
        spec.beta[: K - spec.m],
        spec.beta_bar[:K],
        spec.noise[:K],
        spec.b_rule,
    )
