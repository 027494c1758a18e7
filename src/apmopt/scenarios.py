"""Scenario sets: exact product enumeration and counter-based Monte Carlo.

Every expectation in the library is a weighted sum over a ScenarioSet.
Exact enumeration is the brute-force oracle; Monte Carlo rows are a pure
function of (seed, row index), so results never depend on how the work is
chunked across workers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .market import MarketModel

__all__ = [
    "ScenarioSet",
    "EnumerationCapError",
    "sample_scenarios",
    "enumerate_scenarios",
    "expectation",
]

ENUMERATION_CAP = 1_000_000
_BLOCK = 1 << 14  # rows per Philox key block; fixed, independent of workers


class EnumerationCapError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScenarioSet:
    draws: np.ndarray    # (n, K)
    weights: np.ndarray  # (n,), nonnegative, sums to 1
    provenance: str

    def __post_init__(self):
        if self.draws.shape[0] != self.weights.shape[0]:
            raise ValueError("draws/weights length mismatch")
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    @property
    def n(self) -> int:
        return self.draws.shape[0]

    @property
    def is_exact(self) -> bool:
        return self.provenance == "exact_enumeration"


def _uniform_block(seed: int, block: int, count: int, K: int) -> np.ndarray:
    key = (int(seed) << 64) | block
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random((count, K))


def sample_scenarios(model: MarketModel, n: int, seed: int) -> ScenarioSet:
    """n i.i.d. noise rows with equal weights.

    Row j is a deterministic function of (seed, j): uniforms come from a
    Philox stream keyed by (seed, j // block) and each row consumes exactly
    K draws, so any partition of [0, n) reproduces the same rows.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    K = model.K
    out = np.empty((n, K))
    for start in range(0, n, _BLOCK):
        count = min(_BLOCK, n - start)
        u = _uniform_block(seed, start // _BLOCK, count, K)
        for k, dist in enumerate(model.noise):
            out[start:start + count, k] = dist.ppf(u[:, k])
    weights = np.full(n, 1.0 / n)
    return ScenarioSet(out, weights, f"monte_carlo(seed={seed}, n={n})")


def _enumerable(model: MarketModel) -> int:
    """Rows of model's exact enumeration; raises EnumerationCapError for a
    law that is not finite-discrete or a joint support over the cap."""
    for dist in model.noise:
        if not dist.is_discrete:
            raise EnumerationCapError(
                f"coordinate family {dist.family!r} is not finite-discrete"
            )
    total = math.prod(len(d.points) for d in model.noise)
    if total > ENUMERATION_CAP:
        raise EnumerationCapError(f"joint support has {total} scenarios "
                                  f"(> cap {ENUMERATION_CAP}); use Monte Carlo")
    return total


def _product_weights(probs) -> np.ndarray:
    """Product of the laws' probabilities, last coordinate fastest."""
    return functools.reduce(np.multiply.outer, probs).ravel()


def _exact_laws(model: MarketModel, s: ScenarioSet | None):
    """[(points, probs)] of model's K laws if s is model's exact
    enumeration, else None.  s = None stands for that enumeration, after
    enumerate_scenarios' checks, without building its rows.

    An exact enumeration lists the product of the coordinate supports, last
    coordinate fastest, with product weights, so its row sums factor over
    the K supports.
    """
    if s is None:
        _enumerable(model)
    elif not (s.is_exact and s.draws.shape[1] == model.K
              and s.n == math.prod(len(d.points) for d in model.noise)):
        return None
    return [(np.asarray(d.points), np.asarray(d.probs)) for d in model.noise]


def enumerate_scenarios(model: MarketModel) -> ScenarioSet:
    """Exact joint support of the product noise law, with product weights."""
    total = _enumerable(model)
    # row-major (last coordinate fastest), the order of itertools.product
    grids = np.meshgrid(*(np.asarray(d.points) for d in model.noise),
                        indexing="ij", copy=False)
    draws = np.stack(grids, axis=-1).reshape(total, model.K)
    weights = _product_weights([np.asarray(d.probs) for d in model.noise])
    return ScenarioSet(draws, weights, "exact_enumeration")


def expectation(s: ScenarioSet, values) -> float:
    """Weighted mean by numpy's pairwise summation.

    The rounding error is at most about log2(n) * 2^-52 * sum |w * v|
    (3e-15 relative at 2^19 rows), and the result does not depend on the
    BLAS thread count, as a ``np.dot`` could.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] != s.n:
        raise ValueError("values length does not match scenario count")
    return float(np.sum(s.weights * values))
