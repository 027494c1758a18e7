"""Scenario sets: exact product enumeration and counter-based Monte Carlo.

Every expectation in the library is a weighted sum over a ScenarioSet.
An exact enumeration is the product of the K coordinate laws and keeps
those laws, not its rows.  Holding laws is the one test for an exact set,
whichever market it is paired with.  The measure layer and the
arbitrage search read every such set through its laws.  The solver, the
Hoelder chain and the exponential-moment cap do so in product form
unless its split has no heads or it has at most
``optimize._PRODUCT_ROWS`` rows (``optimize._product_form``); then they
read its (n, K) rows, which are built on the first read of ``draws``
and kept.  A set built from rows is a row set, read row by row, whatever
its ``provenance``, which only labels the report.
Monte Carlo rows are a pure function of (seed, row index), so results
never depend on how the work is chunked across workers; a sampled set
stores them column-major, one contiguous array per noise coordinate, which
is the layout the solver's and the verification layer's row walks read,
and draws their uniforms one 4096-row window at a time.
"""

from __future__ import annotations

import math
import operator

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
_WINDOW = 1 << 12  # rows of uniforms drawn at a time; divides _BLOCK


class EnumerationCapError(RuntimeError):
    pass


class ScenarioSet:
    """Scenario rows and their weights (nonnegative, summing to 1).

    ``ScenarioSet(draws, weights, provenance)`` holds its (n, K) rows, in
    either memory order; ``sample_scenarios`` gives them column-major.  An
    exact enumeration (``enumerate_scenarios``) holds its K coordinate laws
    instead, as (points, probs) pairs: its rows are their product, last
    coordinate fastest, with product weights, and ``draws`` and
    ``weights`` build them on first read and keep them.
    """

    def __init__(self, draws: np.ndarray, weights: np.ndarray, provenance: str):
        if draws.shape[0] != weights.shape[0]:
            raise ValueError("draws/weights length mismatch")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        if (weights < 0).any():
            raise ValueError("weights must be nonnegative")
        self._draws = draws
        self._laws = None
        self._set_weights(weights, math.fsum(weights), provenance)

    @classmethod
    def _product(cls, laws) -> ScenarioSet:
        """The product set of laws = [(points, probs)], rows and weights not
        built.  Its weights sum to the product of the laws' sums, which is
        checked in place of a sum over all n of them."""
        s = cls.__new__(cls)
        s._draws = None
        s._laws = tuple(laws)
        s._set_weights(None, math.prod(math.fsum(p) for _, p in laws), "exact_enumeration")
        return s

    def _set_weights(self, weights, total: float, provenance: str) -> None:
        if not abs(total - 1.0) <= 1e-12:  # NaN fails
            raise ValueError("weights must sum to 1")
        self._weights = weights
        self.provenance = provenance
        self._density = None  # (Q, dQ/dP on the rows): measures' memo

    @property
    def draws(self) -> np.ndarray:
        """(n, K) rows; on a product set built on first read."""
        if self._draws is None:
            grids = np.meshgrid(*(x for x, _ in self._laws), indexing="ij",
                                copy=False)
            self._draws = np.stack(grids, axis=-1).reshape(self.n, self.K)
        return self._draws

    @property
    def weights(self) -> np.ndarray:
        """(n,) row weights; on a product set built on first read
        (``_product_weights``)."""
        if self._weights is None:
            self._weights = _product_weights([p for _, p in self._laws])
        return self._weights

    @property
    def n(self) -> int:
        if self._laws is None:
            return self._draws.shape[0]
        return math.prod(x.size for x, _ in self._laws)

    @property
    def K(self) -> int:
        """Columns: noise coordinates per row."""
        return len(self._laws) if self._draws is None else self._draws.shape[1]

    @property
    def is_exact(self) -> bool:
        """The set holds its coordinate laws: an exact enumeration."""
        return self._laws is not None


def _seed(seed, bits: int) -> int:
    """seed as an int in [0, 2**bits): an integer, numpy's too, not a bool;
    anything else is refused with a ValueError."""
    try:
        if isinstance(seed, (bool, np.bool_)):
            raise TypeError
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < 2 ** bits:
        raise ValueError(f"seed must lie in [0, 2**{bits}), got {seed}")
    return seed


def sample_scenarios(model: MarketModel, n: int, seed: int) -> ScenarioSet:
    """n i.i.d. noise rows with equal weights.

    Row j is a deterministic function of (seed, j): uniforms come from a
    Philox stream keyed by (seed, j // block) and each row consumes exactly
    K draws, so any partition of [0, n) reproduces the same rows.  The rows
    are stored column-major: ``draws`` is the transpose of a C-ordered
    (K, n) array, filled one contiguous coordinate at a time, which the
    solver and the row walks read in place.  Each key block's stream is
    drawn in consecutive windows of ``_WINDOW`` rows through one reused
    (min(window, n), K) buffer, the same stream, byte for byte, as one
    ``gen.random((count, K))`` per block; so besides the rows themselves
    the sampler holds one window of uniforms and one column of a window's
    quantiles.  A seed that is not an integer in [0, 2**64) is refused
    with a ValueError.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    seed = _seed(seed, 64)
    cols = np.empty((model.K, n))
    buf = np.empty((min(_WINDOW, n), model.K))
    for start in range(0, n, _BLOCK):
        gen = np.random.Generator(np.random.Philox(key=(seed << 64) | start // _BLOCK))
        for lo in range(start, min(start + _BLOCK, n), _WINDOW):
            m = min(_WINDOW, n - lo)
            u = gen.random(out=buf[:m])
            for k, dist in enumerate(model.noise):
                cols[k, lo:lo + m] = dist.ppf(u[:, k])
    weights = np.full(n, 1.0 / n)
    return ScenarioSet(cols.T, weights, f"monte_carlo(seed={seed}, n={n})")


def _enumerable(model: MarketModel):
    """model's K coordinate laws as (points, probs) arrays; raise
    EnumerationCapError for a law that is not finite-discrete or a joint
    support over the cap."""
    for dist in model.noise:
        if not dist.is_discrete:
            raise EnumerationCapError(
                f"coordinate family {dist.family!r} is not finite-discrete"
            )
    total = math.prod(len(d.points) for d in model.noise)
    if total > ENUMERATION_CAP:
        raise EnumerationCapError(f"joint support has {total} scenarios "
                                  f"(> cap {ENUMERATION_CAP}); use Monte Carlo")
    return [(np.asarray(d.points, dtype=float), np.asarray(d.probs, dtype=float))
            for d in model.noise]


def _product_weights(probs) -> np.ndarray:
    """Product of the laws' probabilities, last coordinate fastest (1 for
    no law).  Built one law at a time as the (m, k) products of the m so
    far and the law's k points, with numpy's inner loop over the longer of
    the two: by column (one call per point) while k < m, else the outer
    product (one call).  Each weight is the same product, in the same
    order, as ``functools.reduce(np.multiply.outer, probs)``'s."""
    out = np.ones(1)
    for p in probs:
        if len(p) >= out.size:
            out = np.multiply.outer(out, p).ravel()
            continue
        grown = np.empty((out.size, len(p)))
        for j, pj in enumerate(p):
            np.multiply(out, pj, out=grown[:, j])
        out = grown.ravel()
    return out


def enumerate_scenarios(model: MarketModel) -> ScenarioSet:
    """Exact joint support of the product noise law, with product weights:
    the K laws and the weights, rows built only when ``draws`` is read."""
    return ScenarioSet._product(_enumerable(model))


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
