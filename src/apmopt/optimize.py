"""Expected-utility maximization over scenario sets.

Two loops serve the package.  ``_bisect`` finds the roots of
nonincreasing functions in lockstep, one lane each: the one-asset problem
sup_phi E[u(phi X)] bisects its derivative in one lane, and
``build_tilted_measure`` bisects the K tilt residuals in K lanes.
``_damped_newton`` ascends a concave function: the direction is
(-H + ||g||^2 I)^{-1} g, with gradient g at the current point and Hessian
H formed there or held from the last step (Newton-chord), and Armijo
backtracking picks the step.  The K-coordinate problem runs it on the
scenario expectation of u(V(phi)), with X = eps - b the centred noise.
On sampled and row sets the line search's payoffs v = X @ phi at the
accepted step feed the next pass, which reduces X.T a for the gradient
and, when asked, X.T diag(c) X for the Hessian.  Those sets hold X
transposed, as a C-ordered (K, n) matrix whose rows are the centred
coordinates, and form v and both reductions in fixed-order blocks of
scenarios and panels of at most PANEL coordinates (``_row_blocks``), so
the result does not depend on the BLAS thread count at any K.  An exact
enumeration takes that row path too, on its rows, unless it runs in
product form (``_product_form``, the one rule, which the Hoelder chain
and the exponential-moment cap read as well); then X is never formed.
The grid reads as an (H, T) matrix on the split the Hoelder chain takes,
heads by a tile of trailing coordinates, and a payoff is a head's plus a
tile point's, h + t.  Each value call sorts the tile and sums u over
the rows as the chain's staircase over groups of heads (``_grid_value``,
``_staircase``): the rows above 0 in blocks, and those at or below 0 as
running sums where u is linear there.  The accepted trial's pass runs u'
on the same staircase for the row and column sums of w u', and
``_row_blocks`` on them and on the head and tile designs gives the
gradient.  The Hessian runs u'' on the same rising staircase, on the
rows above 0 alone, since u'' = 0 at and below 0 for every utility kind:
``_row_blocks`` on its row and column sums of w u'' gives the diagonal
blocks, and each head's sums against the tile design, read in the sorted
tile's order, give the block across heads and tile.  Its BLAS calls are
``_row_blocks``' and the panel products of ``_panel_sums``, which hold
that too, and no array of the grid's size is formed.
-H is positive semidefinite because u'' <= 0 for every utility kind, so
the shifted system is positive definite; the shift vanishes with g near
the optimum, where the step is the Newton step, and for a tabulated
utility (u'' = 0) the step is a scaled gradient step.  The truncation
ladder solves every level on one scenario set.

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
from .scenarios import ScenarioSet, _product_weights, enumerate_scenarios
from .utility import Utility, _side, eval_u, eval_u_prime, eval_u_second

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

# |E[u'(phi X) X]| at which the one-asset bisection stops: rounding level,
# since the fallback tilt prices its coordinate to about this over E[u'(phi X)]
SINGLE_ASSET_TOL = 1e-14
# scenarios per block of the Newton pass's reductions
ROW_BLOCK = 4096
# coordinates per panel of those reductions.  On a block, OpenBLAS splits a
# gemv of up to 96 outputs over the outputs alone, and runs a syrk of up
# to 96 coordinates in one fixed order, whatever its thread count; wider
# ones are threaded with other last bits (the gemv at K = 113 or 150, the
# syrk at K = 100 or 150, say).  A product of two panels splits over its
# outputs alone.  So in fixed block order the gradient and the Hessian do
# not depend on the BLAS thread count at any K
PANEL = 96
# rows per staircase group: 16 heads on a 4096-point tile
_STAIR = 16 * ROW_BLOCK
# rows above which an exact set with heads runs in product form
# (``_product_form``)
_PRODUCT_ROWS = 4 * ROW_BLOCK


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


def _bisect(h, lo, hi, tol: float, max_iter: int):
    """Bisect nonincreasing functions in lockstep, one per lane of the
    bracket arrays lo and hi, with h_i(lo_i) >= 0 >= h_i(hi_i).

    h(x, lanes) gives h_i(x_j) for each lane i = lanes[j], as an array.
    Returns the arrays (x, h(x)): each lane stops at its first midpoint x
    where |h(x)| <= tol or the bracket is narrower than 1e-15 relative to
    x, or at its last midpoint after max_iter halvings.  A lane's steps
    are those of its own scalar bisection, whatever the other lanes do.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x, hx = np.empty_like(lo), np.empty_like(lo)
    lanes = np.arange(lo.size)
    for _ in range(max_iter):
        if not lanes.size:
            break
        l, r = lo[lanes], hi[lanes]
        mid = 0.5 * (l + r)
        hm = h(mid, lanes)
        x[lanes], hx[lanes] = mid, hm
        up = hm > 0
        lo[lanes[up]], hi[lanes[~up]] = mid[up], mid[~up]
        lanes = lanes[~((np.abs(hm) <= tol) | (r - l < 1e-15 * np.maximum(1.0, np.abs(mid))))]
    return x, hx


def optimize_single_asset(payoff: DiscretePayoff, u: Utility) -> tuple[float, float]:
    """Maximize phi -> E[u(phi X)] over the reals.

    The derivative h(phi) = E[u'(phi X) X] is nonincreasing by concavity;
    we bracket its sign change and bisect (one lane of ``_bisect``).
    Returns (phi_star, value).
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
    (phi_star,), _ = _bisect(lambda p, _: np.array([h(p[0])]), [lo], [hi],
                             SINGLE_ASSET_TOL, 400)
    phi_star = float(phi_star)
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
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")
        if any(b <= a for a, b in zip(self.ladder, self.ladder[1:])):
            raise ValueError(f"ladder levels {list(self.ladder)} must be strictly increasing")


def _centered(draws: np.ndarray, shift: np.ndarray, out: np.ndarray) -> np.ndarray:
    """X = draws - shift for (n, K) draws, transposed into out: a C-ordered
    (K, n) matrix whose row i is coordinate i's centred column, from draws
    in either memory order (a column-major sample copies contiguously)."""
    return np.subtract(draws.T, shift[:, None], out=out)


def _expected_u(u: Utility, w: np.ndarray, v: np.ndarray, out=None) -> float:
    """sum_j w_j u(v_j), weighted in place in out (default: a new array)."""
    uv = eval_u(u, v, out=out)
    uv *= w
    return float(np.sum(uv))


def _payoffs(X: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """phis @ X for the (K, n) matrix X and one strategy (K,) or several
    (T, K), one product per block of columns: of ROW_BLOCK columns, then
    the rest in power-of-two widths.  OpenBLAS splits a threaded gemv or
    gemm of this shape over its columns, and a ragged width (50 001, say)
    splits unevenly and changes the last bits, while a power of two splits
    alike over 1 and 2 threads."""
    n = X.shape[1]
    v = np.empty(phis.shape[:-1] + (n,))
    start = 0
    while start < n:
        width = min(ROW_BLOCK, 1 << ((n - start).bit_length() - 1))
        np.matmul(phis, X[:, start:start + width], out=v[..., start:start + width])
        start += width
    return v


def saa_objective(u: Utility, X: np.ndarray, w: np.ndarray, phi: np.ndarray) -> float:
    return _expected_u(u, w, X @ phi)


def saa_gradient(u: Utility, X: np.ndarray, w: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return X.T @ (w * eval_u_prime(u, X @ phi))


def _row_blocks(X: np.ndarray, a: np.ndarray | None, c: np.ndarray | None,
                buf: np.ndarray | None = None):
    """(X @ a, X diag(c) X.T) for the (K, n) matrix X and c >= 0,
    accumulated over blocks of ROW_BLOCK columns of X in order, so the sums
    do not depend on the BLAS thread count.  With a or c None that half is
    None and is not formed; each half's sweep is the same alone as with
    the other, bit for bit.  The second is a sum of S_b @ S_b.T with
    S_b = X_b sqrt(c_b), written with sqrt(c_b) into buf, of at least
    (K + 1) min(n, ROW_BLOCK) values (default: a new one); a block whose c
    is all zero adds only zeros there and is skipped.  Both are formed on
    panels of at most PANEL rows of X_b and S_b: numpy runs a panel's own
    product with itself as a syrk, and the upper panel pairs' products are
    mirrored once at the end."""
    K, n = X.shape
    panels = [slice(i, i + PANEL) for i in range(0, K, PANEL)]
    g = G = None
    if a is not None:
        g = np.zeros(K)
        for start in range(0, n, ROW_BLOCK):
            cols = slice(start, start + ROW_BLOCK)
            for p in panels:
                g[p] += X[p, cols] @ a[cols]
    if c is not None:
        G = np.zeros((K, K))
        if buf is None:
            buf = np.empty((K + 1) * min(n, ROW_BLOCK))
        for start in range(0, n, ROW_BLOCK):
            cols = slice(start, start + ROW_BLOCK)
            if not c[cols].any():
                continue
            Xb = X[:, cols]
            root = np.sqrt(c[cols], out=buf[Xb.size:Xb.size + Xb.shape[1]])
            S = np.multiply(Xb, root, out=buf[:Xb.size].reshape(Xb.shape))
            for i, p in enumerate(panels):
                for q in panels[i:]:
                    G[p, q] += S[p] @ S[q].T
        for i, p in enumerate(panels):
            for q in panels[i + 1:]:
                G[q, p] = G[p, q].T
    return g, G


def _panel_sums(X: np.ndarray, Y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """X @ Y.T for the (k, L) X and (m, L) Y, written into out: a sum of
    products of panels of at most PANEL rows of X and of Y, over pieces of
    their columns, in order, of ROW_BLOCK columns and then of power-of-two
    widths.  OpenBLAS splits such a product over its outputs alone, alike
    over 1 and 2 threads, while a ragged inner width (2000 columns, say) is
    threaded with other last bits."""
    out[...] = 0.0
    L, start = X.shape[1], 0
    while start < L:
        cols = slice(start, start + min(ROW_BLOCK, 1 << ((L - start).bit_length() - 1)))
        for i in range(0, X.shape[0], PANEL):
            for j in range(0, Y.shape[0], PANEL):
                out[i:i + PANEL, j:j + PANEL] += X[i:i + PANEL, cols] @ Y[j:j + PANEL, cols].T
        start = cols.stop
    return out


def _outer_sum(xs, phi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """v = X @ phi on the product of the supports xs, last coordinate
    fastest, written into out: sum_i phi_i x_i, added from the last
    coordinate to the first.  phi may be (S, K), S strategies, with out
    (S, n): each row of out is then the one-strategy call's, bit for bit,
    at the cost of one call's numpy calls.  Each step prepends an axis:
    chunk j of the grown prefix is phi_i x_ij plus the old prefix, which
    chunk 0 holds; chunks 1 to m_i - 1 come from one broadcast add."""
    stack = out.shape[:-1]
    size = 1
    out[..., 0] = 0.0
    for i in range(len(xs) - 1, -1, -1):
        t = phi[..., i, None] * xs[i]
        old = out[..., :size]
        np.add(t[..., 1:, None], old[..., None, :],
               out=out[..., size:t.shape[-1] * size].reshape(stack + (t.shape[-1] - 1, size)))
        old += t[..., :1]
        size *= t.shape[-1]
    return out[..., :size]


def _tile_split(xs) -> tuple[int, int]:
    """(lead, tile): the tile is the longest suffix xs[lead:] of the
    supports whose product has at most ROW_BLOCK points, and at least the
    last support; tile is its number of points."""
    lead, tile = len(xs) - 1, xs[-1].size
    while lead > 0 and tile * xs[lead - 1].size <= ROW_BLOCK:
        lead -= 1
        tile *= xs[lead].size
    return lead, tile


def _product_form(s: ScenarioSet) -> bool:
    """Whether every sum over the payoffs of s runs in product form: the
    solve (``_grid_value``, ``_grid_pass``), the Hoelder chain's sides and
    the exponential-moment cap (``diagnostics._product_sides``,
    ``_product_exp_abs``).  True only for an exact set whose split
    (``_tile_split``) has heads and that has more than _PRODUCT_ROWS rows,
    enough to repay the sorted tile's fixed run of numpy calls per value
    call or strategy.  It reads the whole set's support sizes, so every
    ladder level and every check of one set takes the same path.

    Measured on one CPU over 85 set shapes, for a solve, 25 strategies'
    Hoelder sides and a 25-trial exp cap, with the rows' one-off build on
    the row path: from 2^15 Rademacher rows on, product form is faster
    for both utility kinds (0.73 and 0.71 of the rows' time; 0.13 and
    0.30 at 2^19); at 2^14 rows it takes 1.21 and 0.93 of it, and smaller
    sets and sets of one law run up to 6 times faster on their rows.  Two
    kinds of shape pass and lose more than twice to their rows: a tile of
    2 to 6 points under 8 000 to 100 000 heads (up to 2.8 times) and 2
    heads over a 20 001-point tile (2.6 times).  A rule that sent such
    sets to their rows would let one near the enumeration cap (a law of
    1953 points among nine two-point laws, 999 936 rows) build 88 MB of
    rows.

    A set that fails reads its rows and weights (``ScenarioSet.draws`` and
    ``weights``, built on first read and kept): 8 n (K + 1) bytes.  With
    no heads it is one law or a set of at most ROW_BLOCK rows, and with
    heads it has at most _PRODUCT_ROWS rows, and a market's law has at
    least two points, so K <= log2(n).  So an enumeration that fails
    builds at most 16 MB, for one law at the enumeration cap of 10^6
    points, and otherwise at most 8 _PRODUCT_ROWS (log2(_PRODUCT_ROWS) + 1)
    bytes, under 2 MB."""
    if not s.is_exact:
        return False
    lead, _ = _tile_split([x for x, _ in s._laws])
    return lead > 0 and s.n > _PRODUCT_ROWS


def _grid_payoffs(xs, phis: np.ndarray) -> np.ndarray:
    """(T, prod of sizes) payoffs of the T strategies phis on the product of
    the supports xs, last coordinate fastest: one ``_outer_sum`` for all
    of them, which adds the coordinates from the last to the first."""
    return _outer_sum(xs, phis, np.empty((phis.shape[0], math.prod(x.size for x in xs))))


def _running_sums(terms: np.ndarray) -> np.ndarray:
    """The L + 1 sums of the first 0, 1, ..., L of the L terms, in order:
    one after the other within pieces of at most ROW_BLOCK terms, each
    piece added to the total before it."""
    sums = np.empty(terms.size + 1)
    sums[0] = 0.0
    for start in range(0, terms.size, ROW_BLOCK):
        piece = sums[start + 1:start + 1 + ROW_BLOCK]
        np.cumsum(terms[start:start + ROW_BLOCK], out=piece)
        piece += sums[start]
    return sums


def _sorted_tile(t: np.ndarray, w: np.ndarray):
    """(order, t[order], w[order]): the tile's payoffs t and weights w at
    its points of positive weight, in ascending order of t.  The sort is a
    heapsort: as fast here as numpy's default quicksort, which numpy may
    run as a SIMD kernel that orders ties differently by machine."""
    live = np.flatnonzero(w > 0)
    order = live[np.argsort(t[live], kind="heapsort")]
    return order, t[order], w[order]


def _staircase(kernel, h, k, t, w, g: int, scratch: np.ndarray, rising: bool,
               wh=None, cols=None, rows=None, cross=None):
    """(sums, edges) for the heads h with splits k on the sorted tile t
    with weights w, taken g heads at a time.  A group's edge is its
    smallest split (rising) or its largest, and its cut is the tile from
    the edge on (rising) or up to it.  sums[i] is the sum over the cut of
    w_t kernel(max(h_i + t, 0)) (rising) or w_t kernel(min(0, h_i + t)),
    and edges[i] the edge of head i's group.  With a split k_i = the
    number of t <= -h_i, a rising cut holds every row of its heads above 0
    and a falling cut every row at or below 0; a head's rows between its
    split and its group's edge take kernel(0).

    With wh and cols, the column sums over the group,
    sum_i wh_i kernel(...), are added into cols along the cut, a head at a
    time.  With rows, a (k, T) array of values on the sorted tile, and
    cross, a (k, len(h)) array, cross[j, i] is the sum over the cut of
    w_t kernel(...) rows[j, t].

    A group's rows are one C-ordered (heads, cut) block of scratch[0],
    clamped and overwritten with the kernel's values in place (``_side``,
    the row walk's clamp); scratch[1] is the kernel's own scratch.  Each row
    of values is weighted by w and summed pairwise along the tile.  The
    sums against rows are products of the weighted block and the rows'
    cut (``_panel_sums``), the only BLAS calls here, which do not depend
    on the BLAS thread count."""
    side = _side(kernel, rising)
    sums = np.empty(h.size)
    edges = np.empty(h.size, dtype=np.intp)
    for start in range(0, h.size, g):
        group = slice(start, start + g)
        hs, ks = h[group], k[group]
        edge = int(ks.min()) if rising else int(ks.max())
        edges[group] = edge
        cut = slice(edge, None) if rising else slice(0, edge)
        tc = t[cut]
        block = scratch[0, :hs.size * tc.size].reshape(hs.size, tc.size)
        tmp = scratch[1, :block.size].reshape(block.shape)
        np.add(hs[:, None], tc, out=block)
        side(block, block, tmp)
        if cols is not None:
            np.multiply(block, wh[group, None], out=tmp)
            cols[cut] += np.add.reduce(tmp, axis=0)
        block *= w[cut]
        np.add.reduce(block, axis=1, out=sums[group])
        if rows is not None:
            _panel_sums(rows[:, cut], block, cross[:, group])
    return sums, edges


def _by_split(k, g: int, *more):
    """(k, *more) in the order of the splits k, ties kept, where there are
    more than g heads, so that each staircase group holds neighbouring
    splits; as given otherwise."""
    if k.size <= g:
        return (k, *more)
    by = np.argsort(k, kind="stable")
    return (k[by], *(x[by] for x in more))


def _linear_loss(slope: float, h, k, below, lower):
    """slope (h W(t <= -h) + sum_{t <= -h} w_t t) for each head h with
    split k: the sum over its rows at or below 0 of w_t u(h + t), where
    u(Y) = slope Y there, read from the sorted tile's running sums below
    of w and lower of w t (``_running_sums``)."""
    loss = h * below[k]
    loss += lower[k]
    loss *= slope
    return loss


def _scatter(x: np.ndarray, w: np.ndarray, at: np.ndarray, size: int) -> np.ndarray:
    """x * w, written over x, put at the indices at along the last axis of
    zeros of that length."""
    x *= w
    out = np.zeros(x.shape[:-1] + (size,))
    out[..., at] = x
    return out


def _grid_value(u: Utility, xs, probs):
    """value for a solve on the product of the centred supports xs with
    the laws' probabilities probs.  value(p) gives f = E[u(V(p))] and the
    memo (p, sums, curvature), with w u'(V(p)) and -w u''(V(p)) read as
    (H, T) matrices on the split that the Hoelder chain also takes
    (``_tile_split``).  sums() gives (r, s), the first one's row sums, one
    per head, and column sums, one per tile point.  curvature(tiles) gives
    the second one's (r, s, q), with q[j] its row sums against tile
    coordinate j of the (kt, T) tile design tiles (``_grid_pass``).

    Each value call forms the payoffs V = h + t of the heads h and of the
    tile t (``_grid_payoffs``), sorts the tile once (``_sorted_tile``) and
    finds each head's split, the number of t <= -h, by one searchsorted:
    h + t > 0 exactly on the tile from the split on.  Heads and tile
    points of zero weight are left out.  The heads, sorted by split
    (``_by_split``), go in groups of g, with g T about _STAIR rows, through
    a rising staircase (``_staircase``): each group's block h + t from its
    smallest split on runs u's gain kernel once and gives the weighted row
    sums.  sums() runs u' and curvature() u'' on the same staircase over
    the memo's sorted tile, with the column sums, so a line-search trial
    that is not taken costs neither.  Every kernel f satisfies
    f(Y) = f(max(Y, 0)) + f(min(0, Y)) - f(0).

    * Where u(Y) = a Y on Y <= 0 (``_Kernels.loss_slope``; appendix power)
      the rows at or below 0 are running sums read at the split,
      a (h W(t <= -h) + sum_{t <= -h} w_t t), for u (``_linear_loss``),
      and a W for u', whose rows before the group's edge (a row's W) and
      whose columns before the edges of groups (a column's W) are the
      ones the blocks leave out.
    * Otherwise (a table) the mirrored staircase runs the loss kernel, or
      u', on each group's rows up to its largest split, and a row or
      column between a group's two edges, counted on both sides, gives
      back f(0) once.
    * u'' runs on the rising staircase alone: u'' = 0 on Y <= 0 for every
      kind (``_Kernels``), u''(0) included.  Its sums against the tile
      design read it in the sorted tile's order, one gather a call.

    The only buffer kept is a staircase group's block and its kernel
    scratch (2 min(g, H) T values), which every call overwrites, so a memo
    stays valid after later value calls; no array of the grid's size is
    formed.

    Error, in units of 2^-53, against exact sums over the rows h + t, on
    which u, u' and u'' are the kernels' values (h + t differs from the
    outer sum X @ p only in the rounding of its adds), each row weighted
    by its head's weight times its tile point's.  f is within
    (log2(n) + 4) E[|u(V)| + |u(0)|], from the pairwise row sums along
    the tile and the pairwise sum over the heads, plus
    (min(T, ROW_BLOCK) + T / ROW_BLOCK + 4) a E[|h| + |t|] from a linear
    loss side's running sums.  Each entry of r and s is within H + T + 4
    of its exact value, relatively to the sum of its terms' magnitudes,
    |u'(V)| + |u'(0)| each: a column sum adds the H heads' values one
    after the other, and the f(0) terms come from running sums over the
    tile and over the groups' edges.  The gradient's gemvs add max(H, T).
    Each entry (i, j) of the Hessian that ``_grid_pass`` forms is within
    H + T + 32, relatively to the sum of its terms' magnitudes,
    |x_i x_j u''(V)| each: r is pairwise along the tile (log2(T) + 12), s
    and q add terms in order, and ``_row_blocks`` adds H or T more.  The
    only BLAS calls here are ``_panel_sums``', so the sums do not depend
    on the BLAS thread count.
    """
    lead, T = _tile_split(xs)
    kernels = u._kernels
    slope = kernels.loss_slope
    u0, p0 = eval_u(u, 0.0), eval_u_prime(u, 0.0)
    head_w = _product_weights(probs[:lead])
    tile_w = _product_weights(probs[lead:])
    H, live = head_w.size, np.flatnonzero(head_w > 0)
    g = max(1, _STAIR // T)
    stair = np.empty((2, min(g, live.size) * T))

    def value(p):
        h = _grid_payoffs(xs[:lead], p[None, :lead])[0, live]
        order, t, wt = _sorted_tile(_grid_payoffs(xs[lead:], p[None, lead:])[0], tile_w)
        k = np.searchsorted(t, -h, side="right")
        k, h, wh, heads = _by_split(k, g, h, head_w[live], live)
        below = _running_sums(wt)  # below[j]: the weight of t[:j]
        fu, rise = _staircase(kernels.gain, h, k, t, wt, g, stair, True)
        if slope is None:
            lu, fall = _staircase(kernels.loss, h, k, t, wt, g, stair, False)
            both = below[fall] - below[rise]  # the weight of a row's cuts' overlap
            fu += lu
            fu -= u0 * both
        else:
            fu += _linear_loss(slope, h, k, below, _running_sums(wt * t))
        fu *= wh

        def sums():
            cols = np.zeros(t.size)
            fp, _ = _staircase(kernels.prime, h, k, t, wt, g, stair, True, wh, cols)
            if slope is None:
                lp, _ = _staircase(kernels.prime, h, k, t, wt, g, stair, False, wh, cols)
                fp += lp
                fp -= p0 * both
                # a column's weight in groups whose two edges lie on its two sides
                overlap = np.cumsum(np.bincount(rise, wh, t.size + 1)
                                    - np.bincount(fall, wh, t.size + 1))[:-1]
                cols -= p0 * overlap
            else:
                fp += slope * below[rise]
                # a column's weight in groups whose edge lies above it
                cols += slope * np.cumsum(np.bincount(rise, wh, t.size + 1)[:0:-1])[::-1]
            return _scatter(fp, wh, heads, H), _scatter(cols, wt, order, T)

        def curvature(tiles):
            cols = np.zeros(t.size)
            rows = tiles[:, order] if lead else tiles[:0]
            cross = np.empty((rows.shape[0], h.size))
            fc, _ = _staircase(kernels.second, h, k, t, wt, g, stair, True, wh, cols,
                               rows, cross)
            return (_scatter(np.negative(fc, out=fc), wh, heads, H),
                    _scatter(np.negative(cols, out=cols), wt, order, T),
                    _scatter(np.negative(cross, out=cross), wh, heads, H))
        return float(np.sum(fu)), (p, sums, curvature)
    return value


def _grid_pass(xs):
    """step_pass(memo) for a solve on the product of the supports xs, from
    ``_grid_value``'s memo (p, sums, curvature).  The grid reads as an
    (H, T) matrix on the split that the Hoelder chain also takes
    (``_tile_split``): heads is the (lead, H) design of the leading
    coordinates and tiles the (kt, T) design of the tile's, both
    ``_grid_payoffs`` on unit strategies, built once.  step_pass gives the
    gradient (heads @ r, tiles @ s) with (r, s) = sums(), each
    ``_row_blocks`` on a design, and a callable for the Hessian at p.
    That callable takes (r, s, q) = curvature(tiles) and forms
    -heads diag(r) heads.T and -tiles diag(s) tiles.T by ``_row_blocks``,
    and the block across heads and tile as -heads @ q[j] for each tile
    coordinate j, a ``_row_blocks`` gemv each.  At p = 0 it returns the
    zero matrix with no pass, since u''(0) = 0 for every utility kind,
    and where r is all zero (a table, whose u'' is 0) the zero matrix with
    no reduction."""
    lead, _ = _tile_split(xs)
    heads = _grid_payoffs(xs[:lead], np.eye(lead))
    tiles = _grid_payoffs(xs[lead:], np.eye(len(xs) - lead))

    def step_pass(memo):
        p, sums, curvature = memo
        r, s = sums()
        g = np.concatenate((_row_blocks(heads, r, None)[0], _row_blocks(tiles, s, None)[0]))

        def hessian():
            G = np.zeros((p.size, p.size))
            if not p.any():
                return G
            r, s, q = curvature(tiles)
            if not r.any():  # a table: u'' = 0
                return G
            G[:lead, :lead] = _row_blocks(heads, None, r)[1]
            G[lead:, lead:] = _row_blocks(tiles, None, s)[1]
            for j, qj in enumerate(q):
                G[:lead, lead + j] = _row_blocks(heads, qj, None)[0]
            G[lead:, :lead] = G[:lead, lead:].T
            return np.negative(G, out=G)
        return g, hessian, None
    return step_pass


def _newton_pass(u: Utility, blocks, w: np.ndarray, p: np.ndarray,
                 v: np.ndarray, a: np.ndarray, c: np.ndarray):
    """The gradient at p from the payoffs v = X @ p, and a callable for
    the Hessian there, with blocks(a, c) = (X.T @ a, X.T diag(c) X) and
    either argument None to form one half; -w u'' >= 0 for every utility
    kind.  a and c are buffers of v's length: w u'(v) is written into a,
    and the callable writes -w u''(v) into c, so v must not change before
    it runs.  At p = 0 the callable returns the zero matrix with no pass,
    since u''(0) = 0 for every utility kind."""
    eval_u_prime(u, v, out=a)
    a *= w
    g, _ = blocks(a, None)

    def hessian():
        if not p.any():
            return np.zeros((p.size, p.size))
        curv = eval_u_second(u, v, out=c)
        curv *= w
        return -blocks(None, np.negative(curv, out=curv))[1]
    return g, hessian, None


def _damped_newton(step_pass, value, x: np.ndarray, done, max_iter: int,
                   slack: float):
    """Ascend a concave f from x.  value(x) gives (f, memo), and
    step_pass(memo) gives (g, hessian, aux) at that point, so the line
    search's accepted trial is never evaluated again.  hessian() gives H
    there; the loop calls it only to take a step, after done(g, aux) has
    failed and before the next value call, so no pass that ends the loop
    forms a Hessian.

    The direction is d = (||g||^2 I - H)^{-1} g, with the current g, and
    Armijo halving picks the step, accepting a fall of f within
    slack * max(1, |f|).  H is a Newton-chord one: a step reuses the last
    step's H, and forms it afresh only when that H is all zero (as at
    phi = 0, where u''(0) = 0 and the solver's passes form it with no pass
    over the rows, or for a table), when the last step backtracked or itself
    reused H, or when the held H predicts a gain g . d within the slack,
    which is then decided on a fresh H.  The loop stops when done(g, aux)
    holds, after max_iter steps, when no step moves x, or after a step
    whose predicted gain is within that slack.  Returns
    (x, f, g, aux, steps).
    """
    f, memo = value(x)
    g, hessian, aux = step_pass(memo)
    steps = 0
    flat = reuse = False
    while steps < max_iter and not flat and not done(g, aux):
        gn = float(np.linalg.norm(g))
        shift = gn * gn * np.eye(x.size)
        tol = slack * max(1.0, abs(f))
        if not reuse:
            H = hessian()
        d = np.linalg.solve(shift - H, g)
        if reuse and g @ d <= tol:  # a held H predicts a flat step
            reuse, H = False, hessian()
            d = np.linalg.solve(shift - H, g)
        slope = float(g @ d)
        flat = slope <= tol
        t = 1.0
        while t > 1e-18:
            cand = x + t * d
            f_cand, memo = value(cand)
            if f_cand >= f + 1e-4 * t * slope - tol:
                break
            t *= 0.5
        if t <= 1e-18 or np.array_equal(cand, x):
            break  # no ascent step that moves x; report the best iterate
        x, f = cand, f_cand
        g, hessian, aux = step_pass(memo)
        steps += 1
        reuse = not reuse and t == 1.0 and bool(H.any())
    return x, f, g, aux, steps


def _tilt(X: np.ndarray, w: np.ndarray, lam: np.ndarray):
    """L(lam) = log sum_j w_j exp(x_j . lam), max-shifted, and the tilted
    weights y = w e^{z} / sum(w e^{z}), with z = lam @ X for the (K, n)
    matrix X."""
    z = _payoffs(X, lam)
    zmax = float(z.max())
    e = w * np.exp(z - zmax)
    total = float(np.sum(e))
    return zmax + math.log(total), e / total


def _no_arbitrage_certificate(X: np.ndarray, w: np.ndarray) -> bool:
    """True if no phi with ||phi||_inf <= 1 and phi @ X >= 0 reaches 1e-9
    on any column of the (K, n) matrix X, that is, on any scenario.

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
    def neg_log_mass(lam):
        L, y = _tilt(X, w, lam)
        return -L, y

    def rogers_pass(y):
        r, _ = _row_blocks(X, y, None)
        return -r, lambda: np.outer(r, r) - _row_blocks(X, None, y)[1], y

    def bound_small(g, y):
        return float(np.abs(g).sum()) < 1e-9 * float(y.min())

    _, _, g, y, _ = _damped_newton(rogers_pass, neg_log_mass,
                                   np.zeros(X.shape[0]), bound_small,
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
    On an exact set in product form (``_product_form``, decided on the
    whole set, so every level of one set takes the same path) the solve
    runs over the first K of the set's own laws' supports: the level's
    grid points, weighted by the product of those K laws' probabilities,
    stand for the duplicated rows, and no centred copy of the draws is
    made.  Any other set, an exact one included, is solved on its rows:
    two n-length buffers live as long as the solve, one holds w u'(v) and
    the other w u''(v) and the line search's w u(v), since w u''(v) is dead
    once the Hessian is formed.  In product form no n-length array is
    formed, and neither the set's rows nor its weights are built: the
    value calls run the staircase in one group's block (``_grid_value``),
    and the pass reads the value call's memo, its sorted tile, splits and
    head groups, for the gradient and the Hessian (``_grid_pass``), on
    the head and tile designs, which are built once; ``_row_blocks`` and
    ``_panel_sums`` run the pass's only BLAS calls.  The loop is
    ``_damped_newton``'s, with its Newton-chord Hessian.  The first step's,
    at phi = 0, is zero, since u''(0) = 0, and both passes return it with
    no pass over the rows; a zero Hessian is never reused, so the second
    step forms one; from there the step after a full step on a fresh
    Hessian reuses it, so a solve with no backtracking forms about half as
    many Hessians as it takes steps (a table, u'' = 0, forms one on every
    step).
    """
    cfg = cfg or SolverConfig()
    K = model.K if K is None else K
    top = min(model.K, s.K)
    if not model.m <= K <= top:
        raise ValueError(f"truncation level {K} outside [{model.m}, {top}]")
    flagged = tuple(i for i in check_no_arbitrage(model).flagged if i <= K)
    if flagged:
        raise ArbitrageError(
            f"no-arbitrage condition fails at coordinates {flagged}"
        )
    if _product_form(s):
        laws = s._laws[:K]
        xs = [x - b for (x, _), b in zip(laws, model.b)]
        value = _grid_value(u, xs, [p for _, p in laws])
        step_pass = _grid_pass(xs)
    else:
        X = _centered(s.draws[:, :K], model.b[:K], np.empty((K, s.n)))
        w = s.weights
        a_buf, c_buf = np.empty(s.n), np.empty(s.n)
        blocks = lambda a, c: _row_blocks(X, a, c)

        def value(p):
            v = _payoffs(X, p)
            return _expected_u(u, w, v, c_buf), (p, v)
        step_pass = lambda memo: _newton_pass(u, blocks, w, *memo, a_buf, c_buf)
    phi, f, g, _, it = _damped_newton(
        step_pass, value, np.zeros(K),
        lambda g, _: float(np.linalg.norm(g)) <= cfg.grad_tol, cfg.max_iter, slack=0.0)
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
      eps_i - b_i, read from the set's own laws, share one sign and are
      not all zero, and then +-e_i is a witness.  Zero-weight support
      points count as rows.
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
    _require_width(model, s)
    if s.is_exact:
        for i, (pts, _) in enumerate(s._laws[:K]):
            x = pts - model.b[i]
            if (x.min() >= 0 or x.max() <= 0) and x.any():
                phi = np.zeros(K)
                phi[i] = 1.0 if x.max() > 0 else -1.0
                # the rows' payoffs under +-e_i are coordinate i's points
                if _pays_off(x[None, :], phi[i:i + 1]):
                    return True, phi
        return False, None
    X_all = _centered(s.draws[:, :K], model.b, np.empty((K, s.n)))
    if s.weights.min() > 0 and _no_arbitrage_certificate(X_all, s.weights):
        return False, None
    # imported here so that apmopt loads scipy only for this fallback
    from scipy.optimize import linprog

    X = X_all[:, :direction_budget].T
    res = linprog(-X.sum(axis=0), A_ub=-X, b_ub=np.zeros(X.shape[0]),
                  bounds=[(-1.0, 1.0)] * K, method="highs")
    if res.status == 0 and _pays_off(X_all, res.x):
        return True, res.x
    return False, None


def _require_width(model: MarketModel, s: ScenarioSet) -> None:
    """Refuse a scenario set with fewer coordinates than the market."""
    if s.K < model.K:
        raise ValueError(f"scenario set has {s.K} coordinates; the market has K={model.K}")


def _pays_off(X: np.ndarray, phi: np.ndarray) -> bool:
    """phi @ X is >= 0 on every column of the (K, n) matrix X (to -1e-12)
    and > 1e-9 on some."""
    vals = _payoffs(X, phi)
    return bool(vals.min() >= -1e-12 and vals.max() > 1e-9)
