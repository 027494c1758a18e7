"""Verification of the moment bounds and side conditions behind the
existence theory, plus report assembly.

Three families of checks:

* exponential moment bound: E[exp|sum phi_i eps_i|] <= 2 exp(C ||phi||^2)
  for small strategies, with the constant fitted from measurements;
* the Hoelder chain capping E[u(Y+)] through E[u(-Y-)] and the density
  moments of a drift-killing measure;
* the two alternative assumption sets (tail positivity + uniform
  integrability vs sub-Gaussian moments + per-coordinate no-arbitrage),
  which are logically independent of each other.

The Hoelder chain and the exponential moment read every strategy's
payoff on every scenario row, on one of two paths, which one rule picks
for the whole set (``optimize._product_form``, which the solver reads
too).  An exact set with heads and more than ``optimize._PRODUCT_ROWS``
rows runs in product form, and its rows are never built: each payoff
splits into a sum over a tile of trailing coordinates and one over the
leading coordinates (a head), which are independent.  With each
strategy's tile payoffs sorted, a row h + t is above 0 exactly on a
suffix of the tile, found by one searchsorted per head.  The Hoelder
sums run as the staircase that the exact solver's value and gradient
also run (``optimize._staircase``): heads sorted by that split go in
groups, each group's rows above its smallest split form one block, and
the side's own kernel runs on it once, so the Python work is per group
of heads, not per head; u(0) enters through the tile weights' prefix and
suffix sums, and a loss side that is linear (appendix power) is two
running sums read at the split.  The exponential moment is a closed form
over the same sorted tiles, with exp run on the tile's and the heads'
payoffs, not on every row.  The strategies' tile payoffs are formed for
many strategies per numpy call (``optimize._grid_payoffs``).  Every other
set, an exact one included, is walked row by row, in fixed-order blocks
of at most ``optimize.ROW_BLOCK`` rows, so its temporaries are a block's
size, never a column's, and its payoffs come from the solver's kernels:
a centred block (``optimize._centered``) and gemms of power-of-two widths
(``optimize._payoffs``).
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .distributions import estimate_exp_moment, tail_probability, truncated_second_moment
from .market import MarketModel, check_assumption_b, check_no_arbitrage
from .measures import (TiltedMeasure, _coordinate_means, _density_moments, _residuals,
                       _support_factors)
from .optimize import (_STAIR, ROW_BLOCK, _by_split, _centered, _grid_payoffs, _linear_loss,
                       _payoffs, _product_form, _require_width, _running_sums, _sorted_tile,
                       _staircase, _tile_split)
from .scenarios import ScenarioSet, _product_weights, _seed
from .utility import Utility, _split_u, certify_growth, eval_u

__all__ = [
    "random_strategies",
    "exp_ui_bound",
    "holder_chain_check",
    "check_assumption_relevant",
    "subgaussian_scan",
    "assemble_report",
    "emit_report",
]

GAMMA_GRID = (0.25, 0.5, 1.0, 2.0)  # subgaussian_scan's exponents
X_GRID = (0.0, 0.5, 1.0, 2.0, 4.0)  # check_assumption_relevant's tail levels
N_GRID = (1.0, 2.0, 4.0, 8.0)       # and its truncation levels


_U32 = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)
# Philox4x64's multipliers of words 0 and 2, and its Weyl key bumps (Salmon
# et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)


def _philox_uniforms(key: int, size: tuple[int, ...]) -> np.ndarray:
    """numpy's ``Generator(Philox(key=key)).uniform(-1.0, 1.0, size)``, byte
    for byte, without importing numpy.random.

    The key's words are key mod 2**64 and key >> 64, and the counters run
    from 1.  Each counter takes ten Philox4x64 rounds, with the 64x64 ->
    128-bit products formed on 32-bit halves in uint64, and gives four
    words, in order; a word x gives the draw -1 + 2 (x >> 11) 2**-53.
    """
    count = math.prod(size)
    c = np.zeros((4, -(-count // 4)), dtype=np.uint64)
    c[0] = np.arange(1, c.shape[1] + 1)
    k = np.array([[key & (2 ** 64 - 1)], [key >> 64]], dtype=np.uint64)
    m_lo, m_hi = _PHILOX_M & _LOW, _PHILOX_M >> _U32
    for _ in range(10):
        x = c[0::2]
        x_lo, x_hi = x & _LOW, x >> _U32
        ll, lh, hl = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
        carry = ((ll >> _U32) + (lh & _LOW) + (hl & _LOW)) >> _U32
        hi = m_hi * x_hi + (lh >> _U32) + (hl >> _U32) + carry
        c = np.stack((hi[1] ^ c[1] ^ k[0], _PHILOX_M[1] * x[1],
                      hi[0] ^ c[3] ^ k[1], _PHILOX_M[0] * x[0]))
        k = k + _PHILOX_W
    words = c.T.reshape(-1)[:count] >> np.uint64(11)
    return (-1.0 + 2.0 * (words * 2.0 ** -53)).reshape(size)


def random_strategies(K: int, count: int, max_norm: float, seed: int) -> np.ndarray:
    """(count, K) strategies: i.i.d. uniform[-1,1] coordinates, numpy's
    Philox stream keyed by seed (``_philox_uniforms``), rescaled so the
    norms sweep (0, max_norm].  A negative K or count, a negative or
    non-finite max_norm and a seed that is not an integer in the Philox
    key range [0, 2**128) are refused with a ValueError."""
    if K < 0:
        raise ValueError(f"strategy width K must be >= 0, got {K}")
    if count < 0:
        raise ValueError(f"strategy count must be >= 0, got {count}")
    seed = _seed(seed, 128)
    if not 0.0 <= max_norm < math.inf:
        raise ValueError(f"max_norm must be finite and >= 0, got {max_norm}")
    raw = _philox_uniforms(seed, (count, K))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    targets = max_norm * (np.arange(1, count + 1) / count)[:, None]
    return raw / norms * targets


def _strategy_sums(s: ScenarioSet, phis: np.ndarray, shift: np.ndarray,
                   values) -> np.ndarray:
    """(q, T) array of E[v(Y)] for each of the q arrays v(Y) that values(Y)
    returns, with Y = phis @ (eps - shift).T the T strategies' payoffs on
    a block of rows; the walk weights those arrays in place.

    One walk over the rows of s, an exact set's included (``draws`` and
    ``weights``, built on first read), in fixed-order blocks of ROW_BLOCK
    rows: each block is centred into a C-ordered (k, rows) buffer
    (``_centered``), which a column-major sample fills from contiguous
    columns, its payoffs come from ``_payoffs``, whose power-of-two widths
    keep them independent of the BLAS thread count, and it sums its
    weighted values pairwise.  The block sums are then summed pairwise in
    order, so the rounding stays within expectation's
    log2(n) * 2^-52 * sum |w * v|.
    """
    k = phis.shape[1]
    buf = np.empty(k * min(ROW_BLOCK, s.n))
    blocks = []
    for start in range(0, s.n, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        draws = s.draws[rows, :k]
        X = _centered(draws, shift[:k], buf[:draws.size].reshape(draws.shape[::-1]))
        w = s.weights[rows]
        sums = []
        for v in values(_payoffs(X, phis)):
            v *= w
            sums.append(np.sum(v, axis=1))
        blocks.append(np.stack(sums))
    return np.sum(np.stack(blocks, axis=-1), axis=-1)


def _sorted_tiles(laws, phis: np.ndarray, shift: np.ndarray):
    """Per strategy of phis, in order, (t, w, h, wh, k) on the product of
    laws = [(points, probs)], the first phis.shape[1] supports less shift;
    strategies narrower than the laws pay nothing on the other
    coordinates.  Each payoff splits as Y = h + t over the tile of
    trailing coordinates (``_tile_split``), h on the leading coordinates
    and t on the tile, which are independent under the product weights.

    t holds the strategy's tile payoffs, zero-probability points left out,
    sorted (``_sorted_tile``), and w their weights; the tile payoffs are
    formed for max(1, _STAIR // T) strategies at a time, one numpy call
    per coordinate and step for all of them (``_grid_payoffs``).  h holds
    its head payoffs, zero-weight heads left out, from one
    ``_grid_payoffs`` call, wh their weights, and k their splits, the
    number of t <= -h, by one searchsorted on -h.  A row h + t is > 0
    exactly where t > -h, that is on t[k:]: -h is exact, and a sum of two
    floats rounds to 0 only where it is 0.  Every temporary holds the
    heads, the tile, or the tiles of a block of strategies.
    """
    k = phis.shape[1]
    xs = [x - b for (x, _), b in zip(laws, shift[:k])] + [x for x, _ in laws[k:]]
    full = np.zeros((len(phis), len(xs)))
    full[:, :k] = phis
    lead, _ = _tile_split(xs)
    w_tile = _product_weights([p for _, p in laws[lead:]])
    w_head = _product_weights([p for _, p in laws[:lead]])
    live = np.flatnonzero(w_head > 0)
    wh = w_head[live]
    chunk = max(1, _STAIR // w_tile.size)
    for start in range(0, len(full), chunk):
        tiles = _grid_payoffs(xs[lead:], full[start:start + chunk, lead:])
        for j, tile in enumerate(tiles, start):
            _, t, w = _sorted_tile(tile, w_tile)
            h = _grid_payoffs(xs[:lead], full[j:j + 1, :lead])[0, live]
            yield t, w, h, wh, np.searchsorted(t, -h, side="right")


def _product_exp_abs(laws, phis: np.ndarray) -> np.ndarray:
    """E[exp|Y|] for each of the strategies phis, with Y = sum_i phi_i
    eps_i on the product of laws = [(points, probs)], in closed form.
    Strategies narrower than the laws pay nothing on the other
    coordinates.

    On the split Y = h + t of ``_sorted_tiles``,

        E[exp|Y|] = sum_h w_h (e^(h + t_max) sum_{t > -h} w_t e^(t - t_max)
                               + e^-(h + t_min) sum_{t <= -h} w_t e^(t_min - t)).

    The two sums are suffix and prefix sums over the sorted tile
    (``_running_sums``), read at each head's split.  So exp runs on the
    tile and the heads, not on every row.  The shifts keep each term at
    most its weight, and every term is positive, so nothing cancels:

    * an empty side is a zero sum times e^x with x <= 0, exactly 0;
    * where exp|Y| overflows at a point of positive weight, its side is
      e^x = inf times a positive sum, so the value is inf where the row
      walk's is; zero-probability points add nothing, even where the row
      walk's inf * 0 gives NaN;
    * a tile sum of L terms is within (ROW_BLOCK + L / ROW_BLOCK) 2^-53 of
      its exact value, relatively, and the pairwise sum over the heads
      within log2(heads) 2^-53; each exp and its rounded argument add a
      few 2^-53 (1 + |h| + |t| + |t_max| + |t_min|).  At payoffs of order
      1 that is at most about 5e-13 of the value, inside the 1e-12 by
      which an exact set's results may differ from its rows'.

    No BLAS call runs.  The strategies are taken one at a time, so every
    temporary holds the heads or the tile.
    """
    values = np.empty(len(phis))
    for j, (t, w, h, wh, k) in enumerate(_sorted_tiles(laws, phis, np.zeros(phis.shape[1]))):
        above = np.exp(t - t[-1])
        above *= w
        above = _running_sums(above[::-1])[::-1]  # above[k]: over t[k:]
        below = np.exp(t[0] - t)
        below *= w
        below = _running_sums(below)  # below[k]: over t[:k]
        v = np.exp(h + t[-1])
        v *= above[k]
        down = np.exp(-(h + t[0]))
        down *= below[k]
        v += down
        v *= wh
        values[j] = np.sum(v)
    return values


def _product_sides(laws, phis: np.ndarray, shift: np.ndarray, u: Utility):
    """(gains, losses): E[u(Y+)] and E[u(-Y-)] for each of the strategies
    phis, with Y = sum_i phi_i (eps_i - shift_i) on the product of laws =
    [(points, probs)].  Strategies narrower than the laws pay nothing on
    the other coordinates.

    On the split Y = h + t of ``_sorted_tiles``, the rows h + t with
    t > -h are those with Y > 0, the suffix t[k:] of the sorted tile, so

        E[u(Y+)] = sum_h w_h (sum_{t > -h} w_t u(h + t) + u(0) W_{t <= -h}),
        E[u(-Y-)] = sum_h w_h (sum_{t <= -h} w_t u(h + t) + u(0) W_{t > -h}),

    with W the tile weights' prefix and suffix sums (``_running_sums``)
    read at the split.  The inner sums run as a staircase
    (``_staircase``): the heads, sorted by their split (``_by_split``), go
    in groups of g with g T about _STAIR rows, and a group with smallest
    split k0 forms the rows h + t[k0:] as one (g, T - k0) block, runs the
    gain kernel on its max(Y, 0) once and reduces each row of the weighted
    block.  The rows t[k0:k] of a head with split k are <= 0 and give
    u(0) w_t, so adding u(0) times the weight of t[:k0] (the staircase
    gives each head's k0) gives the formula's u(0) W_{t <= -h}.  A table's
    loss side is the mirror image: the rows h + t[:k1] up to the group's
    largest split k1, the loss side on them, plus u(0) times the weight of
    t[k1:].  Where u is linear on Y <= 0, u(Y) = a Y (appendix power;
    ``_Kernels.loss_slope``), no row is evaluated there: the loss is
    a (h W_{t <= -h} + sum_{t <= -h} w_t t), two running sums read at the
    split (``_linear_loss``).

    Every row's u(Y+), and a table's u(-Y-), is the value that the row
    walk's kernels (``_split_u``) give at h + t; the sums are taken in
    another order.  A head's pairwise row sum of L weighted values is
    within about log2(L) 2^-53 of its exact value, relatively to the sum
    of their magnitudes, its u(0) W term and its weight w_h add two
    roundings, and the pairwise sum over the heads adds log2(heads)
    2^-53, so the result is within about (log2(n) + 3) 2^-53 E|v| of the
    exact sum, as close as the walk's log2(n) 2^-52.  The linear loss
    side's running sums of L terms are within (ROW_BLOCK + L / ROW_BLOCK)
    2^-53 of their exact values, relatively to a E[|h| + |t|] over the
    rows at or below 0, which exceeds E|u(-Y-)| only where h and t cancel;
    at payoffs of order 1 that is at most about 5e-13, inside the 1e-12 by
    which an exact set's results may differ from its rows'.

    No BLAS call runs, so the sums do not depend on the BLAS thread count.
    The strategies are taken one at a time, and every temporary holds the
    tile, the heads or one group's block of at most max(_STAIR, T) rows,
    twice (the block and the kernels' scratch).
    """
    kernels = u._kernels
    slope = kernels.loss_slope
    u0 = eval_u(u, 0.0)
    gains, losses = np.empty(len(phis)), np.empty(len(phis))
    for j, (t, w, h, wh, k) in enumerate(_sorted_tiles(laws, phis, shift)):
        below = _running_sums(w)  # below[k]: the weight of t[:k]
        g = max(1, _STAIR // t.size)
        k, h, wh = _by_split(k, g, h, wh)
        scratch = np.empty((2, min(g, h.size) * t.size))
        gain, edges = _staircase(kernels.gain, h, k, t, w, g, scratch, True)
        gain += u0 * below[edges]
        if slope is None:
            loss, edges = _staircase(kernels.loss, h, k, t, w, g, scratch, False)
            loss += u0 * _running_sums(w[::-1])[::-1][edges]  # the weight of t[edge:]
        else:
            loss = _linear_loss(slope, h, k, below, _running_sums(w * t))
        gain *= wh
        loss *= wh
        gains[j], losses[j] = np.add.reduce(gain), np.add.reduce(loss)
    return gains, losses


def exp_ui_bound(model: MarketModel, s: ScenarioSet, delta: float,
                 trials: int, seed: int) -> dict:
    """Measure E[exp|sum phi_i eps_i|] for random small strategies and fit
    C in the cap 2 exp(C ||phi||^2).

    Uses the raw (uncentered) noise; on the scenario set the expectation
    is exact whenever the set is an exact enumeration.  On an exact set in
    product form (``optimize._product_form``) it is taken in closed form
    from the set's laws, with exp on the tile and head payoffs alone
    (``_product_exp_abs``), within 1e-12 of the row walk's value;
    otherwise all trials share one walk over the rows
    (``_strategy_sums``).  The set must have at least the market's K
    coordinates.  A negative trial count and a negative or non-finite
    delta are refused (``random_strategies``).
    """
    _require_width(model, s)
    phis = random_strategies(model.K, trials, delta, seed)

    def exp_abs(y):
        v = np.abs(y)
        return (np.exp(v, out=v),)

    if _product_form(s):
        vals = _product_exp_abs(s._laws, phis)
    else:
        (vals,) = _strategy_sums(s, phis, np.zeros(model.K), exp_abs)
    rows = []
    worst = 0.0
    for phi, val in zip(phis, vals.tolist()):
        nsq = float(phi @ phi)
        rows.append({"norm": math.sqrt(nsq), "value": val})
        if nsq > 0 and val > 2.0:
            worst = max(worst, math.log(val / 2.0) / nsq)
    return {"delta": delta, "trials": trials, "seed": seed,
            "fitted_C": worst, "measurements": rows}


def holder_chain_check(model: MarketModel, Q: TiltedMeasure, u: Utility,
                       strategies: np.ndarray, s: ScenarioSet) -> dict:
    """Both sides of the chain

        E[u(Y+)] <= C1 (C' C'' (-(1/C2) E[u(-Y-)] + 1)^(alpha/beta) + 1)

    with Y = V(phi), C' = (E[(dP/dQ)^(alpha/(1-alpha))])^(1-alpha) and
    C'' = (E[(dQ/dP)^(beta/(beta-1))])^(alpha (beta-1)/beta), everything
    by scenario expectation, with Y+ = max(Y, 0) and -Y- = Y - Y+.  The
    strategies (one per row, at most K columns, at least one row) are
    centred at b.  On an exact set in product form
    (``optimize._product_form``), each strategy's payoffs split over a
    sorted tile, and the sums run as a staircase over groups of heads, each
    row evaluated on one side at most, by the utility kind's gain or loss
    kernel (``_product_sides``), within 1e-12 of the walk's sums.
    Otherwise they share one walk over the rows (``_strategy_sums``), which
    evaluates u(Y+) and u(-Y-) on each block by the same two kernels
    (``_split_u``: gain on max(Y, 0), loss on min(0, Y)).  The set must
    have at least the market's K coordinates, and a NaN or infinite
    strategy is refused.  Requires growth bounds on u, and reports whether
    they hold as ``growth_certified``; on an exact set the measure must
    price every asset to 1e-10.  There that guard and the moments behind
    C' and C'' read the set's own laws, whatever path the sums take: they
    are products of the K coordinates' support sums, and no per-row
    density is built; on a row set the density is built once.
    """
    if not u.has_growth_bounds:
        raise ValueError("utility has no growth bounds; refusing")
    strategies = np.atleast_2d(strategies)
    if strategies.shape[0] == 0:
        raise ValueError("holder_chain_check needs at least one strategy")
    if strategies.shape[1] > model.K:
        raise ValueError(f"strategies have {strategies.shape[1]} coordinates; "
                         f"the market has K={model.K}")
    if not np.isfinite(strategies).all():
        raise ValueError("holder_chain_check needs finite strategies")
    _require_width(model, s)
    g = u.growth
    sup = _support_factors(Q, s)
    if s.is_exact:
        m = _coordinate_means(Q, model, s, sup)
        if _residuals(model, m)["max_residual"] > 1e-10:
            raise ValueError("measure does not price assets to tolerance")
    if g.alpha > 0:
        e_prime, e_dprime = -g.alpha / (1.0 - g.alpha), g.beta / (g.beta - 1.0)
        power = _density_moments(Q, s, (e_prime, e_dprime), sup)
        c_prime = power[e_prime] ** (1.0 - g.alpha)
        c_dprime = power[e_dprime] ** (g.alpha * (g.beta - 1.0) / g.beta)
    else:
        c_prime = c_dprime = 1.0

    margins = []
    if _product_form(s):
        gains, losses = _product_sides(s._laws, strategies, model.b, u)
    else:
        gains, losses = _strategy_sums(s, strategies, model.b, _split_u(u))
    for lhs, neg in zip(gains.tolist(), losses.tolist()):
        inner = -neg / g.C2 + 1.0
        rhs = g.C1 * (c_prime * c_dprime * inner ** (g.alpha / g.beta) + 1.0)
        margins.append(rhs - lhs)
    return {"C_prime": c_prime, "C_dprime": c_dprime,
            "margins": margins, "min_margin": min(margins),
            "growth_certified": certify_growth(u, g).holds}


def check_assumption_relevant(model: MarketModel) -> dict:
    """Tail positivity at every grid level plus vanishing truncated second
    moments; bounded noise always fails the tail part beyond its support."""
    first_failing = None
    tail_trace = []
    for x in X_GRID:
        above = min(tail_probability(d, x, "above") for d in model.noise)
        below = min(tail_probability(d, -x, "below") for d in model.noise)
        tail_trace.append({"x": x, "inf_above": above, "inf_below": below})
        if first_failing is None and (above <= 0.0 or below <= 0.0):
            first_failing = x
    ui_trace = [
        {"N": N, "sup_trunc_moment": max(truncated_second_moment(d, N)
                                         for d in model.noise)}
        for N in N_GRID
    ]
    # any finite family of square-integrable coordinates satisfies the
    # vanishing-tail condition in the limit; the trace is the diagnostic
    sups = [row["sup_trunc_moment"] for row in ui_trace]
    ui_ok = all(b <= a + 1e-15 for a, b in zip(sups, sups[1:]))
    return {
        "tails_ok": first_failing is None,
        "first_failing_x": first_failing,
        "tail_trace": tail_trace,
        "ui_ok": ui_ok,
        "ui_trace": ui_trace,
        "verdict": "holds" if first_failing is None and ui_ok else "fails",
    }


def subgaussian_scan(model: MarketModel) -> dict:
    """sup over coordinates of E[exp(gamma |eps|)] per grid gamma; the
    largest gamma with a finite supremum is reported (None if none pass)."""
    table = {}
    for gamma in GAMMA_GRID:
        sup = max(estimate_exp_moment(d, gamma) for d in model.noise)
        table[gamma] = sup
    passing = [g for g, v in table.items() if math.isfinite(v)]
    return {
        "table": {str(g): (v if math.isfinite(v) else None) for g, v in table.items()},
        "largest_passing_gamma": max(passing, default=None),
        "verdict": "holds" if passing else "fails",
    }


def assemble_report(model: MarketModel, sections: dict) -> dict:
    """Combine verdict sections into the run report; absent sections are
    marked skipped so the bundle schema is stable."""
    ab = check_assumption_b(model)
    na = check_no_arbitrage(model)
    report = {
        "model": {
            "m": model.m,
            "K": model.K,
            "b": [float(x) for x in model.b],
            "M": model.M,
        },
        "verdicts": {
            "assumption_b": ab.verdict,
            "novum_na": "holds" if na.passed else "fails",
            "novum_subgauss": sections.get("subgauss", {}).get("verdict", "skipped"),
            "relevant_tails": sections.get("relevant", {}).get(
                "verdict", "skipped"),
            "relevant_ui": ("holds" if sections.get("relevant", {}).get("ui_ok")
                            else "fails") if "relevant" in sections else "skipped",
        },
        "assumption_b_partial_sums": [float(x) for x in ab.partial_sums],
        "na_flagged_coordinates": list(na.flagged),
    }
    for key in ("subgauss", "relevant", "exp_moment", "holder", "optimizer",
                "measure", "scenario_set", "seed"):
        report[key] = sections.get(key, "skipped")
    return report


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    # newline="" + explicit lineterminator for byte-identical output
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(header)
        wr.writerows(rows)


def emit_report(report: dict, out_dir: str) -> list[str]:
    """Write report.json plus CSV tables; output bytes are a pure function
    of the report contents."""
    os.makedirs(out_dir, exist_ok=True)
    tables_dir = os.path.join(out_dir, "tables")
    os.makedirs(tables_dir, exist_ok=True)
    written = []
    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
    written.append(json_path)

    b_path = os.path.join(tables_dir, "assumption_b.csv")
    sums = report.get("assumption_b_partial_sums", [])
    _write_csv(b_path, ["i", "partial_sum_b_sq"],
               [[i + 1, repr(v)] for i, v in enumerate(sums)])
    written.append(b_path)

    exp_section = report.get("exp_moment")
    if isinstance(exp_section, dict):
        path = os.path.join(tables_dir, "exp_moment.csv")
        _write_csv(path, ["norm", "value"],
                   [[repr(r["norm"]), repr(r["value"])]
                    for r in exp_section.get("measurements", [])])
        written.append(path)

    holder = report.get("holder")
    if isinstance(holder, dict):
        path = os.path.join(tables_dir, "holder_margins.csv")
        _write_csv(path, ["strategy", "margin"],
                   [[i, repr(m)] for i, m in enumerate(holder.get("margins", []))])
        written.append(path)

    measure = report.get("measure")
    if isinstance(measure, dict) and "coordinates" in measure:
        path = os.path.join(tables_dir, "tilt_coordinates.csv")
        _write_csv(path, ["i", "b", "a", "z", "method", "residual"],
                   [[row["i"], repr(row["b"]),
                     "" if row["a"] is None else repr(row["a"]),
                     repr(row["z"]), row["method"], repr(row["residual"])]
                    for row in measure["coordinates"]])
        written.append(path)

    opt = report.get("optimizer")
    if isinstance(opt, dict):
        path = os.path.join(tables_dir, "ladder.csv")
        levels = opt.get("levels", [])
        diffs = [""] + [repr(d) for d in opt.get("diff_norms", [])]
        _write_csv(path, ["K", "value", "grad_norm", "diff_norm"],
                   [[lv["K"], repr(lv["value"]), repr(lv["grad_norm"]),
                     diffs[i] if i < len(diffs) else ""]
                    for i, lv in enumerate(levels)])
        written.append(path)
    return written
