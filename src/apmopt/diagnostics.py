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
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .distributions import estimate_exp_moment, tail_probability, truncated_second_moment
from .market import MarketModel, check_assumption_b, check_no_arbitrage
from .measures import TiltedMeasure, _pricing_residuals
from .scenarios import ScenarioSet, expectation
from .utility import Utility, certify_growth, eval_u

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


def random_strategies(K: int, count: int, max_norm: float, seed: int) -> np.ndarray:
    """(count, K) strategies: i.i.d. uniform[-1,1] coordinates rescaled so
    the norms sweep (0, max_norm]."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    raw = gen.uniform(-1.0, 1.0, size=(count, K))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    targets = max_norm * (np.arange(1, count + 1) / count)[:, None]
    return raw / norms * targets


def exp_ui_bound(model: MarketModel, s: ScenarioSet, delta: float,
                 trials: int, seed: int) -> dict:
    """Measure E[exp|sum phi_i eps_i|] for random small strategies and fit
    C in the cap 2 exp(C ||phi||^2).

    Uses the raw (uncentered) noise; on the scenario set the expectation
    is exact whenever the set is an exact enumeration.
    """
    phis = random_strategies(model.K, trials, delta, seed)
    rows = []
    worst = 0.0
    for phi in phis:
        z = np.abs(s.draws @ phi)
        val = expectation(s, np.exp(z))
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
    by scenario expectation, with u evaluated once per strategy: u(Y+) and
    u(-Y-) are u(Y) where Y has that sign and u(0) elsewhere.  Requires
    growth bounds on u, and reports whether they hold as ``growth_certified``;
    on an exact set the measure must price every asset to 1e-10.
    """
    if not u.certified:
        raise ValueError("utility carries no growth certificate; refusing")
    g = u.growth
    dens = Q.density(s.draws)
    if s.is_exact and _pricing_residuals(model, s, dens)["max_residual"] > 1e-10:
        raise ValueError("measure does not price assets to tolerance")
    if g.alpha > 0:
        c_prime = expectation(s, dens ** (-g.alpha / (1.0 - g.alpha))) ** (1.0 - g.alpha)
        c_dprime = expectation(s, dens ** (g.beta / (g.beta - 1.0))) ** (
            g.alpha * (g.beta - 1.0) / g.beta)
    else:
        c_prime = c_dprime = 1.0
    centered = s.draws - model.b
    u0 = eval_u(u, 0.0)
    margins = []
    for phi in np.atleast_2d(strategies):
        y = centered[:, : phi.size] @ phi
        uy = eval_u(u, y)
        lhs = expectation(s, np.where(y > 0, uy, u0))
        neg = expectation(s, np.where(y < 0, uy, u0))
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
