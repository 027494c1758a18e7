"""Quantitative diagnostics and the deterministic report bundle.

Three checks quantify how well a market family behaves:

* exponential-moment cap E[e^{|sum phi_i eps_i|}] <= 2 e^{C ||phi||^2},
  with the constant fitted from seeded random strategies;
* the Hoelder chain bounding expected gains by expected losses through
  the reciprocal moments of the measure change, requiring growth bounds
  on the utility;
* tail/integrability traces that split bounded from heavy-tailed noise.

Everything lands in a byte-deterministic report.json + CSV bundle.
"""

import json
import pathlib
import tempfile

from apmopt import (GrowthBounds, appendix_power, build_market,
                    build_tilted_measure, dyadic_two_sided, enumerate_scenarios,
                    rademacher)
from apmopt.diagnostics import (assemble_report, check_assumption_relevant,
                                emit_report, exp_ui_bound, holder_chain_check,
                                random_strategies, subgaussian_scan)

model = build_market(m=1, K=3, mu=[-0.2, -0.1, -0.05], beta=[[0.0], [0.0]],
                     beta_bar=[1.0, 1.0, 1.0], noise=rademacher())
s = enumerate_scenarios(model)

# --- exponential moment cap ---------------------------------------------------
out = exp_ui_bound(model, s, delta=1.0, trials=100, seed=0)
print(f"fitted exponential-moment constant C = {out['fitted_C']:.4f} "
      f"(Rademacher admits C = 1/2)")

# --- Hoelder chain with a utility that has growth bounds ----------------------
u = appendix_power(0.5, GrowthBounds(alpha=0.5, beta=1.5, C1=1.0, C2=1.0))
Q = build_tilted_measure(model)
chain = holder_chain_check(model, Q, u, random_strategies(3, 100, 1.0, 0), s)
print(f"C' = {chain['C_prime']:.4f}, C'' = {chain['C_dprime']:.4f}, "
      f"min margin over 100 strategies = {chain['min_margin']:.4f}")

# --- assumption families split on the noise tails ------------------------------
rel = check_assumption_relevant(model)
print("\nbounded noise: tails positive everywhere?", rel["tails_ok"],
      "| sub-Gaussian scan:", subgaussian_scan(model)["verdict"])

heavy = build_market(m=1, K=2, mu=[0.0, 0.0], beta=[[0.0]],
                     beta_bar=[1.0, 1.0], noise=dyadic_two_sided(0.2))
print("dyadic noise:  tails positive everywhere?",
      check_assumption_relevant(heavy)["tails_ok"],
      "| sub-Gaussian scan:", subgaussian_scan(heavy)["verdict"])

# --- the report bundle ---------------------------------------------------------
report = assemble_report(model, {
    "relevant": rel,
    "subgauss": subgaussian_scan(model),
    "exp_moment": out,
    "holder": chain,
    "seed": 0,
})
with tempfile.TemporaryDirectory() as d:
    files = emit_report(report, d)
    print("\nbundle files:", [pathlib.Path(f).name for f in files])
    verdicts = json.load(open(pathlib.Path(d) / "report.json"))["verdicts"]
    print("verdicts:", verdicts)
