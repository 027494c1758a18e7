"""Maximizing expected utility over scenario sets.

Three solvers: a bisection solver for the one-asset problem, gradient
ascent with backtracking for the K-coordinate problem, and a truncation
ladder that solves at growing K on the first K columns of one scenario set
(here the exact enumeration at K=8), so the levels nest and the values
rise toward the infinite-asset optimum.
"""

import numpy as np

from apmopt import (DiscretePayoff, SolverConfig, appendix_power, build_market,
                    detect_unbounded, enumerate_scenarios, optimize_single_asset,
                    optimize_truncated, rademacher, truncation_ladder)

u = appendix_power(0.5)  # alpha*x below 0, (x+1)^alpha - 1 above

# --- one asset: closed forms are reproduced ---------------------------------
payoff = DiscretePayoff((0.8, -1.2), (0.5, 0.5))
phi, val = optimize_single_asset(payoff, u)
print(f"one-asset optimum phi* = {phi:.9f} (closed form -25/24 = {-25/24:.9f})")
print(f"optimal expected utility = {val:.9f}")

# --- K = 3 market: exact enumeration + damped Newton ascent ------------------
model = build_market(m=1, K=3, mu=[-0.2, -0.1, -0.05], beta=[[0.0], [0.0]],
                     beta_bar=[1.0, 1.0, 1.0], noise=rademacher())
s = enumerate_scenarios(model)
res = optimize_truncated(model, u, None, s)
print(f"\nK=3 optimum phi* = {np.round(res.phi_star, 6)}")
print(f"value = {res.value:.6f}, converged in {res.iterations} iterations "
      f"(grad norm {res.grad_norm:.1e})")

# --- truncation ladder: values increase and increments shrink ----------------
big = build_market(m=1, K=8, mu=[-0.4 * 2.0 ** -(i + 1) for i in range(8)],
                   beta=[[0.0]] * 7, beta_bar=[1.0] * 8, noise=rademacher())
rep = truncation_ladder(big, u, SolverConfig(ladder=(1, 2, 4, 8)))
print("\nladder values:", [round(v, 6) for v in rep.values()])
print("consecutive argmax distances:", [round(d, 4) for d in rep.diff_norms])

# --- arbitrage makes the supremum unattained; the LP finds a witness ---------
bad = build_market(m=1, K=2, mu=[1.0, 0.0], beta=[[0.0]],
                   beta_bar=[1.0, 1.0], noise=rademacher())
found, witness = detect_unbounded(bad, enumerate_scenarios(bad))
print("\narbitrage direction found:", found, "->", witness)
