"""Building a factor market and checking its structural assumptions.

A one-period market has K assets driven by m common factors plus one
idiosyncratic noise per remaining asset.  After reparametrization every
asset return is a linear combination of centered noises (eps_i - b_i),
so a market is summarized by its drift vector b and factor loadings.
"""

import numpy as np

from apmopt import (AssetPortfolio, asset_return, build_market,
                    check_assumption_b, check_no_arbitrage, convert_portfolio,
                    portfolio_value, rademacher, truncate_model)
from apmopt.market import BRule

# --- a 2-asset market with one common factor --------------------------------
model = build_market(m=1, K=2, mu=[0.1, 0.3], beta=[[0.5]],
                     beta_bar=[1.0, 2.0], noise=rademacher())
print("reparametrized drifts b =", model.b)
print("aggregate drift size  M =", model.M)

# a raw asset return at a concrete noise outcome, both in original and
# centered coordinates (they agree by construction)
eps = np.array([-1.0, 1.0])
print("R_2 at eps=(-1, 1):", asset_return(model, 2, eps))

# zero-budget holdings (cash at index 0, then the risky assets) translate
# into positions on the centered noises with the same payoff
psi = AssetPortfolio(np.array([0.0, 2.0, -2.0]))
phi = convert_portfolio(model, psi)
print("asset holdings", psi.psi, "-> noise positions", phi.phi)
print("portfolio value at eps:", portfolio_value(model, phi, eps))

# --- structural checks -------------------------------------------------------
# square-summable drifts: a power decay c * i^(-p) converges iff p > 1/2
big = build_market(m=1, K=50, mu=[-0.4 / (i + 1) for i in range(50)],
                   beta=[[0.0]] * 49, beta_bar=[1.0] * 50,
                   noise=rademacher(), b_rule=BRule("power", c=0.4, p=1.0))
print("\ndrift series verdict (p=1):", check_assumption_b(big).verdict)

slow = build_market(m=1, K=50, mu=[-0.4 / (i + 1) ** 0.5 for i in range(50)],
                    beta=[[0.0]] * 49, beta_bar=[1.0] * 50, noise=rademacher(),
                    b_rule=BRule("power", c=0.4, p=0.5))
print("drift series verdict (p=1/2):", check_assumption_b(slow).verdict)

# per-coordinate no-arbitrage: the noise must straddle each drift
na = check_no_arbitrage(model)
print("no-arbitrage:", "passed" if na.passed else f"flagged {na.flagged}")

bad = build_market(m=1, K=2, mu=[1.0, 0.0], beta=[[0.0]],
                   beta_bar=[1.0, 1.0], noise=rademacher())
na = check_no_arbitrage(bad)
print("shifted market no-arbitrage:",
      "passed" if na.passed else f"flagged coordinates {na.flagged}")

# truncation keeps the drift prefix intact
print("\ntruncated big market b[:4]:", truncate_model(big, 4).b)
