"""Expected-utility portfolio choice and risk-neutral tilting for
truncated factor markets with many assets."""

from .distributions import (DistributionSpec, dyadic_two_sided, finite_discrete,
                            rademacher, standardized_two_point,
                            standardized_uniform, tail_probability,
                            estimate_exp_moment, truncated_second_moment)
from .market import (ArbitrageError, AssetPortfolio, BRule, FactorStrategy,
                     IllPosedModelError, MarketModel, ModelSpec, asset_return,
                     build_market, check_assumption_b, check_no_arbitrage,
                     convert_portfolio, portfolio_value, strategy_values,
                     truncate_model)
from .measures import (MeasureReport, TiltedMeasure, build_tilted_measure,
                       measure_moments, psi, single_asset_measure, solve_tilt,
                       verify_pricing)
from .optimize import (DiscretePayoff, OptimizationReport, SolverConfig,
                       detect_unbounded, optimize_single_asset,
                       optimize_truncated, truncation_ladder)
from .scenarios import (EnumerationCapError, ScenarioSet, enumerate_scenarios,
                        expectation, sample_scenarios)
from .utility import (GrowthBounds, Utility, appendix_power, certify_growth,
                      eval_u, eval_u_prime, eval_u_second, tabulated)

__version__ = "0.1.0"
