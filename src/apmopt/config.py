"""Experiment configuration: JSON schema, validation, assembly.

Validation collects every violation instead of stopping at the first, so
one run of the CLI reports all problems with a config file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .distributions import (DistributionSpec, dyadic_two_sided, finite_discrete,
                            rademacher, standardized_two_point,
                            standardized_uniform)
from .market import BRule, MarketModel, build_market
from .optimize import SolverConfig
from .utility import GrowthBounds, Utility, appendix_power, tabulated

__all__ = ["ExperimentConfig", "ConfigError", "parse_config"]


class ConfigError(ValueError):
    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid config:\n" + "\n".join(f"- {v}" for v in violations))


@dataclass
class ExperimentConfig:
    model: MarketModel
    utility: Utility
    solver: SolverConfig
    fallback_alpha: float
    moment_exponents: tuple[float, ...]
    scenario_mode: str            # "exact" | "monte_carlo"
    n_scenarios: int
    seed: int
    out_dir: str


def _object(value, errors: list[str], where: str) -> dict | None:
    """value if it is a JSON object; otherwise None, and a violation."""
    if isinstance(value, dict):
        return value
    errors.append(f"{where}: must be a JSON object, got {type(value).__name__}")
    return None


def _convert(conv, value, errors: list[str], where: str):
    """conv(value); None, and a violation naming where, if it fails."""
    try:
        return conv(value)
    except (ValueError, TypeError) as exc:
        errors.append(f"{where}: {exc}")
        return None


def _floats(values) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise TypeError(f"must be a list of numbers, got {type(values).__name__}")
    return tuple(map(float, values))


def _noise_from_dict(d: dict, errors: list[str], where: str) -> DistributionSpec | None:
    if _object(d, errors, where) is None:
        return None
    family = d.get("family")
    try:
        if family == "rademacher":
            return rademacher()
        if family == "standardized_two_point":
            return standardized_two_point(float(d["p"]))
        if family == "standardized_uniform":
            return standardized_uniform()
        if family == "finite_discrete":
            return finite_discrete(d["points"], d["probs"])
        if family == "dyadic_two_sided":
            return dyadic_two_sided(float(d["q"]))
        errors.append(f"{where}: unknown noise family {family!r}")
    except KeyError as exc:
        errors.append(f"{where}: missing key {exc}")
    except (ValueError, TypeError) as exc:
        errors.append(f"{where}: {exc}")
    return None


def _build_model(md: dict, errors: list[str]) -> MarketModel | None:
    required = ["m", "K", "mu", "beta_bar", "noise"]
    missing = [k for k in required if k not in md]
    if missing:
        errors.append(f"model: missing keys {missing}")
        return None
    noise_raw = md["noise"]
    K = md["K"]
    if isinstance(noise_raw, list):
        noise = [_noise_from_dict(n, errors, f"model.noise[{i}]")
                 for i, n in enumerate(noise_raw)]
    else:  # one law for every coordinate
        noise = [_noise_from_dict(noise_raw, errors, "model.noise")] * int(K)
    if any(n is None for n in noise):
        return None
    b_rule = BRule()
    if "b_rule" in md:
        br = md["b_rule"]
        try:
            b_rule = BRule(kind=br.get("kind", "explicit"),
                           c=float(br.get("c", 0.0)), p=float(br.get("p", 0.0)))
        except (ValueError, TypeError, AttributeError) as exc:
            errors.append(f"model.b_rule: {exc}")
            return None
    try:
        model = build_market(int(md["m"]), int(K), md["mu"], md.get("beta", ()),
                             md["beta_bar"], tuple(noise), b_rule)
    except (ValueError, TypeError) as exc:
        errors.append(f"model: {exc}")
        return None
    return model


def _build_utility(ud: dict, errors: list[str]) -> Utility | None:
    kind = ud.get("kind", "appendix_power")
    growth = None
    if "growth" in ud:
        g = ud["growth"]
        try:
            growth = GrowthBounds(alpha=float(g["alpha"]), beta=float(g["beta"]),
                                  C1=float(g["C1"]), C2=float(g["C2"]))
        except (KeyError, ValueError, TypeError) as exc:
            errors.append(f"utility.growth: {exc}")
            return None
    try:
        if kind == "appendix_power":
            return appendix_power(float(ud.get("alpha", 0.5)), growth)
        if kind == "tabulated":
            return tabulated(ud["xs"], ud["ys"], growth)
    except (KeyError, ValueError, TypeError) as exc:
        errors.append(f"utility: {exc}")
        return None
    errors.append(f"utility: unknown kind {kind!r}")
    return None


def parse_config(path: str) -> ExperimentConfig:
    """Load and validate a JSON experiment config; raises ConfigError
    listing every violation found."""
    errors: list[str] = []
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"malformed JSON: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError([f"config: must be a JSON object, got {type(raw).__name__}"])

    md = raw.get("model")
    if isinstance(md, str):  # model may live in its own file
        model_path = md if os.path.isabs(md) else os.path.join(
            os.path.dirname(path), md)
        try:
            with open(model_path) as fh:
                md = json.load(fh)
        except OSError as exc:
            errors.append(f"model file: {exc}")
            md = None
        except json.JSONDecodeError as exc:
            errors.append(f"model file: malformed JSON: {exc}")
            md = None
    model = None
    if md is None:
        errors.append("model: section missing")
    elif _object(md, errors, "model") is not None:
        model = _build_model(md, errors)

    ud = _object(raw.get("utility", {}), errors, "utility")
    utility = None if ud is None else _build_utility(ud, errors)

    sd = _object(raw.get("solver", {}), errors, "solver") or {}
    try:
        solver = SolverConfig(
            grad_tol=float(sd.get("grad_tol", 1e-8)),
            max_iter=int(sd.get("max_iter", 10_000)),
            ladder=tuple(int(k) for k in sd.get("ladder", ())),
        )
    except (ValueError, TypeError) as exc:
        errors.append(f"solver: {exc}")
        solver = None
    if model is not None and solver is not None and not all(
            model.m <= k <= model.K for k in solver.ladder):
        errors.append(f"solver.ladder: levels {list(solver.ladder)} must lie in "
                      f"[{model.m}, {model.K}]")

    msec = _object(raw.get("measure", {}), errors, "measure") or {}
    fallback_alpha = _convert(float, msec.get("fallback_alpha", 0.5), errors,
                              "measure.fallback_alpha")
    if fallback_alpha is not None and not 0.0 < fallback_alpha < 1.0:
        errors.append("measure.fallback_alpha: must lie in (0,1)")
    moment_p = _convert(float, msec.get("p", 2.0), errors, "measure.p")
    exponents = None
    if "moment_exponents" in msec:
        exponents = _convert(_floats, msec["moment_exponents"], errors,
                             "measure.moment_exponents")
    elif moment_p is not None:
        exponents = (-2.0, -1.0, 1.0, 2.0, moment_p, -moment_p)

    sc = _object(raw.get("scenario", {}), errors, "scenario") or {}
    mode = sc.get("mode", "exact")
    n = _convert(int, sc.get("n", 0) or 0, errors, "scenario.n")
    seed = sc.get("seed")
    if mode not in ("exact", "monte_carlo"):
        errors.append(f"scenario.mode: unknown mode {mode!r}")
    if mode == "monte_carlo":
        if n is not None and n < 1:
            errors.append("scenario.n: monte_carlo mode needs n >= 1")
        if seed is None:
            errors.append("scenario.seed: monte_carlo mode needs a seed")
    seed = _convert(int, seed, errors, "scenario.seed") if seed is not None else 0

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        model=model, utility=utility, solver=solver,
        fallback_alpha=fallback_alpha, moment_exponents=exponents,
        scenario_mode=mode, n_scenarios=n, seed=seed,
        out_dir=raw.get("output", "out"),
    )
