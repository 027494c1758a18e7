"""Experiment configuration: JSON schema, validation, assembly.

Validation collects every violation instead of stopping at the first, so
one run of the CLI reports all problems with a config file.
"""

from __future__ import annotations

import json
import math
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


_TOP_KEYS = {"model", "utility", "solver", "measure", "scenario", "output"}
_MODEL_KEYS = {"m", "K", "mu", "beta", "beta_bar", "noise", "b_rule"}
_B_RULE_KEYS = {"kind", "c", "p"}
_UTILITY_KEYS = {"appendix_power": {"kind", "alpha", "growth"},
                 "tabulated": {"kind", "xs", "ys", "growth"}}
_GROWTH_KEYS = ("alpha", "beta", "C1", "C2")
_SOLVER_KEYS = {"grad_tol", "max_iter", "ladder"}
_MEASURE_KEYS = {"fallback_alpha", "p", "moment_exponents"}
_SCENARIO_KEYS = {"mode", "n", "seed"}
# each noise family's keys besides "family", and its factory on their values
_NOISE_FAMILIES = {
    "rademacher": ((), rademacher),
    "standardized_two_point": (("p",), lambda p: standardized_two_point(_float(p))),
    "standardized_uniform": ((), standardized_uniform),
    "finite_discrete": (("points", "probs"), finite_discrete),
    "dyadic_two_sided": (("q",), lambda q: dyadic_two_sided(_float(q))),
}


def _unknown_keys(d, known, errors: list[str], where: str) -> None:
    """A violation for each key of d outside known, if d is an object."""
    if isinstance(d, dict):
        errors.extend(f"{where}: unknown key {k!r}" for k in d if k not in known)


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


def _int(value) -> int:
    """value as an int: a JSON number with no fractional part, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be an integer, got {type(value).__name__}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _ints(values) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise TypeError(f"must be a list of integers, got {type(values).__name__}")
    return tuple(map(_int, values))


def _float(value) -> float:
    """value as a float: a finite JSON number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {type(value).__name__}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {x!r}")
    return x


def _floats(values) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise TypeError(f"must be a list of numbers, got {type(values).__name__}")
    return tuple(map(_float, values))


def _noise_from_dict(d: dict, errors: list[str], where: str) -> DistributionSpec | None:
    if _object(d, errors, where) is None:
        return None
    family = d.get("family")
    if not isinstance(family, str) or family not in _NOISE_FAMILIES:
        errors.append(f"{where}: unknown noise family {family!r}")
        return None
    keys, factory = _NOISE_FAMILIES[family]
    _unknown_keys(d, {"family", *keys}, errors, where)
    try:
        return factory(*(d[k] for k in keys))
    except KeyError as exc:
        errors.append(f"{where}: missing key {exc}")
    except (ValueError, TypeError) as exc:
        errors.append(f"{where}: {exc}")
    return None


def _build_model(md: dict, errors: list[str]) -> MarketModel | None:
    _unknown_keys(md, _MODEL_KEYS, errors, "model")
    required = ["m", "K", "mu", "beta_bar", "noise"]
    missing = [k for k in required if k not in md]
    if missing:
        errors.append(f"model: missing keys {missing}")
        return None
    m = _convert(_int, md["m"], errors, "model.m")
    K = _convert(_int, md["K"], errors, "model.K")
    noise_raw = md["noise"]
    if isinstance(noise_raw, list):
        noise = tuple(_noise_from_dict(n, errors, f"model.noise[{i}]")
                      for i, n in enumerate(noise_raw))
        noise = None if None in noise else noise
    else:  # one law for every coordinate, which build_market repeats
        noise = _noise_from_dict(noise_raw, errors, "model.noise")
    if m is None or K is None or noise is None:
        return None
    b_rule = BRule()
    if "b_rule" in md:
        br = _object(md["b_rule"], errors, "model.b_rule")
        if br is None:
            return None
        _unknown_keys(br, _B_RULE_KEYS, errors, "model.b_rule")
        c = _convert(_float, br.get("c", 0.0), errors, "model.b_rule.c")
        p = _convert(_float, br.get("p", 0.0), errors, "model.b_rule.p")
        if c is None or p is None:
            return None
        try:
            b_rule = BRule(kind=br.get("kind", "explicit"), c=c, p=p)
        except (ValueError, TypeError) as exc:
            errors.append(f"model.b_rule: {exc}")
            return None
    try:
        model = build_market(m, K, md["mu"], md.get("beta", ()),
                             md["beta_bar"], noise, b_rule)
    except (ValueError, TypeError) as exc:
        errors.append(f"model: {exc}")
        return None
    return model


def _check_table(xs: tuple[float, ...], ys: tuple[float, ...]) -> None:
    """Raise ValueError unless the table interpolates a nondecreasing
    concave utility: slopes that are >= 0 and never rise, to a relative
    1e-12 of the steepest.  The table's own slopes decide: eval_u
    continues the first slope below xs[0] and holds ys[-1] above xs[-1],
    so these slopes are all of u's shape.  ``Utility`` has checked that
    the table is finite and xs strictly increasing."""
    slopes = [(y1 - y0) / (x1 - x0)
              for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]
    tol = 1e-12 * max(map(abs, slopes))
    if min(slopes) < -tol:
        raise ValueError("tabulated ys must be nondecreasing")
    for k, (a, b) in enumerate(zip(slopes, slopes[1:])):
        if b > a + tol:
            raise ValueError(f"tabulated utility is not concave: slope rises "
                             f"from {a:.6g} to {b:.6g} at x = {xs[k + 1]:.6g}")


def _build_utility(ud: dict, errors: list[str]) -> Utility | None:
    kind = ud.get("kind", "appendix_power")
    if not isinstance(kind, str) or kind not in _UTILITY_KEYS:
        errors.append(f"utility: unknown kind {kind!r}")
        return None
    _unknown_keys(ud, _UTILITY_KEYS[kind], errors, "utility")
    growth = None
    if "growth" in ud:
        g = _object(ud["growth"], errors, "utility.growth")
        if g is None:
            return None
        _unknown_keys(g, _GROWTH_KEYS, errors, "utility.growth")
        missing = [k for k in _GROWTH_KEYS if k not in g]
        if missing:
            errors.append(f"utility.growth: missing keys {missing}")
            return None
        bounds = {k: _convert(_float, g[k], errors, f"utility.growth.{k}") for k in _GROWTH_KEYS}
        if None in bounds.values():
            return None
        try:
            growth = GrowthBounds(**bounds)
        except ValueError as exc:
            errors.append(f"utility.growth: {exc}")
            return None
    if kind == "appendix_power":
        alpha = _convert(_float, ud.get("alpha", 0.5), errors, "utility.alpha")
        if alpha is None:
            return None
    try:
        if kind == "appendix_power":
            return appendix_power(alpha, growth)
        if kind == "tabulated":
            u = tabulated(ud["xs"], ud["ys"], growth)
            _check_table(u.xs, u.ys)
            return u
    except (KeyError, ValueError, TypeError) as exc:
        errors.append(f"utility: {exc}")
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
    _unknown_keys(raw, _TOP_KEYS, errors, "config")

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
    _unknown_keys(sd, _SOLVER_KEYS, errors, "solver")
    max_iter = _convert(_int, sd.get("max_iter", 10_000), errors, "solver.max_iter")
    ladder = _convert(_ints, sd.get("ladder", []), errors, "solver.ladder")
    solver = None
    grad_tol = _convert(_float, sd.get("grad_tol", 1e-8), errors, "solver.grad_tol")
    if None not in (max_iter, ladder, grad_tol):
        try:
            solver = SolverConfig(grad_tol=grad_tol, max_iter=max_iter, ladder=ladder)
        except (ValueError, TypeError) as exc:
            errors.append(f"solver: {exc}")
    if model is not None and solver is not None and not all(
            model.m <= k <= model.K for k in solver.ladder):
        errors.append(f"solver.ladder: levels {list(solver.ladder)} must lie in "
                      f"[{model.m}, {model.K}]")

    msec = _object(raw.get("measure", {}), errors, "measure") or {}
    _unknown_keys(msec, _MEASURE_KEYS, errors, "measure")
    fallback_alpha = _convert(_float, msec.get("fallback_alpha", 0.5), errors,
                              "measure.fallback_alpha")
    if fallback_alpha is not None and not 0.0 < fallback_alpha < 1.0:
        errors.append("measure.fallback_alpha: must lie in (0,1)")
    moment_p = _convert(_float, msec.get("p", 2.0), errors, "measure.p")
    exponents = None
    if "moment_exponents" in msec:
        exponents = _convert(_floats, msec["moment_exponents"], errors,
                             "measure.moment_exponents")
    elif moment_p is not None:
        exponents = (-2.0, -1.0, 1.0, 2.0, moment_p, -moment_p)

    sc = _object(raw.get("scenario", {}), errors, "scenario") or {}
    _unknown_keys(sc, _SCENARIO_KEYS, errors, "scenario")
    mode = sc.get("mode", "exact")
    n = sc.get("n")
    n = 0 if n is None else _convert(_int, n, errors, "scenario.n")
    seed = sc.get("seed")
    if mode not in ("exact", "monte_carlo"):
        errors.append(f"scenario.mode: unknown mode {mode!r}")
    if mode == "monte_carlo":
        if n is not None and n < 1:
            errors.append("scenario.n: monte_carlo mode needs n >= 1")
        if seed is None:
            errors.append("scenario.seed: monte_carlo mode needs a seed")
    seed = _convert(_int, seed, errors, "scenario.seed") if seed is not None else 0
    if seed is not None and not 0 <= seed < 2 ** 64:
        errors.append(f"scenario.seed: must lie in [0, 2**64), got {seed}")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        model=model, utility=utility, solver=solver,
        fallback_alpha=fallback_alpha, moment_exponents=exponents,
        scenario_mode=mode, n_scenarios=n, seed=seed,
        out_dir=raw.get("output", "out"),
    )
