"""Experiment configuration: JSON schema, validation, assembly.

Each section has a table that maps each of its keys to a reader and a
default (``_REQUIRED`` if the key must be given), and ``_section`` reads
every key through it: it refuses a section that is not a JSON object,
names each unknown and each missing key, names ``section.key`` when a
reader refuses a value, and then builds the section's object.  The
rules across keys run on what was read (``_measure``, ``_scenario``,
``_check_table``, ``_experiment``).  Validation collects the violations
of every section instead of stopping at the first, so one run of the
CLI reports all problems with a config file.
"""

from __future__ import annotations

import json
import math
import os

from ._record import Record
from .distributions import (dyadic_two_sided, finite_discrete, rademacher,
                            standardized_two_point, standardized_uniform)
from .market import BRule, MarketModel, build_market
from .optimize import SolverConfig
from .scenarios import _seed
from .utility import GrowthBounds, Utility, appendix_power, tabulated

__all__ = ["ExperimentConfig", "ConfigError", "parse_config"]


class ConfigError(ValueError):
    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid config:\n" + "\n".join(f"- {v}" for v in violations))


class ExperimentConfig(Record):
    model: MarketModel
    utility: Utility
    solver: SolverConfig
    fallback_alpha: float
    moment_exponents: tuple[float, ...]
    scenario_mode: str            # "exact" | "monte_carlo"
    n_scenarios: int
    seed: int
    out_dir: str


_REQUIRED = object()  # the default of a key that must be given


def _int(value) -> int:
    """value as an int: a JSON number with no fractional part, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be an integer, got {type(value).__name__}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _number(value) -> float:
    """value as a float: a JSON number, not a bool; an integer beyond the
    float range reads as inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _float(value) -> float:
    """value as a float: a finite JSON number, not a bool."""
    x = _number(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {x!r}")
    return x


def _str(value) -> str:
    """value as it is: a non-empty string."""
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {type(value).__name__}")
    if not value:
        raise ValueError("must not be empty")
    return value


def _given(value):
    """value as it is, for a factory that types it itself."""
    return value


def _list(read):
    """The reader of a JSON list: a tuple of its items, each read by read."""
    def read_list(values) -> tuple:
        if not isinstance(values, list):
            raise TypeError(f"must be a list, got {type(values).__name__}")
        return tuple(map(read, values))
    return read_list


def _nullable(read):
    """read, except that a JSON null reads as None, the key's default."""
    return lambda value: None if value is None else read(value)


_floats = _list(_float)
_numbers = _list(_number)


def _call(f, value, errors: list[str], where: str):
    """f(value); None, and its violations in errors, if f refuses value:
    a ConfigError's as they are, any other ValueError or TypeError named
    where."""
    try:
        return f(value)
    except ConfigError as exc:
        errors.extend(exc.violations)
    except (ValueError, TypeError) as exc:
        errors.append(f"{where}: {exc}")
    return None


def _section(d, table: dict, errors: list[str], where: str, build=dict):
    """build(**values) on the values of the section d at where, each key
    read through table[key] = (reader, default).  None, and violations in
    errors, if d is not a JSON object, has a key outside table, misses a
    key whose default is _REQUIRED, or a reader or build refuses."""
    if not isinstance(d, dict):
        errors.append(f"{where}: must be a JSON object, got {type(d).__name__}")
        return None
    start = len(errors)
    errors.extend(f"{where}: unknown key {k!r}" for k in d if k not in table)
    missing = [k for k, (_, default) in table.items() if default is _REQUIRED and k not in d]
    if missing:
        errors.append(f"{where}: missing keys {missing}")
    values = {k: _call(read, d.get(k, default), errors, f"{where}.{k}")
              for k, (read, default) in table.items() if k in d or default is not _REQUIRED}
    if len(errors) > start:
        return None
    return _call(lambda v: build(**v), values, errors, where)


def _variant(d, key: str, default, variants: dict, errors: list[str], where: str,
             what: str):
    """_section of d on the (table, build) of variants[d[key]], d[key]
    defaulting to default and itself not passed on."""
    if not isinstance(d, dict):
        return _section(d, {}, errors, where)  # which refuses it
    name = d.get(key, default)
    if not isinstance(name, str) or name not in variants:
        errors.append(f"{where}: unknown {what} {name!r}")
        return None
    table, build = variants[name]
    return _section({k: v for k, v in d.items() if k != key}, table, errors, where, build)


def _raising(read_into):
    """The reader of read_into(value, errors), which lists its violations
    in errors: it raises them as one ConfigError."""
    def read(value):
        errors: list[str] = []
        result = read_into(value, errors)
        if errors:
            raise ConfigError(errors)
        return result
    return read


def _nested(table: dict, where: str, build):
    """The reader of a nested section: its _section, raising."""
    return _raising(lambda value, errors: _section(value, table, errors, where, build))


def _load(path: str, what: str):
    """The JSON value in the file at path; ConfigError naming what if the
    file cannot be read or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError([f"{what}: {exc}"]) from None
    except ValueError as exc:
        raise ConfigError([f"{what}: malformed JSON: {exc}"]) from None


# each noise family's table, and its factory on the values read
_NOISE_FAMILIES = {
    "rademacher": ({}, rademacher),
    "standardized_two_point": ({"p": (_given, _REQUIRED)},
                               lambda p: standardized_two_point(_float(p))),
    "standardized_uniform": ({}, standardized_uniform),
    "finite_discrete": ({"points": (_numbers, _REQUIRED), "probs": (_numbers, _REQUIRED)},
                        finite_discrete),
    "dyadic_two_sided": ({"q": (_given, _REQUIRED)}, lambda q: dyadic_two_sided(_float(q))),
}


def _noise_from_dict(d, errors: list[str], where: str):
    """The noise law of the section d at where."""
    return _variant(d, "family", None, _NOISE_FAMILIES, errors, where, "noise family")


@_raising
def _noise(value, errors: list[str]):
    """One law for every coordinate, which build_market repeats, or a
    list of one law per coordinate."""
    if isinstance(value, list):
        return tuple(_noise_from_dict(d, errors, f"model.noise[{i}]")
                     for i, d in enumerate(value))
    return _noise_from_dict(value, errors, "model.noise")


_MODEL = {
    "m": (_int, _REQUIRED),
    "K": (_int, _REQUIRED),
    "mu": (_floats, _REQUIRED),
    "beta": (_list(_floats), []),
    "beta_bar": (_floats, _REQUIRED),
    "noise": (_noise, _REQUIRED),
    "b_rule": (_nested({"kind": (_str, "explicit"), "c": (_float, 0.0), "p": (_float, 0.0)},
                       "model.b_rule", BRule), {}),
}
_read_model = _nested(_MODEL, "model", build_market)


def _model(value) -> MarketModel:
    if isinstance(value, str):  # a file, which parse_config resolved
        value = _load(value, "model file")
    return _read_model(value)


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


def _tabulated(xs, ys, growth) -> Utility:
    u = tabulated(xs, ys, growth)
    _check_table(u.xs, u.ys)
    return u


_GROWTH = {k: (_float, _REQUIRED) for k in ("alpha", "beta", "C1", "C2")}
_GROWTH_ENTRY = (_nullable(_nested(_GROWTH, "utility.growth", GrowthBounds)), None)
_UTILITY_KINDS = {
    "appendix_power": ({"alpha": (_float, 0.5), "growth": _GROWTH_ENTRY}, appendix_power),
    "tabulated": ({"xs": (_numbers, _REQUIRED), "ys": (_numbers, _REQUIRED),
                   "growth": _GROWTH_ENTRY}, _tabulated),
}


@_raising
def _utility(value, errors: list[str]) -> Utility:
    return _variant(value, "kind", "appendix_power", _UTILITY_KINDS, errors, "utility", "kind")


def _measure(fallback_alpha, p, moment_exponents) -> tuple:
    """(fallback_alpha, moment_exponents); p, 2 where it is not given,
    adds p and -p to the default exponents, and is refused beside given
    exponents, which leave it unread."""
    errors = []
    if not 0.0 < fallback_alpha < 1.0:
        errors.append("measure.fallback_alpha: must lie in (0,1)")
    if p is not None and moment_exponents is not None:
        errors.append("measure.p: not read where measure.moment_exponents is given")
    if errors:
        raise ConfigError(errors)
    if moment_exponents is None:
        p = 2.0 if p is None else p
        moment_exponents = (-2.0, -1.0, 1.0, 2.0, p, -p)
    return fallback_alpha, moment_exponents


def _scenario(mode, n, seed) -> tuple:
    """(mode, n, seed), n and seed 0 where they are not given."""
    errors = []
    if mode not in ("exact", "monte_carlo"):
        errors.append(f"scenario.mode: unknown mode {mode!r}")
    if mode == "monte_carlo" and (n is None or n < 1):
        errors.append("scenario.n: monte_carlo mode needs n >= 1")
    if mode == "monte_carlo" and seed is None:
        errors.append("scenario.seed: monte_carlo mode needs a seed")
    if mode == "exact" and n is not None:
        errors.append("scenario.n: exact mode enumerates every row and reads no n")
    if errors:
        raise ConfigError(errors)
    return mode, n or 0, seed or 0


def _experiment(model, utility, solver, measure, scenario, output) -> ExperimentConfig:
    if not all(model.m <= k <= model.K for k in solver.ladder):
        raise ConfigError([f"solver.ladder: levels {list(solver.ladder)} must lie in "
                           f"[{model.m}, {model.K}]"])
    return ExperimentConfig(model, utility, solver, *measure, *scenario, out_dir=output)


_TOP = {
    "model": (_model, _REQUIRED),
    "utility": (_utility, {}),
    "solver": (_nested({"grad_tol": (_float, 1e-8), "max_iter": (_int, 10_000),
                        "ladder": (_list(_int), [])}, "solver", SolverConfig), {}),
    "measure": (_nested({"fallback_alpha": (_float, 0.5), "p": (_nullable(_float), None),
                         "moment_exponents": (_nullable(_floats), None)},
                        "measure", _measure), {}),
    "scenario": (_nested({"mode": (_str, "exact"), "n": (_nullable(_int), None),
                          "seed": (_nullable(lambda s: _seed(_int(s), 64)), None)},
                         "scenario", _scenario), {}),
    "output": (_str, "out"),
}


def parse_config(path: str) -> ExperimentConfig:
    """Load and validate a JSON experiment config; raises ConfigError
    listing every violation found."""
    raw = _load(path, "config")
    if isinstance(raw, dict) and isinstance(raw.get("model"), str):
        raw["model"] = os.path.join(os.path.dirname(path), raw["model"])
    return _nested(_TOP, "config", _experiment)(raw)
