"""Command-line entry point.

Subcommands: check (assumption verdicts only), optimize, measure, report
(the full bundle).  Exit codes: 0 success, 2 when a market assumption
fails (one-sided coordinate, divergent drift series, arbitrage witness),
1 on internal error.  Two of report.json's verdicts gate the exit code:
``assumption_b`` (the drifts' squares sum) and ``novum_na`` (every
coordinate's noise straddles its drift); when either fails, every
command exits 2.  The tail and uniform-integrability verdicts
(``relevant_tails``, ``relevant_ui``) and ``novum_subgauss`` are reported
but never gate: the paper's theorem does without the tail hypothesis.
All randomness flows through a single seed; the SEED environment
variable overrides --seed which overrides the config.

Messages go to stderr through the ``apmopt`` logger, one bare line each;
under -v an internal error also prints its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ConfigError, ExperimentConfig, parse_config
from .diagnostics import (assemble_report, check_assumption_relevant,
                          emit_report, exp_ui_bound, holder_chain_check,
                          random_strategies, subgaussian_scan)
from .market import ArbitrageError, check_assumption_b, check_no_arbitrage
from .measures import build_tilted_measure, measure_moments, verify_pricing
from .optimize import detect_unbounded, truncation_ladder
from .scenarios import (EnumerationCapError, _seed, enumerate_scenarios,
                        sample_scenarios)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_ASSUMPTION = 2


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="apmopt",
                                 description="factor-market utility "
                                             "maximization toolkit")
    ap.add_argument("command", choices=["check", "optimize", "measure", "report"])
    ap.add_argument("--config", required=True, help="experiment config (JSON)")
    ap.add_argument("--out", default=None, help="output directory override")
    ap.add_argument("--seed", type=int, default=None, help="seed override")
    ap.add_argument("--scenarios", type=int, default=None,
                    help="Monte Carlo scenario count override")
    ap.add_argument("--workers", type=int, default=1,
                    help="reserved; has no effect on the run or its results")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="print the traceback of an internal error")
    return ap


_STDERR = None  # the handler _log added to the apmopt logger, if any


def _log():
    """The apmopt logger.  Where no handler is set on it, the first call
    adds one that writes each record as one bare line to stderr and to
    nothing else, and every call points that handler at the current
    sys.stderr; an application that set its own handlers keeps them as
    they are.  logging is imported here, at the first message, not with
    the module: the import adds about 0.5 MB to the peak RSS of a demo
    report, and most runs print nothing."""
    global _STDERR
    import logging
    log = logging.getLogger("apmopt")
    if not log.handlers:
        _STDERR = logging.StreamHandler()
        _STDERR.setFormatter(logging.Formatter("%(message)s"))
        log.addHandler(_STDERR)
        log.setLevel(logging.INFO)
        log.propagate = False
    if _STDERR is not None:
        _STDERR.stream = sys.stderr  # not setStream, which flushes the old one
    return log


def _resolve_seed(cfg: ExperimentConfig, args) -> int:
    env = os.environ.get("SEED")
    if env is None and args.seed is None:
        return cfg.seed
    source, seed = ("--seed", args.seed) if env is None else ("SEED", env)
    try:
        return _seed(int(seed), 64)  # the Monte Carlo stream's key range
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _scenarios(cfg: ExperimentConfig, seed: int, n_override):
    if cfg.scenario_mode == "exact":
        return enumerate_scenarios(cfg.model)
    n = cfg.n_scenarios if n_override is None else n_override
    return sample_scenarios(cfg.model, n, seed)


def _require_runnable(command: str, cfg: ExperimentConfig) -> None:
    """Raise ConfigError, before any work, for a config that parses but
    cannot run command: measure and report calibrate a tilt on every
    noise coordinate, which needs a finite-discrete law."""
    if command in ("measure", "report"):
        for i, dist in enumerate(cfg.model.noise):
            if not dist.is_discrete:
                raise ConfigError([f"model.noise: {command} calibrates a tilt on every "
                                   f"coordinate, which needs a finite-discrete law; "
                                   f"coordinate {i + 1} is {dist.family!r}"])


def _assumptions_ok(cfg: ExperimentConfig) -> bool:
    return (check_assumption_b(cfg.model).verdict != "fails"
            and check_no_arbitrage(cfg.model).passed)


def _optimizer_section(cfg: ExperimentConfig, s) -> dict:
    found, witness = detect_unbounded(cfg.model, s)
    if found:
        raise ArbitrageError(
            "scenario-set arbitrage direction found: "
            + np.array2string(witness, precision=6))
    rep = truncation_ladder(cfg.model, cfg.utility, cfg.solver, s)
    for lv in rep.levels:
        if not lv.converged:
            _log().warning("solver did not converge at K=%d: %d iterations, "
                           "grad_norm %.3e", lv.K, lv.iterations, lv.grad_norm)
    return rep.to_dict()


def _measure_section(cfg: ExperimentConfig, Q, s) -> dict:
    mom = measure_moments(Q, s, cfg.moment_exponents)
    pricing = verify_pricing(Q, cfg.model, s=s)
    coords = []
    for i, c in enumerate(Q.coords):
        coords.append({
            "i": i + 1,
            "b": float(cfg.model.b[i]),
            "a": c.a,
            "z": c.z,
            "method": c.method,
            "residual": pricing["asset_residuals"][i],
        })
    out = mom.to_dict()
    out["max_pricing_residual"] = pricing["max_residual"]
    out["coordinates"] = coords
    return out


def run_command(command: str, cfg: ExperimentConfig, seed: int,
                n_override=None) -> int:
    sections: dict = {"seed": seed}
    model = cfg.model
    ok = _assumptions_ok(cfg)

    if command in ("check", "report") or not ok:
        sections["subgauss"] = subgaussian_scan(model)
        sections["relevant"] = check_assumption_relevant(model)
    if command == "check":
        emit_report(assemble_report(model, sections), cfg.out_dir)
        return EXIT_OK if ok else EXIT_ASSUMPTION

    if not ok:
        report = assemble_report(model, sections)
        try:
            found, witness = detect_unbounded(model, _scenarios(cfg, seed, n_override))
            if found:
                report["arbitrage_witness"] = [float(x) for x in witness]
        except EnumerationCapError:
            pass
        emit_report(report, cfg.out_dir)
        _log().warning("assumption check failed; see report.json")
        if "arbitrage_witness" in report:
            _log().warning("arbitrage witness direction: %s", report["arbitrage_witness"])
        return EXIT_ASSUMPTION

    s = _scenarios(cfg, seed, n_override)
    sections["scenario_set"] = {"provenance": s.provenance, "rows": s.n}

    try:
        if command in ("optimize", "report"):
            sections["optimizer"] = _optimizer_section(cfg, s)
        if command in ("measure", "report"):
            Q = build_tilted_measure(model, cfg.fallback_alpha)
            sections["measure"] = _measure_section(cfg, Q, s)
        if command == "report":
            sections["exp_moment"] = exp_ui_bound(model, s, delta=1.0,
                                                  trials=100, seed=seed)
            if cfg.utility.has_growth_bounds:
                strategies = random_strategies(model.K, 100, 1.0, seed + 1)
                sections["holder"] = holder_chain_check(
                    model, Q, cfg.utility, strategies, s)
    except ArbitrageError as exc:
        report = assemble_report(model, sections)
        report["arbitrage_error"] = str(exc)
        emit_report(report, cfg.out_dir)
        _log().warning("arbitrage detected: %s", exc)
        return EXIT_ASSUMPTION

    report = assemble_report(model, sections)
    emit_report(report, cfg.out_dir)
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        _require_runnable(args.command, cfg)
        seed = _resolve_seed(cfg, args)
        if args.scenarios is not None and args.scenarios < 1:
            raise ValueError(f"--scenarios must be at least 1, got {args.scenarios}")
        if args.scenarios is not None and cfg.scenario_mode == "exact":
            raise ValueError("--scenarios: an exact config enumerates every row "
                             "and reads no scenario count")
        if args.out == "":
            raise ValueError("--out: must not be empty")
    except ValueError as exc:  # ConfigError, a bad seed, scenario count or --out
        _log().error("%s", exc)
        return EXIT_INTERNAL
    if args.out is not None:
        cfg = cfg.replace(out_dir=args.out)
    try:
        return run_command(args.command, cfg, seed, args.scenarios)
    except EnumerationCapError as exc:
        _log().error("scenario error: %s", exc)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 -- CLI boundary
        _log().error("internal error: %s", exc, exc_info=args.verbose)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
