"""Command-line entry point.

Subcommands: check (assumption verdicts only), optimize, measure, report
(the full bundle).  Exit codes: 0 success, 2 when a market assumption
fails (one-sided coordinate, divergent drift series, arbitrage witness),
1 on internal error.  All randomness flows through a single seed; the
SEED environment variable overrides --seed which overrides the config.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ExperimentConfig, parse_config
from .diagnostics import (assemble_report, check_assumption_relevant,
                          emit_report, exp_ui_bound, holder_chain_check,
                          random_strategies, subgaussian_scan)
from .market import ArbitrageError, check_assumption_b, check_no_arbitrage
from .measures import build_tilted_measure, measure_moments, verify_pricing
from .optimize import detect_unbounded, truncation_ladder
from .scenarios import EnumerationCapError, enumerate_scenarios, sample_scenarios

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
    return ap


def _resolve_seed(cfg: ExperimentConfig, args) -> int:
    env = os.environ.get("SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"SEED must be an integer, got {env!r}") from None
    if args.seed is not None:
        return args.seed
    return cfg.seed


def _scenarios(cfg: ExperimentConfig, seed: int, n_override):
    if cfg.scenario_mode == "exact":
        return enumerate_scenarios(cfg.model)
    return sample_scenarios(cfg.model, n_override or cfg.n_scenarios, seed)


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
            print(f"solver did not converge at K={lv.K}: {lv.iterations} "
                  f"iterations, grad_norm {lv.grad_norm:.3e}", file=sys.stderr)
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
        print("assumption check failed; see report.json", file=sys.stderr)
        if "arbitrage_witness" in report:
            print(f"arbitrage witness direction: {report['arbitrage_witness']}",
                  file=sys.stderr)
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
            if cfg.utility.certified:
                strategies = random_strategies(model.K, 100, 1.0, seed + 1)
                sections["holder"] = holder_chain_check(
                    model, Q, cfg.utility, strategies, s)
    except ArbitrageError as exc:
        report = assemble_report(model, sections)
        report["arbitrage_error"] = str(exc)
        emit_report(report, cfg.out_dir)
        print(f"arbitrage detected: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION

    report = assemble_report(model, sections)
    emit_report(report, cfg.out_dir)
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        seed = _resolve_seed(cfg, args)
    except ValueError as exc:  # ConfigError or a malformed SEED
        print(str(exc), file=sys.stderr)
        return EXIT_INTERNAL
    if args.out:
        cfg.out_dir = args.out
    try:
        return run_command(args.command, cfg, seed, args.scenarios)
    except EnumerationCapError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 -- CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
