"""Run every CLI command on a fixed set of configs and keep all it produced.

    python tools/same_numbers.py OUT [--checkout DIR] [--blas-threads N]

For each config, each of `check`, `optimize`, `measure` and `report` runs
as `python -m apmopt.cli COMMAND --config ... --out ... --seed 42` with
`OPENBLAS_NUM_THREADS` and `OMP_NUM_THREADS` set to N (default 1) and the
checkout's `src/` on the path.  Its
bundle goes to OUT/<config>/<command>/bundle, and its stdout, stderr and
exit code to stdout.txt, stderr.txt and exit_code.txt beside it.

The configs are the checkout's configs/*.json, perfbench's
`mc_report_config(101)`, its `exact_session_config(311)` (K = 19, 2^19
enumerated rows: a 4096-row tile under 128 heads) with the demo's
`measure` section, those three markets with a 4,001-point table of
appendix_power(0.5) on [-200, 200] in place of the utility
(`*_tabulated`), and three in other noise laws (`NOISE_VARIANTS`):
`mc_report_101` in standardized uniform and in dyadic (q = 0.1) noise,
and the demo in a three-point law.  So every noise family, and the
discrete sampler's path for more than two points, reaches a bundle.
They are copied to OUT/configs, and every command runs from OUT with
relative paths, so no output names the directory it ran in.

Two checkouts give the same numbers when `diff -r OUT_A OUT_B` prints
nothing, and one checkout's numbers do not depend on the BLAS thread
count when runs at `--blas-threads 1` and `2` do not differ.
`--checkout` points at a checkout other than the one holding this
script, such as an older commit that does not have it.  Only the
standard library is imported here; the commands need numpy and scipy.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys

COMMANDS = ("check", "optimize", "measure", "report")
SEED = "42"
MC_SEED = 101
EXACT_SEED = 311
TABLE_ALPHA = 0.5
# (variant name, base config, noise section)
NOISE_VARIANTS = (
    (f"mc_report_{MC_SEED}_uniform", f"mc_report_{MC_SEED}",
     {"family": "standardized_uniform"}),
    (f"mc_report_{MC_SEED}_dyadic", f"mc_report_{MC_SEED}",
     {"family": "dyadic_two_sided", "q": 0.1}),
    ("demo_three_point", "demo",
     {"family": "finite_discrete", "points": [-1.5, 0.0, 1.5],
      "probs": [2 / 9, 5 / 9, 2 / 9]}),
)


def power_table() -> dict:
    """appendix_power(TABLE_ALPHA) at x = -200, -199.9, ..., 200 as a
    tabulated utility section, under the demo's growth certificate."""
    xs = [(i - 2000) / 10 for i in range(4001)]
    ys = [TABLE_ALPHA * x if x <= 0 else (x + 1.0) ** TABLE_ALPHA - 1.0 for x in xs]
    return {"kind": "tabulated", "xs": xs, "ys": ys,
            "growth": {"alpha": 0.5, "beta": 1.5, "C1": 1.0, "C2": 1.0}}


def configs(checkout: str) -> dict[str, dict]:
    """Every config to run, by name."""
    sys.path.insert(0, os.path.join(checkout, "perfbench"))
    import workloads  # perfbench/workloads.py: standard library only

    out = {}
    for path in sorted(glob.glob(os.path.join(checkout, "configs", "*.json"))):
        with open(path) as fh:
            out[os.path.basename(path)[:-5]] = json.load(fh)
    out[f"mc_report_{MC_SEED}"] = workloads.mc_report_config(MC_SEED)
    out[f"exact_session_{EXACT_SEED}"] = {**workloads.exact_session_config(EXACT_SEED),
                                          "measure": out["demo"]["measure"]}
    for name in ("demo", f"mc_report_{MC_SEED}", f"exact_session_{EXACT_SEED}"):
        out[f"{name}_tabulated"] = {**out[name], "utility": power_table()}
    for name, base, noise in NOISE_VARIANTS:
        out[name] = {**out[base], "model": {**out[base]["model"], "noise": noise}}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="directory for the outputs; must not exist")
    ap.add_argument("--checkout", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="the checkout whose src/ runs (default: this script's)")
    ap.add_argument("--blas-threads", type=int, default=1, metavar="N",
                    help="OPENBLAS_NUM_THREADS and OMP_NUM_THREADS of the commands")
    args = ap.parse_args(argv)
    if args.blas_threads < 1:
        ap.error("--blas-threads must be at least 1")
    checkout = os.path.abspath(args.checkout)
    out = os.path.abspath(args.out)
    os.makedirs(os.path.join(out, "configs"))
    threads = str(args.blas_threads)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.path.join(checkout, "src"))
    env.pop("SEED", None)  # it would override --seed
    for name, config in configs(checkout).items():
        config_path = os.path.join("configs", f"{name}.json")
        with open(os.path.join(out, config_path), "w") as fh:
            json.dump(config, fh, indent=1)
        for command in COMMANDS:
            run_dir = os.path.join(name, command)
            os.makedirs(os.path.join(out, run_dir))
            proc = subprocess.run(
                [sys.executable, "-m", "apmopt.cli", command, "--config", config_path,
                 "--out", os.path.join(run_dir, "bundle"), "--seed", SEED],
                cwd=out, env=env, capture_output=True, text=True)
            for file, text in (("stdout.txt", proc.stdout), ("stderr.txt", proc.stderr),
                               ("exit_code.txt", f"{proc.returncode}\n")):
                with open(os.path.join(out, run_dir, file), "w") as fh:
                    fh.write(text)
            print(f"{name} {command}: exit {proc.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
