"""Run every CLI command on a fixed set of configs and keep all it produced.

    python tools/same_numbers.py OUT [--checkout DIR] [--blas-threads N]
    python tools/same_numbers.py --compare OUT_A OUT_B

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
(`*_tabulated`), and six variants in other noise laws or sizes
(`NOISE_VARIANTS`):
`mc_report_101` in standardized uniform and in dyadic (q = 0.1) noise,
the demo in a three-point law, the exact session's market at K = 9
in the same law (3^9 = 19 683 enumerated rows: a 2187-point tile under
9 heads, so the exact solver's Hessian has a block across heads and
tile on a tile that is not Rademacher), and at K = 14 and 15 in its own
Rademacher law, 2^14 and 2^15 rows on either side of the rule that puts
an exact set in product form (``optimize._product_form``).  So every
noise family, the discrete sampler's path for more than two points, and
both paths of an exact set reach a bundle.
They are copied to OUT/configs, and every command runs from OUT with
relative paths, so no output names the directory it ran in.

Two checkouts give the same numbers when `diff -r OUT_A OUT_B` prints
nothing, and one checkout's numbers do not depend on the BLAS thread
count when runs at `--blas-threads 1` and `2` do not differ.
`--checkout` points at a checkout other than the one holding this
script, such as an older commit that does not have it.

`--compare OUT_A OUT_B` says how two such directories differ.  Each file
is read as text cut into numbers and the text between them.  For each
file that is in one directory alone, or whose bytes differ, it prints one
line: the largest relative difference |a - b| / max(|a|, |b|) over the
numbers at the same place, with the line and the two numbers where it
is, where the text between the numbers is the same, and otherwise the
first line whose text differs.  It exits 0 when every file
is the same, else 1.  Only the standard library is imported here; the
commands need numpy and scipy.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import re
import subprocess
import sys

COMMANDS = ("check", "optimize", "measure", "report")
SEED = "42"
MC_SEED = 101
EXACT_SEED = 311
TABLE_ALPHA = 0.5
THREE_POINT = {"family": "finite_discrete", "points": [-1.5, 0.0, 1.5],
               "probs": [2 / 9, 5 / 9, 2 / 9]}
RADEMACHER = {"family": "rademacher"}
# (variant name, base config, K of perfbench's market section in place of
# the base's market or None to keep it, noise section)
NOISE_VARIANTS = (
    (f"mc_report_{MC_SEED}_uniform", f"mc_report_{MC_SEED}", None,
     {"family": "standardized_uniform"}),
    (f"mc_report_{MC_SEED}_dyadic", f"mc_report_{MC_SEED}", None,
     {"family": "dyadic_two_sided", "q": 0.1}),
    ("demo_three_point", "demo", None, THREE_POINT),
    (f"exact_session_{EXACT_SEED}_three_point", f"exact_session_{EXACT_SEED}", 9, THREE_POINT),
    (f"exact_session_{EXACT_SEED}_k14", f"exact_session_{EXACT_SEED}", 14, RADEMACHER),
    (f"exact_session_{EXACT_SEED}_k15", f"exact_session_{EXACT_SEED}", 15, RADEMACHER),
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
    for name, base, K, noise in NOISE_VARIANTS:
        model = out[base]["model"] if K is None else workloads.market_section(K)
        out[name] = {**out[base], "model": {**model, "noise": noise}}
    return out


# a number as Python and the CLI print one, sign included
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|[-+]?Infinity|NaN|nan)")


def files(root: str) -> set[str]:
    """The paths of every file under root, relative to it."""
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def difference(a: str, b: str) -> str:
    """How the texts a and b differ: the largest relative difference of
    their numbers, where the text between the numbers is the same, else
    the first line whose text differs."""
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb) or pa[::2] != pb[::2]:
        for line, (x, y) in enumerate(zip(a.splitlines() + [""], b.splitlines() + [""]), 1):
            if NUMBER.sub("#", x) != NUMBER.sub("#", y):
                return f"text differs at line {line}: {x[:60]!r} vs {y[:60]!r}"
        return "text differs"
    worst, count, where = 0.0, 0, ""
    line = 1
    for text, x, y in zip(pa[::2], pa[1::2], pb[1::2]):
        line += text.count("\n")
        if x == y:
            continue
        count += 1
        fx, fy = float(x.replace("Infinity", "inf")), float(y.replace("Infinity", "inf"))
        if fx == fy:
            continue  # one number written two ways
        top = max(abs(fx), abs(fy))
        rel = abs(fx - fy) / top if math.isfinite(top) else math.inf
        if rel > worst:
            worst, where = rel, f" at line {line}: {x} vs {y}"
    return f"{count} numbers differ, largest relative difference {worst:.3g}{where}"


def compare(out_a: str, out_b: str) -> int:
    """Print how the files under out_a and out_b differ; 1 if any does."""
    paths_a, paths_b = files(out_a), files(out_b)
    differ = 0
    for path in sorted(paths_a | paths_b):
        if path not in paths_b or path not in paths_a:
            print(f"{path}: only in {out_a if path in paths_a else out_b}")
            differ += 1
            continue
        with open(os.path.join(out_a, path), "rb") as fa, open(os.path.join(out_b, path), "rb") as fb:
            a, b = fa.read(), fb.read()
        if a != b:
            print(f"{path}: {difference(a.decode(errors='replace'), b.decode(errors='replace'))}")
            differ += 1
    print(f"{differ} of {len(paths_a | paths_b)} files differ")
    return int(differ > 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", nargs="?", help="directory for the outputs; must not exist")
    ap.add_argument("--compare", nargs=2, metavar=("OUT_A", "OUT_B"),
                    help="print how two output directories differ, and run nothing")
    ap.add_argument("--checkout", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="the checkout whose src/ runs (default: this script's)")
    ap.add_argument("--blas-threads", type=int, default=1, metavar="N",
                    help="OPENBLAS_NUM_THREADS and OMP_NUM_THREADS of the commands")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        ap.error("OUT is required unless --compare is given")
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
