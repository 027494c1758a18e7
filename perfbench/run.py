#!/usr/bin/env python3
"""Benchmark of apmopt's two user paths: the `apmopt report` CLI and the
quick-start API.

    python3 perfbench/run.py --workload desk_report --seed 0 --seconds 30 --trace 0

Workloads are closed loops with one client and one process at a time:

* desk_report: one fresh `apmopt report` on configs/demo.json per
  operation.  Interpreter start and imports dominate.
* exact_k19_session: one in-process API session on an exact K=19 market
  (2^19 rows) per operation, in a fresh process after set-up.  The
  expectation kernel, solver, pricing, moments and Hoelder checks dominate.
* mc_k50_report: one fresh `apmopt report` on a generated Monte Carlo K=50
  config per operation.  Sampling, the K=50 LP and the ladder dominate.

With --trace 0 the run reports the end-to-end metrics: set-up time (median
of several fresh interpreters), operation wall time (median), both scaled
to a reference host speed (see Runner.probed), peak RSS of the operation's
process (median) and the share of output checks that hold.
With --trace 1 it alternates untraced and traced operations and reports
per-layer metrics: calls and self time of every traced apmopt function
(see tracer.py), import breakdown and solver, LP, pricing and bundle facts.
`--workload all` runs the three workloads in turn.

Human-readable lines go to stdout; the last line is one JSON object.
Every process runs on one CPU; every child with one BLAS/OpenMP thread and
without SEED.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

# This process imports no numpy and holds no large data: on Linux a child's
# ru_maxrss counts its parent's resident memory up to the child's exec, so a
# large parent would hide the peak_rss_mb of a small child.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

CONSOLE_SCRIPT = "import sys; from apmopt.cli import main; sys.exit(main())"
CHILD = os.path.join(HERE, "child.py")
HOSTREF = os.path.join(HERE, "hostref.py")
SETUP_SAMPLES = 11                  # fresh interpreters timed per run
IMPORTTIME_RUNS = 3
DEADLINE_MARGIN_S = 90.0            # children still running this long
                                    # after the run's length are killed
EXPECTATION_BYTES_PER_ROW = 16      # one weight and one value, float64
# End-to-end times are scaled to the host speed at which each part of
# hostref.py's probe, (interp, mem), takes REF_S seconds (see Runner.probed).
# Interpreter start and imports track the interpreter part alone; the
# numerical operations mix interpreter and memory-bound work and track both.
REF_S = 0.008
PROBE_PARTS = {"interp": (0,), "all": (0, 1)}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str       # "cli" or "session"
    make: object    # seed -> config dict; None reads the repo's desk config
    probe: str      # probe parts that track the operation, in PROBE_PARTS

    def config_path(self, seed: int) -> str:
        if self.make is None:
            return os.path.join(ROOT, workloads.DESK_CONFIG)
        path = os.path.join(WORK, f"{self.name}_seed{seed}.json")
        with open(path, "w") as fh:
            json.dump(self.make(seed), fh, indent=1)
        return path


WORKLOADS = {w.name: w for w in (
    Workload("desk_report", "cli", None, "interp"),
    Workload("exact_k19_session", "session", workloads.exact_session_config, "all"),
    Workload("mc_k50_report", "cli", workloads.mc_report_config, "all"),
)}


@dataclass
class Op:
    wall_s: float
    rss_mb: float
    cpu_s: float
    checks: dict
    host_scale: float = 1.0
    trace: dict | None = None
    python_start_s: float = 0.0
    import_s: float = 0.0
    unaccounted_s: float = 0.0
    bundle_bytes: int = 0


def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


class Runner:
    """One run of one workload: spawns children, times them, checks outputs."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        os.makedirs(WORK, exist_ok=True)
        self.w = workload
        self.seed = seed
        self.deadline = time.perf_counter() + seconds + DEADLINE_MARGIN_S
        self.env = {k: v for k, v in os.environ.items() if k != "SEED"}
        self.env.update(THREAD_PINS)
        self.env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
        self.config = workload.config_path(seed)
        self.out_dir = os.path.join(WORK, "out")
        self.result_path = os.path.join(WORK, "child.json")
        self.stderr_path = os.path.join(WORK, "child.stderr")
        self.first_digest = None
        with open(self.config) as fh:
            self.exact = json.load(fh).get("scenario", {}).get("mode", "exact") == "exact"
        self.refs = []                      # probe times (interp, mem), in run order
        self.probe = subprocess.Popen([sys.executable, HOSTREF], cwd=ROOT, env=self.env,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)

    def close(self) -> None:
        """Stop the probe process and wait for it."""
        self.probe.stdin.close()
        try:
            self.probe.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.probe.kill()
            self.probe.wait()

    def host_ref(self) -> tuple[float, float]:
        self.probe.stdin.write("\n")
        self.probe.stdin.flush()
        line = self.probe.stdout.readline()
        if not line:
            raise RuntimeError("host probe process ended")
        interp, mem = map(float, line.split())
        return interp, mem

    def spawn(self, args: list) -> tuple[float, float, int, object]:
        """Run one child to completion; returns (spawn, exit, code, rusage)."""
        with open(self.stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(self.stderr_path, errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"child {args[:2]} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return t0, t1, proc.returncode, usage

    def read_result(self) -> dict | None:
        try:
            with open(self.result_path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def probed(self, fn, parts: str):
        """Call `fn` between two host probes (the probe after one timed
        child is the one before the next).  Returns its result and the
        factor that scales its times to the reference host speed.

        The host switches between speed regimes that last from a second to
        minutes and slow CPU time and wall time alike, by up to 1.7x on
        interpreter-bound work and less on memory-bound work.  The probe
        parts that match the child's work, timed right before and after it,
        measure the regime the child ran in; the factor cancels most of the
        regime and keeps any change in apmopt's own speed.
        """
        if not self.refs:
            self.refs.append(self.host_ref())
        before = self.refs[-1]
        result = fn()
        self.refs.append(self.host_ref())
        idx = PROBE_PARTS[parts]
        measured = sum(before[i] + self.refs[-1][i] for i in idx) / 2.0
        return result, REF_S * len(idx) / measured

    def setup_sample(self) -> tuple[float, float]:
        """Spawn to import-and-parse done, in a fresh interpreter: its wall
        time and host scale.  Set-up is interpreter-bound on every workload."""
        def sample():
            _remove(self.result_path)
            t0, _, code, _ = self.spawn([CHILD, "setup", self.w.kind, self.config,
                                         self.result_path])
            res = self.read_result()
            if code != 0 or res is None:
                raise RuntimeError("set-up child failed")
            return res["t_ready"] - t0
        return self.probed(sample, "interp")

    def op(self, traced: bool) -> Op:
        def run():
            _remove(self.out_dir)
            _remove(self.result_path)
            if self.w.kind == "session":
                return self._session_op(traced)
            return self._cli_op(traced)
        op, op.host_scale = self.probed(run, self.w.probe)
        return op

    def _cli_op(self, traced: bool) -> Op:
        cli_args = ["report", "--config", self.config, "--seed", str(self.seed),
                    "--out", self.out_dir]
        if traced:
            args = [CHILD, "cli", self.result_path, *cli_args]
        else:
            args = ["-c", CONSOLE_SCRIPT, *cli_args]
        t0, t1, code, usage = self.spawn(args)
        checks, digest, size = workloads.cli_checks(code, self.out_dir,
                                                    self.first_digest, self.exact)
        if self.first_digest is None:
            self.first_digest = digest
        op = Op(wall_s=t1 - t0, rss_mb=usage.ru_maxrss / 1024.0,
                cpu_s=usage.ru_utime + usage.ru_stime, checks=checks,
                bundle_bytes=size)
        res = self.read_result() if traced else None
        if res is not None:
            op.trace = res["trace"]
            op.python_start_s = res["t0"] - t0
            op.import_s = res["t_import"] - res["t0"]
            op.unaccounted_s = (op.wall_s - op.python_start_s - op.import_s
                                - op.trace["top_s"])
        return op

    def _session_op(self, traced: bool) -> Op:
        t0, t1, code, usage = self.spawn([CHILD, "session", self.config, self.out_dir,
                                          "1" if traced else "0", self.result_path])
        res = self.read_result()
        if code != 0 or res is None:
            return Op(wall_s=t1 - t0, rss_mb=usage.ru_maxrss / 1024.0,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      checks={"completed": False})
        op = Op(wall_s=res["op_s"], rss_mb=usage.ru_maxrss / 1024.0,
                cpu_s=usage.ru_utime + usage.ru_stime, checks=res["checks"],
                trace=res["trace"],
                python_start_s=res["t0"] - t0, import_s=res["t_import"] - res["t0"],
                bundle_bytes=workloads.bundle_digest(self.out_dir)[1])
        if op.trace is not None:
            op.unaccounted_s = op.wall_s - op.trace["top_s"]
        return op

    def loop(self, seconds: float, step) -> list:
        """Closed loop: repeat `step` while the next one would end no later
        than half a step past the run length; at least once."""
        done = []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            done.append(step())
            now = time.perf_counter()
            if now - t_start + 0.5 * (now - t0) >= seconds:
                return done

    def import_breakdown(self) -> dict:
        """Cumulative import times from `python -X importtime`."""
        names = {"scipy.special": [], "scipy.optimize": []}
        for _ in range(IMPORTTIME_RUNS):
            self.spawn(["-X", "importtime", "-c", "import apmopt.cli"])
            found = dict.fromkeys(names, 0.0)
            with open(self.stderr_path) as fh:
                for line in fh:
                    m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
                    if m and m.group(2) in found:
                        found[m.group(2)] = int(m.group(1)) / 1e6
            for name, secs in found.items():
                names[name].append(secs)
        return {name: statistics.median(v) for name, v in names.items()}


def _checks_ok(ops: list) -> tuple[int, int]:
    attempted = sum(len(op.checks) for op in ops)
    passed = sum(sum(bool(v) for v in op.checks.values()) for op in ops)
    return passed, attempted


def run_plain(runner: Runner, seconds: float) -> tuple[dict, list, dict]:
    runner.setup_sample()  # warm the file cache and bytecode
    setups = []
    t_start = time.perf_counter()

    def step():
        # Spread set-up samples over the run, so they see the same host
        # speed regimes as the operations.
        due = 1 + SETUP_SAMPLES * (time.perf_counter() - t_start) / seconds
        while len(setups) < min(SETUP_SAMPLES, due):
            setups.append(runner.setup_sample())
        return runner.op(traced=False)

    ops = runner.loop(seconds, step)
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup_sample())
    passed, attempted = _checks_ok(ops)
    metrics = {
        "setup_s": (statistics.median(w * k for w, k in setups), "s", len(setups)),
        "op_s": (statistics.median(op.wall_s * op.host_scale for op in ops), "s", len(ops)),
        "peak_rss_mb": (statistics.median(op.rss_mb for op in ops), "MB", len(ops)),
        "checks_ok_frac": (passed / attempted, "frac", attempted),
    }
    notes = {"host.interp_s": [r[0] for r in runner.refs],
             "host.mem_s": [r[1] for r in runner.refs],
             "setup_wall_s": [w for w, _ in setups],
             "op_wall_s": [op.wall_s for op in ops]}
    return metrics, ops, notes


def run_traced(runner: Runner, seconds: float) -> tuple[dict, list, dict]:
    imports = runner.import_breakdown()
    runner.setup_sample()
    pairs = runner.loop(seconds, lambda: (runner.op(traced=False), runner.op(traced=True)))
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs if p[1].trace is not None]
    ops = plain + [p[1] for p in pairs]
    if not traced:
        raise RuntimeError("no traced operation completed")
    med = statistics.median
    t = traced[0].trace
    metrics = {}
    for name in tracer.LAYER_NAMES:
        metrics[f"{name}.calls"] = (t["calls"][name], "count", len(traced))
        metrics[f"{name}.self_s"] = (med(op.trace["self_s"][name] for op in traced),
                                     "s", len(traced))
    levels = t["levels"]
    iterations = sum(lv[0] for lv in levels)
    solve_s = med(op.trace["incl_s"]["optimize.optimize_truncated"] for op in traced)
    objective_calls = t["calls"]["optimize.saa_objective"]
    exp_s = med(op.trace["self_s"]["scenarios.expectation"] for op in traced)
    exp_bytes = t["expectation_rows"] * EXPECTATION_BYTES_PER_ROW
    op_s = med(op.wall_s * op.host_scale for op in plain)
    n = len(traced)
    metrics.update({
        "cli.python_start_s": (med(op.python_start_s for op in traced), "s", n),
        "cli.import_s": (med(op.import_s for op in traced), "s", n),
        "cli.cpu_s": (med(op.cpu_s for op in plain), "s", len(plain)),
        "import.scipy_special_s": (imports["scipy.special"], "s", IMPORTTIME_RUNS),
        "import.scipy_optimize_s": (imports["scipy.optimize"], "s", IMPORTTIME_RUNS),
        "scenarios.rows": (t["rows"], "count", n),
        "scenarios.expectation.gbps": (exp_bytes / exp_s / 1e9 if exp_s else 0.0,
                                       "GB/s", n),
        "optimize.iterations": (iterations, "count", n),
        "optimize.iter_s": (solve_s / iterations if iterations else 0.0, "s", n),
        "optimize.grad_norm": (max((lv[1] for lv in levels), default=0.0), "1", n),
        "optimize.accepted_step_frac": (
            iterations / (objective_calls - len(levels))
            if objective_calls > len(levels) else 0.0, "frac", n),
        "optimize.converged_frac": (
            sum(lv[2] for lv in levels) / len(levels) if levels else 0.0, "frac", n),
        "optimize.lp_rows": (t["lp_rows"], "count", n),
        "optimize.lp_witness_valid": (int(t["lp_witness_valid"]), "bool", n),
        "measures.max_pricing_residual": (t["max_pricing_residual"], "1", n),
        "diagnostics.bundle_bytes": (traced[0].bundle_bytes, "B", n),
        "host.ref_s": (med(sum(r) for r in runner.refs), "s", len(runner.refs)),
        "host.op_wall_s": (med(op.wall_s for op in plain), "s", len(plain)),
        "trace.overhead_frac": (med(op.wall_s * op.host_scale for op in traced) / op_s
                                - 1.0, "frac", n),
        "trace.unaccounted_frac": (med(op.unaccounted_s / op.wall_s for op in traced),
                                   "frac", n),
    })
    notes = {"host.ref_s": [sum(r) for r in runner.refs],
             "op_wall_s": [op.wall_s for op in plain],
             "traced_op_s": [op.wall_s for op in traced]}
    return metrics, ops, notes


def pin_to_one_cpu() -> None:
    """Run this process, the probe and every child on one CPU.

    On a shared VM each vCPU switches between speed regimes on its own, so
    the probe tracks the children's regime only on the CPU they run on.  The
    operations are single-threaded (one BLAS thread) and this process waits
    while a child runs, so one CPU costs them nothing.  The last CPU is
    taken because the first one serves most interrupts.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment() -> dict:
    with open(os.path.join(SRC, "apmopt", "__init__.py")) as fh:
        m = re.search(r'__version__\s*=\s*"([^"]+)"', fh.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "apmopt": m.group(1) if m else None,
        "commit": git_commit(),
        "child_env": {**THREAD_PINS, "SEED": "unset"},
    }


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
    except OSError:
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(WORKLOADS[name], seed, seconds)
    try:
        metrics, ops, notes = (run_traced if trace else run_plain)(runner, seconds)
    finally:
        runner.close()
    failed = [op for op in ops if workloads.failed_checks(op.checks)]
    known = sorted({c for op in ops for c, ok in op.checks.items()
                    if not ok and c in workloads.KNOWN_DEFECTS})
    print(f"== {name}  seed={seed}  seconds={seconds}  trace={int(trace)}  "
          f"operations={len(ops)}  failed={len(failed)}")
    for key, (value, unit, count) in metrics.items():
        label = " (16 B per row per call)" if key == "scenarios.expectation.gbps" else ""
        print(f"  {key:<40} {value:>14.6g} {unit:<6} median of {count}{label}")
    if known:
        print(f"  known library defects seen: {', '.join(known)}")
    for key, values in notes.items():
        print(f"  samples {key}: " + " ".join(f"{v:.4f}" for v in values))
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    pin_to_one_cpu()
    missing = [p for p in (os.path.join(SRC, "apmopt", "cli.py"),
                           os.path.join(ROOT, workloads.DESK_CONFIG))
               if not os.path.exists(p)]
    if missing:
        print(f"apmopt sources not found: {missing}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
