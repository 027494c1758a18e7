"""Acceptance gate: ten go/no-go checks, each printing one pass/fail line.

Every check runs at desk scale with a pinned tolerance and, where the
requirement states one, a wall-clock budget.  Oracles are computed inline
and independently of the library paths under test.
"""

import json
import sys
import time

import numpy as np

from apmopt import (DiscretePayoff, GrowthBounds, appendix_power,
                    build_market, build_tilted_measure, check_no_arbitrage,
                    detect_unbounded, enumerate_scenarios, expectation,
                    optimize_single_asset, optimize_truncated, psi,
                    rademacher, sample_scenarios, single_asset_measure,
                    solve_tilt, truncation_ladder, verify_pricing,
                    SolverConfig)
from apmopt.cli import main
from apmopt.diagnostics import (exp_ui_bound, holder_chain_check,
                                random_strategies)
from apmopt.optimize import saa_gradient, saa_objective
from conftest import rademacher_market

from test_cli import CONFIGS


# one line per criterion, echoed into the terminal summary by conftest
CRITERION_LINES: list[str] = []


def _emit(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status}: {detail}"
    CRITERION_LINES.append(line)
    print(line, file=sys.stderr)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_single_asset_optimum_and_measure():
    t0 = time.perf_counter()
    payoff = DiscretePayoff((0.8, -1.2), (0.5, 0.5))
    phi, _ = optimize_single_asset(payoff, appendix_power(0.5))
    dens, rep = single_asset_measure(payoff, 0.5)
    elapsed = time.perf_counter() - t0
    ok = (abs(phi - (-25.0 / 24.0)) <= 1e-6
          and abs(rep["E_W[X]"]) <= 1e-9
          and rep["density_max"] <= rep["density_bound"] + 1e-12
          and elapsed < 1.0)
    _emit(1, ok, f"phi*={phi:.9f} (target -25/24), |E_W[X]|="
                 f"{abs(rep['E_W[X]']):.2e}, density bounded, {elapsed:.3f}s")


def test_criterion_02_tilt_solver():
    t0 = time.perf_counter()
    dist = rademacher()
    max_resid = 0.0
    for b in (0.0, 0.1, -0.1, 0.2, -0.2, 0.4, -0.4):
        model = rademacher_market([b])
        Q = build_tilted_measure(model)
        s = enumerate_scenarios(model)
        resid = expectation(s, Q.density(s.draws) * (s.draws[:, 0] - b))
        max_resid = max(max_resid, abs(resid))
    a0 = solve_tilt(dist, 0.0)
    a2 = solve_tilt(dist, 0.2)
    # independent oracle: fine-grid scan of the unnormalized first moment
    grid = np.arange(-2.0, 0.0, 1e-5)
    g = 0.5 * psi(0.8 * grid) * 0.8 + 0.5 * psi(-1.2 * grid) * (-1.2)
    a_oracle = float(grid[int(np.argmin(np.abs(g)))])
    elapsed = time.perf_counter() - t0
    ok = (max_resid <= 1e-10 and a0 == 0.0
          and abs(a2 - a_oracle) <= 1e-3 and elapsed < 1.0)
    _emit(2, ok, f"max |E_Q[eps-b]|={max_resid:.2e}, a(0)={a0}, "
                 f"a(0.2)={a2:.4f} vs scan {a_oracle:.4f}, {elapsed:.3f}s")


def test_criterion_03_optimizer_vs_grid_search():
    t0 = time.perf_counter()
    model = rademacher_market([0.2, 0.1, 0.05])
    s = enumerate_scenarios(model)
    u = appendix_power(0.5)
    res = optimize_truncated(model, u, None, s)

    # brute-force oracle on [-3, 3]^3 at step 0.01, evaluated inline with
    # preallocated buffers; u(v) = sqrt(max(v,0)+1) - 1 + 0.5 min(v,0)
    g = np.arange(-3.0, 3.0 + 1e-12, 0.01, dtype=np.float32)
    A = (s.draws - model.b).astype(np.float32)
    w = s.weights.astype(np.float32)
    yz = [np.add.outer(A[k, 1] * g, A[k, 2] * g) for k in range(s.n)]
    shape = (g.size, g.size)
    obj = np.empty(shape, dtype=np.float32)
    v = np.empty(shape, dtype=np.float32)
    pos = np.empty(shape, dtype=np.float32)
    best = -np.inf
    for x in g:
        obj.fill(0.0)
        for k in range(s.n):
            np.add(yz[k], np.float32(A[k, 0] * x), out=v)
            np.maximum(v, 0.0, out=pos)
            np.subtract(v, pos, out=v)          # v <- min(v, 0)
            np.add(pos, 1.0, out=pos)
            np.sqrt(pos, out=pos)
            np.multiply(v, 0.5, out=v)
            np.add(v, pos, out=v)
            np.subtract(v, 1.0, out=v)
            np.multiply(v, w[k], out=v)
            np.add(obj, v, out=obj)
        best = max(best, float(obj.max()))

    X = s.draws - model.b
    gen = np.random.Generator(np.random.Philox(key=11))
    fd_ok = True
    for _ in range(10):
        phi = gen.uniform(-1.5, 1.5, 3)
        if np.min(np.abs(X @ phi)) < 1e-4:
            phi = phi + 1e-3
        grad = saa_gradient(u, X, s.weights, phi)
        fd = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1e-6
            fd[k] = (saa_objective(u, X, s.weights, phi + e)
                     - saa_objective(u, X, s.weights, phi - e)) / 2e-6
        fd_ok = fd_ok and bool(np.allclose(grad, fd, rtol=1e-5, atol=1e-8))

    elapsed = time.perf_counter() - t0
    ok = abs(res.value - best) <= 1e-3 and fd_ok and elapsed < 30.0
    _emit(3, ok, f"value={res.value:.6f} vs grid {best:.6f} "
                 f"(diff {abs(res.value - best):.2e}), gradient FD "
                 f"{'ok' if fd_ok else 'MISMATCH'}, {elapsed:.1f}s")


def test_criterion_04_truncation_ladder_monotone():
    t0 = time.perf_counter()
    model = rademacher_market([0.4 * 2.0 ** -(i + 1) for i in range(8)])
    rep = truncation_ladder(model, appendix_power(0.5),
                            SolverConfig(ladder=(1, 2, 4, 8)))
    v = rep.values()
    elapsed = time.perf_counter() - t0
    monotone = all(b >= a - 1e-8 for a, b in zip(v, v[1:]))
    contracting = abs(v[3] - v[2]) < abs(v[2] - v[1])
    ok = monotone and contracting and elapsed < 60.0
    _emit(4, ok, f"values={[round(x, 6) for x in v]}, monotone={monotone}, "
                 f"|v8-v4|<|v4-v2|={contracting}, {elapsed:.1f}s")


def test_criterion_05_jensen_zero_case():
    model = rademacher_market([0.0, 0.0, 0.0])
    s = enumerate_scenarios(model)
    res = optimize_truncated(model, appendix_power(0.5), None, s)
    norm = float(np.linalg.norm(res.phi_star))
    ok = norm <= 1e-4 and abs(res.value - 0.0) <= 1e-8  # u(0) = 0
    _emit(5, ok, f"||phi*||={norm:.2e}, value={res.value:.2e} (target u(0)=0)")


def test_criterion_06_exp_moment_bound():
    model = rademacher_market([0.0] * 4)
    s = enumerate_scenarios(model)
    out = exp_ui_bound(model, s, delta=1.0, trials=100, seed=6)
    worst = max(row["value"] / (2.0 * np.exp(0.5 * row["norm"] ** 2))
                for row in out["measurements"])
    ok = worst <= 1.0 + 1e-9
    _emit(6, ok, f"100 strategies, worst value/cap ratio={worst:.12f}")


def test_criterion_07_pricing_residuals():
    model = rademacher_market([0.2, 0.1, 0.05])
    Q = build_tilted_measure(model)
    exact = verify_pricing(Q, model)["max_residual"]

    n = 10 ** 6
    s = sample_scenarios(model, n, seed=7)
    dens = Q.density(s.draws)
    mc_ok = True
    worst_ratio = 0.0
    for i in range(3):
        samples = dens * (s.draws[:, i] - model.b[i])  # R_i on this fixture
        resid = abs(float(samples.mean()))
        se = float(samples.std(ddof=1)) / np.sqrt(n)
        worst_ratio = max(worst_ratio, resid / (5.0 * se))
        mc_ok = mc_ok and resid <= 5.0 * se
    ok = exact <= 1e-10 and mc_ok
    _emit(7, ok, f"exact max residual={exact:.2e}, MC(n=1e6) worst "
                 f"residual/(5 SE)={worst_ratio:.3f}")


def test_criterion_08_holder_chain_margins():
    u = appendix_power(0.5, GrowthBounds(0.5, 1.5, 1.0, 1.0))
    fixtures = [
        rademacher_market([0.2, 0.1, 0.05]),
        build_market(1, 3, mu=[0.1, -0.05, 0.2], beta=[[0.4], [-0.8]],
                     beta_bar=[1.0, 2.0, -1.5], noise=rademacher()),
    ]
    worst = np.inf
    for model in fixtures:
        Q = build_tilted_measure(model)
        s = enumerate_scenarios(model)
        strategies = random_strategies(model.K, 100, 1.0, seed=8)
        out = holder_chain_check(model, Q, u, strategies, s)
        worst = min(worst, out["min_margin"])
    ok = worst >= -1e-9
    _emit(8, ok, f"min chain margin over 2 markets x 100 strategies={worst:.4f}")


def test_criterion_09_arbitrage_detection(tmp_path):
    model = rademacher_market([-1.0, 0.0])
    verdict = check_no_arbitrage(model)
    s = enumerate_scenarios(model)
    found, witness = detect_unbounded(model, s)
    code = main(["optimize", "--config", str(CONFIGS / "arbitrage.json"),
                 "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    ok = (not verdict.passed and verdict.flagged == (1,)
          and found and "arbitrage_witness" in report and code == 2)
    _emit(9, ok, f"flagged coords={verdict.flagged}, witness={witness}, "
                 f"optimize exit code={code}")


def test_criterion_10_deterministic_bundles(tmp_path):
    outs = []
    for workers in ("1", "8"):
        out = tmp_path / f"w{workers}"
        code = main(["report", "--config", str(CONFIGS / "demo.json"),
                     "--out", str(out), "--seed", "42",
                     "--workers", workers])
        assert code == 0
        outs.append(out)
    files = sorted(p.relative_to(outs[0])
                   for p in outs[0].rglob("*") if p.is_file())
    identical = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                    for f in files)
    ok = identical and len(files) >= 2
    _emit(10, ok, f"{len(files)} bundle files byte-identical across "
                  f"worker counts: {identical}")
