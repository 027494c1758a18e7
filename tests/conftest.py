import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from apmopt import ScenarioSet, build_market, eval_u, rademacher, tabulated


def rademacher_market(b, m=1):
    """Market with unit own-loadings, no cross loadings and drifts chosen
    so the reparametrized coefficients equal the given b."""
    K = len(b)
    return build_market(
        m, K,
        mu=[-x for x in b],
        beta=[[0.0] * m] * (K - m),
        beta_bar=[1.0] * K,
        noise=rademacher(),
    )


def row_set(s):
    """The rows and weights of s as a row set.  It holds no laws, so every
    path reads it row by row, though it keeps s's provenance label."""
    return ScenarioSet(s.draws, s.weights, s.provenance)


def scaled_utility(u, factor):
    """factor * u as a tabulated utility, for scale-covariance tests."""
    xs = np.linspace(-200.0, 200.0, 40_001)
    return tabulated(xs, factor * eval_u(u, xs))


def searchsorted_ppf(dist, u):
    """The inverse CDF by searchsorted on every law's cumulative
    probabilities, a reference for DistributionSpec.ppf: discrete laws
    and the standardized uniform."""
    if not dist.is_discrete:
        return (2.0 * u - 1.0) * np.sqrt(3.0)
    pts = np.asarray(dist.points)
    order = np.argsort(pts)
    cum = np.cumsum(np.asarray(dist.probs)[order])
    return pts[order][np.clip(np.searchsorted(cum, u, side="right"), 0, len(pts) - 1)]


def stdout_per_blas_thread_count(code):
    """The stdout of `python -c code`, with src/ on the path, under
    OPENBLAS_NUM_THREADS=1 and =2."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    return outs


@pytest.fixture
def market_k3():
    return rademacher_market([0.2, 0.1, 0.05])


@pytest.fixture
def market_zero_drift():
    return rademacher_market([0.0, 0.0, 0.0])


def pytest_configure(config):
    """Unclosed files and exceptions in finalizers fail this suite.  Set here
    rather than in pyproject.toml so the filters cover tests/ alone."""
    for spec in ("error::ResourceWarning",
                 "error::pytest.PytestUnraisableExceptionWarning"):
        config.addinivalue_line("filterwarnings", spec)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance module's one-line-per-criterion verdicts."""
    try:
        from test_acceptance import CRITERION_LINES
    except ImportError:
        return
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
