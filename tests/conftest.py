import numpy as np
import pytest

from apmopt import build_market, eval_u, rademacher, tabulated


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


def scaled_utility(u, factor):
    """factor * u as a tabulated utility, for scale-covariance tests."""
    xs = np.linspace(-200.0, 200.0, 40_001)
    return tabulated(xs, factor * eval_u(u, xs))


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
