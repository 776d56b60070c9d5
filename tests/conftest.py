"""Shared fixtures and reporting hooks.

The hot kernels are JIT-compiled on first use; warm them once per session so
timed assertions measure the algorithms, not the compiler.  Acceptance
verdict lines are gathered here and echoed in the terminal summary, where
capture no longer hides them.  Several tests bisect the same frozen sweep
onto its critical parameter; ``shared_critical_bisect`` runs each such
bisection once per session.
"""

import pytest

from chaoskit import (
    FORM_B,
    IntegratorConfig,
    Params,
    State,
    Stroboscopic,
    SystemSpec,
    VelocityZeroCrossing,
    critical_bisect,
    integrate,
    integrate_with_events,
    lyapunov_two_trajectory,
    lyapunov_variational,
)

VERDICTS = []
_CRITICAL = {}


def record_verdict(line):
    VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def shared_critical_bisect(*args, estimator="variational"):
    """critical_bisect(*args, estimator=estimator), computed once per session
    for each set of arguments.  Callers must not modify the result."""
    key = (*args, estimator)
    if key not in _CRITICAL:
        _CRITICAL[key] = critical_bisect(*args, estimator=estimator)
    return _CRITICAL[key]


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    spec = SystemSpec(form=FORM_B, params=Params(alpha=0.5, beta=1.0, delta=0.1, omega=2.0))
    ini = State(0.0, 1.0, 0.0)
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=1.0)
    integrate(spec, ini, cfg)
    integrate(spec, ini, IntegratorConfig(method="rkf45", dt=1e-2, t_end=1.0))
    integrate_with_events(spec, ini, cfg, Stroboscopic(period=0.5))
    integrate_with_events(spec, ini, cfg, VelocityZeroCrossing(direction="any"))
    lyapunov_variational(spec, ini, cfg)
    lyapunov_two_trajectory(spec, ini, cfg)
