"""Shared fixtures and reporting hooks.

The hot kernels are JIT-compiled on first use; warm them once per session so
timed assertions measure the algorithms, not the compiler.  Acceptance
verdict lines, gathered in ``shared_results``, are echoed in the terminal
summary, where capture no longer hides them.
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
    integrate,
    integrate_with_events,
    lyapunov_two_trajectory,
    lyapunov_variational,
)
from shared_results import VERDICTS


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


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
