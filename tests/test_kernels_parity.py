"""The pure-Python fallback must match the compiled kernels.

Runs the same workload in a subprocess with CHAOS_NO_NUMBA=1 and compares
end states, stroboscopic and velocity-zero events, and exponent estimates
against the in-process (possibly compiled) results.  The first run must
report the compiled kernels exactly when numba is importable; where it is
not, both runs use the fallback and the test says so in a warning, since
the comparison then checks the fallback against itself.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

DRIVER = r"""
import json, math
from chaoskit import *
from chaoskit import _kernels

spec = SystemSpec(
    form=FORM_B,
    params=Params(alpha=0.3, beta=1.2, gamma=0.4, delta=0.6, omega=2.0, n=3),
    epsilon=EpsilonSchedule.constant(0.2),
)
ini = State(0.0, 1.0, 0.0)
rk4 = integrate(spec, ini, IntegratorConfig(method="rk4", dt=1e-3, t_end=20.0))
rkf = integrate(spec, ini, IntegratorConfig(method="rkf45", dt=1e-3, t_end=20.0))
_, ev = integrate_with_events(
    spec, ini, IntegratorConfig(method="rk4", dt=1e-3, t_end=20.0), Stroboscopic(period=math.pi)
)
_, vz = integrate_with_events(
    spec, ini, IntegratorConfig(method="rk4", dt=1e-3, t_end=20.0), VelocityZeroCrossing()
)
var = lyapunov_variational(spec, ini, IntegratorConfig(method="rk4", dt=1e-2, t_end=100.0))
two = lyapunov_two_trajectory(spec, ini, IntegratorConfig(method="rk4", dt=1e-2, t_end=100.0))
print(json.dumps({
    "numba_disabled": _kernels.NUMBA_DISABLED,
    "numba_enabled": _kernels.NUMBA_ENABLED,
    "rk4_end": [rk4.x[-1], rk4.v[-1]],
    "rkf_end": [rkf.x[-1], rkf.v[-1], len(rkf.t)],
    "events": [list(ev.t), list(ev.x)],
    "vzero": [list(vz.t), list(vz.x)],
    "lam": [var.lam, two.lam],
}))
"""


def _run(env_flag):
    env = dict(os.environ)
    env["CHAOS_NO_NUMBA"] = env_flag
    out = subprocess.run(
        [sys.executable, "-c", DRIVER], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(out.stdout)


def test_fallback_matches_compiled_kernels():
    compiled = _run("0")
    fallback = _run("1")
    assert compiled["numba_enabled"] == (importlib.util.find_spec("numba") is not None)
    if not compiled["numba_enabled"]:
        warnings.warn("numba is not importable, so both runs used the fallback kernels")
    assert fallback["numba_disabled"] is True and fallback["numba_enabled"] is False
    assert compiled["rk4_end"] == pytest.approx(fallback["rk4_end"], rel=1e-12, abs=1e-14)
    assert compiled["rkf_end"][:2] == pytest.approx(fallback["rkf_end"][:2], rel=1e-9, abs=1e-12)
    assert compiled["rkf_end"][2] == fallback["rkf_end"][2]  # same accepted-step count
    assert compiled["events"][0] == fallback["events"][0]  # strobo times are exact
    assert compiled["events"][1] == pytest.approx(fallback["events"][1], rel=1e-12, abs=1e-14)
    # velocity-zero times are interpolated and refined from the grid states
    assert len(compiled["vzero"][0]) == len(fallback["vzero"][0]) > 0
    assert compiled["vzero"][0] == pytest.approx(fallback["vzero"][0], rel=1e-12, abs=1e-14)
    assert compiled["vzero"][1] == pytest.approx(fallback["vzero"][1], rel=1e-12, abs=1e-14)
    # variational tangents track the reference bitwise; the two-trajectory
    # companion magnifies last-bit differences through the log sum
    assert compiled["lam"][0] == pytest.approx(fallback["lam"][0], rel=1e-12, abs=1e-14)
    assert compiled["lam"][1] == pytest.approx(fallback["lam"][1], abs=1e-7)
