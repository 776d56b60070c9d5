"""The fallback kernels read the packed spec as Python floats.

``integrate.run_kernel`` hands the fallback ``P.tolist()`` and reruns a call
on the float64 vector when Python arithmetic raises ``ArithmeticError``
where float64 gives inf or nan.  These tests hold every call path to the
vector's bits, including the runs that escape, overflow or raise.
"""

import importlib
import itertools

import numpy as np
import pytest

from chaoskit import _kernels as _k
from chaoskit import analysis
from chaoskit import (
    DIVERGED,
    FORM_B,
    ChaoskitError,
    DivergedTrajectory,
    EpsilonSchedule,
    IntegratorConfig,
    Nonlinearity,
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
from chaoskit.integrate import run_kernel

# the package exports the function integrate under the module's name
integrate_mod = importlib.import_module("chaoskit.integrate")

# the run that first showed the need for the rerun: x**5 overflows a Python
# float long before |x| passes the threshold
OVERFLOW = SystemSpec(
    form=FORM_B, params=Params(alpha=0.0, beta=0.0, gamma=1.0, delta=1.0, omega=1.0, n=5)
)
OVERFLOW_START = State(1.0, 2.0, 1.0)
BLOWUPS = (1e8, 1e150, 1e300)


def _presets(rng):
    k = float(rng.uniform(-3.0, 3.0))
    gs = [
        Nonlinearity.zero(),
        Nonlinearity.linear(k),
        Nonlinearity.cubic(k),
        Nonlinearity.sine(k, float(rng.uniform(0.1, 3.0))),
    ]
    epss = [
        EpsilonSchedule.zero(),
        EpsilonSchedule.constant(float(rng.uniform(0.0, 1.0))),
        EpsilonSchedule.power_law(float(rng.uniform(0.1, 2.0)), float(rng.choice([0.0, 0.5, 2.5]))),
    ]
    return gs, epss


def _random_runs(seed):
    """(spec, start, blowup) over every form, g and eps preset and threshold."""
    rng = np.random.default_rng(seed)
    kinds = [("B", 0, e) for e in range(3)]
    kinds += [(form, g, e) for form in ("A1", "A2") for g in range(4) for e in range(3)]
    for (form, g, e), blowup in itertools.product(kinds, BLOWUPS):
        gs, epss = _presets(rng)
        params = Params(
            alpha=float(rng.uniform(0.0, 1.0)),
            beta=float(rng.uniform(0.0, 2.0)),
            gamma=float(rng.uniform(0.0, 2.0)),
            delta=float(rng.uniform(-2.0, 2.0)),
            omega=float(rng.uniform(0.1, 3.0)),
            q=float(rng.choice([0.0, 0.5, 2.0])),
            n=int(rng.integers(1, 7)),
        )
        spec = SystemSpec(form=form, params=params, nonlinearity=gs[g], epsilon=epss[e])
        x0 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 2.5))
        yield spec, State(float(rng.choice([0.5, 1.0])), x0, float(rng.uniform(-3.0, 3.0))), blowup


def _call(fn, P, args):
    """(result, exception, record) of fn(P, *args); the record holds the
    bytes of the return values, or the exception, and of every buffer."""
    try:
        result, exc = fn(P, *args), None
        returned = tuple(np.asarray(r).tobytes() for r in result)
    except Exception as e:  # recorded for the comparison, then re-raised
        result, exc = None, e
        returned = (type(e).__name__, str(e))
    return result, exc, (returned, [a.tobytes() for a in args if isinstance(a, np.ndarray)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_python_floats_keep_the_vector_bits(monkeypatch):
    # each kernel call of the five paths runs twice: through run_kernel and
    # on the float64 vector with copied buffers; both must leave the same bits
    records, handed, reruns = [], [], []

    def twin(kernel, P, *args):
        copies = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        _, _, want = _call(kernel, P, copies)

        def spy(Q, *rest):
            handed.append(type(Q))
            try:
                return kernel(Q, *rest)
            except ArithmeticError:
                reruns.append(kernel.__name__)
                raise

        result, exc, got = _call(lambda Q, *rest: run_kernel(spy, Q, *rest), P, args)
        records.append((kernel.__name__, want, got))
        if exc is not None:
            raise exc
        return result

    monkeypatch.setattr(integrate_mod, "run_kernel", twin)
    monkeypatch.setattr(analysis, "run_kernel", twin)
    for spec, start, blowup in _random_runs(8):
        span = dict(dt=2e-2, t_end=start.t + 3.0, blowup_threshold=blowup)
        rk4 = IntegratorConfig(method="rk4", **span)
        for run in (
            lambda: integrate(spec, start, rk4),
            lambda: integrate(spec, start, IntegratorConfig(method="rkf45", **span)),
            lambda: integrate_with_events(spec, start, rk4, Stroboscopic(period=0.7)),
            lambda: integrate_with_events(spec, start, rk4, VelocityZeroCrossing()),
            lambda: lyapunov_two_trajectory(spec, start, rk4),
            lambda: lyapunov_variational(spec, start, rk4),
        ):
            try:
                run()
            except (ArithmeticError, ValueError, ChaoskitError):
                pass
    assert [name for name, want, got in records if want != got] == []
    assert {name for name, _, _ in records} == {
        "rk4_trajectory",
        "rkf45_trajectory",
        "rk4_events_strobo",
        "rk4_events_vzero",
        "benettin",
        "variational",
    }
    # not vacuous: the set holds completed, diverged and raising calls, and
    # on the fallback Python floats go in and some calls rerun on the vector
    first = {want[0][0] for _, want, _ in records}
    assert {np.asarray(_k.OK).tobytes(), np.asarray(_k.DIVERGED).tobytes(), "ValueError"} <= first
    assert _k.NUMBA_ENABLED or (list in handed and reruns)


@pytest.mark.parametrize("method, fail_t", [("rk4", 3.58), ("rkf45", 3.5604)])
def test_power_overflow_reports_diverged(method, fail_t):
    cfg = IntegratorConfig(method=method, dt=1e-2, t_end=50.0, blowup_threshold=1e150)
    with np.errstate(over="ignore"):
        traj = integrate(OVERFLOW, OVERFLOW_START, cfg)
    assert traj.status == DIVERGED
    assert traj.status_time == pytest.approx(fail_t, abs=5e-5)


@pytest.mark.parametrize("estimator", [lyapunov_two_trajectory, lyapunov_variational])
def test_power_overflow_raises_diverged_trajectory(estimator):
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=50.0, blowup_threshold=1e150)
    with np.errstate(over="ignore"), pytest.raises(DivergedTrajectory) as info:
        estimator(OVERFLOW, OVERFLOW_START, cfg)
    assert info.value.at_time == pytest.approx(3.58)


def test_fallback_kernel_receives_a_list(monkeypatch):
    handed = []
    kernel = _k.rk4_trajectory

    def spy(P, *args):
        handed.append(type(P))
        return kernel(P, *args)

    monkeypatch.setattr(_k, "rk4_trajectory", spy)
    integrate(OVERFLOW, OVERFLOW_START, IntegratorConfig(dt=1e-2, t_end=2.0))
    assert handed == [np.ndarray if _k.NUMBA_ENABLED else list]
