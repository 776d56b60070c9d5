"""The fallback kernels read the packed spec as Python floats.

``model.run_kernel`` hands the fallback ``P.tolist()`` and reruns a call on
the float64 vector, with its float arguments as float64 scalars, when Python
arithmetic raises ``ArithmeticError`` where float64 gives inf or nan.  These
tests hold every call path to the bits of the all-float64 call, including
the runs that escape, overflow or raise.
"""

import importlib
import inspect
import itertools

import numpy as np
import pytest

from chaoskit import _kernels as _k
from chaoskit import analysis, model
from chaoskit import (
    DIVERGED,
    FORM_A1,
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
    accel,
    accel_array,
    energy_trace,
    integrate,
    integrate_with_events,
    linearized_eigen,
    lyapunov_two_trajectory,
    lyapunov_variational,
    tangent_accel,
)
from chaoskit.model import pack_spec, run_kernel

# the package exports the function integrate under the module's name
integrate_mod = importlib.import_module("chaoskit.integrate")

# the run that first showed the need for the rerun: x**5 overflows a Python
# float long before |x| passes the threshold
OVERFLOW = SystemSpec(
    form=FORM_B, params=Params(alpha=0.0, beta=0.0, gamma=1.0, delta=1.0, omega=1.0, n=5)
)
OVERFLOW_START = State(1.0, 2.0, 1.0)
# an escaping A-form run: an RK4 stage position reaches inf between two
# checks, where Python's math.sin raises; the kernels' sin(omega*x) of it
# is nan, so every fixed-step run diverges at t = 1.15
ESCAPE = SystemSpec(
    form=FORM_A1,
    params=Params(alpha=0.1, beta=0.6, delta=0.35, omega=2.5),
    nonlinearity=Nonlinearity.cubic(-3.0),
)
ESCAPE_START = State(1.0, 3.0, 0.0)
ESCAPE_RUN = IntegratorConfig(dt=0.05, t_end=10.0, blowup_threshold=1e150)
# x0**100 overflows a Python float at the start state itself, so a rerun
# that kept the start state as Python floats raised again; in float64 the
# first step is inf and every fixed-step run diverges at t = 0.01
START_OVERFLOW = SystemSpec(
    form=FORM_B, params=Params(alpha=0.1, beta=1.0, gamma=1.0, delta=1.0, omega=2.0, n=100)
)
START_OVERFLOW_AT = State(0.0, 1e4, 0.0)
START_OVERFLOW_RUN = IntegratorConfig(dt=1e-2, t_end=1.0)
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


def _arrays(args):
    """The arrays among a kernel call's arguments: its output buffers and
    input samples."""
    return [a for a in args if isinstance(a, np.ndarray)]


def _call(thunk, arrays):
    """(result, exception, record) of thunk(); the record holds the bytes of
    the return values, or the exception, and of every array."""
    try:
        result, exc = thunk(), None
        values = result if isinstance(result, tuple) else (result,)
        returned = tuple(np.asarray(r).tobytes() for r in values)
    except Exception as e:  # recorded for the comparison, then re-raised
        result, exc = None, e
        returned = (type(e).__name__, str(e))
    return result, exc, (returned, [a.tobytes() for a in arrays])


def _paths(spec, start, blowup):
    """Every public path into a kernel, by name, for one system."""
    span = dict(dt=2e-2, t_end=start.t + 3.0, blowup_threshold=blowup)
    rk4 = IntegratorConfig(method="rk4", **span)
    # samples from the start out to |x| = inf, past every overflow, and a
    # state whose A1 argument x + coup*v overflows for coup > 1.8
    ts = start.t + np.linspace(0.0, 3.0, 32)
    xs = start.x * 10.0 ** np.linspace(0.0, 310.0, 32)
    vs = start.v * 10.0 ** np.linspace(0.0, 200.0, 32)
    far = State(start.t, start.x, 1e308)
    return {
        "rk4": lambda: integrate(spec, start, rk4),
        "rkf45": lambda: integrate(spec, start, IntegratorConfig(method="rkf45", **span)),
        "strobo": lambda: integrate_with_events(spec, start, rk4, Stroboscopic(period=0.7)),
        "vzero": lambda: integrate_with_events(spec, start, rk4, VelocityZeroCrossing()),
        "benettin": lambda: lyapunov_two_trajectory(spec, start, rk4),
        "variational": lambda: lyapunov_variational(spec, start, rk4),
        "accel": lambda: accel(spec, far),
        "tangent_accel": lambda: tangent_accel(spec, far, (0.3, -1.2)),
        "accel_array": lambda: accel_array(spec, ts, xs, vs),
        "linearized_eigen": lambda: linearized_eigen(spec, at_time=start.t),
    }


def _fixed_step_ends(spec, start, cfg):
    """(status, time) where each of the five fixed-step paths ends: three
    runs and the two estimators, which must raise DivergedTrajectory."""
    runs = [
        integrate(spec, start, cfg),
        integrate_with_events(spec, start, cfg, Stroboscopic(period=0.7))[0],
        integrate_with_events(spec, start, cfg, VelocityZeroCrossing())[0],
    ]
    ends = [(traj.status, traj.status_time) for traj in runs]
    for estimator in (lyapunov_two_trajectory, lyapunov_variational):
        with pytest.raises(DivergedTrajectory) as info:
            estimator(spec, start, cfg)
        ends.append((DIVERGED, info.value.at_time))
    return ends


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_python_floats_keep_the_vector_bits(monkeypatch):
    # each kernel call of every path runs twice from the same arrays: on the
    # float64 vector with float64 scalars, then through run_kernel; both
    # must leave the same bits, and the all-float64 call must never raise
    records, handed, reruns, path = [], [], [], [None]

    def twin(spec, kernel, *args):
        arrays = _arrays(args)
        saved = [a.copy() for a in arrays]
        scalars = [np.float64(a) if isinstance(a, float) else a for a in args]
        with np.errstate(all="ignore"):
            _, raised, want = _call(lambda: kernel(pack_spec(spec), *scalars), arrays)
        for a, before in zip(arrays, saved):
            a[...] = before

        def spy(P, *rest):
            handed.append(type(P))
            try:
                return kernel(P, *rest)
            except ArithmeticError:
                reruns.append(path[0])
                raise

        result, exc, got = _call(lambda: run_kernel(spec, spy, *args), arrays)
        records.append((path[0], raised, want, got))
        if exc is not None:
            raise exc
        return result

    for module in (model, integrate_mod, analysis):
        monkeypatch.setattr(module, "run_kernel", twin)
    runs = itertools.chain(_random_runs(8), [(START_OVERFLOW, START_OVERFLOW_AT, 1e8)])
    for spec, start, blowup in runs:
        paths = _paths(spec, start, blowup)
        for path[0], run in paths.items():
            try:
                run()
            except (ArithmeticError, ValueError, ChaoskitError):
                pass
    assert {record[0] for record in records} == set(paths)
    # the escaping A-form run diverges at 1.15 and the start-overflow run at
    # 0.01, on all five fixed-step paths
    path[0] = "escape"
    ends = _fixed_step_ends(ESCAPE, ESCAPE_START, ESCAPE_RUN)
    assert ends == [(DIVERGED, pytest.approx(1.15))] * 5
    path[0] = "start overflow"
    ends = _fixed_step_ends(START_OVERFLOW, START_OVERFLOW_AT, START_OVERFLOW_RUN)
    assert ends == [(DIVERGED, pytest.approx(0.01))] * 5
    assert [name for name, _, want, got in records if want != got] == []
    # not vacuous: the reference never fails in arithmetic, the set holds
    # completed and diverged calls, and on the fallback Python floats go in
    # and some calls rerun on the vector
    assert [name for name, raised, _, _ in records if isinstance(raised, ArithmeticError)] == []
    first = {want[0][0] for _, _, want, _ in records}
    assert {np.asarray(_k.OK).tobytes(), np.asarray(_k.DIVERGED).tobytes()} <= first
    # sin and cos of a non-finite argument are nan, so no call fails in math
    assert "ValueError" not in first
    assert _k.NUMBA_ENABLED or (list in handed and "start overflow" in reruns)


def test_a_state_of_ints_runs_as_floats():
    # State once kept Python ints, and x**100 of the int 10000 raised
    # OverflowError in the float64 rerun instead of reporting diverged
    ints = State(0, 10000, 0)
    assert [type(value) for value in (ints.t, ints.x, ints.v)] == [float] * 3
    got = integrate(START_OVERFLOW, ints, START_OVERFLOW_RUN)
    want = integrate(START_OVERFLOW, START_OVERFLOW_AT, START_OVERFLOW_RUN)
    assert (got.status, got.status_time) == (want.status, want.status_time)
    assert (want.status, want.status_time) == (DIVERGED, pytest.approx(0.01))
    for a, b in ((got.t, want.t), (got.x, want.x), (got.v, want.v)):
        assert a.tobytes() == b.tobytes()


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

    def spy(kernel):
        def call(P, *args):
            handed.append(type(P))
            return kernel(P, *args)

        return call

    for name in ("rk4_trajectory", "rhs_array"):
        monkeypatch.setattr(_k, name, spy(getattr(_k, name)))
    energy_trace(integrate(OVERFLOW, OVERFLOW_START, IntegratorConfig(dt=1e-2, t_end=2.0))).columns
    assert handed == [np.ndarray if _k.NUMBA_ENABLED else list] * 2


def test_every_kernel_takes_the_packed_spec_first():
    # one argument order: run_kernel calls kernel(P, *args), and the kernels
    # call one another the same way
    first = {}
    for name, fn in vars(_k).items():
        fn = getattr(fn, "py_func", fn)  # a compiled kernel keeps its Python source there
        if inspect.isfunction(fn) and fn.__module__ == _k.__name__:
            params = list(inspect.signature(fn).parameters)
            if "P" in params:
                first[name] = params[0]
    assert {"g_value", "rhs", "rhs_array", "rk4_step", "rk4_trajectory", "variational"} <= set(first)
    assert {name: param for name, param in first.items() if param != "P"} == {}
