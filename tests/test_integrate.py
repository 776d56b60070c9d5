"""Integrators and event detection against closed-form oracles.

The damped linear oscillator x'' + alpha x' + beta x = 0 has the exact
solution used throughout: for v0 = 0,
x(t) = x0 exp(-alpha t / 2) (cos(nu t) + (alpha / (2 nu)) sin(nu t)),
nu = sqrt(beta - alpha^2 / 4).
"""

import hashlib
import math
import sys

import numpy as np
import pytest
from test_kernel_digests import SYSTEMS

from chaoskit import _kernels as _k
from chaoskit import (
    COMPLETED,
    DIVERGED,
    FORM_A1,
    FORM_B,
    STEP_FAILURE,
    EpsilonSchedule,
    IntegratorConfig,
    Params,
    SingularTime,
    State,
    Stroboscopic,
    SystemSpec,
    ValidationError,
    VelocityZeroCrossing,
    integrate,
    integrate_with_events,
)
from chaoskit.integrate import grid_steps
from chaoskit.model import run_kernel

LINEAR = SystemSpec(form=FORM_B, params=Params(alpha=0.5, beta=1.0))
UNDAMPED = SystemSpec(form=FORM_B, params=Params(alpha=0.0, beta=1.0))
# odd-symmetric cubic forcing: large initial amplitude escapes in finite time
ESCAPING = SystemSpec(
    form=FORM_B,
    params=Params(alpha=0.1, beta=1.0, gamma=1.0, delta=1.0, omega=1.0, n=3),
)


def exact_linear(t, x0=1.0, alpha=0.5, beta=1.0):
    nu = math.sqrt(beta - alpha**2 / 4)
    decay = math.exp(-alpha * t / 2)
    return x0 * decay * (math.cos(nu * t) + (alpha / (2 * nu)) * math.sin(nu * t))


def test_rk4_matches_closed_form():
    cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=30.0)
    traj = integrate(LINEAR, State(0.0, 1.0, 0.0), cfg)
    assert traj.status == COMPLETED
    assert abs(traj.x[-1] - exact_linear(30.0)) < 1e-11


def test_rkf45_matches_closed_form():
    cfg = IntegratorConfig(method="rkf45", dt=1e-2, t_end=30.0, abs_tol=1e-10, rel_tol=1e-10)
    traj = integrate(LINEAR, State(0.0, 1.0, 0.0), cfg)
    assert traj.status == COMPLETED
    assert traj.t[-1] == 30.0
    assert abs(traj.x[-1] - exact_linear(30.0)) < 1e-7


def test_rkf45_tightening_tolerance_tightens_error():
    errs = []
    for tol in (1e-6, 1e-9, 1e-12):
        cfg = IntegratorConfig(method="rkf45", dt=1e-2, t_end=30.0, abs_tol=tol, rel_tol=tol)
        traj = integrate(LINEAR, State(0.0, 1.0, 0.0), cfg)
        errs.append(abs(traj.x[-1] - exact_linear(30.0)))
    assert errs[0] > errs[1] > errs[2]


def test_fehlberg_tableau_is_consistent():
    # each stage's time offset is its row sum, B5 sums to 1 and E to 0, and
    # B5 - E gives Fehlberg's fourth-order weights
    for c, row in zip(_k.C, _k.A):
        assert abs(math.fsum(row) - c) <= 1e-15
    assert abs(math.fsum(_k.B5) - 1.0) <= 1e-15
    assert abs(math.fsum(_k.E)) <= 1e-15
    b4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)
    assert all(abs(b5 - e - b) <= 1e-15 for b5, e, b in zip(_k.B5, _k.E, b4))


def test_grid_is_snapped_to_t_end():
    # span 1.0 with dt 0.3 -> 4 steps of 0.25, never a short trailing step
    cfg = IntegratorConfig(method="rk4", dt=0.3, t_end=1.0)
    traj = integrate(LINEAR, State(0.0, 1.0, 0.0), cfg)
    assert traj.t[-1] == 1.0
    assert len(traj.t) == 5
    assert np.allclose(np.diff(traj.t), 0.25, rtol=0, atol=1e-15)


def test_sample_every_keeps_final_state():
    dense = integrate(LINEAR, State(0.0, 1.0, 0.0), IntegratorConfig(method="rk4", dt=1e-3, t_end=2.0))
    thin = integrate(
        LINEAR, State(0.0, 1.0, 0.0), IntegratorConfig(method="rk4", dt=1e-3, t_end=2.0, sample_every=7)
    )
    assert thin.t[0] == 0.0
    assert thin.t[-1] == 2.0
    assert thin.x[-1] == dense.x[-1]
    assert len(thin.t) < len(dense.t)


def test_rk4_energy_drift_is_fourth_order_small():
    cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=100.0, sample_every=100)
    traj = integrate(UNDAMPED, State(0.0, 1.0, 0.0), cfg)
    energy = (traj.x**2 + traj.v**2) / 2
    assert np.max(np.abs(energy - 0.5)) < 1e-10


def test_divergence_is_a_status_not_an_exception():
    cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=50.0)
    traj = integrate(ESCAPING, State(0.0, 6.0, 0.0), cfg)
    assert traj.status == DIVERGED
    assert 0.0 < traj.status_time < 50.0
    # adaptive integrator agrees on the escape
    traj2 = integrate(ESCAPING, State(0.0, 6.0, 0.0), IntegratorConfig(method="rkf45", dt=1e-3, t_end=50.0))
    assert traj2.status == DIVERGED
    assert abs(traj2.status_time - traj.status_time) < 1.0


def test_blowup_threshold_is_configurable():
    cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=50.0, blowup_threshold=10.0)
    traj = integrate(LINEAR, State(0.0, 11.0, 0.0), cfg)
    assert traj.status == DIVERGED
    assert traj.status_time == 0.0  # initial state already beyond threshold


def test_rkf45_step_failure_on_unreachable_tolerance():
    cfg = IntegratorConfig(method="rkf45", dt=1e-2, t_end=10.0, abs_tol=1e-300, rel_tol=1e-300)
    traj = integrate(LINEAR, State(0.0, 1.0, 0.0), cfg)
    assert traj.status == STEP_FAILURE


# sha256 of the t, x and v samples of a 9399-sample rkf45 run, recorded
# with the fallback kernels on x86-64 Linux
GROWN_RUN_DIGESTS = (
    "63f5897a4e792ee5ee96e33d0b12584236c4e444f7eb60515a94666332da30e2",
    "e90a1e437a9619e7c8f7a930fef94e5ba93d297df21c1a151f47cb2a435b449f",
    "06461773875e45bad64b3c0605700a683540eb123451d0d96156eb3ccd7df75a",
)


@pytest.mark.skipif(_k.NUMBA_ENABLED, reason="digests are of the fallback kernels' results")
def test_rkf45_keeps_the_samples_of_grown_buffers():
    # the kernel starts with 4096-row buffers and doubles them when full, so
    # this run grows them twice, to 16384 rows
    spec = SystemSpec(
        form=FORM_B,
        params=Params(alpha=0.1, beta=1.0, gamma=0.3, delta=0.5, omega=2.0, n=3),
        epsilon=EpsilonSchedule.constant(0.05),
    )
    status, t, x, v, _ = run_kernel(
        spec, lambda P: _k.rkf45_trajectory(P, 0.0, 1.0, 0.0, 500.0, 1e-2, 1e-12, 1e-12, 1, 1e8, 1e-14)
    )
    assert status == _k.OK and t.size == 9399 and t.base.size == 16384
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (t, x, v)) == GROWN_RUN_DIGESTS


def test_dt_must_fit_inside_span():
    with pytest.raises(ValidationError):
        integrate(LINEAR, State(0.0, 1.0, 0.0), IntegratorConfig(method="rk4", dt=2.0, t_end=1.0))


def test_config_rejects_bad_values():
    with pytest.raises(ValidationError):
        IntegratorConfig(method="euler", dt=1e-3, t_end=1.0)
    with pytest.raises(ValidationError):
        IntegratorConfig(method="rk4", dt=-1e-3, t_end=1.0)
    with pytest.raises(ValidationError):
        IntegratorConfig(method="rk4", dt=1e-3, t_end=1.0, sample_every=0)


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol", "blowup_threshold"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
def test_config_refuses_a_tolerance_that_is_not_finite_and_positive(field, value):
    # an infinite tolerance or blowup threshold once ran and wrote Infinity
    # into the manifest
    with pytest.raises(ValidationError, match=f"{field} must be finite and > 0"):
        IntegratorConfig(method="rkf45", dt=1e-3, t_end=1.0, **{field: value})


def test_singular_start_raises_singular_time():
    spec = SystemSpec(
        form=FORM_A1,
        params=Params(alpha=0.5, beta=0.2, q=1.0),
        epsilon=EpsilonSchedule.power_law(0.3, 2.0),
    )
    with pytest.raises(SingularTime):
        integrate(spec, State(0.0, 1.0, 0.0), IntegratorConfig(method="rk4", dt=1e-3, t_end=1.0))


FORCED = SystemSpec(form=FORM_B, params=Params(alpha=0.1, beta=1.0, gamma=0.3, delta=0.5, omega=2.0))


def test_stroboscopic_hits_are_bit_exact():
    period = 2 * math.pi / FORCED.params.omega
    cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=20.0)
    traj, ev = integrate_with_events(FORCED, State(0.0, 1.0, 0.0), cfg, Stroboscopic(period=period))
    assert traj.status == COMPLETED
    ks = np.arange(len(ev.t))
    assert np.array_equal(ev.t, ks * period)  # exact, not approximate
    assert len(ev.t) == int(20.0 / period) + 1
    assert np.all(np.isfinite(ev.x)) and np.all(np.isfinite(ev.v))


def test_stroboscopic_phase_offsets_the_comb():
    period = 1.0
    cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=5.0)
    _, ev = integrate_with_events(FORCED, State(0.0, 1.0, 0.0), cfg, Stroboscopic(period=period, phase=0.25))
    assert np.array_equal(ev.t, 0.25 + np.arange(5.0))


@pytest.mark.parametrize("phase", [1e300, -1e300, 1e17])
def test_a_huge_stroboscopic_phase_runs_as_its_residue(phase):
    # phase + k*period once lost every bit of the period at such a phase:
    # the event times stalled and overran their buffer
    period = 2 * math.pi / FORCED.params.omega
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=5.0)
    start = State(0.0, 1.0, 0.0)
    _, huge = integrate_with_events(FORCED, start, cfg, Stroboscopic(period, phase))
    _, residue = integrate_with_events(FORCED, start, cfg, Stroboscopic(period, math.fmod(phase, period)))
    assert len(huge) == len(residue) > 0
    for got, want in zip((huge.t, huge.x, huge.v), (residue.t, residue.x, residue.v)):
        assert got.tobytes() == want.tobytes()


def test_times_too_large_for_the_step_are_refused():
    # floats near 1e17 lie 16 apart, so the grid t0 + i*dt stalled and the
    # stroboscopic events overran their buffer (IndexError on the fallback)
    cfg = IntegratorConfig(method="rk4", dt=1.0, t_end=1e17 + 1600)
    start = State(1e17, 1.0, 0.0)
    with pytest.raises(ValidationError, match="too large for dt"):
        integrate_with_events(FORCED, start, cfg, Stroboscopic(period=math.pi))
    with pytest.raises(ValidationError, match="too large for dt"):
        integrate(FORCED, start, cfg)


def test_a_period_below_the_spacing_of_the_times_is_refused():
    # near 1e16 floats lie 2 apart: dt = 2.5 steps, but a period of 0.1 did
    # not, and its event times overran their buffer
    cfg = IntegratorConfig(method="rk4", dt=2.5, t_end=1e16 + 200)
    start = State(1e16, 1.0, 0.0)
    with pytest.raises(ValidationError, match="stroboscopic period"):
        integrate_with_events(FORCED, start, cfg, Stroboscopic(period=0.1))
    _, ev = integrate_with_events(FORCED, start, cfg, Stroboscopic(period=2.5))
    assert len(ev) == 81


@pytest.mark.parametrize("sample_every", [1, 7])
@pytest.mark.parametrize("system", list(SYSTEMS))
def test_the_fixed_step_kernels_give_one_trajectory(system, sample_every):
    # rk4_trajectory and both section kernels run one grid loop: recording
    # events must not move a sample's bytes or where a run ends
    spec, (t0, x0, v0), blowup = SYSTEMS[system]
    cfg = IntegratorConfig(
        method="rk4",
        dt=0.01,
        t_end=t0 + 15.0,
        sample_every=sample_every,
        blowup_threshold=min(blowup, sys.float_info.max),  # a config takes a finite threshold
    )
    plain = integrate(spec, State(t0, x0, v0), cfg)
    assert (plain.status == DIVERGED) == (system == "B-escape")
    for section in (Stroboscopic(period=0.7), VelocityZeroCrossing()):
        traj, _ = integrate_with_events(spec, State(t0, x0, v0), cfg, section)
        assert [a.tobytes() for a in (traj.t, traj.x, traj.v)] == [
            a.tobytes() for a in (plain.t, plain.x, plain.v)
        ]
        assert (traj.status, traj.status_time) == (plain.status, plain.status_time)


def _spy(monkeypatch, name):
    """Record the ndarray arguments and the result of each call of the kernel."""
    calls = []
    kernel = getattr(_k, name)

    def spy(P, *args):
        result = kernel(P, *args)
        calls.append(([a for a in args if isinstance(a, np.ndarray)], result))
        return result

    monkeypatch.setattr(_k, name, spy)
    return calls


_FIXED_STEP_RUNS = {
    "rk4_trajectory": integrate,
    "rk4_events_strobo": lambda spec, start, cfg: integrate_with_events(
        spec, start, cfg, Stroboscopic(period=0.7)
    )[0],
    "rk4_events_vzero": lambda spec, start, cfg: integrate_with_events(
        spec, start, cfg, VelocityZeroCrossing()
    )[0],
}


@pytest.mark.parametrize("kernel", list(_FIXED_STEP_RUNS))
@pytest.mark.parametrize(
    "n, sample_every", [(2, 1), (10, 3), (10, 5), (10, 7), (97, 10), (2000, 1), (2000, 7), (5, 5000)]
)
def test_a_completed_run_keeps_its_kernel_buffers(monkeypatch, kernel, n, sample_every):
    # the buffers hold the 1 + ceil(n/sample_every) samples a completed run
    # writes, and the trajectory is those buffers, with no trimmed copy
    cfg = IntegratorConfig(method="rk4", dt=0.01, t_end=n * 0.01, sample_every=sample_every)
    assert grid_steps(0.0, cfg.t_end, cfg.dt)[0] == n
    calls = _spy(monkeypatch, kernel)
    traj = _FIXED_STEP_RUNS[kernel](LINEAR, State(0.0, 1.0, 0.0), cfg)
    (buffers, result), = calls
    assert traj.status == COMPLETED and traj.t[-1] == cfg.t_end
    assert len(traj) == result[1] == buffers[0].size == 1 + math.ceil(n / sample_every)
    assert all(column is buffer for column, buffer in zip((traj.t, traj.x, traj.v), buffers))


@pytest.mark.parametrize("kernel", list(_FIXED_STEP_RUNS))
def test_a_diverged_run_is_trimmed_to_its_samples(monkeypatch, kernel):
    calls = _spy(monkeypatch, kernel)
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=50.0)
    traj = _FIXED_STEP_RUNS[kernel](ESCAPING, State(0.0, 6.0, 0.0), cfg)
    (buffers, result), = calls
    m = result[1]
    assert traj.status == DIVERGED and 1 < m == len(traj) < buffers[0].size
    for column, buffer in zip((traj.t, traj.x, traj.v), buffers):
        assert column.base is None and column.tobytes() == buffer[:m].tobytes()


def test_velocity_zero_crossings_on_undamped_oscillator():
    # from (1, 0) the velocity vanishes at integer multiples of pi
    cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=20.0)
    _, ev = integrate_with_events(UNDAMPED, State(0.0, 1.0, 0.0), cfg, VelocityZeroCrossing(direction="any"))
    assert len(ev.t) == 7  # t = 0, pi, ..., 6 pi
    assert np.allclose(ev.t, np.arange(7) * math.pi, rtol=0, atol=1e-6)
    assert np.max(np.abs(ev.v)) < 1e-8
    assert np.all(np.diff(ev.t) > 0)


def test_velocity_zero_crossings_between_tiny_velocities():
    # from x0 = 1e-170 the product of two velocities underflows to zero, so
    # only their signs can show a crossing
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=10.0)
    _, ev = integrate_with_events(UNDAMPED, State(0.0, 1e-170, 0.0), cfg, VelocityZeroCrossing())
    assert np.allclose(ev.t, np.arange(4) * math.pi, rtol=0, atol=1e-6)  # t = 0, pi, 2 pi, 3 pi


def test_velocity_crossing_direction_filter():
    cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=20.0)
    _, rising = integrate_with_events(UNDAMPED, State(0.0, 1.0, 0.0), cfg, VelocityZeroCrossing(direction="rising"))
    _, falling = integrate_with_events(UNDAMPED, State(0.0, 1.0, 0.0), cfg, VelocityZeroCrossing(direction="falling"))
    _, both = integrate_with_events(UNDAMPED, State(0.0, 1.0, 0.0), cfg, VelocityZeroCrossing(direction="any"))
    assert len(rising.t) + len(falling.t) == len(both.t)
    # v' = -x at the event: falling means x > 0 there
    assert np.all(falling.x > 0)
    assert np.all(rising.x < 0)


def test_events_require_fixed_grid():
    cfg = IntegratorConfig(method="rkf45", dt=1e-3, t_end=5.0)
    with pytest.raises(ValidationError):
        integrate_with_events(UNDAMPED, State(0.0, 1.0, 0.0), cfg, VelocityZeroCrossing(direction="any"))


def test_events_refuse_an_object_that_is_not_a_section():
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=1.0)
    with pytest.raises(TypeError):
        integrate_with_events(UNDAMPED, State(0.0, 1.0, 0.0), cfg, object())


def test_event_configs_validate():
    with pytest.raises(ValidationError):
        Stroboscopic(period=0.0)
    # an infinite period once ran to an empty section and an infinite phase
    # overflowed int(ceil(...)) in the event kernel
    for period, phase in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValidationError, match="period|phase"):
            Stroboscopic(period=period, phase=phase)
    with pytest.raises(ValidationError):
        VelocityZeroCrossing(direction="sideways")
