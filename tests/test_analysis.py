"""Energy functionals, linearized spectra, and exponent estimators.

Cross-method oracles: V_dot_exact must trapezoid-integrate back to V,
eigenvalues must satisfy their own characteristic polynomial, and both
exponent estimators must reproduce -alpha/2 on the damped linear system.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from test_fallback_floats import OVERFLOW, OVERFLOW_START

from chaoskit import _kernels as _k
from chaoskit import analysis
from chaoskit import (
    DegenerateSeparation,
    DivergedTrajectory,
    EpsilonSchedule,
    FORM_A1,
    FORM_A2,
    FORM_B,
    IntegratorConfig,
    InvalidAxis,
    Nonlinearity,
    Params,
    SingularTime,
    State,
    SystemSpec,
    ValidationError,
    accel_array,
    energy_trace,
    hopf_scan,
    integrate,
    linearized_eigen,
    lyapunov_two_trajectory,
    lyapunov_variational,
)

LINEAR = SystemSpec(form=FORM_B, params=Params(alpha=0.5, beta=1.0))
FULL_B = SystemSpec(
    form=FORM_B,
    params=Params(alpha=0.3, beta=1.5, gamma=0.4, delta=0.6, omega=2.0, n=3),
    epsilon=EpsilonSchedule.constant(0.2),
)
REGULARIZED = SystemSpec(
    form=FORM_A2,
    params=Params(alpha=0.5, beta=0.4, gamma=0.3, delta=0.2, omega=1.5, q=1.0),
    epsilon=EpsilonSchedule.power_law(0.6, 2.0),
)


def _trace(spec, t0=0.0, t_end=20.0, dt=1e-3):
    traj = integrate(spec, State(t0, 1.0, 0.0), IntegratorConfig(method="rk4", dt=dt, t_end=t_end))
    return energy_trace(traj)


def test_v_is_the_quadratic_form():
    tr = _trace(FULL_B)
    traj = integrate(FULL_B, State(0.0, 1.0, 0.0), IntegratorConfig(method="rk4", dt=1e-3, t_end=20.0))
    assert np.array_equal(tr.V, (traj.x**2 + traj.v**2) / 2)


def test_v_dot_exact_integrates_back_to_v():
    for spec, t0 in ((FULL_B, 0.0), (REGULARIZED, 1.0)):
        tr = _trace(spec, t0=t0)
        recovered = tr.V[0] + np.concatenate(
            [[0.0], np.cumsum((tr.V_dot_exact[1:] + tr.V_dot_exact[:-1]) / 2 * np.diff(tr.t))]
        )
        assert np.max(np.abs(recovered - tr.V)) < 1e-4 * np.max(np.abs(tr.V))


def test_v_dot_paper_matches_exact_on_normalized_theorem_form():
    # with beta = 1 and eps = 0, v*a + x*v collapses to -alpha v^2 - gamma f v,
    # so the two derivative expressions must agree along true trajectories
    spec = SystemSpec(form=FORM_B, params=Params(alpha=0.3, beta=1.0, gamma=0.4, delta=0.6, omega=2.0, n=3))
    tr = _trace(spec)
    assert np.max(np.abs(tr.V_dot_paper - tr.V_dot_exact)) < 1e-12


def test_v_dot_paper_linear_case_is_minus_alpha_v_squared():
    traj = integrate(LINEAR, State(0.0, 1.0, 0.0), IntegratorConfig(method="rk4", dt=1e-3, t_end=20.0))
    tr = energy_trace(traj)
    assert np.allclose(tr.V_dot_paper, -0.5 * traj.v**2, rtol=0, atol=1e-15)


def test_v_reg_uses_closed_form_integral():
    tr = _trace(REGULARIZED, t0=1.0)
    eps = REGULARIZED.epsilon
    t = tr.t
    quad = np.concatenate([[0.0], np.cumsum((eps.value(t[1:]) + eps.value(t[:-1])) / 2 * np.diff(t))])
    traj = integrate(REGULARIZED, State(1.0, 1.0, 0.0), IntegratorConfig(method="rk4", dt=1e-3, t_end=20.0))
    expected = traj.v**2 / 2 + REGULARIZED.params.beta / 2 * traj.x**2 + quad
    assert np.max(np.abs(tr.V_reg - expected)) < 1e-6


def test_e_functional_matches_its_definition():
    # E = (g(x) + coup v)/2 - min g + eps x^2 / 2 + v^2 / 2, coup = gamma + beta/t^q
    tr = _trace(REGULARIZED, t0=1.0)
    traj = integrate(REGULARIZED, State(1.0, 1.0, 0.0), IntegratorConfig(method="rk4", dt=1e-3, t_end=20.0))
    p = REGULARIZED.params
    g_x = REGULARIZED.nonlinearity.value(traj.x)
    if not isinstance(g_x, np.ndarray):
        g_x = np.full_like(traj.x, g_x)
    coup = p.gamma + p.beta / traj.t**p.q
    eps = REGULARIZED.epsilon.value(traj.t)
    expected = (g_x + coup * traj.v) / 2 - g_x.min() + eps * traj.x**2 / 2 + traj.v**2 / 2
    assert np.allclose(tr.E, expected, rtol=1e-14, atol=1e-16)
    assert np.all(np.isfinite(tr.E))


@pytest.mark.parametrize(
    "g",
    [Nonlinearity.zero(), Nonlinearity.linear(1.2), Nonlinearity.cubic(0.8), Nonlinearity.sine(1.5, 0.8)],
    ids=["Zero", "Linear", "Cubic", "Sine"],
)
def test_energy_trace_is_finite_for_every_restoring_force(g):
    # energy_trace evaluates g through Nonlinearity.value, whose Linear,
    # Cubic and Sine branches no other energy test reaches
    spec = replace(REGULARIZED, nonlinearity=g)
    tr = _trace(spec, t0=1.0, t_end=6.0, dt=1e-2)
    assert len(tr.t) == 501
    for column in (tr.t, tr.V, tr.V_dot_exact, tr.V_dot_paper, tr.V_reg, tr.E):
        assert np.all(np.isfinite(column))


def test_energy_requires_completed_run():
    escaping = SystemSpec(form=FORM_B, params=Params(alpha=0.1, beta=1.0, gamma=1.0, delta=1.0, omega=1.0, n=3))
    traj = integrate(escaping, State(0.0, 6.0, 0.0), IntegratorConfig(method="rk4", dt=1e-3, t_end=50.0))
    with pytest.raises(ValueError):
        energy_trace(traj)


def _energy_trace_reference(traj):
    """The columns (t, V, V_dot_exact, V_dot_paper, V_reg, E) as energy_trace
    computed them with one full-length temporary per operation: the bits
    the in-place evaluation must keep."""
    spec = traj.spec
    p = spec.params
    t, x, v = traj.t, traj.x, traj.v
    a = accel_array(spec, t, x, v)
    eps = spec.epsilon.value(t)
    V = 0.5 * (v * v + x * x)
    V_dot_exact = v * a + x * v
    with np.errstate(divide="ignore"):
        tq = t**p.q
        coup = p.gamma + p.beta / tq
        if spec.form == FORM_B:
            V_dot_paper = -p.alpha * v * v - p.gamma * (p.delta * np.sin(p.omega * t) * x**p.n) * v
        else:
            V_dot_paper = -(p.alpha / tq) * v * v - eps * x * x - p.delta * np.sin(p.omega * x) * v
    V_reg = 0.5 * v * v + 0.5 * p.beta * x * x + spec.epsilon.integral(t[0], t)
    g_x = spec.nonlinearity.value(x)
    E = 0.5 * (g_x + coup * v) - g_x.min() + 0.5 * eps * x * x + 0.5 * v * v
    return t, V, V_dot_exact, V_dot_paper, V_reg, E


_GS = {
    "Zero": Nonlinearity.zero(),
    "Linear": Nonlinearity.linear(1.2),
    "Cubic": Nonlinearity.cubic(0.8),
    "Sine": Nonlinearity.sine(1.5, 0.8),
}
_EPSS = {
    "Zero": EpsilonSchedule.zero(),
    "Constant": EpsilonSchedule.constant(0.3),
    "PowerLaw": EpsilonSchedule.power_law(0.6, 2.5),
    "PowerLaw1": EpsilonSchedule.power_law(0.6, 1.0),  # the log integral
}
_A_PARAMS = Params(alpha=0.5, beta=0.4, gamma=0.3, delta=0.2, omega=1.5, q=0.5)
_BIT_RUN = (State(1.0, 1.0, -0.3), IntegratorConfig(method="rk4", dt=1e-2, t_end=4.0))
_BIT_CASES = {
    f"{form}-{g}-{eps}": (
        SystemSpec(
            form=form,
            params=FULL_B.params if form == FORM_B else _A_PARAMS,
            nonlinearity=_GS[g],
            epsilon=_EPSS[eps],
        ),
        *_BIT_RUN,
    )
    for form in (FORM_A1, FORM_A2, FORM_B)
    for g in (_GS if form != FORM_B else ["Zero"])
    for eps in _EPSS
}
_BIT_CASES["overflow"] = (OVERFLOW, OVERFLOW_START, IntegratorConfig(dt=1e-2, t_end=2.0))
_NON_FINITE = ("overflow", "A1-Cubic-PowerLaw", "B-Zero-Constant")


def _non_finite(traj):
    """traj with inf, -inf and nan samples, two of them nan with a payload."""
    x, v = traj.x.copy(), traj.v.copy()
    payload = np.array([0x7FF8_0000_0000_0ABC], dtype=np.uint64).view(np.float64)[0]
    x[[3, 7, 11]] = np.inf, np.nan, payload
    v[[5, 7, 13]] = -np.inf, -np.nan, -payload
    return replace(traj, x=x, v=v)


@pytest.mark.parametrize(
    "case, non_finite",
    [pytest.param(case, False, id=case) for case in _BIT_CASES]
    + [pytest.param(case, True, id=f"{case}-non-finite") for case in _NON_FINITE],
)
def test_energy_columns_keep_the_bits_of_their_formulas(case, non_finite):
    # every form, g and eps preset, and inf/nan samples whose nan payloads
    # count: nothing may be re-associated, and operands may swap only with
    # a scalar, since of two nans the first gives the payload
    traj = integrate(*_BIT_CASES[case])
    assert traj.status == "completed"
    if non_finite:
        traj = _non_finite(traj)
    with np.errstate(all="ignore"):  # the non-finite samples overflow and give nan
        want = _energy_trace_reference(traj)
        tr = energy_trace(traj)
    got = (tr.t, tr.V, tr.V_dot_exact, tr.V_dot_paper, tr.V_reg, tr.E)
    names = ("t", "V", "V_dot_exact", "V_dot_paper", "V_reg", "E")
    assert [n for n, a, b in zip(names, got, want) if a.tobytes() != b.tobytes()] == []


@pytest.mark.parametrize("spec", [FULL_B, replace(REGULARIZED, nonlinearity=_GS["Cubic"])], ids=["B", "A2"])
def test_energy_trace_holds_its_columns_and_two_more(spec):
    # at its peak: the trajectory, the five new columns and two sample-length
    # temporaries (one per operation of the formulas held twelve at once)
    traj = integrate(spec, State(1.0, 1.0, 0.0), IntegratorConfig(method="rk4", dt=1e-2, t_end=21.0))
    row = traj.t.nbytes
    assert len(traj) == 2001
    tracemalloc.start()  # after the run: tracing slows the fallback's kernels
    try:
        energy_trace(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 3 * row + peak <= (3 + 5 + 2) * row + row // 2


def test_eigenvalues_satisfy_characteristic_polynomial():
    for spec, at in ((LINEAR, 1.0), (FULL_B, 1.0), (REGULARIZED, 2.0), (REGULARIZED, 0.5)):
        rep = linearized_eigen(spec, at_time=at)
        for lam in rep.eigenvalues:
            residual = lam * lam + rep.alpha_eff * lam + rep.beta_eff
            assert abs(residual) < 1e-12
        assert rep.eigenvalues[0].real >= rep.eigenvalues[1].real
        assert rep.max_real_part == rep.eigenvalues[0].real


def test_eigenvalues_match_numpy_on_the_companion_matrix():
    for spec, at in ((FULL_B, 1.0), (REGULARIZED, 2.0)):
        rep = linearized_eigen(spec, at_time=at)
        ref = sorted(np.linalg.eigvals(rep.matrix), key=lambda z: (z.real, z.imag), reverse=True)
        assert rep.eigenvalues[0] == pytest.approx(ref[0], abs=1e-12)
        assert rep.eigenvalues[1] == pytest.approx(ref[1], abs=1e-12)


def test_linear_eigenvalues_are_the_textbook_pair():
    rep = linearized_eigen(LINEAR)
    nu = math.sqrt(1.0 - 0.0625)
    assert rep.eigenvalues[0] == pytest.approx(complex(-0.25, nu), abs=1e-15)
    assert rep.eigenvalues[1] == pytest.approx(complex(-0.25, -nu), abs=1e-15)


def test_linearization_refuses_the_start_times_a_run_refuses():
    # 1/t^q is singular at t = 0 when q > 0; with q = 0 and no power-law
    # regularization an A form is regular there, as it is for a run
    singular = SystemSpec(form=FORM_A1, params=Params(alpha=0.5, beta=1.0, q=1.0))
    with pytest.raises(SingularTime):
        linearized_eigen(singular, at_time=0.0)
    regular = SystemSpec(form=FORM_A1, params=Params(alpha=0.5, beta=1.0))
    rep = linearized_eigen(regular, at_time=0.0)
    assert all(math.isfinite(z.real) and math.isfinite(z.imag) for z in rep.eigenvalues)
    # form B has no 1/t^q term, but power-law regularization is singular at
    # t <= 0 on every form; form B's linearization once froze it there
    regularized_b = SystemSpec(
        form=FORM_B, params=Params(alpha=0.5, beta=1.0), epsilon=EpsilonSchedule.power_law(1.0, 2.0)
    )
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=1.0)
    for at_time in (0.0, -1.0):
        with pytest.raises(SingularTime):
            integrate(regularized_b, State(at_time, 1.0, 0.0), cfg)
        with pytest.raises(SingularTime):
            linearized_eigen(regularized_b, at_time=at_time)
        with pytest.raises(SingularTime):
            hopf_scan(regularized_b, "alpha", -1.0, 1.0, at_time=at_time)
    assert linearized_eigen(regularized_b, at_time=1.0).max_real_part == -0.25


@pytest.mark.parametrize("spec", [LINEAR, REGULARIZED])
@pytest.mark.parametrize("at_time", [math.inf, math.nan])
def test_linearization_refuses_a_non_finite_time(spec, at_time):
    with pytest.raises(ValidationError, match="at_time must be finite"):
        linearized_eigen(spec, at_time=at_time)
    with pytest.raises(ValidationError, match="at_time must be finite"):
        hopf_scan(spec, "alpha", 0.1, 1.0, at_time=at_time)


@pytest.mark.parametrize("resolution", [math.inf, math.nan, 0.0])
def test_hopf_scan_refuses_a_resolution_that_is_not_finite_and_positive(resolution):
    with pytest.raises(ValidationError, match="resolution must be finite and > 0"):
        hopf_scan(LINEAR, "alpha", -1.0, 1.0, resolution=resolution)


def test_linearization_refuses_a_periodic_linear_term():
    # form B with n = 1 is a damped Mathieu equation: no frozen eigenvalue
    # pair holds its parametric resonance
    mathieu = Params(alpha=0.2, beta=1.0, gamma=1.0, delta=1.0, omega=2.0, n=1)
    with pytest.raises(ValidationError, match=r"periodic linear term gamma\*delta"):
        linearized_eigen(SystemSpec(form=FORM_B, params=mathieu))
    with pytest.raises(ValidationError, match="estimate it with lyapunov"):
        hopf_scan(SystemSpec(form=FORM_B, params=replace(mathieu, gamma=0.0)), "gamma", 0.0, 1.0)
    for params in (replace(mathieu, gamma=0.0), replace(mathieu, delta=0.0), replace(mathieu, n=2)):
        assert linearized_eigen(SystemSpec(form=FORM_B, params=params)).max_real_part == -0.1


def test_hopf_scan_finds_the_crossing_at_zero_damping():
    spec = SystemSpec(form=FORM_B, params=Params(alpha=0.5, beta=1.0))
    crossings = hopf_scan(spec, "alpha", -1.0, 1.0)
    assert len(crossings) == 1
    assert abs(crossings[0]) <= 1e-6


@pytest.mark.parametrize("steps", [2, 41])
def test_hopf_scan_finds_a_crossing_between_tiny_values(steps):
    # the leading real parts next to alpha = 0 are about 1e-172 here, and
    # their product underflows to -0.0: the crossing was once missed
    spec = SystemSpec(form=FORM_B, params=Params(alpha=0.5, beta=1.0))
    assert hopf_scan(spec, "alpha", -1e-170, 1e-170, steps=steps) == [0.0]


def test_hopf_scan_beta_axis_crossing():
    # max real part of lam^2 + 0.3 lam + beta crosses zero exactly at beta = 0
    spec = SystemSpec(form=FORM_B, params=Params(alpha=0.3, beta=1.0))
    crossings = hopf_scan(spec, "beta", -0.5, 0.5)
    assert len(crossings) == 1
    assert abs(crossings[0]) <= 1e-6


@pytest.mark.parametrize("form", [FORM_A1, FORM_A2])
def test_hopf_scan_freezes_the_a_form_coefficients(form):
    # alpha_eff = (alpha + beta) / t^q + gamma vanishes at alpha = -0.5 when
    # frozen at t = 1 and at alpha = -0.8 when frozen at t = 2
    spec = SystemSpec(
        form=form,
        params=Params(beta=0.2, gamma=0.3, q=1.0),
        nonlinearity=Nonlinearity.linear(1.0),
    )
    for at_time, crossing in ((1.0, -0.5), (2.0, -0.8)):
        assert hopf_scan(spec, "alpha", -1.0, 1.0, at_time=at_time) == [
            pytest.approx(crossing, abs=1e-6)
        ]


def test_hopf_scan_reports_no_crossing_on_stable_range():
    spec = SystemSpec(form=FORM_B, params=Params(alpha=0.5, beta=1.0))
    assert hopf_scan(spec, "alpha", 0.1, 1.0) == []


@pytest.mark.parametrize("resolution", [0.0, 1e-300])
def test_hopf_scan_stops_when_the_bracket_cannot_split(monkeypatch, resolution):
    # the stiffness g_k + delta * omega changes sign near delta = -0.54; once
    # the bracket is two adjacent floats it cannot narrow further, so the
    # search must stop there on its own (or refuse a resolution of 0)
    spec = SystemSpec(
        form=FORM_A2,
        params=Params(alpha=0.47851442274776057, beta=0.0, q=1.0, omega=3.1528404102910588),
        nonlinearity=Nonlinearity.linear(1.7044015178975915),
    )
    linear_part = analysis._linear_part
    calls = []

    def counted(*args):
        calls.append(None)
        if len(calls) > 10_000:
            raise RuntimeError("bisection does not terminate")
        return linear_part(*args)

    monkeypatch.setattr(analysis, "_linear_part", counted)
    if resolution == 0.0:
        with pytest.raises(ValidationError):
            hopf_scan(spec, "delta", -3.0, 3.0, at_time=1.7, resolution=resolution)
        assert calls == []
    else:
        crossings = hopf_scan(spec, "delta", -3.0, 3.0, at_time=1.7, resolution=resolution)
        assert len(crossings) == 1


@pytest.mark.parametrize(
    "lead, hi, resolution, expected",
    [
        # +1 -3 adjacent, a zero run across -3 .. +2, +2 -1 adjacent, a zero
        # that -1 .. -1 does not change sign across, -1 +1 adjacent
        ([1.0, -3.0, 0.0, 0.0, 2.0, -1.0, 0.0, -1.0, 1.0], 8.0, 1e-6,
         [0.25, 2.0, 3.0, 4.666666507720947, 7.5]),
        # a grid of spacing 0.1, finer than the resolution: the zero run and
        # the two adjacent changes each keep only their first crossing
        ([1.0, 0.0, 0.0, 0.0, -1.0, 1.0, -1.0, 0.0, -2.0, 0.0, 3.0], 1.0, 0.25,
         [0.1, 0.45, 0.9]),
    ],
    ids=["zero-runs-and-adjacent-changes", "grid-finer-than-resolution"],
)
def test_hopf_scan_reports_crossings_in_grid_order(monkeypatch, lead, hi, resolution, expected):
    # the leading real part is the piecewise-linear interpolant of lead over
    # the grid, so a bisection probe between grid values is known exactly
    values = np.linspace(0.0, hi, len(lead))

    def linear_part(spec, at_time):
        top = float(np.interp(spec.params.alpha, values, lead))
        return spec.params.alpha, 1.0, complex(top, 0.0), complex(top - 1.0, 0.0)

    monkeypatch.setattr(analysis, "_linear_part", linear_part)
    crossings = hopf_scan(LINEAR, "alpha", 0.0, hi, steps=len(lead), resolution=resolution)
    assert crossings == expected


def test_hopf_scan_rejects_unknown_axis():
    with pytest.raises(InvalidAxis):
        hopf_scan(LINEAR, "kappa", -1.0, 1.0)


CFG = IntegratorConfig(method="rk4", dt=1e-2, t_end=200.0)
INI = State(0.0, 1.0, 0.0)


def test_both_estimators_recover_linear_theory():
    for fn in (lyapunov_variational, lyapunov_two_trajectory):
        est = fn(LINEAR, INI, CFG)
        assert est.lam == pytest.approx(-0.25, abs=5e-3)


def test_estimate_is_robust_to_discretization_choices():
    base = lyapunov_variational(LINEAR, INI, CFG).lam
    halved = lyapunov_variational(LINEAR, INI, IntegratorConfig(method="rk4", dt=5e-3, t_end=200.0)).lam
    assert abs(halved - base) < 1e-3
    wide = lyapunov_two_trajectory(LINEAR, INI, CFG, d0=1e-7).lam
    narrow = lyapunov_two_trajectory(LINEAR, INI, CFG, d0=1e-9).lam
    assert abs(wide - narrow) < 1e-3


def test_convergence_trace_shape():
    est = lyapunov_variational(LINEAR, INI, CFG, transient_fraction=0.1)
    assert est.lam == est.convergence[-1]
    assert np.all(np.diff(est.convergence_t) > 0)
    assert est.transient_skipped >= 0.1 * 200.0 - 1.0
    payload = est.to_dict()
    assert payload["lambda"] == est.lam
    assert payload["method"] == "variational"


@pytest.mark.parametrize("estimator", [lyapunov_variational, lyapunov_two_trajectory])
@pytest.mark.parametrize("fraction", [-0.1, 1.0])
def test_estimators_refuse_a_transient_fraction_outside_zero_to_one(estimator, fraction):
    with pytest.raises(ValueError, match=rf"transient_fraction must be in \[0, 1\), got {fraction}"):
        estimator(LINEAR, INI, CFG, transient_fraction=fraction)


def test_transient_fraction_zero_counts_from_start():
    est = lyapunov_variational(LINEAR, INI, CFG, transient_fraction=0.0)
    assert est.transient_skipped == 0.0


def test_companion_offset_is_bounded():
    with pytest.raises(ValueError):
        lyapunov_two_trajectory(LINEAR, INI, CFG, d0=1e-3)
    with pytest.raises(ValueError):
        lyapunov_two_trajectory(LINEAR, INI, CFG, d0=1e-12)


@pytest.mark.parametrize(
    "tangent0, wording",
    [((0.0, 0.0), "a nonzero vector"), ((math.inf, 0.0), "finite"), ((0.0, math.nan), "finite")],
    ids=["zero", "infinite", "nan"],
)
def test_tangent0_must_be_finite_and_nonzero(tangent0, wording):
    # a non-finite one once ran and was reported as a tangent overflow at
    # the first step
    with pytest.raises(ValueError, match=f"tangent0 must be {wording}"):
        lyapunov_variational(LINEAR, INI, CFG, tangent0=tangent0)


def test_estimators_require_fixed_grid():
    cfg = IntegratorConfig(method="rkf45", dt=1e-2, t_end=10.0)
    with pytest.raises(ValueError):
        lyapunov_variational(LINEAR, INI, cfg)


@pytest.mark.parametrize("fn", [lyapunov_variational, lyapunov_two_trajectory])
def test_estimators_reject_a_singular_start(fn):
    # 1/t^q is singular at t0 = 0; the run is refused before it starts
    spec = SystemSpec(form=FORM_A1, params=Params(alpha=0.5, beta=1.0, q=1.0))
    with pytest.raises(SingularTime):
        fn(spec, INI, IntegratorConfig(method="rk4", dt=1e-2, t_end=2.0))


@pytest.mark.parametrize("fn", [lyapunov_variational, lyapunov_two_trajectory])
@pytest.mark.parametrize("interval", [math.inf, math.nan, 0.0, -1.0])
def test_estimators_refuse_a_bad_renorm_interval(fn, interval):
    # an infinite interval once overflowed int(round(interval / h))
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=2.0)
    with pytest.raises(ValidationError, match="renorm_interval must be finite and > 0"):
        fn(LINEAR, State(0.0, 1.0, 0.0), cfg, renorm_interval=interval)


def test_a_renorm_interval_past_the_run_is_one_epoch():
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=2.0)
    one = lyapunov_variational(LINEAR, State(0.0, 1.0, 0.0), cfg, renorm_interval=2.0)
    huge = lyapunov_variational(LINEAR, State(0.0, 1.0, 0.0), cfg, renorm_interval=1e308)
    assert huge.lam == one.lam and len(huge.convergence) == len(one.convergence) == 1


@pytest.mark.parametrize(
    "method, wording",
    [
        ("two_trajectory", "separation collapsed to exactly zero; the pair cannot"),
        ("variational", "tangent vector collapsed to exactly zero; it cannot"),
    ],
)
def test_collapse_is_worded_per_estimator(method, wording):
    def collapsed(P, *args):
        return _k.DEGENERATE, 0.0, 0, 0.0, 0.0

    with pytest.raises(DegenerateSeparation, match=wording):
        analysis._estimate(method, LINEAR, INI, CFG, None, 0.1, collapsed, (), ())


def test_escaping_cell_raises_diverged_trajectory():
    escaping = SystemSpec(form=FORM_B, params=Params(alpha=0.1, beta=1.0, gamma=1.0, delta=1.0, omega=1.0, n=3))
    with pytest.raises(DivergedTrajectory) as err:
        lyapunov_variational(escaping, State(0.0, 6.0, 0.0), IntegratorConfig(method="rk4", dt=1e-3, t_end=50.0))
    assert err.value.at_time < 50.0
