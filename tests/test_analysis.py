"""Energy functionals, linearized spectra, and exponent estimators.

Cross-method oracles: V_dot_exact must trapezoid-integrate back to V,
eigenvalues must satisfy their own characteristic polynomial, and both
exponent estimators must reproduce -alpha/2 on the damped linear system.
"""

import math

import numpy as np
import pytest

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


def test_energy_requires_completed_run():
    escaping = SystemSpec(form=FORM_B, params=Params(alpha=0.1, beta=1.0, gamma=1.0, delta=1.0, omega=1.0, n=3))
    traj = integrate(escaping, State(0.0, 6.0, 0.0), IntegratorConfig(method="rk4", dt=1e-3, t_end=50.0))
    with pytest.raises(ValueError):
        energy_trace(traj)


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


def test_hopf_scan_finds_the_crossing_at_zero_damping():
    spec = SystemSpec(form=FORM_B, params=Params(alpha=0.5, beta=1.0))
    crossings = hopf_scan(spec, "alpha", -1.0, 1.0)
    assert len(crossings) == 1
    assert abs(crossings[0]) <= 1e-6


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


def test_transient_fraction_zero_counts_from_start():
    est = lyapunov_variational(LINEAR, INI, CFG, transient_fraction=0.0)
    assert est.transient_skipped == 0.0


def test_companion_offset_is_bounded():
    with pytest.raises(ValueError):
        lyapunov_two_trajectory(LINEAR, INI, CFG, d0=1e-3)
    with pytest.raises(ValueError):
        lyapunov_two_trajectory(LINEAR, INI, CFG, d0=1e-12)


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


@pytest.mark.parametrize(
    "method, wording",
    [
        ("two_trajectory", "separation collapsed to exactly zero; the pair cannot"),
        ("variational", "tangent vector collapsed to exactly zero; it cannot"),
    ],
)
def test_collapse_is_worded_per_estimator(method, wording):
    def collapsed(P, grid, conv):
        return _k.DEGENERATE, 0.0, 0, 0.0, 0.0

    with pytest.raises(DegenerateSeparation, match=wording):
        analysis._estimate(method, LINEAR, INI, CFG, None, 0.1, collapsed)


def test_escaping_cell_raises_diverged_trajectory():
    escaping = SystemSpec(form=FORM_B, params=Params(alpha=0.1, beta=1.0, gamma=1.0, delta=1.0, omega=1.0, n=3))
    with pytest.raises(DivergedTrajectory) as err:
        lyapunov_variational(escaping, State(0.0, 6.0, 0.0), IntegratorConfig(method="rk4", dt=1e-3, t_end=50.0))
    assert err.value.at_time < 50.0
