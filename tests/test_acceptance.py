"""Acceptance gate: eight behavioral criteria with pinned tolerances.

Each test prints exactly one pass/fail line on the real stdout (so the
verdicts are visible even under pytest capture) and then asserts.  The
chaotic sweep cell is frozen: alpha=0.4, beta=64, delta=2^-8, omega=16,
constant regularization 2048, start (-32, 0).  On that family gamma scales
both the forcing and the effective start amplitude, carrying the run from a
bitwise fixed point (gamma=0) through a positive-exponent regime (gamma ~ 1)
into finite-time escape (gamma >= 1.25).
"""

import math
import time

import numpy as np
import shared_results

from chaoskit import (
    Axis,
    DivergedTrajectory,
    EpsilonSchedule,
    FORM_A2,
    FORM_B,
    IntegratorConfig,
    Nonlinearity,
    Params,
    State,
    Stroboscopic,
    SystemSpec,
    bifurcation_sweep,
    cluster_count,
    energy_trace,
    hopf_scan,
    integrate,
    lambda_map,
    lyapunov_two_trajectory,
    lyapunov_variational,
    poincare,
    with_param,
)
from chaoskit import chaoscan
from chaoskit.cli import main, rerun
from chaoskit.io import read_manifest, write_bifurcation_csv, write_lambda_map_csv

# pinned tolerances
LAMBDA_ORACLE = -0.25
LAMBDA_TOL = 0.02
ORACLE_BUDGET_S = 5.0
HOPF_TOL = 1e-6
ORDER_RATIO_LO, ORDER_RATIO_HI = 12.0, 20.0
CHAOS_FLOOR = 0.05
CLUSTER_MIN = 100  # strictly more than this
STABLE_CLUSTER_MAX = 3
SWEEP_BUDGET_S = 600.0
CRIT_TOL = 1e-2
CRIT_AGREEMENT = 0.02
BLOWUP = 1e8

LINEAR = SystemSpec(form=FORM_B, params=Params(alpha=0.5, beta=1.0))
LINEAR_INI = State(0.0, 1.0, 0.0)

# frozen chaotic family for criteria 5-7
SWEEP = SystemSpec(
    form=FORM_B,
    params=Params(alpha=0.4, beta=64.0, gamma=1.0, delta=2.0**-8, omega=16.0, n=3),
    epsilon=EpsilonSchedule.constant(2048.0),
)
SWEEP_INI = State(0.0, -32.0, 0.0)
SWEEP_CFG = IntegratorConfig(method="rk4", dt=6.25e-4, t_end=45.0)
SWEEP_AXIS = Axis("gamma", 0.0, 5.0, 21)
STROBO = Stroboscopic(period=2 * math.pi / SWEEP.params.omega)


def _report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {verdict}: {detail}"
    print(line, flush=True)
    shared_results.record_verdict(line)


def _agree(a, b):
    return abs(a - b) <= max(0.05 * abs(a), 0.02)


def test_criterion_1_linear_limit_lambda_oracle():
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=200.0)
    start = time.perf_counter()
    var = lyapunov_variational(LINEAR, LINEAR_INI, cfg).lam
    two = lyapunov_two_trajectory(LINEAR, LINEAR_INI, cfg).lam
    elapsed = time.perf_counter() - start
    ok = (
        abs(var - LAMBDA_ORACLE) <= LAMBDA_TOL
        and abs(two - LAMBDA_ORACLE) <= LAMBDA_TOL
        and elapsed < ORACLE_BUDGET_S
    )
    _report(1, ok, f"variational={var:+.4f} two_trajectory={two:+.4f} "
                   f"target {LAMBDA_ORACLE}+/-{LAMBDA_TOL}, {elapsed:.2f}s")
    assert abs(var - LAMBDA_ORACLE) <= LAMBDA_TOL
    assert abs(two - LAMBDA_ORACLE) <= LAMBDA_TOL
    assert elapsed < ORACLE_BUDGET_S


def test_criterion_2_hopf_crossing_at_zero_damping():
    crossings = hopf_scan(LINEAR, "alpha", -1.0, 1.0)
    ok = len(crossings) == 1 and abs(crossings[0]) <= HOPF_TOL
    _report(2, ok, f"crossings={crossings} expected [0 +/- {HOPF_TOL:g}]")
    assert len(crossings) == 1
    assert abs(crossings[0]) <= HOPF_TOL


def test_criterion_3_rk4_fourth_order_scaling():
    # closed form for x'' + 0.5 x' + x = 0 from (10, 0)
    x0, t_end = 10.0, 5.0
    nu = math.sqrt(1.0 - 0.0625)
    exact = x0 * math.exp(-0.25 * t_end) * (math.cos(nu * t_end) + (0.25 / nu) * math.sin(nu * t_end))
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        cfg = IntegratorConfig(method="rk4", dt=dt, t_end=t_end, sample_every=10**9)
        traj = integrate(LINEAR, State(0.0, x0, 0.0), cfg)
        errs.append(abs(traj.x[-1] - exact))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = ORDER_RATIO_LO <= r1 <= ORDER_RATIO_HI and ORDER_RATIO_LO <= r2 <= ORDER_RATIO_HI
    _report(3, ok, f"error ratios {r1:.2f}, {r2:.2f} expected within [{ORDER_RATIO_LO:g}, {ORDER_RATIO_HI:g}]")
    assert ORDER_RATIO_LO <= r1 <= ORDER_RATIO_HI
    assert ORDER_RATIO_LO <= r2 <= ORDER_RATIO_HI


def test_criterion_4_dissipation_inequality():
    traj = integrate(LINEAR, LINEAR_INI, IntegratorConfig(method="rk4", dt=1e-2, t_end=100.0))
    tr = energy_trace(traj)
    frac = float(np.mean(tr.V_dot_exact <= 0.0))
    ok = frac == 1.0
    _report(4, ok, f"V_dot_exact <= 0 at {frac:.2%} of {len(tr.t)} samples over [0, 100]")
    assert frac == 1.0


def _sweep_lambdas():
    rows = []
    for g in SWEEP_AXIS.values():
        spec = with_param(SWEEP, "gamma", float(g))
        try:
            var = lyapunov_variational(spec, SWEEP_INI, SWEEP_CFG).lam
            two = lyapunov_two_trajectory(spec, SWEEP_INI, SWEEP_CFG).lam
            rows.append((float(g), spec, var, two, "ok"))
        except DivergedTrajectory:
            rows.append((float(g), spec, math.nan, math.nan, "diverged"))
    return rows


def test_criterion_5_chaotic_cell_in_gamma_sweep():
    start = time.perf_counter()
    rows = _sweep_lambdas()
    chaotic = [r for r in rows if r[4] == "ok" and r[2] > CHAOS_FLOOR and r[3] > CHAOS_FLOOR and _agree(r[2], r[3])]
    stable = [r for r in rows if r[4] == "ok" and r[2] < -CHAOS_FLOOR and r[3] < -CHAOS_FLOOR]
    best = max(chaotic, key=lambda r: r[2], default=None)
    calm = min(stable, key=lambda r: r[2], default=None)
    chaos_clusters = calm_clusters = -1
    if best is not None and calm is not None:
        chaos_clusters = cluster_count(poincare(best[1], SWEEP_INI, SWEEP_CFG, STROBO).points)
        calm_clusters = cluster_count(poincare(calm[1], SWEEP_INI, SWEEP_CFG, STROBO).points)
    elapsed = time.perf_counter() - start
    ok = (
        best is not None
        and calm is not None
        and chaos_clusters > CLUSTER_MIN
        and calm_clusters <= STABLE_CLUSTER_MAX
        and elapsed < SWEEP_BUDGET_S
    )
    detail = (
        f"gamma={best[0]:.2f} lambda=({best[2]:+.4f}, {best[3]:+.4f}) clusters={chaos_clusters}; "
        f"stable gamma={calm[0]:.2f} lambda={calm[2]:+.4f} clusters={calm_clusters}; {elapsed:.1f}s"
        if best is not None and calm is not None
        else f"no qualifying cell among {len(rows)}"
    )
    _report(5, ok, detail)
    assert best is not None, "no cell exceeds the chaos floor with estimator agreement"
    assert calm is not None, "no cell sits below the stability floor"
    assert chaos_clusters > CLUSTER_MIN
    assert calm_clusters <= STABLE_CLUSTER_MAX
    assert elapsed < SWEEP_BUDGET_S


def test_criterion_6_critical_bisection_is_estimator_stable():
    a = shared_results.shared_critical_bisect(
        SWEEP, "gamma", 0.0, 1.0, CRIT_TOL, SWEEP_INI, SWEEP_CFG, estimator="variational"
    )
    b = shared_results.shared_critical_bisect(
        SWEEP, "gamma", 0.0, 1.0, CRIT_TOL, SWEEP_INI, SWEEP_CFG, estimator="two_trajectory"
    )
    spread = abs(a.boundary - b.boundary) / abs(a.boundary)
    ok = (
        a.lam_lo < 0.0 < a.lam_hi
        and b.lam_lo < 0.0 < b.lam_hi
        and a.hi - a.lo <= CRIT_TOL + 1e-12
        and spread <= CRIT_AGREEMENT
    )
    _report(6, ok, f"gamma_c variational={a.boundary:.6f} two_trajectory={b.boundary:.6f} "
                   f"spread={spread:.2%} (allowed {CRIT_AGREEMENT:.0%})")
    assert a.lam_lo < 0.0 < a.lam_hi
    assert b.lam_lo < 0.0 < b.lam_hi
    assert a.hi - a.lo <= CRIT_TOL + 1e-12
    assert spread <= CRIT_AGREEMENT


def test_criterion_7_regularized_transplant_stays_bounded():
    # the chaotic cell's nonlinear coefficient, frozen into a static cubic
    k = SWEEP.params.gamma * SWEEP.params.delta
    maxes = []
    for p in (2.5, 3.0, 4.0):
        spec = SystemSpec(
            form=FORM_A2,
            params=Params(alpha=0.4, beta=64.0, gamma=1.0, delta=SWEEP.params.delta,
                          omega=16.0, q=1.0),
            nonlinearity=Nonlinearity.cubic(k),
            epsilon=EpsilonSchedule.power_law(0.4, p),
        )
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=1000.0, sample_every=10,
                               blowup_threshold=BLOWUP)
        traj = integrate(spec, State(1.0, 1.0, 0.0), cfg)
        assert traj.status == "completed"
        maxes.append(float(np.abs(traj.x).max()))
    ok = maxes[0] <= BLOWUP and maxes[1] <= maxes[0] and maxes[2] <= maxes[1]
    _report(7, ok, f"max|x| over [1, 1e3] = {maxes} for p in (2.5, 3, 4)")
    assert maxes[1] <= maxes[0]
    assert maxes[2] <= maxes[1]
    assert maxes[0] <= BLOWUP


def _submitted_in(monkeypatch, order):
    """Make every scan submit its cells in the given order."""
    run_indexed = chaoscan._run_indexed
    monkeypatch.setattr(chaoscan, "_run_indexed", lambda tasks, _=None: run_indexed(tasks, order))


def test_criterion_8_byte_identical_outputs(tmp_path, monkeypatch):
    args = ["simulate", "--form", "B", "--alpha", "0.3", "--beta", "1.2", "--gamma", "0.4",
            "--delta", "0.6", "--omega", "2", "--n", "3", "--t-end", "20", "--dt", "1e-3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    repeat_ok = a.read_bytes() == b.read_bytes()

    c = tmp_path / "c.csv"
    rerun(read_manifest(a), str(c))
    rerun_ok = a.read_bytes() == c.read_bytes()

    manifest = {"command": "bifurcation"}
    axis = Axis("gamma", 0.0, 1.0, 9)
    forced = SystemSpec(form=FORM_B, params=Params(alpha=0.1, beta=1.0, gamma=0.3, delta=0.5, omega=2.0))
    cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=40.0)
    ini = State(0.0, 1.0, 0.0)
    order = np.random.default_rng(3).permutation(9).tolist()
    d1, d2 = tmp_path / "bif1.csv", tmp_path / "bif2.csv"
    write_bifurcation_csv(d1, bifurcation_sweep(forced, axis, ini, cfg, Stroboscopic(period=math.pi)), manifest)
    with monkeypatch.context() as patch:
        _submitted_in(patch, order)
        write_bifurcation_csv(d2, bifurcation_sweep(forced, axis, ini, cfg, Stroboscopic(period=math.pi)), manifest)
    sweep_ok = d1.read_bytes() == d2.read_bytes()

    ax1, ax2 = Axis("alpha", 0.3, 0.7, 3), Axis("beta", 0.8, 1.2, 3)
    m1, m2 = tmp_path / "map1.csv", tmp_path / "map2.csv"
    cfg2 = IntegratorConfig(method="rk4", dt=1e-2, t_end=60.0)
    order9 = np.random.default_rng(5).permutation(9).tolist()
    write_lambda_map_csv(m1, lambda_map(LINEAR, ax1, ax2, ini, cfg2), manifest)
    with monkeypatch.context() as patch:
        _submitted_in(patch, order9)
        write_lambda_map_csv(m2, lambda_map(LINEAR, ax1, ax2, ini, cfg2), manifest)
    map_ok = m1.read_bytes() == m2.read_bytes()

    ok = repeat_ok and rerun_ok and sweep_ok and map_ok
    _report(8, ok, f"repeat={repeat_ok} rerun={rerun_ok} sweep_order={sweep_ok} map_order={map_ok}")
    assert repeat_ok
    assert rerun_ok
    assert sweep_ok
    assert map_ok
