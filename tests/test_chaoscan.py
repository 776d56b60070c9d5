"""Sections, clustering, sweeps, and critical-parameter bisection."""

import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from shared_results import shared_critical_bisect

from chaoskit import (
    Axis,
    EpsilonSchedule,
    FORM_A2,
    FORM_B,
    Indeterminate,
    IntegratorConfig,
    NoBracket,
    NOISE_FLOOR,
    Params,
    SectionMismatch,
    State,
    Stroboscopic,
    SystemSpec,
    ValidationError,
    VelocityZeroCrossing,
    bifurcation_sweep,
    cluster_count,
    critical_bisect,
    lambda_map,
    poincare,
)
from chaoskit import _workers, chaoscan
from chaoskit.chaoscan import CELL_DIVERGED, CELL_EMPTY, CELL_OK, _run_indexed

FORCED = SystemSpec(form=FORM_B, params=Params(alpha=0.1, beta=1.0, gamma=0.3, delta=0.5, omega=2.0))
LINEAR = SystemSpec(form=FORM_B, params=Params(alpha=0.5, beta=1.0))
CFG = IntegratorConfig(method="rk4", dt=1e-3, t_end=40.0)
INI = State(0.0, 1.0, 0.0)


def test_cluster_count_basics():
    assert cluster_count(np.empty((0, 2))) == 0
    assert cluster_count(np.array([[0.0, 0.0]])) == 1
    near = np.array([[0.0, 0.0], [0.004, 0.003]])  # inside radius 1e-2
    far = np.array([[0.0, 0.0], [0.02, 0.0]])
    assert cluster_count(near) == 1
    assert cluster_count(far) == 2
    assert cluster_count(np.array([[0.3, -0.1]] * 6)) == 1  # duplicates collapse


def test_cluster_count_single_linkage_chains():
    # consecutive gaps below the radius merge the whole chain
    chain = np.column_stack([np.arange(5) * 0.009, np.zeros(5)])
    assert cluster_count(chain) == 1
    spread = np.column_stack([np.arange(5) * 0.011, np.zeros(5)])
    assert cluster_count(spread) == 5


def test_cluster_count_radius_argument():
    pts = np.array([[0.0, 0.0], [0.05, 0.0], [0.2, 0.0]])
    assert cluster_count(pts, radius=0.1) == 2
    assert cluster_count(pts, radius=0.3) == 1
    assert cluster_count(pts, radius=0.01) == 3


def test_cluster_count_grid_independence():
    # points straddling bucket boundaries still merge across cells
    pts = np.array([[0.00999, 0.0], [0.01001, 0.0]])
    assert cluster_count(pts) == 1


def _brute_force_clusters(points, radius):
    """Single-linkage clusters by comparing every pair: d2 <= radius**2 links."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a in range(len(pts)):
        d2 = np.sum((pts - pts[a]) ** 2, axis=1)
        for b in np.flatnonzero(d2 <= radius * radius):
            parent[find(int(b))] = find(a)
    return len({find(i) for i in range(len(pts))})


def test_cluster_count_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(11)
    for _ in range(150):
        radius = float(10 ** rng.uniform(-3, 0))
        pts = rng.uniform(-1, 1, (int(rng.integers(1, 120)), 2)) * rng.uniform(0.01, 20)
        pts += rng.uniform(-100, 100, 2)
        assert cluster_count(pts, radius) == _brute_force_clusters(pts, radius)


def _cluster_count_unique(points, radius=chaoscan.CLUSTER_RADIUS):
    """cluster_count as it was when np.unique(axis=0) collapsed the duplicates."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    n = len(pts)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    ends = np.searchsorted(pts[:, 0], pts[:, 0] + 2.0 * radius, side="right")
    for a in range(n):
        with np.errstate(invalid="ignore"):  # inf - inf; cluster_count itself must not warn
            d2 = np.sum((pts[a + 1 : ends[a]] - pts[a]) ** 2, axis=1)
        for b in np.flatnonzero(d2 <= radius * radius) + a + 1:
            ra, rb = find(a), find(int(b))
            if ra != rb:
                parent[rb] = ra
    return len({find(i) for i in range(n)})


def test_cluster_count_collapses_duplicates_as_np_unique_did():
    # a duplicate changes the count only where it cannot link to itself, on
    # a non-finite row, so the sets mix near ties, signed zeros, infinities
    # and NaNs, and repeat rows in a shuffled order
    rng = np.random.default_rng(25)
    values = [-np.inf, -0.01, -0.0, 0.0, 0.004, 0.01, np.inf, np.nan]
    for _ in range(200):
        n = int(rng.integers(1, 40))
        pts = rng.choice(values, (n, 2))
        jitter = rng.integers(0, 2, (n, 2)) * rng.uniform(-0.02, 0.02, (n, 2))
        pts = np.where(np.isfinite(pts), pts + jitter, pts)
        pts[rng.random(n) < 0.3, 0] = pts[0, 0]  # rows equal in x
        pts = np.vstack([pts, pts[rng.integers(0, n, int(rng.integers(0, 2 * n)))]])
        pts = pts[rng.permutation(len(pts))]
        for radius in (chaoscan.CLUSTER_RADIUS, 0.003, 0.05):
            assert cluster_count(pts, radius) == _cluster_count_unique(pts, radius)
        assert cluster_count(pts) == _cluster_count_unique(pts)


@pytest.mark.parametrize("spacing", [1.0, 0.5, 2**-0.5], ids=["radius", "half", "diagonal"])
def test_cluster_count_matches_brute_force_on_lattice_ties(spacing):
    # lattice neighbours sit on or next to the edge of the d2 rule, on both
    # sides of zero, and duplicated points must collapse
    rng = np.random.default_rng(12)
    for _ in range(100):
        radius = float(10 ** rng.uniform(-3, 1))
        m = int(rng.integers(2, 10))
        ij = rng.integers(-m, m + 1, (int(rng.integers(1, 100)), 2))
        pts = ij * (spacing * radius) + rng.choice([0.0, 0.3 * radius, 0.7]) * rng.uniform(-1, 1, 2)
        pts = np.vstack([pts, pts[: len(pts) // 3]])
        assert cluster_count(pts, radius) == _brute_force_clusters(pts, radius)


def test_poincare_stroboscopic_on_forced_cell():
    sec = poincare(FORCED, INI, CFG, Stroboscopic(period=math.pi))
    assert sec.status == CELL_OK
    assert sec.points.shape[1] == 2
    # post-transient filter drops the first 10% of the run
    assert len(sec) == len([k for k in range(int(40.0 / math.pi) + 1) if k * math.pi >= 4.0])
    assert np.array_equal(sec.x_coords(), sec.points[:, 0])


def test_poincare_velocity_section_columns_are_t_x():
    sec = poincare(LINEAR, INI, CFG, VelocityZeroCrossing(direction="any"), transient_fraction=0.0)
    assert sec.status == CELL_OK
    assert np.all(np.diff(sec.points[:, 0]) > 0)  # first column is time
    assert np.array_equal(sec.x_coords(), sec.points[:, 1])


def test_a_section_run_keeps_no_trajectory():
    # 2e5 rk4 steps: three trajectory columns of them took 4.8 MB, and the
    # vzero section's event slots as many again; a strobo run keeps 57 hits
    cfg = IntegratorConfig(method="rk4", dt=1e-3, t_end=200.0)
    tracemalloc.start()
    try:
        section = poincare(FORCED, INI, cfg, Stroboscopic(period=math.pi))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert section.status == CELL_OK and len(section) == 57
    assert peak < 1_000_000


def test_poincare_stroboscopic_requires_forced_theorem_form():
    with pytest.raises(SectionMismatch):
        poincare(LINEAR, INI, CFG, Stroboscopic(period=math.pi))  # delta = 0, no forcing clock
    a2 = SystemSpec(
        form=FORM_A2,
        params=Params(alpha=0.5, beta=0.4, gamma=0.3, delta=0.2, omega=1.5, q=1.0),
    )
    with pytest.raises(SectionMismatch):
        poincare(a2, State(1.0, 1.0, 0.0), CFG, Stroboscopic(period=math.pi))


def test_poincare_empty_and_diverged_statuses():
    # a fixed point never recrosses v = 0 after the transient window
    still = poincare(LINEAR, State(0.0, 0.0, 0.0), CFG, VelocityZeroCrossing(direction="rising"))
    assert still.status == CELL_EMPTY
    assert len(still) == 0
    escaping = SystemSpec(form=FORM_B, params=Params(alpha=0.1, beta=1.0, gamma=1.0, delta=1.0, omega=1.0, n=3))
    sec = poincare(escaping, State(0.0, 6.0, 0.0), CFG, VelocityZeroCrossing(direction="any"))
    assert sec.status == CELL_DIVERGED


AXIS = Axis("gamma", 0.0, 1.2, 7)


def test_poincare_refuses_an_object_that_is_not_a_section():
    with pytest.raises(TypeError):
        poincare(FORCED, INI, CFG, "strobo")


def test_axis_validation():
    with pytest.raises(ValidationError):
        Axis("gamma", 0.0, 1.0, 1)
    with pytest.raises(ValidationError):
        Axis("gamma", 1.0, 0.0, 5)
    assert np.array_equal(AXIS.values(), np.linspace(0.0, 1.2, 7))


def test_bifurcation_sweep_marks_escaping_cells():
    spec = SystemSpec(form=FORM_B, params=Params(alpha=0.1, beta=1.0, gamma=1.0, delta=1.0, omega=1.0, n=3))
    diagram = bifurcation_sweep(spec, Axis("alpha", 0.05, 0.2, 4), State(0.0, 6.0, 0.0), CFG,
                                VelocityZeroCrossing(direction="any"))
    assert CELL_DIVERGED in diagram.statuses


def test_lambda_map_grid():
    ax1 = Axis("alpha", 0.2, 0.8, 3)
    ax2 = Axis("beta", 0.5, 1.5, 3)
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=60.0)
    lmap = lambda_map(LINEAR, ax1, ax2, INI, cfg)
    assert lmap.lam.shape == (3, 3)
    # damping dominates: every cell contracts at about -alpha/2
    for i, a in enumerate(ax1.values()):
        for j in range(3):
            assert lmap.lam[i, j] == pytest.approx(-a / 2, abs=5e-2)
            assert lmap.statuses[i][j] == CELL_OK


def test_lambda_map_estimators_agree():
    ax1 = Axis("alpha", 0.3, 0.7, 2)
    ax2 = Axis("beta", 0.8, 1.2, 2)
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=60.0)
    a = lambda_map(LINEAR, ax1, ax2, INI, cfg, estimator="variational")
    b = lambda_map(LINEAR, ax1, ax2, INI, cfg, estimator="two_trajectory")
    assert np.allclose(a.lam, b.lam, atol=1e-3)


def test_lambda_map_diverged_cells_are_nan():
    spec = SystemSpec(form=FORM_B, params=Params(alpha=0.1, beta=1.0, gamma=1.0, delta=1.0, omega=1.0, n=3))
    ax1 = Axis("alpha", 0.05, 0.1, 2)
    ax2 = Axis("beta", 0.9, 1.1, 2)
    lmap = lambda_map(spec, ax1, ax2, State(0.0, 6.0, 0.0), CFG)
    assert np.all(np.isnan(lmap.lam))
    assert all(s == CELL_DIVERGED for row in lmap.statuses for s in row)


def _cell(i, ran, failing=()):
    def run():
        ran.append((i, threading.get_ident()))
        if i in failing:
            raise ValueError(f"cell {i} failed")
        return i * i, CELL_OK

    return run


def test_run_indexed_on_one_worker_keeps_results_at_their_index(monkeypatch):
    monkeypatch.setattr(_workers, "max_workers", lambda: 1)
    ran = []
    order = [3, 0, 5, 1, 4, 2]
    results = _run_indexed([_cell(i, ran) for i in range(6)], order)
    assert results == [(i * i, CELL_OK) for i in range(6)]
    # one worker thread, not the caller's, runs the cells one at a time in submission order
    assert [i for i, _ in ran] == order
    assert len({t for _, t in ran}) == 1 and ran[0][1] != threading.get_ident()


def test_run_indexed_raises_the_lowest_failing_cell(monkeypatch):
    monkeypatch.setattr(_workers, "max_workers", lambda: 2)
    with pytest.raises(ValueError, match="cell 1 failed"):
        _run_indexed([_cell(i, [], failing=(1, 3)) for i in range(5)], [4, 3, 2, 1, 0])


# frozen sweep family with a genuine stability-to-chaos transition on gamma
SWEEP = SystemSpec(
    form=FORM_B,
    params=Params(alpha=0.4, beta=64.0, gamma=1.0, delta=2.0**-8, omega=16.0, n=3),
    epsilon=EpsilonSchedule.constant(2048.0),
)
SWEEP_INI = State(0.0, -32.0, 0.0)
SWEEP_CFG = IntegratorConfig(method="rk4", dt=6.25e-4, t_end=45.0)


def test_critical_bisect_bracket_invariants():
    cs = shared_critical_bisect(SWEEP, "gamma", 0.0, 1.0, 1e-2, SWEEP_INI, SWEEP_CFG)
    assert 0.0 < cs.boundary < 1.0
    assert cs.hi - cs.lo <= 1e-2 + 1e-12
    assert cs.lo <= cs.boundary <= cs.hi
    assert cs.lam_lo < 0.0 < cs.lam_hi
    assert len(cs.probes) >= 2
    probed = {round(v, 12) for v, _ in cs.probes}
    assert {0.0, 1.0} <= probed  # endpoints recorded


def test_critical_bisect_estimators_agree():
    a = shared_critical_bisect(SWEEP, "gamma", 0.0, 1.0, 1e-2, SWEEP_INI, SWEEP_CFG, estimator="variational")
    b = shared_critical_bisect(SWEEP, "gamma", 0.0, 1.0, 1e-2, SWEEP_INI, SWEEP_CFG, estimator="two_trajectory")
    assert abs(a.boundary - b.boundary) <= 0.02 * abs(a.boundary)


def test_critical_bisect_rejects_weak_endpoints():
    # |lambda| at an endpoint must clear twice the noise floor
    weak = SystemSpec(form=FORM_B, params=Params(alpha=0.02, beta=1.0))
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=60.0)
    with pytest.raises(Indeterminate):
        critical_bisect(weak, "alpha", 0.02, 1.0, 1e-2, INI, cfg)
    assert NOISE_FLOOR == 0.01


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
def test_critical_bisect_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    # an infinite tolerance once reported the unbisected midpoint as the boundary
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=60.0)
    with pytest.raises(ValidationError, match="tolerance must be finite and > 0"):
        critical_bisect(LINEAR, "alpha", -0.5, 1.0, tol, INI, cfg)


ESTIMATORS = "expected one of ['two_trajectory', 'variational']"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: lambda_map(LINEAR, Axis("alpha", 0.3, 0.7, 2), Axis("beta", 0.8, 1.2, 2), INI,
                            CFG, estimator="lyapunov"),
         ValueError, f"unknown estimator 'lyapunov'; {ESTIMATORS}"),
        (lambda: critical_bisect(LINEAR, "alpha", -0.5, 1.0, 1e-2, INI, CFG, estimator="lyapunov"),
         ValueError, f"unknown estimator 'lyapunov'; {ESTIMATORS}"),
        (lambda: critical_bisect(LINEAR, "alpha", 1.0, -0.5, 1e-2, INI, CFG),
         ValidationError, "need hi > lo, got [1.0, -0.5]"),
        (lambda: critical_bisect(LINEAR, "alpha", 0.5, 0.5, 1e-2, INI, CFG),
         ValidationError, "need hi > lo, got [0.5, 0.5]"),
        (lambda: cluster_count(np.zeros(4)), ValueError, "points must be an (n, 2) array"),
        (lambda: cluster_count(np.zeros((4, 3))), ValueError, "points must be an (n, 2) array"),
        (lambda: poincare(LINEAR, INI, CFG, VelocityZeroCrossing(), transient_fraction=1.0),
         ValueError, "transient_fraction must be in [0, 1), got 1.0"),
        (lambda: poincare(LINEAR, INI, CFG, VelocityZeroCrossing(), transient_fraction=-0.1),
         ValueError, "transient_fraction must be in [0, 1), got -0.1"),
    ],
    ids=["map-estimator", "critical-estimator", "critical-reversed", "critical-empty",
         "cluster-1d", "cluster-3-columns", "poincare-transient-1", "poincare-transient-negative"],
)
def test_scan_refusals_name_the_input(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_a_strobo_sweep_refuses_an_omega_axis_before_any_cell(monkeypatch):
    # one fixed period is stroboscopic at one omega only
    monkeypatch.setattr(chaoscan, "_run_indexed", None)  # a cell run would fail here
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=10.0)
    with pytest.raises(ValidationError, match="cannot sweep omega"):
        bifurcation_sweep(FORCED, Axis("omega", 1.0, 3.0, 3), INI, cfg, Stroboscopic(period=math.pi))


def test_critical_bisect_requires_a_sign_change():
    cfg = IntegratorConfig(method="rk4", dt=1e-2, t_end=60.0)
    with pytest.raises(NoBracket):
        critical_bisect(LINEAR, "alpha", 0.5, 1.0, 1e-2, INI, cfg)  # stable at both ends
