"""Parameter-space scanning: sections, bifurcation sweeps, exponent maps,
and bisection onto the stability boundary.

Every grid scan runs its cells one way: ``_scan`` sets each grid point's
axis values on the system, refuses an axis that enters the dynamics at no
grid point, and hands the cells to ``_run_indexed``, which runs them on
``max_workers()`` plain threads (the CPUs in the process's affinity mask, at
most one per cell), and returns the results by cell index, so output is
independent of the scan's width and evaluation order.  Both come from
``_workers``; ``_scan`` looks ``_run_indexed`` up here, so that a caller
can replace it.  Critical bisection probes one system at a time, in
process.  Exponents within ``NOISE_FLOOR`` of zero are reported as
indeterminate rather than forced to a side.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._workers import _run_indexed, max_workers
from .analysis import bisect_sign, lyapunov_two_trajectory, lyapunov_variational
from .errors import (
    DegenerateSeparation,
    DivergedTrajectory,
    Indeterminate,
    NoBracket,
    NonFinite,
    SectionMismatch,
    ValidationError,
)
from .integrate import COMPLETED, IntegratorConfig, Stroboscopic, integrate_with_events
from .model import FORM_B, Axis, State, SystemSpec, refuse_inert, with_param

NOISE_FLOOR = 0.01
CLUSTER_RADIUS = 1e-2

CELL_OK = "ok"
CELL_DIVERGED = "diverged"
CELL_EMPTY = "empty"
CELL_FAILED = "failed"

_ESTIMATORS = {
    "two_trajectory": lyapunov_two_trajectory,
    "variational": lyapunov_variational,
}


def _scan(spec, axes, cell):
    """cell(system) -> (value, status) at every point of the product grid of
    the axes, in row-major order; each system is spec with every axis value
    set as a float."""
    systems = []
    for point in itertools.product(*(axis.values() for axis in axes)):
        system = spec
        for axis, value in zip(axes, point):
            system = with_param(system, axis.name, float(value))
        systems.append(system)
    for axis in axes:
        refuse_inert(axis.name, systems)
    return _run_indexed([lambda system=system: cell(system) for system in systems])


@dataclass(frozen=True)
class PoincareSection:
    """Post-transient section hits.

    points has the two columns named by columns: (x, v) for stroboscopic
    sections, (t, x) for velocity-zero sections.
    """

    spec: SystemSpec
    section: object
    points: np.ndarray
    transient_fraction: float
    status: str
    columns: tuple[str, str]

    def __len__(self):
        return len(self.points)

    def x_coords(self) -> np.ndarray:
        """Position coordinate of each hit, whichever column that is."""
        return self.points[:, self.columns.index("x")]


def poincare(
    spec: SystemSpec,
    initial: State,
    cfg: IntegratorConfig,
    section,
    transient_fraction: float = 0.1,
) -> PoincareSection:
    """Section hits after discarding the leading transient_fraction of the run.

    Stroboscopic sections only make sense against the periodic forcing of
    form B, so they require form B with delta != 0; anything else raises
    SectionMismatch.  A diverged run still returns its (possibly empty)
    post-transient hits, flagged by status.  The run keeps only its events:
    its sample stride is wider than any run, so the kernel records the
    start and end states and no trajectory (cfg.sample_every is not read).
    """
    if isinstance(section, Stroboscopic) and (spec.form != FORM_B or spec.params.delta == 0.0):
        raise SectionMismatch(
            "stroboscopic sections need the periodically forced form B with delta != 0"
        )
    if not 0.0 <= transient_fraction < 1.0:
        raise ValueError(f"transient_fraction must be in [0, 1), got {transient_fraction}")
    events_only = replace(cfg, sample_every=sys.maxsize)
    traj, events = integrate_with_events(spec, initial, events_only, section)
    t_cut = initial.t + transient_fraction * (cfg.t_end - initial.t)
    keep = events.t >= t_cut
    points = np.column_stack([getattr(events, name)[keep] for name in section.columns])
    if traj.status != COMPLETED:
        status = CELL_DIVERGED
    elif len(points) == 0:
        status = CELL_EMPTY
    else:
        status = CELL_OK
    return PoincareSection(spec, section, points, transient_fraction, status, section.columns)


def cluster_count(points: np.ndarray, radius: float = CLUSTER_RADIUS) -> int:
    """Number of single-linkage clusters at the given merge radius.

    Two points are linked when their squared distance is <= radius**2, and
    the clusters are the connected components of those links.  The points
    are sorted by x, then y, and each one equal to the one before it is
    dropped; a sweep then compares each point only with the later points
    whose x lies within 2*radius of its own.  The window is wider than the
    links need so that rounding in x + radius cannot drop a link.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    if len(pts) == 0:
        return 0
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    pts = pts[np.insert(np.any(pts[1:] != pts[:-1], axis=1), 0, True)]
    n = len(pts)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    ends = np.searchsorted(pts[:, 0], pts[:, 0] + 2.0 * radius, side="right")
    r2 = radius * radius
    for a in range(n):
        d2 = np.sum((pts[a + 1 : ends[a]] - pts[a]) ** 2, axis=1)
        for b in np.flatnonzero(d2 <= r2) + a + 1:
            ra, rb = find(a), find(int(b))
            if ra != rb:
                parent[rb] = ra
    return len({find(i) for i in range(n)})


@dataclass(frozen=True)
class BifurcationDiagram:
    """Section x-coordinates per parameter value.

    cells[i] holds the post-transient x-coordinates for values()[i]; a
    diverged cell carries an empty array and the "diverged" status so plots
    can mark escape explicitly.
    """

    spec: SystemSpec
    axis: Axis
    values: np.ndarray
    cells: list[np.ndarray]
    statuses: list[str]


def bifurcation_sweep(
    spec: SystemSpec,
    axis: Axis,
    initial: State,
    cfg: IntegratorConfig,
    section,
    transient_fraction: float = 0.1,
) -> BifurcationDiagram:
    """Poincare sections across an axis, one independent run per cell.

    Every cell starts from the same initial state and integrator settings;
    there is no continuation between neighboring cells, so hysteresis cannot
    leak across the sweep.  A stroboscopic section on an omega axis is
    refused: its one period is stroboscopic at one omega only.
    """
    if isinstance(section, Stroboscopic) and axis.name == "omega":
        raise ValidationError([
            "a stroboscopic section samples every cell at one period, so it cannot "
            "sweep omega; use a velocity-zero section (--section vzero)"
        ])

    def cell(system):
        sec = poincare(system, initial, cfg, section, transient_fraction)
        return (np.empty(0) if sec.status == CELL_DIVERGED else sec.x_coords().copy()), sec.status

    cells, statuses = zip(*_scan(spec, (axis,), cell))
    return BifurcationDiagram(spec, axis, axis.values(), list(cells), list(statuses))


def _lambda_probe(initial, cfg, estimator, estimator_kwargs):
    """Check the estimator name, then return probe(system) giving the
    (lambda, status) of that system.  A trajectory that escapes gives
    (nan, "diverged"); the estimator's other failures propagate."""
    if estimator not in _ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {sorted(_ESTIMATORS)}")

    def probe(system):
        try:
            est = _ESTIMATORS[estimator](system, initial, cfg, **estimator_kwargs)
        except DivergedTrajectory:
            return math.nan, CELL_DIVERGED
        return est.lam, CELL_OK

    return probe


@dataclass(frozen=True)
class LambdaMap:
    """Largest-exponent estimates over a two-axis grid.

    lam is indexed [i, j] for (axis1.values()[i], axis2.values()[j]); cells
    whose trajectory escaped hold NaN and the "diverged" status, and cells
    whose estimate failed (NonFinite, DegenerateSeparation) NaN and "failed".
    """

    spec: SystemSpec
    axis1: Axis
    axis2: Axis
    lam: np.ndarray
    statuses: list[list[str]]
    estimator: str


def lambda_map(
    spec: SystemSpec,
    axis1: Axis,
    axis2: Axis,
    initial: State,
    cfg: IntegratorConfig,
    estimator: str = "variational",
    **estimator_kwargs,
) -> LambdaMap:
    """Exponent estimates over the product grid of two axes; one cell's
    failed estimate is that cell's data, not the map's end."""
    probe = _lambda_probe(initial, cfg, estimator, estimator_kwargs)

    def cell(system):
        try:
            return probe(system)
        except (NonFinite, DegenerateSeparation):
            return math.nan, CELL_FAILED

    lam, statuses = zip(*_scan(spec, (axis1, axis2), cell))
    shape = (axis1.steps, axis2.steps)
    statuses = np.reshape(statuses, shape).tolist()
    return LambdaMap(spec, axis1, axis2, np.reshape(lam, shape), statuses, estimator)


@dataclass(frozen=True)
class CriticalSet:
    """Bisection record for one crossing of the stability boundary.

    probes lists every (value, lambda) pair in evaluation order; the final
    bracket [lo, hi] has opposite-signed exponents and width <= the requested
    tolerance, and boundary is its midpoint.  Only the two starting
    endpoints are held to |lambda| > 2*NOISE_FLOOR; lam_lo and lam_hi of a
    narrowed bracket come from interior probes and may lie inside that band.
    A probe whose trajectory escaped holds lambda = inf, here and in lam_lo
    or lam_hi; the critical artifact writes it as null.
    """

    spec: SystemSpec
    axis: str
    boundary: float
    lo: float
    hi: float
    lam_lo: float
    lam_hi: float
    tolerance: float
    probes: list[tuple[float, float]]
    estimator: str


def critical_bisect(
    spec: SystemSpec,
    axis: str,
    lo: float,
    hi: float,
    tol: float,
    initial: State,
    cfg: IntegratorConfig,
    estimator: str = "variational",
    **estimator_kwargs,
) -> CriticalSet:
    """Bisect a parameter interval onto the sign change of the exponent.

    Both endpoint exponents must clear twice the noise floor (|lam| >
    2*NOISE_FLOOR), otherwise the sign is untrustworthy and Indeterminate is
    raised; equal signs raise NoBracket.  Only the endpoints are held to that
    band: the exponent goes to zero at the boundary, so interior probes near
    it are expected to fall inside the band, and bisection follows their
    sign.  A probe whose trajectory escapes counts as unstable, with lambda
    = inf, the only non-finite exponent a CriticalSet can hold; any other
    failed probe has no sign and ends the search with its error.
    """
    lam_at = _lambda_probe(initial, cfg, estimator, estimator_kwargs)
    if not hi > lo:
        raise ValidationError([f"need hi > lo, got [{lo}, {hi}]"])
    if not 0.0 < tol < math.inf:
        raise ValidationError([f"tolerance must be finite and > 0, got {tol}"])

    refuse_inert(axis, [with_param(spec, axis, lo)])
    probes: list[tuple[float, float]] = []

    def probe(val):
        lam, status = lam_at(with_param(spec, axis, val))
        lam = math.inf if status == CELL_DIVERGED else lam
        probes.append((val, lam))
        return lam

    lam_lo = probe(lo)
    lam_hi = probe(hi)
    for val, lam in probes:
        if abs(lam) <= 2.0 * NOISE_FLOOR:
            raise Indeterminate(
                f"lambda({val:g}) = {lam:.4g} sits within the noise floor "
                f"(+/-{2.0 * NOISE_FLOOR:g}); widen the interval or lengthen the run"
            )
    if (lam_lo > 0.0) == (lam_hi > 0.0):
        raise NoBracket(
            f"lambda has the same sign at both ends: lambda({lo:g}) = {lam_lo:.4g}, "
            f"lambda({hi:g}) = {lam_hi:.4g}"
        )
    a, fa, b, fb = bisect_sign(probe, lo, lam_lo, hi, lam_hi, tol)
    return CriticalSet(
        spec=spec,
        axis=axis,
        boundary=0.5 * (a + b),
        lo=a,
        hi=b,
        lam_lo=fa,
        lam_hi=fb,
        tolerance=b - a,
        probes=probes,
        estimator=estimator,
    )
