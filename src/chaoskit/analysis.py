"""Stability diagnostics: energy functionals, linearized spectra, exponents.

The energy trace evaluates several candidate Lyapunov functions along a
completed trajectory.  ``V_dot_exact`` is the chain-rule derivative of
V = (v^2 + x^2)/2 and is what actually holds along solutions;
``V_dot_paper`` is the classical dissipation expression obtained after
substituting the equation of motion, kept separate because the two only
agree where the cross terms cancel.  ``V_reg`` adds the running integral of
the regularization so that its derivative stays nonpositive on the regulated
linear system, and ``E`` is the coupling-weighted functional whose decay
tracks the g-coupled forms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .errors import DegenerateSeparation, DivergedTrajectory, NonFinite, ValidationError
from .integrate import COMPLETED, IntegratorConfig, Trajectory, checked_run
from .model import (
    FORM_B,
    Axis,
    State,
    SystemSpec,
    _check_time,
    accel_array,
    run_kernel,
    tangent_accel,
    validate,
    with_param,
)

RENORM_STEPS_DEFAULT = 100
D0_MIN = 1e-10
D0_MAX = 1e-6


@dataclass(frozen=True)
class EnergyTrace:
    """Energy functionals sampled along a trajectory."""

    spec: SystemSpec
    t: np.ndarray
    V: np.ndarray
    V_dot_exact: np.ndarray
    V_dot_paper: np.ndarray
    V_reg: np.ndarray
    E: np.ndarray


def energy_trace(traj: Trajectory) -> EnergyTrace:
    """Evaluate the energy functionals on a completed trajectory."""
    if traj.status != COMPLETED:
        raise ValueError(f"energy trace requires a completed trajectory, got {traj.status!r}")
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
    return EnergyTrace(spec, t, V, V_dot_exact, V_dot_paper, V_reg, E)


@dataclass(frozen=True)
class EigenReport:
    """Eigenvalues of the linearization about the origin.

    The companion matrix is [[0, 1], [-beta_eff, -alpha_eff]], so the
    eigenvalues solve lam^2 + alpha_eff*lam + beta_eff = 0.  Sorted by
    descending real part, then descending imaginary part.
    """

    spec: SystemSpec
    at_time: float
    alpha_eff: float
    beta_eff: float
    matrix: np.ndarray
    eigenvalues: tuple[complex, complex]
    max_real_part: float


def _linear_part(spec: SystemSpec, at_time: float):
    """(alpha_eff, beta_eff) of the linearization at the origin and its
    eigenvalue pair, the roots of lam^2 + alpha_eff*lam + beta_eff = 0."""
    if not math.isfinite(at_time):
        raise ValidationError([f"at_time must be finite, got {at_time}"])
    _check_time(spec, at_time)
    p = spec.params
    if spec.form == FORM_B:
        if p.n == 1 and p.gamma * p.delta != 0.0:
            raise ValidationError([
                f"form B with n = 1 has the periodic linear term gamma*delta*sin(omega*t)*x "
                f"(gamma*delta = {p.gamma * p.delta:g}), which no frozen linearization holds: "
                f"its stability is parametric; estimate it with lyapunov"
            ])
        a_eff, b_eff = p.alpha, p.beta
    else:
        origin = State(at_time, 0.0, 0.0)
        b_eff = -tangent_accel(spec, origin, (1.0, 0.0))
        a_eff = -tangent_accel(spec, origin, (0.0, 1.0))
    root = cmath.sqrt(complex(a_eff * a_eff - 4.0 * b_eff, 0.0))
    return a_eff, b_eff, (-a_eff + root) / 2.0, (-a_eff - root) / 2.0


def linearized_eigen(spec: SystemSpec, at_time: float = 1.0) -> EigenReport:
    """Eigenvalues of the flow linearized at x = v = 0.

    On form B with n >= 2 the forcing term is nonlinear, so the linear part
    is autonomous, with alpha_eff = alpha and beta_eff = beta.  With n = 1
    the forcing gamma*delta*sin(omega*t)*x is a periodic linear coefficient
    (parametric resonance, which no eigenvalue pair describes), so a system
    with gamma*delta != 0 is refused.  The A forms carry 1/t^q coefficients;
    they are frozen at ``at_time``.  On every form ``at_time`` is refused
    where a run could not start (SingularTime).
    """
    validate(spec)
    a_eff, b_eff, l1, l2 = _linear_part(spec, at_time)
    eig = tuple(sorted((l1, l2), key=lambda z: (z.real, z.imag), reverse=True))
    return EigenReport(
        spec=spec,
        at_time=at_time,
        alpha_eff=a_eff,
        beta_eff=b_eff,
        matrix=np.array([[0.0, 1.0], [-b_eff, -a_eff]]),
        eigenvalues=eig,
        max_real_part=max(l1.real, l2.real),
    )


def bisect_sign(f, a, fa, b, fb, width, stop_at_zero=False):
    """Shrink [a, b], where fa = f(a) and fb = f(b) lie on opposite sides of
    zero, until it is no wider than width or its midpoint no longer splits
    it.  With stop_at_zero an exact zero at a midpoint ends the search there.
    Returns the final (a, fa, b, fb).
    """
    while b - a > width:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        fm = f(mid)
        if stop_at_zero and fm == 0.0:
            return mid, fm, mid, fm
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return a, fa, b, fb


def hopf_scan(
    spec: SystemSpec,
    axis: str,
    lo: float,
    hi: float,
    steps: int = 41,
    at_time: float = 1.0,
    resolution: float = 1e-6,
) -> list[float]:
    """Parameter values where the leading eigenvalue's real part changes sign.

    Scans the ``Axis`` of ``steps`` evenly spaced values of the named
    parameter (hi > lo, steps >= 2), then bisects each bracketing pair down
    to ``resolution``, which must be finite and > 0.
    Parameter constraints are not enforced on scanned values, so axes may
    sweep through regions a strict validate would reject.  An axis on which
    (alpha_eff, beta_eff) is the same at every value is refused as inert,
    and so is any value with a periodic linear term (form B, n = 1,
    gamma*delta != 0), as in ``linearized_eigen``.
    """
    if not 0.0 < resolution < math.inf:
        raise ValidationError([f"resolution must be finite and > 0, got {resolution}"])

    def max_real(val):
        _, _, l1, l2 = _linear_part(with_param(spec, axis, val), at_time)
        return max(l1.real, l2.real)

    values = Axis(axis, lo, hi, steps).values()
    parts = [_linear_part(with_param(spec, axis, val), at_time) for val in values]
    if len({(a_eff, b_eff) for a_eff, b_eff, _, _ in parts}) == 1:
        a_eff, b_eff, _, _ = parts[0]
        raise ValidationError([
            f"axis {axis!r} is inert: alpha_eff = {a_eff:g} and beta_eff = {b_eff:g} "
            f"at every value in [{lo:g}, {hi:g}] (at_time {at_time:g})"
        ])
    f = [max(l1.real, l2.real) for _, _, l1, l2 in parts]
    # one sweep, in grid order, over consecutive nonzero grid values: a sign
    # change between adjacent values is bisected, and one across a run of
    # exact zeros is each of those zeros; a zero with no sign change is none.
    # Signs are compared, not multiplied: the product of two values below
    # about 1e-162 in size underflows to -0.0
    signed = [i for i in range(steps) if f[i] != 0.0]
    crossings = []
    for i, j in zip(signed, signed[1:]):
        if (f[i] > 0.0) != (f[j] > 0.0):
            if j > i + 1:
                crossings += [float(values[k]) for k in range(i + 1, j)]
            else:
                a, _, b, _ = bisect_sign(
                    max_real,
                    float(values[i]),
                    f[i],
                    float(values[j]),
                    f[j],
                    resolution,
                    stop_at_zero=True,
                )
                crossings.append(0.5 * (a + b))
    deduped: list[float] = []
    for c in crossings:
        if not deduped or c - deduped[-1] > resolution:
            deduped.append(c)
    return deduped


@dataclass(frozen=True)
class LyapunovEstimate:
    """Largest-exponent estimate with its convergence history.

    ``convergence`` holds the running estimate at each renormalization epoch
    after the transient; ``lam`` is its final entry.  ``transient_skipped``
    is the time span discarded before accumulation started.
    """

    spec: SystemSpec
    lam: float
    method: str
    transient_skipped: float
    convergence_t: np.ndarray
    convergence: np.ndarray

    def to_dict(self):
        return {
            "lambda": self.lam,
            "method": self.method,
            "transient_skipped": self.transient_skipped,
            "convergence": [
                [float(t), float(l)] for t, l in zip(self.convergence_t, self.convergence)
            ],
        }


_COLLAPSED = {  # what a DEGENERATE status means for each estimator
    "two_trajectory": "separation collapsed to exactly zero; the pair cannot be renormalized",
    "variational": "tangent vector collapsed to exactly zero; it cannot be renormalized",
}


def _estimate(
    method, spec, initial, cfg, renorm_interval, transient_fraction, kernel, head, tail
):
    """Check the run, lay out its epochs and return the LyapunovEstimate of
    kernel(P, *head, *grid, *tail, *conv), or raise the failure its status
    names.  grid holds the kernel's (h, n, renorm_steps, transient_steps)
    arguments in order and conv its two convergence buffers."""
    if not 0.0 <= transient_fraction < 1.0:
        raise ValueError(f"transient_fraction must be in [0, 1), got {transient_fraction}")
    if renorm_interval is not None and not 0.0 < renorm_interval < math.inf:
        raise ValidationError([f"renorm_interval must be finite and > 0, got {renorm_interval}"])
    n, h = checked_run(spec, initial, cfg, "exponent estimation")
    if renorm_interval is None:
        renorm_steps = RENORM_STEPS_DEFAULT
    else:
        renorm_steps = round(min(renorm_interval / h, n))
    renorm_steps = min(max(renorm_steps, 1), n)
    # keep at least one accumulation epoch
    transient_steps = max(min(int(round(transient_fraction * n)), n - renorm_steps), 0)
    grid = (h, n, renorm_steps, transient_steps)
    conv = (np.empty(n // renorm_steps + 2), np.empty(n // renorm_steps + 2))
    status, lam, nconv, fail_t, t_acc = run_kernel(spec, kernel, *head, *grid, *tail, *conv)
    if status == _k.DIVERGED:
        raise DivergedTrajectory(fail_t)
    if status == _k.DEGENERATE:
        raise DegenerateSeparation(_COLLAPSED[method])
    if status == _k.STEP_FAILURE:
        raise NonFinite(f"tangent vector overflowed at t = {fail_t:.6g}")
    return LyapunovEstimate(
        spec=spec,
        lam=float(lam),
        method=method,
        transient_skipped=float(t_acc - initial.t),
        convergence_t=conv[0][:nconv].copy(),
        convergence=conv[1][:nconv].copy(),
    )


def lyapunov_two_trajectory(
    spec: SystemSpec,
    initial: State,
    cfg: IntegratorConfig,
    d0: float = 1e-8,
    renorm_interval: float | None = None,
    transient_fraction: float = 0.1,
) -> LyapunovEstimate:
    """Benettin-style estimate from a reference/companion pair.

    The companion starts offset by d0 in position; d0 must lie in
    [1e-10, 1e-6] so the pair stays in the linear regime without drowning in
    roundoff.  renorm_interval is a time span (default: 100 grid steps).
    """
    if not D0_MIN <= d0 <= D0_MAX:
        raise ValueError(f"d0 must lie in [{D0_MIN:g}, {D0_MAX:g}], got {d0:g}")
    return _estimate(
        "two_trajectory", spec, initial, cfg, renorm_interval, transient_fraction,
        _k.benettin, (initial.t, initial.x, initial.v), (d0, cfg.blowup_threshold),
    )


def lyapunov_variational(
    spec: SystemSpec,
    initial: State,
    cfg: IntegratorConfig,
    renorm_interval: float | None = None,
    transient_fraction: float = 0.1,
    tangent0: tuple[float, float] = (1.0, 0.0),
) -> LyapunovEstimate:
    """Estimate from the linearized flow along the trajectory.

    Integrates the tangent dynamics alongside the state and renormalizes the
    tangent vector to unit length at each epoch.
    """
    ux0, uv0 = float(tangent0[0]), float(tangent0[1])
    if not (math.isfinite(ux0) and math.isfinite(uv0)):
        raise ValueError(f"tangent0 must be finite, got ({ux0}, {uv0})")
    if ux0 == 0.0 and uv0 == 0.0:
        raise ValueError("tangent0 must be a nonzero vector")
    return _estimate(
        "variational", spec, initial, cfg, renorm_interval, transient_fraction,
        _k.variational, (initial.t, initial.x, initial.v, ux0, uv0), (cfg.blowup_threshold,),
    )
