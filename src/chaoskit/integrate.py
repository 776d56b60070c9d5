"""Trajectory integration: fixed-step RK4, adaptive RKF45, event recording.

RK4 runs on the uniform grid obtained by snapping dt so that an integer
number of steps lands exactly on t_end.  RKF45 adapts its step from the
paired fourth/fifth-order error estimate.  Divergence (|x| or |v| beyond the
blowup threshold, or a non-finite value) and step-size underflow are reported
through the trajectory status, not as exceptions, so sweeps can treat escape
as data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .errors import ValidationError
from .model import State, SystemSpec, _check_time, run_kernel, validate

COMPLETED = "completed"
DIVERGED = "diverged"
STEP_FAILURE = "step_failure"

_STATUS_NAMES = {_k.OK: COMPLETED, _k.DIVERGED: DIVERGED, _k.STEP_FAILURE: STEP_FAILURE}

METHODS = ("rk4", "rkf45")


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.

    dt is the RK4 grid step and the initial RKF45 step.  Tolerances apply to
    RKF45 only.  sample_every keeps every k-th accepted point (the initial
    and final states are always kept).  A trajectory whose |x| or |v| exceeds
    blowup_threshold, which must be finite and > 0, or turns non-finite is
    marked diverged; the largest float, 1.7976931348623157e308, leaves only
    the non-finite test.
    """

    method: str = "rk4"
    dt: float = 1e-3
    t_end: float = 100.0
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    sample_every: int = 1
    blowup_threshold: float = 1e8

    def __post_init__(self):
        msgs = []
        if self.method not in METHODS:
            msgs.append(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not math.isfinite(self.t_end):
            msgs.append(f"t_end must be finite, got {self.t_end}")
        if not self.dt > 0.0:
            msgs.append(f"dt must be > 0, got {self.dt}")
        if not 0.0 < self.abs_tol < math.inf:
            msgs.append(f"abs_tol must be finite and > 0, got {self.abs_tol}")
        if not 0.0 < self.rel_tol < math.inf:
            msgs.append(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if self.sample_every < 1:
            msgs.append(f"sample_every must be >= 1, got {self.sample_every}")
        if not 0.0 < self.blowup_threshold < math.inf:
            msgs.append(f"blowup_threshold must be finite and > 0, got {self.blowup_threshold}")
        if msgs:
            raise ValidationError(msgs)


# Section types name the event columns their points hold; event_run(t0, t_end, n)
# gives the event kernel of an n-step run, its event arguments and its event capacity.


@dataclass(frozen=True)
class Stroboscopic:
    """Record the state at times phase + k*period."""

    period: float
    phase: float = 0.0

    columns = ("x", "v")

    def __post_init__(self):
        msgs = []
        if not 0.0 < self.period < math.inf:
            msgs.append(f"stroboscopic period must be finite and > 0, got {self.period}")
        if not math.isfinite(self.phase):
            msgs.append(f"stroboscopic phase must be finite, got {self.phase}")
        if msgs:
            raise ValidationError(msgs)

    def event_run(self, t0, t_end, n):
        check_times(t0, t_end, self.period, ("t0", "t_end", "stroboscopic period"))
        # the residue names the same times; a huge phase would swamp the
        # period in phase + k*period and stall the event times.  fmod keeps
        # the sign, so every |phase| < period runs unchanged
        phase = math.fmod(self.phase, self.period)
        return _k.rk4_events_strobo, (self.period, phase), int((t_end - t0) / self.period) + 3


_DIRECTIONS = {"rising": 1, "falling": -1, "any": 0}


@dataclass(frozen=True)
class VelocityZeroCrossing:
    """Record states where the velocity crosses zero.

    direction: "rising" (v goes negative to positive), "falling", or "any".
    """

    direction: str = "any"

    columns = ("t", "x")

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValidationError(
                [f"direction must be rising, falling or any, got {self.direction!r}"]
            )

    def event_run(self, t0, t_end, n):
        return _k.rk4_events_vzero, (_DIRECTIONS[self.direction],), n + 2


@dataclass(frozen=True)
class EventRecord:
    """Event hits as parallel arrays (times strictly increasing)."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray

    def __len__(self):
        return len(self.t)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution with its termination status.

    status is one of "completed", "diverged", "step_failure"; for the latter
    two, status_time records when the run stopped and the samples end at the
    last admissible state.
    """

    spec: SystemSpec
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    status: str
    status_time: float | None = None

    def __len__(self):
        return len(self.t)


def grid_steps(t0: float, t_end: float, dt: float) -> tuple[int, float]:
    """Snap dt to the span: the largest n with span/n >= dt (at least 1)."""
    span = t_end - t0
    n = max(1, int(math.ceil(span / dt - 1e-9)))
    return n, span / n


def check_times(t0: float, t_end: float, step: float, names=("t0", "t_end", "dt")):
    """Refuse times too large to hold a step (dt, or a stroboscopic period):
    where floats lie a step or more apart, the times t0 + i*step stall or
    jump, and the event times outrun their buffer.  ``names`` are how the
    caller spells t0, t_end and the step."""
    spacing = math.ulp(max(abs(t0), abs(t_end)))
    if spacing >= step:
        t0_name, t_end_name, step_name = names
        raise ValidationError(
            [
                f"{t0_name} = {t0} and {t_end_name} = {t_end} are too large for "
                f"{step_name} = {step}: floats there lie {spacing} apart"
            ]
        )


def checked_run(spec: SystemSpec, initial: State, cfg: IntegratorConfig, grid_user=None):
    """Check a run and return (n, h), its snapped grid.

    The spec must validate, the start time must not be singular, dt must
    fit inside the span and the times must be fine enough to hold a step of
    dt.  ``grid_user`` names a caller that needs the fixed rk4 grid; for it
    the method must be rk4.
    """
    if grid_user is not None and cfg.method != "rk4":
        raise ValidationError([f"{grid_user} runs on the fixed rk4 grid; method must be rk4"])
    validate(spec)
    _check_time(spec, initial.t)
    if not cfg.dt < cfg.t_end - initial.t:
        raise ValidationError(
            [f"dt = {cfg.dt} must be smaller than the span t_end - t0 = {cfg.t_end - initial.t}"]
        )
    check_times(initial.t, cfg.t_end, cfg.dt)
    return grid_steps(initial.t, cfg.t_end, cfg.dt)


def _buffers(size):
    return np.empty(size), np.empty(size), np.empty(size)


def _trajectory(spec, cfg, status, fail_t, t, x, v, m=None):
    """Trajectory from kernel output: the first m samples (all by default),
    with a completed run's last time snapped exactly onto t_end."""
    t, x, v = t[:m].copy(), x[:m].copy(), v[:m].copy()
    if status == _k.OK:
        t[-1] = cfg.t_end
    return Trajectory(
        spec,
        t,
        x,
        v,
        _STATUS_NAMES[int(status)],
        None if status == _k.OK else float(fail_t),
    )


def integrate(spec: SystemSpec, initial: State, cfg: IntegratorConfig) -> Trajectory:
    """Integrate from the initial state to cfg.t_end.

    The first sample is the initial state and, for a completed run, the last
    sample sits exactly at t_end.  Divergence at the initial state itself is
    reported as a diverged trajectory holding that single sample.
    """
    n, h = checked_run(spec, initial, cfg)
    t0, x0, v0 = initial.t, initial.x, initial.v
    if cfg.method == "rk4":
        out = _buffers(n // cfg.sample_every + 3)
        status, m, fail_t = run_kernel(
            spec, _k.rk4_trajectory, t0, x0, v0, h, n, cfg.sample_every, cfg.blowup_threshold, *out
        )
        return _trajectory(spec, cfg, status, fail_t, *out, m)
    status, t, x, v, fail_t = run_kernel(
        spec,
        _k.rkf45_trajectory,
        t0,
        x0,
        v0,
        cfg.t_end,
        cfg.dt,
        cfg.abs_tol,
        cfg.rel_tol,
        cfg.sample_every,
        cfg.blowup_threshold,
        1e-12 * cfg.dt,
    )
    return _trajectory(spec, cfg, status, fail_t, t, x, v)


def integrate_with_events(
    spec: SystemSpec, initial: State, cfg: IntegratorConfig, event
) -> tuple[Trajectory, EventRecord]:
    """Integrate while localizing section events.

    event is a Stroboscopic or VelocityZeroCrossing instance.  Event states
    are reached by an RK4 substep from the grid point to their left, so this
    requires the rk4 method; the adaptive integrator does not carry the
    uniform grid the localization leans on.
    """
    n, h = checked_run(spec, initial, cfg, "event recording")
    if not isinstance(event, (Stroboscopic, VelocityZeroCrossing)):
        raise TypeError(f"unsupported event type {type(event).__name__}")
    kernel, event_args, ne_cap = event.event_run(initial.t, cfg.t_end, n)
    out = _buffers(n // cfg.sample_every + 3)
    ev_t, ev_x, ev_v = _buffers(ne_cap)
    status, m, ne, fail_t = run_kernel(
        spec,
        kernel,
        initial.t,
        initial.x,
        initial.v,
        h,
        n,
        cfg.sample_every,
        cfg.blowup_threshold,
        *event_args,
        *out,
        ev_t,
        ev_x,
        ev_v,
    )
    events = EventRecord(ev_t[:ne].copy(), ev_x[:ne].copy(), ev_v[:ne].copy())
    return _trajectory(spec, cfg, status, fail_t, *out, m), events
