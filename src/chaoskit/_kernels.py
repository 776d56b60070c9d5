"""Hot numeric loops: right-hand sides, steppers, event localization, exponent loops.

Every function here is compiled with numba when it is importable; setting
``CHAOS_NO_NUMBA=1`` (or ``true``/``yes``/``on``) in the environment before
import forces the plain-Python fallback, which runs the identical code paths
through the interpreter.  Every function that reads the system takes it
first, as a packed vector ``P`` (see layout constants below), so the same
code serves every form and preset.  Compiled kernels read it as a float64
array.  The package reaches a kernel only as
``model.run_kernel(spec, kernel, *args)``, which packs the spec and calls
``kernel(P, *args)``; the fallback gets ``P`` as a list of Python floats,
and a call that raises where float64 gives inf or nan (``**`` overflow,
division by zero) reruns on the float64 vector with every float argument
as a float64 scalar, as compiled code would run it.

``rk4_trajectory``, ``rk4_events_strobo`` and ``rk4_events_vzero`` are
each one call into ``_rk4_grid``, the one loop over the fixed RK4 grid.
The exponent estimators ``benettin`` and ``variational`` keep their own
loops, since the acceptance criteria check them against each other.

Under the fallback the six run kernels (the trajectory, event and exponent
loops) run in a scan's kernel worker processes when a scan thread calls
them: ``_workers._run_indexed`` forks one per scan thread when a scan runs
on two or more threads, and kills and reaps them when the scan ends.

Under the fallback a step costs interpreter work, not arithmetic, so the
kernels spend as little of it as they can without changing one
floating-point operation or its order: the math functions are bare names
(``sin``, not ``math.sin``), kind codes in the packed spec are compared as
floats rather than through ``int()``, the regularization term and the
per-step divergence test and sample are written out inline rather than
called, and an RK4 step forms ``0.5 * h`` and ``t + 0.5 * h`` once.
Python's ``sin`` and ``cos`` raise on an infinite argument where compiled
code gives nan, so the A-form forces give nan themselves when
``a - a == 0.0`` fails (it holds only for finite a), again inline.

``rhs_tangent`` returns the pair (a, da), the acceleration and its
directional derivative, from terms it forms once (eps; gamma*delta*sin(omega
t) on form B; t^q, the coupling and omega*x on the A forms), so a tangent
RK4 step makes four calls instead of eight.  It holds a second copy of the
formula of ``rhs``, and a test holds the two equal bit for bit.  Form B
raises x to the packed exponent as the float it is stored as (``x ** P[N]``
and ``n * x ** (n - 1.0)``), with no ``int()`` per evaluation.  No fallback
bit moves: Python's ``float ** int`` converts the int and calls C
``pow(x, float(n))`` as ``float ** float`` does.  Compiled code now calls
``pow`` too, where an int exponent took numba's integer power; that path is
unmeasured.
"""

import os
from math import ceil, cos, isfinite, log, nan, sin, sqrt

import numpy as np

from ._workers import in_worker


def _env_flag(name):
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


NUMBA_DISABLED = _env_flag("CHAOS_NO_NUMBA")
NUMBA_ENABLED = False
if not NUMBA_DISABLED:
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - numba is a hard dependency
        pass


def _jit(fn):
    if NUMBA_ENABLED:
        return _njit(cache=True, nogil=True)(fn)
    return fn


def _run(fn):
    """A run kernel: compiled under numba, else run in place or, on a scan
    thread, in the thread's kernel worker process."""
    return _jit(fn) if NUMBA_ENABLED else in_worker(fn)


# Packed-spec layout.  FORM: 0 = A1, 1 = A2, 2 = B.  G_KIND: 0 = zero,
# 1 = linear, 2 = cubic, 3 = sine.  EPS_KIND: 0 = zero, 1 = constant,
# 2 = power law.  N is stored as a float but always holds an integer.
FORM = 0
ALPHA = 1
BETA = 2
GAMMA = 3
DELTA = 4
OMEGA = 5
Q = 6
N = 7
G_KIND = 8
G_K = 9
G_W = 10
EPS_KIND = 11
EPS_C = 12
EPS_P = 13
NPACKED = 14

# Run status codes shared with the integrator layer.
OK = 0
DIVERGED = 1
STEP_FAILURE = 2
DEGENERATE = 3


@_jit
def g_value(P, u):
    """Restoring force g(u) for the packed preset."""
    kind = P[G_KIND]
    if kind == 1.0:
        return P[G_K] * u
    if kind == 2.0:
        return P[G_K] * u * u * u
    if kind == 3.0:
        wu = P[G_W] * u
        return P[G_K] * (sin(wu) if wu - wu == 0.0 else nan)
    return 0.0


@_jit
def g_slope(P, u):
    """Derivative g'(u) for the packed preset."""
    kind = P[G_KIND]
    if kind == 1.0:
        return P[G_K]
    if kind == 2.0:
        return 3.0 * P[G_K] * u * u
    if kind == 3.0:
        wu = P[G_W] * u
        return P[G_K] * P[G_W] * (cos(wu) if wu - wu == 0.0 else nan)
    return 0.0


@_jit
def rhs(P, t, x, v):
    """Acceleration x'' for the packed system at state (t, x, v).

    Parameters
    ----------
    P : float64[:] or list of float
        Packed system vector (see module layout constants).
    t, x, v : float
        Time, position, velocity.

    Returns
    -------
    float
        The acceleration.  Singular times yield inf/NaN rather than raising;
        wrappers decide how to report those.
    """
    form = P[FORM]
    kind = P[EPS_KIND]
    eps = P[EPS_C] if kind == 1.0 else P[EPS_C] / t ** P[EPS_P] if kind == 2.0 else 0.0
    if form == 2.0:
        return -(
            P[ALPHA] * v
            + P[BETA] * x
            + P[GAMMA] * P[DELTA] * sin(P[OMEGA] * t) * x ** P[N]
            + eps
        )
    tq = t ** P[Q]
    coup = P[GAMMA] + P[BETA] / tq
    wx = P[OMEGA] * x
    force = P[DELTA] * (sin(wx) if wx - wx == 0.0 else nan)
    if form == 0.0:
        u = x + coup * v
        return -(P[ALPHA] / tq * v + g_value(P, u) + eps * x + force)
    return -(P[ALPHA] / tq * v + g_value(P, x) + coup * v + eps * x + force)


@_jit
def rhs_tangent(P, t, x, v, dx, dv):
    """The pair (a, da): the acceleration at state (t, x, v), as ``rhs``
    gives it bit for bit, and its directional derivative along (dx, dv)."""
    form = P[FORM]
    kind = P[EPS_KIND]
    eps = P[EPS_C] if kind == 1.0 else P[EPS_C] / t ** P[EPS_P] if kind == 2.0 else 0.0
    if form == 2.0:
        n = P[N]
        forcing = P[GAMMA] * P[DELTA] * sin(P[OMEGA] * t)
        a = -(P[ALPHA] * v + P[BETA] * x + forcing * x**n + eps)
        ax = -(P[BETA] + forcing * n * x ** (n - 1.0))
        return a, ax * dx - P[ALPHA] * dv
    tq = t ** P[Q]
    coup = P[GAMMA] + P[BETA] / tq
    damp = P[ALPHA] / tq
    wx = P[OMEGA] * x
    finite = wx - wx == 0.0
    force = P[DELTA] * (sin(wx) if finite else nan)
    force_x = P[DELTA] * P[OMEGA] * (cos(wx) if finite else nan)
    if form == 0.0:
        u = x + coup * v
        gp = g_slope(P, u)
        a = -(damp * v + g_value(P, u) + eps * x + force)
        return a, -((gp + eps + force_x) * dx + (damp + gp * coup) * dv)
    gp = g_slope(P, x)
    a = -(damp * v + g_value(P, x) + coup * v + eps * x + force)
    return a, -((gp + eps + force_x) * dx + (damp + coup) * dv)


@_jit
def rhs_array(P, ts, xs, vs):
    """Vectorized rhs over parallel sample arrays."""
    out = np.empty_like(ts)
    for i in range(ts.shape[0]):
        out[i] = rhs(P, ts[i], xs[i], vs[i])
    return out


@_jit
def rk4_step(P, t, x, v, h):
    """One classical RK4 step of size h; returns (x, v) at t + h."""
    hh = 0.5 * h
    th = t + hh
    a1 = rhs(P, t, x, v)
    x2 = x + hh * v
    v2 = v + hh * a1
    a2 = rhs(P, th, x2, v2)
    x3 = x + hh * v2
    v3 = v + hh * a2
    a3 = rhs(P, th, x3, v3)
    x4 = x + h * v3
    v4 = v + h * a3
    a4 = rhs(P, t + h, x4, v4)
    xn = x + h * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0
    vn = v + h * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
    return xn, vn


@_jit
def rk4_tangent_step(P, t, x, v, ux, uv, h):
    """One RK4 step of the trajectory with its tangent vector (ux, uv) attached."""
    hh = 0.5 * h
    th = t + hh
    a1, b1 = rhs_tangent(P, t, x, v, ux, uv)
    x2 = x + hh * v
    v2 = v + hh * a1
    p2 = ux + hh * uv
    q2 = uv + hh * b1
    a2, b2 = rhs_tangent(P, th, x2, v2, p2, q2)
    x3 = x + hh * v2
    v3 = v + hh * a2
    p3 = ux + hh * q2
    q3 = uv + hh * b2
    a3, b3 = rhs_tangent(P, th, x3, v3, p3, q3)
    x4 = x + h * v3
    v4 = v + h * a3
    p4 = ux + h * q3
    q4 = uv + h * b3
    a4, b4 = rhs_tangent(P, t + h, x4, v4, p4, q4)
    xn = x + h * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0
    vn = v + h * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
    un = ux + h * (uv + 2.0 * q2 + 2.0 * q3 + q4) / 6.0
    wn = uv + h * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
    return xn, vn, un, wn


# The divergence test of a start state.  The per-step loops spell it out
# inline, since a call per step costs the fallback more than the test.
# isfinite stays because a direct kernel call may still pass blowup = inf.
@_jit
def _bad(x, v, blowup):
    return (
        not isfinite(x)
        or not isfinite(v)
        or abs(x) > blowup
        or abs(v) > blowup
    )


# The event kinds of ``_rk4_grid``.
NO_EVENTS = 0
STROBO = 1
VZERO = 2


@_jit
def _record(ts, xs, vs, i, t, x, v):
    """Write the state (t, x, v) into row i of three columns; returns i + 1."""
    ts[i] = t
    xs[i] = x
    vs[i] = v
    return i + 1


@_jit
def _wanted(direction, a):
    """Whether a velocity zero where v rises (a > 0) or falls (a < 0) is in
    ``direction``: +1 rising, -1 falling, 0 either."""
    return direction == 0 or (direction > 0 and a > 0.0) or (direction < 0 and a < 0.0)


@_jit
def _rk4_grid(
    P, t0, x0, v0, h, n_steps, sample_every, blowup, kind, period, phase, direction,
    out_t, out_x, out_v, ev_t, ev_x, ev_v,
):
    """The fixed-step RK4 run on the uniform grid t0 + i*h, i = 0..n_steps.

    Samples every ``sample_every``-th step plus the final state into
    out_t/out_x/out_v, and records the events of ``kind`` into ev_t/ev_x/ev_v
    (the kind becomes two local booleans, so a step tests only those):

    - ``NO_EVENTS`` records none, so the event columns may have length 0.
      Only ``STROBO`` reads ``period`` and ``phase``, only ``VZERO``
      ``direction``.
    - ``STROBO`` records the state at the times phase + k*period, the start
      among them when it lies within 1e-9 periods of one.  Each event state is
      reached by a single RK4 substep from the grid point on its left, so
      event times are exact (no interpolation error in t).
    - ``VZERO`` records the zero crossings of the velocity in ``direction``
      (+1 rising, v goes - to +; -1 falling; 0 either).  A candidate time
      comes from linear interpolation across the bracketing step followed by
      one secant refinement, clamped to the step; the state there is an RK4
      substep from the left grid point.  Events closer than one step to the
      previous one are dropped.  Grid points with v exactly zero, the start
      among them, count, classified by the acceleration, and are recorded
      with v = 0.

    Returns ``(status, n_samples, n_events, fail_t)``.
    """
    t = t0
    x = x0
    v = v0
    m = _record(out_t, out_x, out_v, 0, t, x, v)
    if _bad(x, v, blowup):
        return DIVERGED, m, 0, t
    strobo = kind == STROBO
    vzero = kind == VZERO
    ne = 0
    k = 0  # the next strobo event is number k, at time te
    te = t0
    if strobo:
        tiny = 1e-9 * period
        k = int(ceil((t0 - phase) / period - 1e-9))
        te = phase + k * period
        if te <= t0 + tiny:
            if te >= t0 - tiny:
                ne = _record(ev_t, ev_x, ev_v, ne, te, x, v)
            k += 1
            te = phase + k * period
    last_ev = t0 - 2.0 * h
    if vzero and v == 0.0 and _wanted(direction, rhs(P, t, x, v)):
        ne = _record(ev_t, ev_x, ev_v, ne, t, x, 0.0)
        last_ev = t
    for i in range(n_steps):
        tn = t0 + (i + 1) * h
        if strobo:
            while te <= tn + 1e-9 * h:
                xe, ve = rk4_step(P, t, x, v, te - t)
                ne = _record(ev_t, ev_x, ev_v, ne, te, xe, ve)
                k += 1
                te = phase + k * period
        xn, vn = rk4_step(P, t, x, v, h)
        if not (isfinite(xn) and isfinite(vn)) or abs(xn) > blowup or abs(vn) > blowup:
            return DIVERGED, m, ne, tn
        if vzero:
            if v * vn < 0.0:
                if _wanted(direction, -v):  # v rises through 0 iff it was < 0
                    tau = t + h * v / (v - vn)
                    xe, ve = rk4_step(P, t, x, v, tau - t)
                    if ve != v:
                        tau2 = tau - ve * (tau - t) / (ve - v)
                    else:
                        tau2 = tau
                    if tau2 < t:
                        tau2 = t
                    elif tau2 > tn:
                        tau2 = tn
                    xe, ve = rk4_step(P, t, x, v, tau2 - t)
                    if tau2 - last_ev >= h:
                        ne = _record(ev_t, ev_x, ev_v, ne, tau2, xe, ve)
                        last_ev = tau2
            elif vn == 0.0 and v != 0.0:
                if _wanted(direction, rhs(P, tn, xn, vn)) and tn - last_ev >= h:
                    ne = _record(ev_t, ev_x, ev_v, ne, tn, xn, 0.0)
                    last_ev = tn
        t = tn
        x = xn
        v = vn
        if (i + 1) % sample_every == 0 or i == n_steps - 1:
            out_t[m] = t
            out_x[m] = x
            out_v[m] = v
            m += 1
    return OK, m, ne, 0.0


@_run
def rk4_trajectory(P, t0, x0, v0, h, n_steps, sample_every, blowup, out_t, out_x, out_v):
    """Fixed-step RK4 run on the uniform grid t0 + i*h, i = 0..n_steps.

    Samples every ``sample_every``-th step plus the final state into the
    preallocated output arrays.  Returns ``(status, n_samples, fail_t)``.
    """
    none = np.empty(0)
    status, m, _, fail_t = _rk4_grid(
        P, t0, x0, v0, h, n_steps, sample_every, blowup, NO_EVENTS, 0.0, 0.0, 0,
        out_t, out_x, out_v, none, none, none,
    )
    return status, m, fail_t


# Fehlberg 4(5) tableau (NASA TR R-315, 1969).  Rows of A are padded with
# 0.0 to one length so a compiled kernel can index them at run time; E is
# B5 - B4, the error weights.
C = (0.0, 0.25, 0.375, 12.0 / 13.0, 1.0, 0.5)
A = (
    (0.0, 0.0, 0.0, 0.0, 0.0),
    (0.25, 0.0, 0.0, 0.0, 0.0),
    (3.0 / 32.0, 9.0 / 32.0, 0.0, 0.0, 0.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0, 0.0, 0.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0, 0.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
E = (1.0 / 360.0, 0.0, -128.0 / 4275.0, -2197.0 / 75240.0, 1.0 / 50.0, 2.0 / 55.0)


@_run
def rkf45_trajectory(P, t0, x0, v0, t_end, h0, atol, rtol, sample_every, blowup, h_min):
    """Adaptive Fehlberg 4(5) run from t0 to t_end.

    Step control: per-component tolerance atol + rtol*|y|, acceptance when the
    worst error ratio is <= 1, growth factor 0.9*ratio^(-1/5) clamped to
    [0.2, 5].  The fifth-order solution is propagated.  Every weighted sum
    runs left to right from its first term and skips zero weights.  Returns
    ``(status, t, x, v, fail_t)`` with sample arrays trimmed to length.
    """
    ts = np.empty(4096)
    xs = np.empty(4096)
    vs = np.empty(4096)
    t = t0
    x = x0
    v = v0
    ts[0] = t
    xs[0] = x
    vs[0] = v
    m = 1
    if _bad(x, v, blowup):
        return DIVERGED, ts[:m], xs[:m], vs[:m], t
    kx = [0.0] * 6
    kv = [0.0] * 6
    h = h0
    accepted = 0
    while t < t_end:
        last = h >= t_end - t
        if last:
            h = t_end - t
        kx[0] = v
        kv[0] = rhs(P, t, x, v)
        for i in range(1, 6):
            a = A[i]
            sx = a[0] * kx[0]
            sv = a[0] * kv[0]
            for j in range(1, i):
                sx += a[j] * kx[j]
                sv += a[j] * kv[j]
            kx[i] = v + h * sv
            kv[i] = rhs(P, t + C[i] * h, x + h * sx, kx[i])
        sx = B5[0] * kx[0]
        sv = B5[0] * kv[0]
        ex = E[0] * kx[0]
        ev = E[0] * kv[0]
        for j in range(2, 6):  # k2 has zero weight in both sums
            sx += B5[j] * kx[j]
            sv += B5[j] * kv[j]
            ex += E[j] * kx[j]
            ev += E[j] * kv[j]
        xn = x + h * sx
        vn = v + h * sv
        ex *= h
        ev *= h
        ok = isfinite(xn) and isfinite(vn) and isfinite(ex) and isfinite(ev)
        if ok:
            tol_x = atol + rtol * max(abs(x), abs(xn))
            tol_v = atol + rtol * max(abs(v), abs(vn))
            ratio = max(abs(ex) / tol_x, abs(ev) / tol_v)
        else:
            ratio = 2.0
        if ratio <= 1.0:
            t = t_end if last else t + h
            x = xn
            v = vn
            accepted += 1
            if abs(x) > blowup or abs(v) > blowup:
                return DIVERGED, ts[:m], xs[:m], vs[:m], t
            if accepted % sample_every == 0 or t >= t_end:
                if m == ts.size:  # full: double the buffers
                    ts = np.concatenate((ts, np.empty(m)))
                    xs = np.concatenate((xs, np.empty(m)))
                    vs = np.concatenate((vs, np.empty(m)))
                ts[m] = t
                xs[m] = x
                vs[m] = v
                m += 1
            if ratio > 0.0:
                fac = 0.9 * ratio ** -0.2
            else:
                fac = 5.0
            h = h * min(5.0, max(0.2, fac))
        else:
            h = h * max(0.2, 0.9 * ratio ** -0.2)
            if h < h_min:
                return STEP_FAILURE, ts[:m], xs[:m], vs[:m], t
    return OK, ts[:m], xs[:m], vs[:m], 0.0


@_run
def rk4_events_strobo(
    P,
    t0,
    x0,
    v0,
    h,
    n_steps,
    sample_every,
    blowup,
    period,
    phase,
    out_t,
    out_x,
    out_v,
    ev_t,
    ev_x,
    ev_v,
):
    """RK4 run that also records the state at times phase + k*period, as
    ``_rk4_grid`` records ``STROBO`` events.  Returns
    ``(status, n_samples, n_events, fail_t)``.
    """
    return _rk4_grid(
        P, t0, x0, v0, h, n_steps, sample_every, blowup, STROBO, period, phase, 0,
        out_t, out_x, out_v, ev_t, ev_x, ev_v,
    )


@_run
def rk4_events_vzero(
    P,
    t0,
    x0,
    v0,
    h,
    n_steps,
    sample_every,
    blowup,
    direction,
    out_t,
    out_x,
    out_v,
    ev_t,
    ev_x,
    ev_v,
):
    """RK4 run recording zero crossings of the velocity in ``direction`` (+1
    rising, -1 falling, 0 either), as ``_rk4_grid`` records ``VZERO`` events.
    Returns ``(status, n_samples, n_events, fail_t)``.
    """
    return _rk4_grid(
        P, t0, x0, v0, h, n_steps, sample_every, blowup, VZERO, 0.0, 0.0, direction,
        out_t, out_x, out_v, ev_t, ev_x, ev_v,
    )


@_run
def benettin(
    P,
    t0,
    x0,
    v0,
    h,
    n_steps,
    renorm_every,
    transient_steps,
    d0,
    blowup,
    conv_t,
    conv_lam,
):
    """Largest-exponent estimate from a reference/companion trajectory pair.

    The companion starts offset by d0 in x.  Every ``renorm_every`` steps the
    phase-space separation d is measured, log(d/d0) is accumulated once the
    transient has passed, and the companion is pulled back to distance d0
    along the current separation direction.  conv_t/conv_lam receive the
    running estimate at each post-transient epoch.  Returns
    ``(status, lam, n_conv, fail_t, acc_start_t)``.
    """
    t = t0
    x1 = x0
    v1 = v0
    x2 = x0 + d0
    v2 = v0
    if _bad(x1, v1, blowup):
        return DIVERGED, 0.0, 0, t, t0
    sum_logs = 0.0
    nconv = 0
    acc = transient_steps == 0
    t_acc = t0
    for i in range(n_steps):
        x1, v1 = rk4_step(P, t, x1, v1, h)
        x2, v2 = rk4_step(P, t, x2, v2, h)
        t = t0 + (i + 1) * h
        if (
            not (isfinite(x1) and isfinite(v1) and isfinite(x2) and isfinite(v2))
            or abs(x1) > blowup
            or abs(v1) > blowup
            or abs(x2) > blowup
            or abs(v2) > blowup
        ):
            return DIVERGED, 0.0, nconv, t, t_acc
        if (i + 1) % renorm_every == 0 or i == n_steps - 1:
            dx = x2 - x1
            dv = v2 - v1
            d = sqrt(dx * dx + dv * dv)
            if d == 0.0:
                return DEGENERATE, 0.0, nconv, t, t_acc
            if acc:
                sum_logs += log(d / d0)
                conv_t[nconv] = t
                conv_lam[nconv] = sum_logs / (t - t_acc)
                nconv += 1
            elif (i + 1) >= transient_steps:
                acc = True
                t_acc = t
            s = d0 / d
            x2 = x1 + dx * s
            v2 = v1 + dv * s
    lam = conv_lam[nconv - 1] if nconv > 0 else 0.0
    return OK, lam, nconv, 0.0, t_acc


@_run
def variational(
    P,
    t0,
    x0,
    v0,
    ux0,
    uv0,
    h,
    n_steps,
    renorm_every,
    transient_steps,
    blowup,
    conv_t,
    conv_lam,
):
    """Largest-exponent estimate from the linearized (tangent) flow.

    Integrates the trajectory together with a tangent vector, accumulating
    log growth of the tangent norm at each renormalization epoch after the
    transient.  Returns ``(status, lam, n_conv, fail_t, acc_start_t)``.
    """
    t = t0
    x = x0
    v = v0
    nrm = sqrt(ux0 * ux0 + uv0 * uv0)
    ux = ux0 / nrm
    uv = uv0 / nrm
    if _bad(x, v, blowup):
        return DIVERGED, 0.0, 0, t, t0
    sum_logs = 0.0
    nconv = 0
    acc = transient_steps == 0
    t_acc = t0
    for i in range(n_steps):
        x, v, ux, uv = rk4_tangent_step(P, t, x, v, ux, uv, h)
        t = t0 + (i + 1) * h
        if not (isfinite(x) and isfinite(v)) or abs(x) > blowup or abs(v) > blowup:
            return DIVERGED, 0.0, nconv, t, t_acc
        if not (isfinite(ux) and isfinite(uv)):
            return STEP_FAILURE, 0.0, nconv, t, t_acc
        if (i + 1) % renorm_every == 0 or i == n_steps - 1:
            g = sqrt(ux * ux + uv * uv)
            if g == 0.0:
                return DEGENERATE, 0.0, nconv, t, t_acc
            if acc:
                sum_logs += log(g)
                conv_t[nconv] = t
                conv_lam[nconv] = sum_logs / (t - t_acc)
                nconv += 1
            elif (i + 1) >= transient_steps:
                acc = True
                t_acc = t
            ux /= g
            uv /= g
    lam = conv_lam[nconv - 1] if nconv > 0 else 0.0
    return OK, lam, nconv, 0.0, t_acc
