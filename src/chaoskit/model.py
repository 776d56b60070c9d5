"""System family definition: parameters, presets, right-hand side evaluation.

Three forms of the damped oscillator x'' = a(t, x, x') are supported:

* ``A1`` couples the decaying velocity term into the argument of the
  restoring force g,
* ``A2`` keeps the same terms but applies g to x alone and adds the
  coupling term separately,
* ``B`` is the polynomially forced form
  x'' = -(alpha x' + beta x + gamma delta sin(omega t) x^n + eps(t)).

Forms A1/A2 carry 1/t^q factors and are therefore only defined for t > 0
when q > 0.  The regularization schedule eps(t) is additive in form B and
multiplies x in the A forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import _kernels as _k
from .errors import InvalidAxis, NonFinite, SingularTime, ValidationError

FORM_A1 = "A1"
FORM_A2 = "A2"
FORM_B = "B"
FORMS = (FORM_A1, FORM_A2, FORM_B)


@dataclass(frozen=True)
class Params:
    """Scalar coefficients shared by every form.

    alpha : damping strength, >= 0
    beta  : stiffness (form B) or decaying-coupling weight (A forms), >= 0
    gamma : coupling weight (A forms) or forcing weight (form B), >= 0
    delta : forcing amplitude
    omega : forcing frequency, must be > 0 whenever delta != 0
    q     : decay exponent of the 1/t^q terms, >= 0
    n     : integer degree of the form-B polynomial forcing, >= 1
    """

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    omega: float = 1.0
    q: float = 0.0
    n: int = 2


PARAM_TYPES = {f.name: type(f.default) for f in fields(Params)}
PARAM_NAMES = tuple(PARAM_TYPES)


def _number(where, key, value, kind=float):
    """kind(value); a value that is not a finite number is refused, naming
    its key, and an integer refuses a fractional part instead of truncating it."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValidationError([f"{where} key {key!r} must be a number, got {value!r}"]) from None
    if kind is int and not number.is_integer():
        raise ValidationError([f"{key} must be an integer, got {value}"])
    if not math.isfinite(number):
        raise ValidationError([f"{where} key {key!r} must be finite, got {value!r}"])
    return kind(number)


def _object(what, doc):
    """doc if it is a mapping (a JSON object); anything else is refused."""
    if not isinstance(doc, dict):
        raise ValidationError([f"{what} must be an object, got {type(doc).__name__}"])
    return doc


def _param_value(name, value):
    """value cast to the type of Params.<name>."""
    return _number("params", name, value, PARAM_TYPES[name])


class _Refusals:
    """Runs decoding steps and collects the messages of those that refuse,
    so that one ValidationError can name every refused part of a document."""

    def __init__(self):
        self.messages = []

    def __call__(self, decode, *args):
        try:
            return decode(*args)
        except ValidationError as exc:
            self.messages.extend(exc.messages)

    def raise_any(self):
        if self.messages:
            raise ValidationError(self.messages)


def _refuse_unknown(where, doc, known):
    """Refuse the keys of doc that are not in known, one message each."""
    expected = f"expected one of {tuple(known)}"
    msgs = [f"unknown {where} key {k!r}; {expected}" for k in doc if k not in known]
    if msgs:
        raise ValidationError(msgs)


class _Preset:
    """A preset family.  ``VARIANTS`` lists its variants in the order of the
    kernels' kind codes, each with its document fields as (key, attribute,
    default); a field a document leaves out takes its default, and a key
    the variant does not take is refused."""

    def __post_init__(self):
        variants = tuple(self.VARIANTS)  # a tuple, so an unhashable variant is refused too
        if self.variant not in variants:
            raise ValidationError(
                [f"unknown {self.WHAT} variant {self.variant!r}; expected one of {variants}"]
            )

    def to_dict(self):
        return {"variant": self.variant} | {
            key: getattr(self, attr) for key, attr, _ in self.VARIANTS[self.variant]
        }

    @classmethod
    def from_dict(cls, d):
        if "variant" not in _object(f"a {cls.WHAT} preset", d):
            raise ValidationError(
                [f"a {cls.WHAT} preset needs a variant; expected one of {tuple(cls.VARIANTS)}"]
            )
        preset = cls(d["variant"])
        where = f"{preset.variant} {cls.WHAT}"
        keys = cls.VARIANTS[preset.variant]
        part = _Refusals()
        values = {attr: part(_number, where, key, d.get(key, default)) for key, attr, default in keys}
        part(_refuse_unknown, where, d, ["variant"] + [k for k, _, _ in keys])
        part.raise_any()
        return replace(preset, **values)


@dataclass(frozen=True)
class Nonlinearity(_Preset):
    """Restoring-force preset g(u).  Every preset has g(0) = 0 and an
    analytic slope (``_kernels.g_slope``), which the tangent dynamics rely on."""

    WHAT = "nonlinearity"
    VARIANTS = {
        "Zero": (),
        "Linear": (("k", "k", 1.0),),
        "Cubic": (("k", "k", 1.0),),
        "Sine": (("k", "k", 1.0), ("w", "w", 1.0)),
    }

    variant: str = "Zero"
    k: float = 1.0
    w: float = 1.0

    @classmethod
    def zero(cls):
        return cls("Zero")

    @classmethod
    def linear(cls, k):
        return cls("Linear", k=float(k))

    @classmethod
    def cubic(cls, k):
        return cls("Cubic", k=float(k))

    @classmethod
    def sine(cls, k, w):
        return cls("Sine", k=float(k), w=float(w))

    def value(self, u):
        """g(u); accepts scalars or arrays."""
        if self.variant == "Linear":
            return self.k * u
        if self.variant == "Cubic":
            return self.k * u**3
        if self.variant == "Sine":
            return self.k * np.sin(self.w * u)
        return np.zeros_like(u) if isinstance(u, np.ndarray) else 0.0


@dataclass(frozen=True)
class EpsilonSchedule(_Preset):
    """Regularization coefficient eps(t).

    Zero, a nonnegative constant, or the power law c/t^p with c > 0 and
    p >= 0.  The power law is singular at t = 0 and supplies its running
    integral in closed form.
    """

    WHAT = "regularization"
    VARIANTS = {
        "Zero": (),
        "Constant": (("value", "c", 0.0),),
        "PowerLaw": (("c", "c", 1.0), ("p", "p", 2.0)),
    }

    variant: str = "Zero"
    c: float = 0.0
    p: float = 2.0

    @classmethod
    def zero(cls):
        return cls("Zero")

    @classmethod
    def constant(cls, value):
        return cls("Constant", c=float(value))

    @classmethod
    def power_law(cls, c, p):
        return cls("PowerLaw", c=float(c), p=float(p))

    def value(self, t):
        """eps(t); accepts scalars or arrays."""
        if self.variant == "Constant":
            return np.full_like(t, self.c) if isinstance(t, np.ndarray) else self.c
        if self.variant == "PowerLaw":
            return self.c / t**self.p
        return np.zeros_like(t) if isinstance(t, np.ndarray) else 0.0

    def integral(self, t0, t):
        """Integral of eps from t0 to t, in closed form."""
        if self.variant == "Constant":
            return self.c * (t - t0)
        if self.variant == "PowerLaw":
            if self.p == 1.0:
                return self.c * np.log(t / t0)
            return self.c * (t ** (1.0 - self.p) - t0 ** (1.0 - self.p)) / (1.0 - self.p)
        return np.zeros_like(t) if isinstance(t, np.ndarray) else 0.0


@dataclass(frozen=True)
class State:
    """Instantaneous state (t, x, v), held as floats.  Fields must be finite;
    a diverging trajectory is reported through its status, never stored as a
    state."""

    t: float
    x: float
    v: float

    def __post_init__(self):
        for name in ("t", "x", "v"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"state field {name} must be finite")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SystemSpec:
    """A fully specified member of the oscillator family."""

    form: str = FORM_B
    params: Params = field(default_factory=Params)
    nonlinearity: Nonlinearity = field(default_factory=Nonlinearity)
    epsilon: EpsilonSchedule = field(default_factory=EpsilonSchedule)

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValidationError([f"unknown form {self.form!r}; expected one of {FORMS}"])

    def to_dict(self):
        return {
            "form": self.form,
            "params": {name: getattr(self.params, name) for name in PARAM_NAMES},
            "nonlinearity": self.nonlinearity.to_dict(),
            "epsilon": self.epsilon.to_dict(),
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        """Decode a spec document, refusing any key it does not define; the
        retired params.p still loads (and is dropped) so old manifests rerun.
        One ValidationError names every refused part of the document."""
        part = _Refusals()
        _object("a spec document", d)
        part(_refuse_unknown, "spec", d, tuple(f.name for f in fields(cls)))
        pd = part(_object, "spec key 'params'", d.get("params", {})) or {}
        part(_refuse_unknown, "params", [k for k in pd if k != "p"], PARAM_NAMES)
        params = {k: part(_param_value, k, v) for k, v in pd.items() if k in PARAM_TYPES}
        nl = part(Nonlinearity.from_dict, d["nonlinearity"]) if "nonlinearity" in d else Nonlinearity()
        eps = part(EpsilonSchedule.from_dict, d["epsilon"]) if "epsilon" in d else EpsilonSchedule()
        spec = part(cls, d.get("form", FORM_B))
        part.raise_any()
        return replace(spec, params=Params(**params), nonlinearity=nl, epsilon=eps)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class Axis:
    """Evenly spaced scan over one named parameter."""

    name: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError(
                [f"axis {self.name!r} needs finite bounds, got [{self.lo}, {self.hi}]"]
            )
        if self.steps < 2:
            raise ValidationError([f"axis {self.name!r} needs at least 2 steps, got {self.steps}"])
        if not self.hi > self.lo:
            raise ValidationError([f"axis {self.name!r} needs hi > lo, got [{self.lo}, {self.hi}]"])

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


def with_param(spec: SystemSpec, name: str, value: float) -> SystemSpec:
    """Copy of spec with one scalar parameter replaced.

    The axis name must be a Params field; anything else raises InvalidAxis.
    """
    if name not in PARAM_NAMES:
        raise InvalidAxis(f"unknown parameter axis {name!r}; expected one of {PARAM_NAMES}")
    return replace(spec, params=replace(spec.params, **{name: _param_value(name, value)}))


# The parameters that enter each form's right-hand side, each with the products
# (tuples of factor names) whose sum it enters multiplied by: it is inert on a
# system where every product has a factor that is 0, and the empty product ()
# is always live.  The factor "g" is the restoring force, 0 everywhere for the
# Zero preset, for k = 0 and for a Sine of w = 0.  A parameter left out, such
# as q on form B, is always inert.
_LIVE = ((),)
_A_FORM = {"alpha": _LIVE, "delta": _LIVE, "omega": (("delta",),)}
LIVE_PARAMS = {
    # beta and gamma enter A1 only inside g(x + coup*v), and q only through
    # alpha/t^q and beta/t^q
    FORM_A1: {**_A_FORM, "beta": (("g",),), "gamma": (("g",),), "q": (("alpha",), ("beta", "g"))},
    FORM_A2: {**_A_FORM, "beta": _LIVE, "gamma": _LIVE, "q": (("alpha",), ("beta",))},
    FORM_B: {
        "alpha": _LIVE,
        "beta": _LIVE,
        "gamma": (("delta",),),
        "delta": (("gamma",),),
        "omega": (("gamma", "delta"),),
        "n": (("gamma", "delta"),),
    },
}


def _factor(spec: SystemSpec, name: str) -> float:
    if name == "g":
        g = spec.nonlinearity
        return 0.0 if g.variant == "Zero" or (g.variant == "Sine" and g.w == 0.0) else g.k
    return getattr(spec.params, name)


def live_params(spec: SystemSpec) -> set:
    """The parameters that enter the dynamics of spec (see LIVE_PARAMS)."""
    return {
        name
        for name, products in LIVE_PARAMS[spec.form].items()
        if any(all(_factor(spec, f) != 0.0 for f in p) for p in products)
    }


def refuse_inert(name: str, systems) -> None:
    """Refuse a scan axis that enters the dynamics of none of the scan's
    systems (all of one form), since every cell would then be the same."""
    if any(name in live_params(system) for system in systems):
        return
    form = systems[0].form
    if name not in LIVE_PARAMS[form]:
        why = f"form {form} does not use it"
    else:
        products = LIVE_PARAMS[form][name]
        zeros = [next(f for f in p if all(_factor(s, f) == 0.0 for s in systems)) for p in products]
        why = (
            f"on form {form} it enters only multiplied by "
            f"{' or by '.join(' * '.join(p) for p in products)}, "
            f"and {' and '.join(f'{zero} = 0' for zero in zeros)}"
        )
    raise ValidationError([f"axis {name!r} is inert: {why}"])


def pack_spec(spec: SystemSpec) -> np.ndarray:
    """Flatten a spec into the float64 vector the kernels consume.

    Only ``run_kernel`` calls this; it decides in which form the kernel
    reads the vector.
    """
    P = np.zeros(_k.NPACKED)
    P[_k.FORM] = FORMS.index(spec.form)
    P[_k.ALPHA] = spec.params.alpha
    P[_k.BETA] = spec.params.beta
    P[_k.GAMMA] = spec.params.gamma
    P[_k.DELTA] = spec.params.delta
    P[_k.OMEGA] = spec.params.omega
    P[_k.Q] = spec.params.q
    P[_k.N] = spec.params.n
    P[_k.G_KIND] = list(Nonlinearity.VARIANTS).index(spec.nonlinearity.variant)
    P[_k.G_K] = spec.nonlinearity.k
    P[_k.G_W] = spec.nonlinearity.w
    P[_k.EPS_KIND] = list(EpsilonSchedule.VARIANTS).index(spec.epsilon.variant)
    P[_k.EPS_C] = spec.epsilon.c
    P[_k.EPS_P] = spec.epsilon.p
    return P


def run_kernel(spec: SystemSpec, kernel, *args):
    """kernel(P, *args) for the packed spec P: the one path from a spec into
    a kernel.

    Compiled kernels take the float64 vector as it is.  The fallback reads
    it as Python floats (``P.tolist()``), whose arithmetic runs about twice
    as fast as on numpy scalars.  Python floats raise where float64 gives
    inf or nan (``**`` overflow, division by zero), so a call that raises
    ``ArithmeticError`` reruns on the vector with every float argument as
    ``np.float64``: an all-float64 run, whose results are those of compiled
    float64 code.  The fallback runs with numpy's floating-point warnings
    off, as compiled code does: every caller judges the result by its status
    or finiteness.
    """
    P = pack_spec(spec)
    if _k.NUMBA_ENABLED:
        return kernel(P, *args)
    with np.errstate(all="ignore"):
        try:
            return kernel(P.tolist(), *args)
        except ArithmeticError:
            return kernel(P, *(np.float64(a) if isinstance(a, float) else a for a in args))


def _check_time(spec: SystemSpec, t: float):
    if spec.form != FORM_B and spec.params.q > 0.0 and t <= 0.0:
        raise SingularTime(f"form {spec.form} with q > 0 is singular at t = {t:.6g}")
    if spec.epsilon.variant == "PowerLaw" and spec.epsilon.p > 0.0 and t <= 0.0:
        raise SingularTime(f"power-law regularization is singular at t = {t:.6g}")


def _at_state(spec: SystemSpec, s: State, what: str, kernel, *args) -> float:
    """kernel(P, t, x, v, *args) at the state s, as a finite float; of a
    pair, such as rhs_tangent's (a, da), the second value.  On float64
    scalars an overflow is inf as on the vector, and 1/t^q of a negative t
    is nan, never complex (validate refuses q, p < 0)."""
    _check_time(spec, s.t)
    t, x, v = np.float64(s.t), np.float64(s.x), np.float64(s.v)
    value = run_kernel(spec, kernel, t, x, v, *args)
    value = float(value[1] if isinstance(value, tuple) else value)
    if not math.isfinite(value):
        raise NonFinite(f"{what} is not finite at t = {s.t:.6g}")
    return value


def accel(spec: SystemSpec, s: State) -> float:
    """Acceleration x'' at state s.

    Raises SingularTime when a 1/t^q or 1/t^p factor blows up at s.t, and
    NonFinite when the evaluation overflows.
    """
    return _at_state(spec, s, "acceleration", _k.rhs)


def tangent_accel(spec: SystemSpec, s: State, ds) -> float:
    """Directional derivative of the acceleration along ds = (dx, dv) at s;
    it fails as ``accel`` does."""
    dx, dv = map(float, ds)
    return _at_state(spec, s, "tangent acceleration", _k.rhs_tangent, dx, dv)


def accel_array(spec: SystemSpec, t, x, v) -> np.ndarray:
    """Acceleration over parallel sample arrays (vectorized kernel loop)."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    v = np.ascontiguousarray(v, dtype=np.float64)
    return run_kernel(spec, _k.rhs_array, t, x, v)


def validate(spec: SystemSpec, theorem_mode: bool = False) -> SystemSpec:
    """Check every parameter constraint and return the spec unchanged.

    All violations are collected into a single ValidationError (attribute
    ``messages``).  ``theorem_mode`` additionally enforces the conditions
    under which the decay guarantee for form B holds (n >= 2 and, for
    power-law regularization, p > q + 1).  A singular start time is a
    property of the run, not the spec; the integrators reject it.
    """
    msgs = []
    p = spec.params
    if p.alpha < 0.0:
        msgs.append(f"alpha must be >= 0, got {p.alpha}")
    if p.beta < 0.0:
        msgs.append(f"beta must be >= 0, got {p.beta}")
    if p.gamma < 0.0:
        msgs.append(f"gamma must be >= 0, got {p.gamma}")
    if p.delta != 0.0 and not p.omega > 0.0:
        msgs.append(f"omega must be > 0 when delta != 0, got {p.omega}")
    if p.q < 0.0:
        msgs.append(f"q must be >= 0, got {p.q}")
    if int(p.n) != p.n or p.n < 1:
        msgs.append(f"n must be an integer >= 1, got {p.n}")
    if theorem_mode and p.n < 2:
        msgs.append(f"the decay guarantee needs n >= 2, got {p.n}")
    if spec.form == FORM_B and spec.nonlinearity.variant != "Zero":
        msgs.append("form B fixes its nonlinearity; the preset must be Zero")
    eps = spec.epsilon
    if eps.variant == "Constant" and eps.c < 0.0:
        msgs.append(f"constant regularization must be >= 0, got {eps.c}")
    elif eps.variant == "PowerLaw":
        if not eps.c > 0.0:
            msgs.append(f"power-law regularization needs c > 0, got {eps.c}")
        if eps.p < 0.0:
            msgs.append(f"power-law regularization needs p >= 0, got {eps.p}")
        if theorem_mode and not eps.p > p.q + 1.0:
            msgs.append(
                f"the decay guarantee needs the regularization to fade faster than "
                f"the damping: p > q + 1, got p = {eps.p}, q = {p.q}"
            )
    if msgs:
        raise ValidationError(msgs)
    return spec
