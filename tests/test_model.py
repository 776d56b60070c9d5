"""System definitions: accelerations, tangent partials, schedules, validation.

Tangent partials are checked against central finite differences of the
acceleration itself, so the Jacobian code has an independent oracle.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from chaoskit import (
    FORM_A1,
    FORM_A2,
    FORM_B,
    EpsilonSchedule,
    InvalidAxis,
    NonFinite,
    Nonlinearity,
    Params,
    SingularTime,
    State,
    SystemSpec,
    ValidationError,
    accel,
    accel_array,
    tangent_accel,
    validate,
    with_param,
)
from chaoskit import _kernels as _k
from chaoskit.model import PARAM_NAMES, live_params, pack_spec, run_kernel
from chaoskit._kernels import ALPHA, BETA, EPS_C, EPS_KIND, FORM, G_KIND, NPACKED


def _fd_partials(spec, t, x, v, h=1e-6):
    dax = (accel(spec, State(t, x + h, v)) - accel(spec, State(t, x - h, v))) / (2 * h)
    dav = (accel(spec, State(t, x, v + h)) - accel(spec, State(t, x, v - h))) / (2 * h)
    return dax, dav


A1_SPEC = SystemSpec(
    form=FORM_A1,
    params=Params(alpha=0.7, beta=0.3, gamma=0.2, delta=0.4, omega=3.0, q=1.5),
    nonlinearity=Nonlinearity.cubic(0.8),
    epsilon=EpsilonSchedule.power_law(0.5, 2.0),
)
A2_SPEC = SystemSpec(
    form=FORM_A2,
    params=Params(alpha=0.7, beta=0.3, gamma=0.2, delta=0.4, omega=3.0, q=1.5),
    nonlinearity=Nonlinearity.sine(0.8, 2.5),
    epsilon=EpsilonSchedule.power_law(0.5, 2.0),
)
B_SPEC = SystemSpec(
    form=FORM_B,
    params=Params(alpha=0.5, beta=1.2, gamma=0.6, delta=0.9, omega=2.0, n=3),
    epsilon=EpsilonSchedule.constant(0.25),
)


def test_accel_b_hand_value():
    # a = -(alpha*v + beta*x + gamma*delta*sin(omega*t)*x^n + eps)
    t, x, v = 0.5, 1.5, -0.5
    expected = -(0.5 * v + 1.2 * x + 0.6 * 0.9 * math.sin(2.0 * 0.5) * x**3 + 0.25)
    assert accel(B_SPEC, State(t, x, v)) == pytest.approx(expected, rel=1e-15)


def test_accel_a1_hand_value():
    # coupled argument u = x + (gamma + beta/t^q) * v
    t, x, v = 2.0, 0.8, 0.3
    p = A1_SPEC.params
    c = p.gamma + p.beta / t**p.q
    u = x + c * v
    expected = -(
        p.alpha / t**p.q * v
        + 0.8 * u**3
        + (0.5 / t**2.0) * x
        + p.delta * math.sin(p.omega * x)
    )
    assert accel(A1_SPEC, State(t, x, v)) == pytest.approx(expected, rel=1e-14)


def test_accel_a2_hand_value():
    # additive damping: nonlinearity takes x alone, (gamma + beta/t^q) multiplies v
    t, x, v = 2.0, 0.8, 0.3
    p = A2_SPEC.params
    expected = -(
        p.alpha / t**p.q * v
        + 0.8 * math.sin(2.5 * x)
        + (p.gamma + p.beta / t**p.q) * v
        + (0.5 / t**2.0) * x
        + p.delta * math.sin(p.omega * x)
    )
    assert accel(A2_SPEC, State(t, x, v)) == pytest.approx(expected, rel=1e-14)


# with A1_SPEC (Cubic) and A2_SPEC (Sine), one A-form spec per preset, so the
# kernel's g slope is checked for each
A1_LINEAR = replace(A1_SPEC, nonlinearity=Nonlinearity.linear(0.7))
A2_ZERO = replace(A2_SPEC, nonlinearity=Nonlinearity.zero())


@pytest.mark.parametrize("spec", [A1_SPEC, A2_SPEC, B_SPEC, A1_LINEAR, A2_ZERO])
@pytest.mark.parametrize("point", [(1.3, 0.9, -0.4), (2.7, -1.1, 0.6), (5.0, 0.2, 0.0)])
def test_tangent_matches_finite_differences(spec, point):
    t, x, v = point
    s = State(t, x, v)
    dax = tangent_accel(spec, s, (1.0, 0.0))
    dav = tangent_accel(spec, s, (0.0, 1.0))
    fdx, fdv = _fd_partials(spec, t, x, v)
    assert dax == pytest.approx(fdx, rel=1e-7, abs=1e-7)
    assert dav == pytest.approx(fdv, rel=1e-7, abs=1e-7)
    # directional derivative is linear in ds
    both = tangent_accel(spec, s, (0.5, -2.0))
    assert both == pytest.approx(0.5 * dax - 2.0 * dav, rel=1e-12, abs=1e-12)


_A_PARAMS = Params(alpha=0.3, beta=0.7, gamma=0.4, delta=0.5, omega=1.9, q=1.0)
# rhs_tangent forms the acceleration too, from its own copy of the formula
PAIR_SYSTEMS = {
    "A1-zero": SystemSpec(form=FORM_A1, params=_A_PARAMS, epsilon=EpsilonSchedule.constant(0.2)),
    "A1-linear": SystemSpec(
        form=FORM_A1, params=_A_PARAMS, nonlinearity=Nonlinearity.linear(0.8),
        epsilon=EpsilonSchedule.constant(0.2),
    ),
    "A1-sine": SystemSpec(
        form=FORM_A1, params=_A_PARAMS, nonlinearity=Nonlinearity.sine(1.2, 0.7),
        epsilon=EpsilonSchedule.constant(0.2),
    ),
    "A2-cubic": SystemSpec(
        form=FORM_A2, params=replace(_A_PARAMS, q=0.5), nonlinearity=Nonlinearity.cubic(-1.5),
        epsilon=EpsilonSchedule.power_law(0.4, 2.5),
    ),
} | {
    f"B-n{n}-{eps.variant}": SystemSpec(
        form=FORM_B,
        params=Params(alpha=0.2, beta=1.1, gamma=0.6, delta=0.9, omega=1.3, n=n),
        epsilon=eps,
    )
    for n in (1, 2, 3, 5)
    for eps in (EpsilonSchedule.constant(0.3), EpsilonSchedule.power_law(0.5, 1.5))
}


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("name", PAIR_SYSTEMS)
def test_rhs_tangent_gives_the_acceleration_of_rhs(name):
    spec = PAIR_SYSTEMS[name]
    rng = np.random.default_rng(14)
    states = [
        (
            float(rng.uniform(0.1, 5.0)),
            float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0)),
            float(rng.uniform(-3.0, 3.0)),
        )
        for _ in range(64)
    ]
    # x**n overflows a Python float for n >= 2, so both calls rerun on
    # float64; omega*x overflows on the A forms, where sin and cos give nan
    states += [(1.0, 1e200, 0.5), (1.0, -1e308, 0.5)]
    for t, x, v in states:
        dx, dv = float(rng.normal()), float(rng.normal())
        a = run_kernel(spec, _k.rhs, t, x, v)
        pair = run_kernel(spec, _k.rhs_tangent, t, x, v, dx, dv)
        assert _same_bits(pair[0], a), (t, x, v)
    if spec.form == FORM_B and spec.params.n >= 2:
        assert math.isinf(run_kernel(spec, _k.rhs, 1.0, 1e200, 0.5))


# Systems on which the table of live parameters calls some parameter inert,
# with the parameters it calls inert there
INERT_CASES = {
    "B": (B_SPEC, {"q"}),
    "B-delta0": (replace(B_SPEC, params=replace(B_SPEC.params, delta=0.0)),
                 {"q", "gamma", "omega", "n"}),
    "B-gamma0": (replace(B_SPEC, params=replace(B_SPEC.params, gamma=0.0)),
                 {"q", "delta", "omega", "n"}),
    "A1-sine": (PAIR_SYSTEMS["A1-sine"], {"n"}),
    "A1-zero-g-delta0": (replace(PAIR_SYSTEMS["A1-zero"], params=replace(_A_PARAMS, delta=0.0)),
                         {"n", "omega", "beta", "gamma"}),
    "A2-delta0": (replace(A2_SPEC, params=replace(A2_SPEC.params, delta=0.0)), {"n", "omega"}),
    "A2-zero-g": (replace(A2_SPEC, nonlinearity=Nonlinearity.zero()), {"n"}),
    # g(u) = k sin(0 * u) is 0 everywhere, so beta and gamma inside its argument are inert
    "A1-sine-w0": (replace(PAIR_SYSTEMS["A1-sine"], nonlinearity=Nonlinearity.sine(1.2, 0.0)),
                   {"n", "beta", "gamma"}),
    # q enters only through alpha/t^q and beta/t^q, so either keeps it live
    "A1-alpha0": (replace(PAIR_SYSTEMS["A1-linear"], params=replace(_A_PARAMS, alpha=0.0)), {"n"}),
    "A1-alpha0-beta0": (replace(PAIR_SYSTEMS["A1-linear"],
                                params=replace(_A_PARAMS, alpha=0.0, beta=0.0)), {"n", "q"}),
    "A2-alpha0": (replace(A2_SPEC, params=replace(A2_SPEC.params, alpha=0.0)), {"n"}),
    "A2-alpha0-beta0": (replace(A2_SPEC, params=replace(A2_SPEC.params, alpha=0.0, beta=0.0)),
                        {"n", "q"}),
}


@pytest.mark.parametrize("name", INERT_CASES)
def test_an_inert_parameter_leaves_the_right_hand_side_alone(name):
    spec, inert = INERT_CASES[name]
    assert set(PARAM_NAMES) - live_params(spec) == inert
    rng = np.random.default_rng(15)
    # x**n stays finite on these states: where it overflows, 0 * inf is nan,
    # so a zero gamma*delta does not hide n from the float arithmetic there
    states = [
        (
            float(rng.uniform(0.1, 5.0)),
            float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 1.0)),
            float(rng.uniform(-3.0, 3.0)),
        )
        for _ in range(32)
    ]
    for param in sorted(inert):
        for _ in range(3):
            value = int(rng.integers(1, 8)) if param == "n" else float(rng.uniform(0.1, 3.0))
            other = with_param(spec, param, value)
            for t, x, v in states:
                dx, dv = float(rng.normal()), float(rng.normal())
                for kernel, args in ((_k.rhs, (t, x, v)), (_k.rhs_tangent, (t, x, v, dx, dv))):
                    want = np.array(run_kernel(spec, kernel, *args)).tobytes()
                    assert np.array(run_kernel(other, kernel, *args)).tobytes() == want, (
                        param, value, kernel.__name__, t, x, v,
                    )


def test_accel_array_matches_scalar():
    t = np.array([1.0, 2.0, 3.5])
    x = np.array([0.5, -0.2, 1.1])
    v = np.array([0.0, 0.3, -0.7])
    a = accel_array(A2_SPEC, t, x, v)
    for i in range(3):
        assert a[i] == pytest.approx(accel(A2_SPEC, State(t[i], x[i], v[i])), rel=1e-15)


def test_epsilon_integral_matches_quadrature():
    for eps in (
        EpsilonSchedule.constant(0.3),
        EpsilonSchedule.power_law(0.5, 2.0),
        EpsilonSchedule.power_law(0.4, 1.0),  # log branch
        EpsilonSchedule.power_law(0.2, 0.0),
    ):
        t = np.linspace(1.0, 6.0, 20001)
        quad = np.concatenate([[0.0], np.cumsum((eps.value(t[1:]) + eps.value(t[:-1])) / 2 * np.diff(t))])
        closed = eps.integral(1.0, t)
        assert np.allclose(closed, quad, atol=1e-8)


def test_spec_json_round_trip():
    for spec in (A1_SPEC, A2_SPEC, B_SPEC):
        again = SystemSpec.from_json(spec.to_json())
        assert again == spec
    doc = json.loads(B_SPEC.to_json())
    assert set(doc) == {"form", "params", "nonlinearity", "epsilon"}
    assert doc["form"] == "B"
    assert doc["params"]["alpha"] == 0.5


def test_with_param_swaps_one_field():
    s = with_param(B_SPEC, "gamma", 2.5)
    assert s.params.gamma == 2.5
    assert s.params.alpha == B_SPEC.params.alpha
    assert with_param(B_SPEC, "n", 4.0).params.n == 4
    assert with_param(B_SPEC, "n", 2.0).params.n == 2
    with pytest.raises(InvalidAxis):
        with_param(B_SPEC, "zeta", 1.0)
    # the power-law exponent lives on EpsilonSchedule, not Params
    with pytest.raises(InvalidAxis):
        with_param(B_SPEC, "p", 1)
    assert set(PARAM_NAMES) == {"alpha", "beta", "gamma", "delta", "omega", "q", "n"}


def test_integer_parameters_are_never_truncated():
    for bad in (2.7, 1.4, math.inf, math.nan):
        with pytest.raises(ValidationError, match="n must be an integer"):
            with_param(B_SPEC, "n", bad)
    doc = json.loads(B_SPEC.to_json())
    doc["params"]["n"] = 2.7
    with pytest.raises(ValidationError, match="n must be an integer, got 2.7"):
        SystemSpec.from_dict(doc)
    doc["params"]["n"] = 3.0
    assert SystemSpec.from_dict(doc).params.n == 3


@pytest.mark.parametrize(
    "key, variant",
    [("nonlinearity", "cubic"), ("epsilon", "powerlaw")],
)
def test_from_dict_refuses_unknown_variants(key, variant):
    doc = json.loads(A1_SPEC.to_json())
    doc[key] = {"variant": variant}
    with pytest.raises(ValidationError, match=f"unknown .* variant '{variant}'") as err:
        SystemSpec.from_dict(doc)
    assert "expected one of" in str(err.value)


def test_from_dict_names_every_refused_part():
    doc = {
        "form": "C",
        "bogus": 1,
        "params": {"alpah": 0.5, "n": 2.5},
        "nonlinearity": {"k": 2.0},
        "epsilon": {"variant": "Constant", "value": 1.0, "p": 3.0},
    }
    with pytest.raises(ValidationError) as err:
        SystemSpec.from_dict(doc)
    expected = ["'bogus'", "'alpah'", "n must be an integer", "needs a variant", "'p'", "form 'C'"]
    assert len(err.value.messages) == len(expected)
    assert all(e in msg for msg, e in zip(err.value.messages, expected))
    # with those parts mended the same document decodes
    doc = {"form": "B", "params": {"alpha": 0.5, "n": 2.0}, "epsilon": {"variant": "Constant", "value": 1.0}}
    assert SystemSpec.from_dict(doc) == SystemSpec(
        form="B", params=Params(alpha=0.5, n=2), epsilon=EpsilonSchedule.constant(1.0)
    )


def test_preset_documents_round_trip_and_default_missing_fields():
    for preset in (Nonlinearity, EpsilonSchedule):
        for variant, keys in preset.VARIANTS.items():
            full = preset.from_dict({"variant": variant, **{key: 0.25 for key, _, _ in keys}})
            assert full.to_dict() == {"variant": variant, **{key: 0.25 for key, _, _ in keys}}
            assert preset.from_dict(full.to_dict()) == full
    # a field the document leaves out takes the same default as its flag
    assert Nonlinearity.from_dict({"variant": "Sine"}) == Nonlinearity.sine(1.0, 1.0)
    assert EpsilonSchedule.from_dict({"variant": "Constant"}) == EpsilonSchedule.constant(0.0)
    assert EpsilonSchedule.from_dict({"variant": "PowerLaw"}) == EpsilonSchedule.power_law(1.0, 2.0)
    with pytest.raises(ValidationError, match="needs a variant"):
        Nonlinearity.from_dict({"k": 2.0})


def test_unknown_form_or_variant_is_refused_where_built():
    with pytest.raises(ValidationError, match="unknown form 'C'"):
        SystemSpec(form="C")
    with pytest.raises(ValidationError, match="unknown nonlinearity variant 'cubic'"):
        Nonlinearity("cubic")
    with pytest.raises(ValidationError, match="unknown regularization variant 'powerlaw'"):
        replace(B_SPEC.epsilon, variant="powerlaw")


def test_state_rejects_non_finite():
    with pytest.raises(ValueError):
        State(0.0, float("nan"), 0.0)
    with pytest.raises(ValueError):
        State(float("inf"), 0.0, 0.0)


def test_validate_collects_all_violations():
    bad = SystemSpec(
        form=FORM_B,
        params=Params(alpha=-1.0, beta=1.0, gamma=-0.5, delta=1.0, omega=0.0, n=3),
    )
    with pytest.raises(ValidationError) as err:
        validate(bad)
    assert len(err.value.messages) >= 3  # alpha, gamma, omega each reported


def test_validate_form_b_requires_zero_preset():
    bad = SystemSpec(form=FORM_B, params=Params(alpha=0.1, beta=1.0), nonlinearity=Nonlinearity.cubic(1.0))
    with pytest.raises(ValidationError):
        validate(bad)


def test_validate_theorem_mode_requires_fast_decay():
    # p must exceed q + 1 for the regularization to fade faster than the damping
    spec = SystemSpec(
        form=FORM_A2,
        params=Params(alpha=0.4, beta=1.0, q=1.0),
        epsilon=EpsilonSchedule.power_law(0.4, 1.5),
    )
    with pytest.raises(ValidationError):
        validate(spec, theorem_mode=True)
    ok = SystemSpec(
        form=FORM_A2,
        params=Params(alpha=0.4, beta=1.0, q=1.0, n=2),
        epsilon=EpsilonSchedule.power_law(0.4, 2.5),
    )
    validate(ok, theorem_mode=True)


def test_accel_raises_at_singular_time():
    with pytest.raises(SingularTime):
        accel(A1_SPEC, State(0.0, 1.0, 0.0))


def test_overflowing_state_is_not_finite():
    # x**3 of x = 1e300 overflows; it is inf on float64, not an OverflowError
    spec = SystemSpec(form=FORM_B, params=Params(gamma=1, delta=1, n=3))
    s = State(1.0, 1e300, 0.0)
    with pytest.raises(NonFinite):
        accel(spec, s)
    with pytest.raises(NonFinite):
        tangent_accel(spec, s, (1.0, 0.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "spec",
    [
        SystemSpec(form=FORM_A1, params=Params(beta=1.0, q=-0.5)),
        SystemSpec(form=FORM_A1, epsilon=EpsilonSchedule.power_law(1.0, -0.5)),
    ],
    ids=["q", "p"],
)
def test_fractional_power_of_a_negative_time_is_not_finite(spec):
    # validate refuses these specs and accel does not check them; 1/t^q and
    # 1/t^p of a negative t are nan, as in float64, never complex
    s = State(-1.0, 1.0, 1.0)
    with pytest.raises(NonFinite):
        accel(spec, s)
    with pytest.raises(NonFinite):
        tangent_accel(spec, s, (1.0, 0.0))


def test_pack_spec_layout():
    packed = pack_spec(B_SPEC)
    assert packed.shape == (NPACKED,)
    assert packed[FORM] == 2.0
    assert packed[ALPHA] == 0.5
    assert packed[BETA] == 1.2
    assert packed[G_KIND] == 0.0  # Zero preset
    assert packed[EPS_KIND] == 1.0  # Constant
    assert packed[EPS_C] == 0.25
