"""Bit-for-bit gate on the kernels' outputs.

Each kernel runs on fixed inputs for three systems: A1 with a sine g, A2
with a cubic g and power-law regularization from t0 = 1, and form B with
n = 3, plus a form-B run whose low blowup threshold stops every kernel
early, and form B with n = 1 (constant regularization), n = 2 (power-law
regularization from t0 = 1) and n = 5 (from a negative x), which pin the
exponent of the polynomial forcing.  The SHA-256 of everything a kernel returns is pinned, so a rewrite
of the step that changes one bit of one value fails here.  Only the used
rows of the output buffers are hashed: they come from ``np.empty``, and the
rows past the returned counts hold whatever memory was there.

The digests were recorded with the pure-Python fallback on x86-64 Linux;
compiled kernels are compared with the fallback by ``test_kernels_parity``
instead, so the gate is skipped under numba.  Running this file as a script
prints the digests of the code at hand.
"""

import hashlib
import math

import numpy as np
import pytest

from chaoskit import _kernels as _k
from chaoskit import (
    FORM_A1,
    FORM_A2,
    FORM_B,
    EpsilonSchedule,
    Nonlinearity,
    Params,
    SystemSpec,
)
from chaoskit.model import run_kernel

pytestmark = pytest.mark.skipif(
    _k.NUMBA_ENABLED, reason="digests are of the fallback kernels' results"
)

# name: (spec, (t0, x0, v0), blowup threshold)
SYSTEMS = {
    "A1": (
        SystemSpec(
            form=FORM_A1,
            params=Params(alpha=0.2, beta=0.6, gamma=0.3, delta=0.35, omega=2.5, q=1.0),
            nonlinearity=Nonlinearity.sine(1.5, 0.8),
            epsilon=EpsilonSchedule.constant(0.1),
        ),
        (1.0, 0.7, -0.2),
        1e8,
    ),
    "A2": (
        SystemSpec(
            form=FORM_A2,
            params=Params(alpha=0.3, beta=0.5, gamma=0.2, delta=0.4, omega=1.7, q=0.5),
            nonlinearity=Nonlinearity.cubic(1.0),
            epsilon=EpsilonSchedule.power_law(0.5, 2.0),
        ),
        (1.0, 0.5, 0.1),
        math.inf,
    ),
    "B": (
        SystemSpec(
            form=FORM_B,
            params=Params(alpha=0.1, beta=1.0, gamma=0.5, delta=0.8, omega=1.3, n=3),
            epsilon=EpsilonSchedule.constant(0.05),
        ),
        (0.0, 1.0, 0.0),
        1e8,
    ),
    "B-escape": (
        SystemSpec(
            form=FORM_B,
            params=Params(alpha=0.0, beta=0.0, gamma=1.0, delta=1.0, omega=1.0, n=3),
        ),
        (0.0, 1.0, 0.5),
        3.0,
    ),
    "B-n1": (
        SystemSpec(
            form=FORM_B,
            params=Params(alpha=0.2, beta=1.0, gamma=0.4, delta=0.9, omega=2.0, n=1),
            epsilon=EpsilonSchedule.constant(0.1),
        ),
        (0.0, 0.8, -0.3),
        1e8,
    ),
    "B-n2": (
        SystemSpec(
            form=FORM_B,
            params=Params(alpha=0.15, beta=0.8, gamma=0.6, delta=0.7, omega=1.1, n=2),
            epsilon=EpsilonSchedule.power_law(0.3, 1.5),
        ),
        (1.0, 0.6, 0.2),
        1e8,
    ),
    "B-n5": (
        SystemSpec(
            form=FORM_B,
            params=Params(alpha=0.3, beta=1.2, gamma=0.5, delta=1.0, omega=1.7, n=5),
        ),
        (0.0, -0.9, 0.4),
        1e8,
    ),
}

H = 0.01
N_STEPS = 1500


def _rk4_trajectory(P, t0, x0, v0, blowup):
    out = (np.empty(N_STEPS + 1), np.empty(N_STEPS + 1), np.empty(N_STEPS + 1))
    status, m, fail_t = _k.rk4_trajectory(P, t0, x0, v0, H, N_STEPS, 3, blowup, *out)
    return (status, m, fail_t) + tuple(a[:m] for a in out)


def _rkf45_trajectory(P, t0, x0, v0, blowup):
    return _k.rkf45_trajectory(P, t0, x0, v0, t0 + N_STEPS * H, H, 1e-9, 1e-9, 2, blowup, 1e-12)


def _events(kernel, event_args, capacity):
    def run(P, t0, x0, v0, blowup):
        out = (np.empty(N_STEPS + 1), np.empty(N_STEPS + 1), np.empty(N_STEPS + 1))
        ev = (np.empty(capacity), np.empty(capacity), np.empty(capacity))
        status, m, ne, fail_t = kernel(P, t0, x0, v0, H, N_STEPS, 5, blowup, *event_args, *out, *ev)
        return (status, m, ne, fail_t) + tuple(a[:m] for a in out) + tuple(a[:ne] for a in ev)

    return run


def _benettin(P, t0, x0, v0, blowup):
    conv = (np.empty(N_STEPS // 50 + 2), np.empty(N_STEPS // 50 + 2))
    status, lam, nconv, fail_t, t_acc = _k.benettin(
        P, t0, x0, v0, H, N_STEPS, 50, 150, 1e-8, blowup, *conv
    )
    return (status, lam, nconv, fail_t, t_acc) + tuple(a[:nconv] for a in conv)


def _variational(P, t0, x0, v0, blowup):
    conv = (np.empty(N_STEPS // 50 + 2), np.empty(N_STEPS // 50 + 2))
    status, lam, nconv, fail_t, t_acc = _k.variational(
        P, t0, x0, v0, 0.6, 0.8, H, N_STEPS, 50, 150, blowup, *conv
    )
    return (status, lam, nconv, fail_t, t_acc) + tuple(a[:nconv] for a in conv)


def _rhs_array(P, t0, x0, v0, blowup):
    i = np.arange(400.0)
    return (_k.rhs_array(P, t0 + 0.05 * i, x0 + np.sin(0.3 * i), v0 + np.cos(0.7 * i)),)


KERNELS = {
    "rk4_trajectory": _rk4_trajectory,
    "rkf45_trajectory": _rkf45_trajectory,
    "rk4_events_strobo": _events(_k.rk4_events_strobo, (0.9, 0.25), N_STEPS // 90 + 3),
    "rk4_events_vzero": _events(_k.rk4_events_vzero, (0,), N_STEPS + 2),
    "benettin": _benettin,
    "variational": _variational,
    "rhs_array": _rhs_array,
}


def digest(kernel, system):
    """SHA-256 of every value ``kernel`` returns on ``system``, each as
    float64 bytes in return order."""
    spec, (t0, x0, v0), blowup = SYSTEMS[system]
    parts = run_kernel(spec, KERNELS[kernel], t0, x0, v0, blowup)
    sha = hashlib.sha256()
    for part in parts:
        sha.update(np.asarray(part, dtype=np.float64).tobytes())
    return sha.hexdigest()


DIGESTS = {
    ('rk4_trajectory', 'A1'): '1d9130ec29215740b174e05fc8a224819d323f8088f6e96f16df9c5a5bf50cf1',
    ('rkf45_trajectory', 'A1'): '3c20a56b15a183abecc918c332f439a2ccd529cfcf5920ed3479c29785831abd',
    ('rk4_events_strobo', 'A1'): 'efe539dd3bfc968a53c2e32c2207dbeb1b42e5e0ca99336a1e07941a8b23c287',
    ('rk4_events_vzero', 'A1'): '1d3577419234023a0ce0ca7c645b020845deac7a229850bc60f4b393d2aa892d',
    ('benettin', 'A1'): 'b82d395f26fb59dc519235ffbbe5016677d64937abff6f8120dd3d8958565962',
    ('variational', 'A1'): 'd9cf3bfb7a8fab8cccadb56e4505f0f893f1ecc80afbdc9f4b437cd8018aa5a1',
    ('rhs_array', 'A1'): 'd5f342aa21a2de2df0698abfecb0d51c68cfa4c8dd52400c7b35ddaae2d43f55',
    ('rk4_trajectory', 'A2'): 'a8ca2be00c60f7b7a6a45df3434ccd0563528813b68a2ca7f215a1295e5d80be',
    ('rkf45_trajectory', 'A2'): '398ff3a81c348eeebbed03f244db54c8ba1a8b3dca694f18b7406355eb1127bb',
    ('rk4_events_strobo', 'A2'): '2d1273958a5399c7774bf4b888f0d269cad4f5ffee1f202dc776263de22d279e',
    ('rk4_events_vzero', 'A2'): '9b2411b244e26ccd523b2e64616c06c909e02e9e2753c6601694210677cc31f8',
    ('benettin', 'A2'): 'ce3bc3aef2b1ad434094c9f95295b4fac1c9044facc5342d6d507b180baea013',
    ('variational', 'A2'): '35977b4560f8e79a3e18b3c00e65739b9dd05853e8a2e4b8a9e6cef418d6607f',
    ('rhs_array', 'A2'): '3f292c5970fe6e826714d6d47e1ebbc93c12a8284a144e86198f27ce48a689fe',
    ('rk4_trajectory', 'B'): 'f0c5dfc9f0845257e10d4abc750a8662f9d67719cc686636cddd1724dfb87e27',
    ('rkf45_trajectory', 'B'): '979e9a48aab819692d3af8961ea7a1b0e8586b5d3befcb06381f790cbdda9ea5',
    ('rk4_events_strobo', 'B'): 'b93d7c5b67cbdd2ff2ce8ca50aede35afbd3144b537e2e0aeea28010db7605b0',
    ('rk4_events_vzero', 'B'): '9bd77f64bd5a29d57297e1ba5121a9b2eeb0cd7ccf0658355fe627f03dbf1440',
    ('benettin', 'B'): '1c5c628b5e14fb65252d9bfe624183049f8a7f199bd907917c957573ab6d798a',
    ('variational', 'B'): '085e36bff40f99ffa1f36e9f94df05712f494fa15a9a0730dd101c3b2f6ad93b',
    ('rhs_array', 'B'): 'ff3b3159dc747fb9ef91f61f719ea345e7bcd80ddf9d23a202179c010e715c55',
    ('rk4_trajectory', 'B-escape'): 'bd1d9d826d7a32799914f616a78bfd84855814b552529f9751814a1961a9df72',
    ('rkf45_trajectory', 'B-escape'): 'b80255ef4143f63029f510bb115531b38e395ed9a4c24a8a293ec4a28b93365f',
    ('rk4_events_strobo', 'B-escape'): '4c760cad0e02120b976e1ab9fee5bb4c00bfbf7e497d010086d62712d38e9fce',
    ('rk4_events_vzero', 'B-escape'): '1d549aed87ea788fa35481448485017dcbc30f333009e5561653a68e7cba7046',
    ('benettin', 'B-escape'): '0efcdf0e780d85ea17e7f89ca2b3e4d0dbae36f5f54d525f1e36e0e2c04348f6',
    ('variational', 'B-escape'): '3e310c867f77f5c352b3c6e99c53fc097717e7f45fcc068afd53f399d587b81c',
    ('rhs_array', 'B-escape'): '51dc249ddfb76e09e1de80f38b5451919f85c987d427383de5e35bea7a1dbee8',
    ('rk4_trajectory', 'B-n1'): 'a9515971359f8976e6b3c4aa95780e674bda3419685e0676a7a2899d5c7b2046',
    ('rkf45_trajectory', 'B-n1'): 'e97eb5b2c89d5c110243ff8e583a75f4f68a729541380bc423283bd45c3a1571',
    ('rk4_events_strobo', 'B-n1'): '4dee3e76d0a51c40783278cfbf8914aa872bbde49b657c7fb09562e08c5c8e27',
    ('rk4_events_vzero', 'B-n1'): '07a290616d42545c5bbcdc48b9d0fb2f53534290eefc52004500c5284874aa11',
    ('benettin', 'B-n1'): '9f78cb334a86c3ba7a43827f1d79c7c2965999b801f0391aa6b221fad5615354',
    ('variational', 'B-n1'): '10610ddf7edd128f4576d3421f7a57961b195b13fa40fdfcbba3cb50f701cc73',
    ('rhs_array', 'B-n1'): '19a3c74d9609a5e7490bab2db3804fe4513cbc8ed2579ab0ec9429b08d22a590',
    ('rk4_trajectory', 'B-n2'): 'e515349d35425847981a6025217185c08e8b57324884fe742d70f61a2193c910',
    ('rkf45_trajectory', 'B-n2'): '059973d2e4dcb82438d56e32ed1966cc1ec08eb30665e3ec1f3d1fcbb4593dee',
    ('rk4_events_strobo', 'B-n2'): '4ac7c18ab587e61ed0c0864e44ba646e8fc764be960f8e99c43c967436b6ea1a',
    ('rk4_events_vzero', 'B-n2'): '34bd4f94fe7b0efcf3f14a9e6fff9a6c8eb33f525bdf41e08d678be5ef63b58d',
    ('benettin', 'B-n2'): '9534ab5d5860222f40db6c05f0a3be649c10f191133fa17129abe417028d0839',
    ('variational', 'B-n2'): '63702c622398ffc01718c2f0553da7a5ab7b8bc32d77403566b64984e51a05a8',
    ('rhs_array', 'B-n2'): 'b0cf0708b37201db933129731087cb1bff5636812a810f34fa6d238c3e9f77ef',
    ('rk4_trajectory', 'B-n5'): '1eddf415265f25162b0ad8bc54bd1443becab55408ed04c8c4c318de63e6180a',
    ('rkf45_trajectory', 'B-n5'): 'b8e363bc2b85a5b85bade183676e26f2602c5a8c91e92d74162383fd151eb6ff',
    ('rk4_events_strobo', 'B-n5'): '442e0d79b594559504ed3b1a09749a52fa24535074a30761cac2fcf5ecf5ec51',
    ('rk4_events_vzero', 'B-n5'): '1b26a77e7185cf1ef0e88cb7ce77d4fdd3997922597d431cc0faeb3c7c6c1c55',
    ('benettin', 'B-n5'): '242940a8f45dcf46a5c31c4ffe32d50278f74e4929785a06a45a3964d064aeea',
    ('variational', 'B-n5'): '424d7fff02b87b7d30909461920145d5db99f96ff15bd1610acc5b7317253c00',
    ('rhs_array', 'B-n5'): '9410971d78bdbd3ce839a3438519681ee20b2bcd65117de32d4864884def418f',
}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_kernel_outputs_keep_their_bits(kernel, system):
    assert digest(kernel, system) == DIGESTS[kernel, system]


if __name__ == "__main__":
    for system in SYSTEMS:
        for kernel in KERNELS:
            print(f"    ({kernel!r}, {system!r}): {digest(kernel, system)!r},")
