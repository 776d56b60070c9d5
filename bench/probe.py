"""Set-up probe, run in a fresh interpreter: time ``import chaoskit.cli`` plus
the first tiny call, and report the kernel backend that loaded.

Usage: python3 bench/probe.py OUT_CSV   (with chaoskit's src/ on PYTHONPATH)
Prints one JSON object; the tiny call's final state lets the caller compare
backends.
"""

import time

t0 = time.perf_counter()
import chaoskit.cli as cli  # noqa: E402

t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

rc = cli.main(["simulate", "--form", "B", "--alpha", "0.5", "--beta", "1",
               "--t-end", "0.01", "--dt", "1e-3", "--out", sys.argv[1]])
t2 = time.perf_counter()

from chaoskit import _kernels  # noqa: E402

with open(sys.argv[1]) as fh:
    last = fh.read().splitlines()[-1]
print(json.dumps({
    "import_s": t1 - t0,
    "setup_s": t2 - t0,
    "rc": rc,
    "numba": _kernels.NUMBA_ENABLED,
    "final": [float(c) for c in last.split(",")],
}))
