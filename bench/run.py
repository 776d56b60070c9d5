"""chaoskit benchmark: one workload, timed end to end through the CLI.

Usage (from the root of a chaoskit checkout):

    python3 bench/run.py --workload scan|artifact --seed N \
        --seconds S --trace 0|1

The workload's commands run back to back through ``chaoskit.cli.main`` in
this process (one client, closed loop).  One untimed warm-up iteration comes
first; iterations then repeat until ``--seconds`` have passed.  Set-up time
is measured in fresh interpreters by ``probe.py``, run between the untraced
iterations.  With ``--trace 1`` half of the time runs untraced and half
traced, and the per-layer metrics come from the traced half.  Artifacts are
checked outside the timed region.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable table and a
``record`` line holding every metric with its provenance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 25
WORKLOADS = ("scan", "artifact")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The per-layer metrics the final JSON line carries under --trace 1.  Layer
# times are listed only where every workload exercises the layer, so none of
# them reads a constant zero; per-function times (and every other named
# per-layer metric) are in the table and the record line.
PER_LAYER = {
    "kernels.self_s": "s",
    "kernels.us_per_step": "us/step",
    "kernels.steps": "count",
    "kernels.calls": "count",
    "kernels.rk4_trajectory.steps": "count",
    "kernels.rkf45_trajectory.steps": "count",
    "kernels.rk4_events_strobo.steps": "count",
    "kernels.rk4_events_vzero.steps": "count",
    "kernels.benettin.steps": "count",
    "kernels.variational.steps": "count",
    "integrate.alloc_bytes": "bytes",
    "integrate.filled_fraction": "ratio",
    "analysis.self_s": "s",
    "analysis.energy_trace.points": "count",
    "chaoscan.self_s": "s",
    "chaoscan.scan.cells": "count",
    "chaoscan.scan.workers": "count",
    "chaoscan.critical.probes": "count",
    "chaoscan.critical.rounds": "count",
    "chaoscan.cells.ok": "count",
    "chaoscan.cells.diverged": "count",
    "chaoscan.cluster_count.points": "count",
    "io.self_s": "s",
    "io.rows": "count",
    "io.bytes": "bytes",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name.endswith("_s") or ".cell_s." in name or ".probe_s." in name:
        return "s"
    if ".us_per_" in name:
        return "us/" + name.rsplit("_", 1)[1]
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("fraction") or name == "error_rate":
        return "ratio"
    return "count"


def tail(samples, beyond=10):
    """Highest nearest-rank percentile with at least ``beyond`` samples above
    it: (percentile, value), or None when there are too few samples."""
    n = len(samples)
    k = n - beyond
    if k < 1:
        return None
    p = 100 * k // n
    rank = max(1, -(-p * n // 100))
    return p, sorted(samples)[rank - 1]


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() or "unknown"


def _probe(env, out_csv):
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(out_csv)],
        env=env, capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({out.returncode}): {out.stderr.strip()}")
    return json.loads(out.stdout.splitlines()[-1])


class SetupProbes:
    """Set-up times from fresh interpreters, taken a few at a time between
    the untraced iterations, so that their median spans the whole run
    rather than one stretch of it."""

    def __init__(self, workdir):
        self.env = dict(os.environ, PYTHONPATH=str(SRC), CHAOS_NO_NUMBA="1")
        self.out = workdir / "probe.csv"
        self.results = []

    def take(self):
        self.results.append(_probe(self.env, self.out))

    def keep_up(self, share):
        """Probe until the probes taken match the share of the run that has passed."""
        while len(self.results) < math.ceil(SETUP_PROBES * min(share, 1.0)):
            self.take()

    def parity(self, workdir):
        """Backend-parity verdict: (text, ok), from one probe without CHAOS_NO_NUMBA."""
        native_env = {k: v for k, v in self.env.items() if k != "CHAOS_NO_NUMBA"}
        native = _probe(native_env, workdir / "probe-native.csv")
        if not native["numba"]:
            return "unmeasured: numba is not importable, so a compiled run would also be the fallback", True
        diff = max(abs(a - b) for a, b in zip(native["final"], self.results[0]["final"]))
        ok = diff <= 1e-9
        return f"numba vs fallback final state |diff| = {diff:.3e} ({'ok' if ok else 'MISMATCH'})", ok

    def summary(self):
        return {
            "setup_s": statistics.median(p["setup_s"] for p in self.results),
            "import_s": statistics.median(p["import_s"] for p in self.results),
            "n": len(self.results),
            "probes_ok": all(p["rc"] == 0 for p in self.results),
        }


class Tally:
    """Operations attempted and failed; a failed operation is a nonzero exit
    from cli.main, an artifact that differs from the reference bytes or fails
    its content check, or a check that accepted a corrupted artifact."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, problem=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem and len(self.problems) < 20:
                self.problems.append(problem)


def run_loop(wl, budget, tally, reference, tracer=None, probes=None):
    """Iterate until ``budget`` seconds have passed; return the wall times and,
    when traced, each iteration's per-layer metrics.  Set-up probes, if given,
    run between iterations and are spread over the budget."""
    import tracer as tr
    import workloads

    walls, layers = [], []
    start = time.perf_counter()
    while True:
        wall, codes = wl.iterate()
        walls.append(wall)
        if tracer is not None:
            layers.append(tr.layer_metrics(tracer.take(), wall))
        for artifact, rc in codes.items():
            same = rc == 0 and workloads.digest(wl.path(artifact)) == reference[artifact]
            tally.op(same, f"{artifact}: exit {rc} or bytes differ from the reference")
        if probes is not None:
            probes.keep_up((time.perf_counter() - start) / budget)
        if time.perf_counter() - start >= budget:
            return walls, layers


def verify(wl, reference, tally):
    """Content checks, reruns from the manifest, and the corrupted-artifact
    self-test; all outside the timed region."""
    import workloads
    from chaoskit import cli

    for artifact in wl.commands:
        problems = wl.check(artifact)
        tally.op(not problems, "; ".join(problems))
        again = wl.workdir / f"rerun-{artifact}"
        try:
            cli.rerun(wl.path(artifact), str(again))
            same = workloads.digest(again) == reference[artifact]
        except Exception:  # a rerun that raises is a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
            same = False
        tally.op(same, f"{artifact}: rerun from its manifest is not byte-identical")
    first = next(iter(wl.commands))
    bad = wl.workdir / f"corrupt-{first}"
    workloads.corrupt(wl, wl.path(first), bad)
    caught = bool(wl.check(first, str(bad))) and workloads.digest(bad) != reference[first]
    tally.op(caught, f"{first}: the checks accepted a corrupted artifact")
    return caught


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "chaoskit" / "cli.py").is_file():
        print(f"error: no chaoskit sources under {SRC}; run from a chaoskit checkout", file=sys.stderr)
        return 2
    # the pure-Python fallback is the backend this benchmark measures
    os.environ["CHAOS_NO_NUMBA"] = "1"
    sys.path.insert(0, str(SRC))

    import numpy as np

    import chaoskit
    import tracer as tr
    import workloads
    from chaoskit import _kernels, chaoscan

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        probes = SetupProbes(workdir)
        probes.take()
        parity, parity_ok = probes.parity(workdir)
        wl = workloads.Workload(args.workload, args.seed, workdir)
        tally = Tally()
        tally.op(parity_ok, f"backend parity: {parity}")

        _, codes = wl.iterate()  # warm-up; its artifacts are the reference bytes
        reference = wl.digests()
        for artifact, rc in codes.items():
            tally.op(rc == 0, f"{artifact}: exit {rc}")
        budget = args.seconds / 2 if args.trace else args.seconds
        walls, _ = run_loop(wl, budget, tally, reference, probes=probes)
        setup = probes.summary()
        tally.op(setup["probes_ok"], "set-up probe: tiny simulate failed")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        layers = []
        traced_walls = []
        if args.trace:
            tracer = tr.Tracer()
            inst = tr.install(tracer)
            try:
                traced_walls, layers = run_loop(wl, budget, tally, reference, tracer)
            finally:
                inst.uninstall()
        caught = verify(wl, reference, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": peak_rss_mb,
        "error_rate": tally.failed / tally.attempted,
    }
    if layers:
        for name in layers[0]:
            metrics[name] = statistics.median(m[name] for m in layers)
        metrics["cli.import_s"] = setup["import_s"]
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - wall

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": "numba" if _kernels.NUMBA_ENABLED else "fallback",
        "numba_enabled": _kernels.NUMBA_ENABLED,
        "backend_parity": parity,
        "setup_probes": setup["n"],
        "chaoskit_version": chaoskit.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": _nproc(),
        "pool_width": chaoscan.max_workers(),
        "commit": _git_commit(),
    }
    tl = tail(walls)
    print(f"chaoskit benchmark  workload={args.workload} seed={args.seed} "
          f"backend={provenance['backend']} nproc={provenance['nproc']} "
          f"pool_width={provenance['pool_width']}")
    print(f"backend parity: {parity}")
    print(f"{'metric':<44} {'value':>14}  unit")
    print(f"{'wall_s (median, n=%d)' % len(walls):<44} {wall:>14.6f}  s")
    if tl is not None:
        print(f"{'wall_s (p%d, 10 samples beyond, n=%d)' % (tl[0], len(walls)):<44} {tl[1]:>14.6f}  s")
    else:
        print(f"{'wall_s tail':<44} {'n/a (n<11)':>14}  s")
    for name, value in metrics.items():
        if name != "wall_s":
            print(f"{name:<44} {value:>14.6g}  {unit_of(name)}")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed; "
          f"corrupted-artifact check {'caught' if caught else 'NOT caught'}")
    for problem in tally.problems:
        print(f"  problem: {problem}")
    record = {
        "provenance": provenance,
        "walls": walls,
        "wall_tail": {"percentile": tl[0], "value": tl[1], "n": len(walls)} if tl else None,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print("record " + json.dumps(record, sort_keys=True))

    chosen = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)} for k in chosen},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
