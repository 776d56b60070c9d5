"""The benchmark workloads: CLI arguments made from a seed, the timed
iteration, and the output checks.

Every workload is a closed loop with one client: its chaoskit commands run
back to back in this process through ``chaoskit.cli.main``, each one waiting
for the previous artifact to be closed.  The seed only perturbs grid bounds
and the start, inside ranges where every check below still holds; the
program sees nothing but the generated arguments.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import time
from collections import OrderedDict

import numpy as np

from chaoskit import chaoscan, cli

# the frozen chaotic family of acceptance criteria 5-7
CHAOTIC = [
    "--form", "B", "--alpha", "0.4", "--beta", "64", "--gamma", "1",
    "--delta", "0.00390625", "--omega", "16", "--n", "3",
    "--epsilon", "Constant", "--epsilon-c", "2048", "--dt", "6.25e-4",
]
# the forced family of the README's section examples
FORCED = [
    "--form", "B", "--alpha", "0.1", "--beta", "1", "--gamma", "0.3",
    "--delta", "0.5", "--omega", "2", "--dt", "1e-3",
]
# criterion 7's regularized transplant: cubic g, power-law epsilon, t0 = 1
TRANSPLANT = [
    "--form", "A2", "--alpha", "0.4", "--beta", "64", "--gamma", "1",
    "--delta", "0.00390625", "--omega", "16", "--q", "1",
    "--g", "Cubic", "--g-k", "0.00390625",
    "--epsilon", "PowerLaw", "--epsilon-c", "0.4", "--epsilon-p", "3", "--t0", "1",
    "--method", "rkf45",
]

# Horizons of the chaotic family.  The variational and two-trajectory
# estimates of the linear gamma = 0 cell oscillate with the end time around
# -alpha/2; 2.5 sits on whole half-periods of that oscillation, where the
# estimate is within 1e-3 of -alpha/2 (as are 5 and the t_end 10 of the
# full-size scan).  Short runs keep one iteration near a second, so that a
# run holds enough iterations for a median and a tail.
MAP_T_END = 2.5
BIF_T_END = 2.5
CRIT_T_END = 2.5
CRIT_TOL = 1e-2
# A 2x2 map, at the map's horizon, whose gamma = 48 lanes escape near
# t = 1.4 while its gamma = 3 lanes run to the end, so the cells of one scan
# finish unevenly (gamma = 3 itself escapes only near t = 7).
EDGE_GAMMA_HI = 48.0
ART_T_END = 20.0
ART_DT = 1e-3
TRANSPLANT_T_END = 101.0

LAMBDA_TOL = 0.02


def _f(x):
    return repr(float(x))


class Workload:
    """One workload's commands for a seed, run in a work directory."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        rng = random.Random(f"{name}:{seed}")
        self.commands = OrderedDict()
        getattr(self, f"_plan_{name}")(rng)

    def path(self, artifact):
        return str(self.workdir / artifact)

    def _add(self, artifact, argv):
        self.commands[artifact] = argv + ["--out", self.path(artifact)]

    # ------------------------------------------------------------ plans

    def _plan_scan(self, rng):
        x0 = -32.0 + rng.uniform(-0.25, 0.25)
        alpha_lo = 0.3 + rng.uniform(-0.02, 0.02)
        gamma_hi = 3.0 + rng.uniform(-0.1, 0.1)
        bif_lo = 0.6 + rng.uniform(-0.05, 0.05)
        crit_lo = rng.uniform(0.0, 0.05)
        start = ["--x0", _f(x0)]
        self._add(
            "map.csv",
            ["map"] + CHAOTIC + start + [
                "--estimator", "variational", "--t-end", _f(MAP_T_END),
                "--axis1", "gamma", "--lo1", "0", "--hi1", _f(gamma_hi), "--steps1", "4",
                "--axis2", "alpha", "--lo2", _f(alpha_lo),
                "--hi2", _f(alpha_lo + 0.2), "--steps2", "4",
            ],
        )
        self._add(
            "edge.csv",
            ["map"] + CHAOTIC + start + [
                "--estimator", "variational", "--t-end", _f(MAP_T_END),
                "--axis1", "gamma", "--lo1", _f(3.0 + rng.uniform(-0.1, 0.1)),
                "--hi1", _f(EDGE_GAMMA_HI), "--steps1", "2",
                "--axis2", "alpha", "--lo2", _f(alpha_lo),
                "--hi2", _f(alpha_lo + 0.2), "--steps2", "2",
            ],
        )
        self._add(
            "bifurcation.csv",
            ["bifurcation"] + CHAOTIC + start + [
                "--section", "strobo", "--t-end", _f(BIF_T_END),
                "--axis", "gamma", "--lo", _f(bif_lo), "--hi", _f(bif_lo + 0.6),
                "--steps", "6",
            ],
        )
        # strictly sequential probes; a width of exactly 1 fixes their count
        # at 2 + ceil(log2(1/tol)) = 9
        self._add(
            "critical.json",
            ["critical"] + CHAOTIC + start + [
                "--estimator", "two_trajectory", "--t-end", _f(CRIT_T_END),
                "--axis", "gamma", "--lo", _f(crit_lo), "--hi", _f(crit_lo + 1.0),
                "--tol", _f(CRIT_TOL),
            ],
        )

    def _plan_artifact(self, rng):
        start = ["--x0", _f(1.0 + rng.uniform(-0.1, 0.1)), "--v0", _f(rng.uniform(-0.1, 0.1))]
        run = ["--t-end", _f(ART_T_END)]
        self._add("trajectory.csv", ["simulate"] + FORCED + start + run)
        self._add("energy.csv", ["energy"] + FORCED + start + run)
        self._add(
            "transplant.csv",
            ["simulate"] + TRANSPLANT + ["--x0", _f(1.0 + rng.uniform(-0.1, 0.1)),
                                         "--t-end", _f(TRANSPLANT_T_END)],
        )
        self._add(
            "vzero.csv",
            ["poincare"] + FORCED + start + run + ["--section", "vzero", "--direction", "falling"],
        )

    # ------------------------------------------------------------ timed iteration

    def iterate(self):
        """Run every command once; return (wall seconds, {artifact: exit code}).

        The clock runs from the first cli.main call to the close of the last
        artifact, including the user-side post-processing of the scan.
        """
        codes = {}
        t0 = time.perf_counter()
        for artifact, argv in self.commands.items():
            codes[artifact] = cli.main(argv)
        if self.name == "scan" and codes["bifurcation.csv"] == 0:
            cluster_cells(self.path("bifurcation.csv"))
        wall = time.perf_counter() - t0
        return wall, codes

    # ------------------------------------------------------------ checks

    def check(self, artifact, path=None):
        """Problems found in one artifact of this workload (empty when it is correct)."""
        path = path or self.path(artifact)
        try:
            return CHECKS[artifact](path)
        except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            return [f"{artifact}: unreadable ({type(exc).__name__}: {exc})"]

    def digests(self):
        return {a: digest(self.path(a)) for a in self.commands}


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _csv_rows(path):
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# {"):
            raise ValueError("missing manifest line")
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def cluster_cells(path):
    """cluster_count of every bifurcation cell, as a user would post-process
    the sweep: {parameter value: clusters}; marker rows count as 0."""
    _, rows = _csv_rows(path)
    cells = OrderedDict()
    for param, x in rows:
        cells.setdefault(param, [])
        if x not in ("Diverged", "Empty"):
            cells[param].append((float(param), float(x)))
    return {p: chaoscan.cluster_count(np.array(pts)) if pts else 0 for p, pts in cells.items()}


def _check_map(path):
    header, rows = _csv_rows(path)
    problems = []
    if header != ["axis1", "axis2", "lambda", "status"] or len(rows) != 16:
        return [f"map: header {header} with {len(rows)} rows, expected 16"]
    zero = [r for r in rows if float(r[0]) == 0.0]
    if len(zero) != 4:
        problems.append(f"map: {len(zero)} cells at gamma = 0, expected 4")
    for g, a, lam, status in zero:
        if not abs(float(lam) + float(a) / 2.0) <= LAMBDA_TOL:
            problems.append(f"map: lambda({g}, alpha={a}) = {lam}, expected -alpha/2 +/- {LAMBDA_TOL}")
    if not any(r[3] == "chaotic" for r in rows):
        problems.append("map: no chaotic cell")
    return problems


def _check_edge(path):
    header, rows = _csv_rows(path)
    if header != ["axis1", "axis2", "lambda", "status"] or len(rows) != 4:
        return [f"edge: header {header} with {len(rows)} rows, expected 4"]
    problems = []
    for g, a, lam, status in rows:
        escaped = float(g) == EDGE_GAMMA_HI
        if escaped and not (status == "diverged" and math.isnan(float(lam))):
            problems.append(f"edge: cell gamma={g}, alpha={a} is {status} ({lam}), expected diverged")
        if not escaped and not (status != "diverged" and math.isfinite(float(lam))):
            problems.append(f"edge: cell gamma={g}, alpha={a} is {status} ({lam}), expected finite")
    return problems


def _check_bifurcation(path):
    _, rows = _csv_rows(path)
    params = list(OrderedDict.fromkeys(r[0] for r in rows))
    problems = []
    if len(params) != 6:
        problems.append(f"bifurcation: {len(params)} parameter values, expected 6")
    for p in params:
        xs = [r[1] for r in rows if r[0] == p]
        if xs in (["Diverged"], ["Empty"]):
            problems.append(f"bifurcation: cell {p} is {xs[0]}")
        elif not all(math.isfinite(float(x)) for x in xs):
            problems.append(f"bifurcation: non-finite section point in cell {p}")
    clusters = cluster_cells(path)
    if not all(c >= 1 for c in clusters.values()):
        problems.append(f"bifurcation: cells without clusters {clusters}")
    return problems


def _check_critical(path):
    with open(path) as fh:
        doc = json.load(fh)
    problems = []
    if not doc["lambda_lo"] < 0.0 < doc["lambda_hi"]:
        problems.append(
            f"critical: bracket exponents {doc['lambda_lo']}, {doc['lambda_hi']} do not change sign"
        )
    if not doc["hi"] - doc["lo"] <= CRIT_TOL:
        problems.append(f"critical: bracket width {doc['hi'] - doc['lo']} exceeds {CRIT_TOL}")
    if len(doc["probes"]) != 9:
        problems.append(f"critical: {len(doc['probes'])} probes, expected 9")
    return problems


def _check_rows(artifact, header_want, t_end, n_rows=None):
    def check(path):
        header, rows = _csv_rows(path)
        problems = []
        if header != header_want:
            problems.append(f"{artifact}: header {header}")
        if n_rows is not None and len(rows) != n_rows:
            problems.append(f"{artifact}: {len(rows)} rows, expected {n_rows}")
        if not rows:
            return problems + [f"{artifact}: no rows"]
        if t_end is not None and float(rows[-1][0]) != t_end:
            problems.append(f"{artifact}: ends at t = {rows[-1][0]}, expected {t_end}")
        if not all(math.isfinite(float(c)) for r in rows for c in r):
            problems.append(f"{artifact}: non-finite values")
        return problems

    return check


def _check_vzero(path):
    header, rows = _csv_rows(path)
    ts = [float(r[0]) for r in rows]
    problems = []
    if header != ["t", "x"] or not rows:
        problems.append(f"vzero: header {header} with {len(rows)} rows")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        problems.append("vzero: crossing times not increasing")
    return problems


_ART_ROWS = round(ART_T_END / ART_DT) + 1

CHECKS = {
    "map.csv": _check_map,
    "edge.csv": _check_edge,
    "bifurcation.csv": _check_bifurcation,
    "critical.json": _check_critical,
    "trajectory.csv": _check_rows("trajectory", ["t", "x", "v"], ART_T_END, _ART_ROWS),
    "energy.csv": _check_rows(
        "energy", ["t", "V", "V_dot_exact", "V_dot_paper", "V_reg", "E"], ART_T_END, _ART_ROWS
    ),
    "transplant.csv": _check_rows("transplant", ["t", "x", "v"], TRANSPLANT_T_END),
    "vzero.csv": _check_vzero,
}


# ---------------------------------------------------------------- corruption

def corrupt(wl, src, dst):
    """Write a damaged copy of the workload's first artifact that its
    content check must reject: the gamma = 0 exponent of the map, or the
    last row of the trajectory."""
    with open(src) as fh:
        text = fh.read()
    if wl.name == "scan":
        lines = text.splitlines(keepends=True)
        g, a, lam, status = lines[2].rstrip("\n").split(",")
        lines[2] = ",".join((g, a, "0.5", status)) + "\n"
        text = "".join(lines)
    else:
        text = "".join(text.splitlines(keepends=True)[:-1])
    with open(dst, "w") as fh:
        fh.write(text)
