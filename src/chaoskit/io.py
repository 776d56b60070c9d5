"""Artifact serialization.

Every CSV artifact starts with a single comment line holding the run
manifest as compact JSON; JSON artifacts embed the same manifest under the
top-level "manifest" key.  A manifest captures command, system, initial
state, integrator settings, and options, which is enough to re-run the
artifact byte-for-byte.  Floats are written with %.17g so values survive a
round trip through text.
"""

from __future__ import annotations

import json

import numpy as np

from .chaoscan import (
    CELL_DIVERGED,
    CELL_EMPTY,
    NOISE_FLOOR,
    BifurcationDiagram,
    CriticalSet,
    LambdaMap,
    PoincareSection,
)
from .analysis import EnergyTrace
from .integrate import Trajectory

FLOAT_FMT = "%.17g"


def fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


def manifest_line(manifest: dict) -> str:
    return "# " + json.dumps(manifest, sort_keys=True, separators=(",", ":"))


def read_manifest(path) -> dict:
    """Recover the embedded manifest from a CSV or JSON artifact."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(1)
        rest = fh.readline()
        if head == "#":
            return json.loads(rest.strip())
        payload = json.loads(head + rest + fh.read())
    return payload["manifest"]


def _write_csv(path, manifest, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(manifest_line(manifest) + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_trajectory_csv(path, traj: Trajectory, manifest: dict):
    _write_csv(
        path,
        manifest,
        "t,x,v",
        (
            (fmt(t), fmt(x), fmt(v))
            for t, x, v in zip(traj.t, traj.x, traj.v)
        ),
    )


def write_energy_csv(path, trace: EnergyTrace, manifest: dict):
    _write_csv(
        path,
        manifest,
        "t,V,V_dot_exact,V_dot_paper,V_reg,E",
        (
            tuple(fmt(c) for c in row)
            for row in zip(
                trace.t, trace.V, trace.V_dot_exact, trace.V_dot_paper, trace.V_reg, trace.E
            )
        ),
    )


def write_poincare_csv(path, section: PoincareSection, manifest: dict):
    _write_csv(
        path,
        manifest,
        ",".join(section.columns),
        ((fmt(a), fmt(b)) for a, b in section.points),
    )


def write_bifurcation_csv(path, diagram: BifurcationDiagram, manifest: dict):
    """One row per section point; cells without points keep an explicit
    marker row (Diverged/Empty) so every parameter value appears."""

    def rows():
        for val, cell, status in zip(diagram.values, diagram.cells, diagram.statuses):
            if status == CELL_DIVERGED:
                yield (fmt(val), "Diverged")
            elif status == CELL_EMPTY or len(cell) == 0:
                yield (fmt(val), "Empty")
            else:
                for x in cell:
                    yield (fmt(val), fmt(x))

    _write_csv(path, manifest, "param,x", rows())


def classify_lambda(lam: float, status: str) -> str:
    """Map an exponent to its report label using the noise floor."""
    if status == CELL_DIVERGED:
        return "diverged"
    if lam > NOISE_FLOOR:
        return "chaotic"
    if lam < -NOISE_FLOOR:
        return "stable"
    return "indeterminate"


def write_lambda_map_csv(path, lmap: LambdaMap, manifest: dict):
    """Row-major over (axis1, axis2); NaN marks diverged cells."""

    def rows():
        v1 = lmap.axis1.values()
        v2 = lmap.axis2.values()
        for i in range(lmap.axis1.steps):
            for j in range(lmap.axis2.steps):
                lam = lmap.lam[i, j]
                yield (
                    fmt(v1[i]),
                    fmt(v2[j]),
                    fmt(lam),
                    classify_lambda(lam, lmap.statuses[i][j]),
                )

    _write_csv(path, manifest, "axis1,axis2,lambda,status", rows())


def write_json(path, payload: dict, manifest: dict):
    doc = {"manifest": manifest}
    doc.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def critical_payload(crit: CriticalSet) -> dict:
    return {
        "axis": crit.axis,
        "boundary": crit.boundary,
        "lo": crit.lo,
        "hi": crit.hi,
        "lambda_lo": crit.lam_lo,
        "lambda_hi": crit.lam_hi,
        "tolerance": crit.tolerance,
        "estimator": crit.estimator,
        "probes": [[v, lam] for v, lam in crit.probes],
    }


def emit_plotdata(path, columns: dict, meta: dict):
    """Write a whitespace-separated data file gnuplot can plot directly,
    plus a .meta.json sidecar describing the columns."""
    names = list(columns)
    arrays = [np.asarray(columns[k], dtype=float) for k in names]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + " ".join(names) + "\n")
        if arrays:
            for row in zip(*arrays):
                fh.write(" ".join(fmt(c) for c in row) + "\n")
    sidecar = dict(meta)
    sidecar["columns"] = names
    with open(str(path) + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
