"""Artifact serialization.

Every CSV artifact starts with a single comment line holding the run
manifest as compact JSON; JSON artifacts embed the same manifest under the
top-level "manifest" key.  A manifest captures command, system, initial
state, integrator settings, and options, which is enough to re-run the
artifact byte-for-byte.  Floats are written with %.17g so values survive a
round trip through text.

Manifests, JSON artifacts and .meta.json sidecars are standard JSON (RFC
8259): a non-finite float in one raises ValueError instead of being written
as Infinity or NaN.  The critical artifact writes the exponent of an escaped
probe as null.

Tables are formatted and written a block of ROWS_PER_BLOCK rows at a time.
A writer whose write raises removes the regular file it truncated before
the error propagates, so a failed write leaves no artifact that looks whole;
a FIFO or device given as the path is left alone.
"""

from __future__ import annotations

import json
import math
import os
import stat
from contextlib import contextmanager, suppress
from itertools import chain

import numpy as np

from .chaoscan import (
    CELL_DIVERGED,
    CELL_EMPTY,
    CELL_OK,
    NOISE_FLOOR,
    BifurcationDiagram,
    CriticalSet,
    LambdaMap,
    PoincareSection,
)
from .analysis import EnergyTrace
from .integrate import Trajectory

FLOAT_FMT = "%.17g"
ROWS_PER_BLOCK = 1024


def manifest_line(manifest: dict) -> str:
    return "# " + json.dumps(manifest, sort_keys=True, separators=(",", ":"), allow_nan=False)


def read_manifest(path) -> dict:
    """Recover the embedded manifest from a CSV or JSON artifact."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(1)
        rest = fh.readline()
        if head == "#":
            return json.loads(rest.strip())
        payload = json.loads(head + rest + fh.read())
    return payload["manifest"]


@contextmanager
def _created(path):
    """open(path, "w") for an artifact; if the body or the close raises, a
    regular file at path is removed before the error propagates."""
    fh = open(path, "w", encoding="utf-8", newline="\n")
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    try:
        with fh:
            yield fh
    except BaseException:
        if regular:
            with suppress(OSError):
                os.remove(path)
        raise


def _write_table(path, head, columns: dict, sep=","):
    """Write head, the column names joined by sep, then one line per index
    of the equal-length array columns.  Every row follows one template:
    float columns as FLOAT_FMT, text columns (labels, markers) as %s.  A
    block of ROWS_PER_BLOCK rows is one % of the template repeated for the
    block over the block's values in row order, taken from Python lists
    (faster than numpy scalars, and the same text), and one write; a long
    table never holds more than one block as Python objects."""
    row = sep.join(FLOAT_FMT if c.dtype.kind == "f" else "%s" for c in columns.values()) + "\n"
    cols = list(columns.values())
    with _created(path) as fh:
        fh.write(head + sep.join(columns) + "\n")
        for i in range(0, max(map(len, cols)), ROWS_PER_BLOCK):
            block = [c[i : i + ROWS_PER_BLOCK].tolist() for c in cols]
            values = tuple(chain.from_iterable(zip(*block, strict=True)))
            fh.write(row * len(block[0]) % values)


def _csv_head(manifest):
    return manifest_line(manifest) + "\n"


# The column sets of the trajectory, energy and section files, shared by the
# CSV writers and the --plot-out files.


def trajectory_columns(traj: Trajectory) -> dict:
    return {"t": traj.t, "x": traj.x, "v": traj.v}


def energy_columns(trace: EnergyTrace) -> dict:
    names = ("t", "V", "V_dot_exact", "V_dot_paper", "V_reg", "E")
    return {name: getattr(trace, name) for name in names}


def poincare_columns(section: PoincareSection) -> dict:
    return dict(zip(section.columns, section.points.T))


def write_trajectory_csv(path, traj: Trajectory, manifest: dict):
    _write_table(path, _csv_head(manifest), trajectory_columns(traj))


def write_energy_csv(path, trace: EnergyTrace, manifest: dict):
    _write_table(path, _csv_head(manifest), energy_columns(trace))


def write_poincare_csv(path, section: PoincareSection, manifest: dict):
    _write_table(path, _csv_head(manifest), poincare_columns(section))


def write_bifurcation_csv(path, diagram: BifurcationDiagram, manifest: dict):
    """One row per section point; cells without points keep an explicit
    marker row (Diverged/Empty) so every parameter value appears.  The
    markers share the x column, so that column is written as text."""
    xs = [
        np.array(["Diverged"]) if status == CELL_DIVERGED
        else np.array(["Empty"]) if status == CELL_EMPTY or len(cell) == 0
        else np.char.mod(FLOAT_FMT, cell)
        for cell, status in zip(diagram.cells, diagram.statuses)
    ]
    param = np.repeat(diagram.values, [len(x) for x in xs])
    _write_table(path, _csv_head(manifest), {"param": param, "x": np.concatenate(xs)})


def classify_lambda(lam: float, status: str) -> str:
    """Map an exponent to its report label using the noise floor; a cell
    without an exponent (diverged, failed) is labeled by its status."""
    if status != CELL_OK:
        return status
    if lam > NOISE_FLOOR:
        return "chaotic"
    if lam < -NOISE_FLOOR:
        return "stable"
    return "indeterminate"


def write_lambda_map_csv(path, lmap: LambdaMap, manifest: dict):
    """Row-major over (axis1, axis2); NaN marks diverged and failed cells."""
    v1, v2 = np.meshgrid(lmap.axis1.values(), lmap.axis2.values(), indexing="ij")
    lam = lmap.lam.ravel()
    statuses = [status for row in lmap.statuses for status in row]
    columns = {
        "axis1": v1.ravel(),
        "axis2": v2.ravel(),
        "lambda": lam,
        "status": np.array([classify_lambda(*cell) for cell in zip(lam, statuses)]),
    }
    _write_table(path, _csv_head(manifest), columns)


def _write_document(path, doc: dict):
    with _created(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_json(path, payload: dict, manifest: dict):
    _write_document(path, {"manifest": manifest, **payload})


def critical_payload(crit: CriticalSet) -> dict:
    """The critical artifact's fields; an escaped probe's exponent, inf in
    the CriticalSet, is written as null."""

    def lam(value):
        return value if math.isfinite(value) else None

    return {
        "axis": crit.axis,
        "boundary": crit.boundary,
        "lo": crit.lo,
        "hi": crit.hi,
        "lambda_lo": lam(crit.lam_lo),
        "lambda_hi": lam(crit.lam_hi),
        "tolerance": crit.tolerance,
        "estimator": crit.estimator,
        "probes": [[v, lam(value)] for v, value in crit.probes],
    }


def emit_plotdata(path, columns: dict, meta: dict):
    """Write a whitespace-separated data file gnuplot can plot directly,
    plus a .meta.json sidecar describing the columns."""
    _write_table(path, "# ", {k: np.asarray(c, dtype=float) for k, c in columns.items()}, sep=" ")
    _write_document(str(path) + ".meta.json", {**meta, "columns": list(columns)})
