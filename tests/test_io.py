"""Artifact formats: manifest lines, CSV layouts, and bit-stable floats."""

import json
import math

import numpy as np

from chaoskit import (
    Axis,
    FORM_B,
    IntegratorConfig,
    Params,
    State,
    Stroboscopic,
    SystemSpec,
    VelocityZeroCrossing,
    bifurcation_sweep,
    integrate,
    lambda_map,
    lyapunov_variational,
    poincare,
)
from chaoskit.io import (
    classify_lambda,
    emit_plotdata,
    fmt,
    manifest_line,
    read_manifest,
    write_bifurcation_csv,
    write_json,
    write_lambda_map_csv,
    write_poincare_csv,
    write_trajectory_csv,
)

FORCED = SystemSpec(form=FORM_B, params=Params(alpha=0.1, beta=1.0, gamma=0.3, delta=0.5, omega=2.0))
LINEAR = SystemSpec(form=FORM_B, params=Params(alpha=0.5, beta=1.0))
CFG = IntegratorConfig(method="rk4", dt=1e-3, t_end=10.0)
INI = State(0.0, 1.0, 0.0)
MANIFEST = {"command": "simulate", "spec": json.loads(LINEAR.to_json()), "seed": None}


def test_float_format_round_trips_exactly():
    values = [1.0, math.pi, 1e-17, 2.0**-52, 6.25e-4, -45.0, 0.1 + 0.2]
    for v in values:
        assert float(fmt(v)) == v


def test_manifest_line_shape():
    line = manifest_line(MANIFEST)
    assert line.startswith("# {")
    doc = json.loads(line[2:])
    assert doc == MANIFEST
    assert line == manifest_line(dict(reversed(list(MANIFEST.items()))))  # key order canonical


def test_trajectory_csv_layout(tmp_path):
    traj = integrate(LINEAR, INI, CFG)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj, MANIFEST)
    lines = path.read_text().splitlines()
    assert read_manifest(path) == MANIFEST
    assert lines[1] == "t,x,v"
    assert len(lines) == 2 + len(traj.t)
    t, x, v = (float(s) for s in lines[2].split(","))
    assert (t, x, v) == (0.0, 1.0, 0.0)
    # floats survive the text round trip bit-for-bit
    last = lines[-1].split(",")
    assert float(last[1]) == traj.x[-1]


def test_json_embeds_manifest(tmp_path):
    est = lyapunov_variational(LINEAR, INI, IntegratorConfig(method="rk4", dt=1e-2, t_end=50.0))
    path = tmp_path / "lyap.json"
    write_json(path, est.to_dict(), MANIFEST)
    doc = json.loads(path.read_text())
    assert doc["manifest"] == MANIFEST
    assert doc["lambda"] == est.lam
    assert read_manifest(path) == MANIFEST


def test_poincare_csv_headers(tmp_path):
    strobo = poincare(FORCED, INI, CFG, Stroboscopic(period=math.pi), transient_fraction=0.0)
    vzero = poincare(LINEAR, INI, CFG, VelocityZeroCrossing(direction="any"), transient_fraction=0.0)
    p1, p2 = tmp_path / "s.csv", tmp_path / "z.csv"
    write_poincare_csv(p1, strobo, MANIFEST)
    write_poincare_csv(p2, vzero, MANIFEST)
    assert p1.read_text().splitlines()[1] == "x,v"
    assert p2.read_text().splitlines()[1] == "t,x"


def test_bifurcation_csv_marks_degenerate_cells(tmp_path):
    escaping = SystemSpec(form=FORM_B, params=Params(alpha=0.1, beta=1.0, gamma=1.0, delta=1.0, omega=1.0, n=3))
    diagram = bifurcation_sweep(
        escaping, Axis("alpha", 0.05, 0.2, 4), State(0.0, 6.0, 0.0),
        IntegratorConfig(method="rk4", dt=1e-3, t_end=40.0), VelocityZeroCrossing(direction="any"),
    )
    path = tmp_path / "bif.csv"
    write_bifurcation_csv(path, diagram, MANIFEST)
    lines = path.read_text().splitlines()
    assert lines[1] == "param,x"
    assert any(line.endswith(",Diverged") for line in lines[2:])


def test_lambda_map_csv_rows_and_labels(tmp_path):
    lmap = lambda_map(
        LINEAR, Axis("alpha", 0.3, 0.7, 2), Axis("beta", 0.8, 1.2, 2), INI,
        IntegratorConfig(method="rk4", dt=1e-2, t_end=60.0),
    )
    path = tmp_path / "map.csv"
    write_lambda_map_csv(path, lmap, MANIFEST)
    lines = path.read_text().splitlines()
    assert lines[1] == "axis1,axis2,lambda,status"
    assert len(lines) == 2 + 4  # row-major cells
    assert all(line.endswith(",stable") for line in lines[2:])


def test_classify_lambda_labels():
    assert classify_lambda(0.5, "ok") == "chaotic"
    assert classify_lambda(-0.5, "ok") == "stable"
    assert classify_lambda(0.001, "ok") == "indeterminate"
    assert classify_lambda(float("nan"), "diverged") == "diverged"


def test_emit_plotdata_writes_sidecar(tmp_path):
    path = tmp_path / "plot.dat"
    emit_plotdata(path, {"t": np.array([0.0, 1.0]), "x": np.array([1.0, 0.5])}, {"kind": "trajectory"})
    body = path.read_text().splitlines()
    assert body[0].lstrip("# ").split() == ["t", "x"]
    meta = json.loads((tmp_path / "plot.dat.meta.json").read_text())
    assert meta["columns"] == ["t", "x"]
    assert meta["kind"] == "trajectory"
