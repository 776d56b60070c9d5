"""Artifact formats: manifest lines, CSV layouts, and bit-stable floats."""

import json
import math
import os
import stat
import threading

import numpy as np
import pytest

from chaoskit import (
    Axis,
    BifurcationDiagram,
    FORM_B,
    IntegratorConfig,
    LambdaMap,
    Params,
    PoincareSection,
    State,
    Stroboscopic,
    SystemSpec,
    Trajectory,
    VelocityZeroCrossing,
    bifurcation_sweep,
    energy_trace,
    integrate,
    lambda_map,
    lyapunov_variational,
    poincare,
)
from chaoskit.io import (
    FLOAT_FMT,
    ROWS_PER_BLOCK,
    Table,
    _write_table,
    classify_lambda,
    emit_plotdata,
    manifest_line,
    read_manifest,
    write_bifurcation_csv,
    write_energy_csv,
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


def test_float_format_round_trips_exactly(tmp_path):
    values = [1.0, math.pi, 1e-17, 2.0**-52, 6.25e-4, -45.0, 0.1 + 0.2]
    path = tmp_path / "values.dat"
    emit_plotdata(path, {"v": values}, {})
    assert [float(s) for s in path.read_text().splitlines()[1:]] == values


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
    assert classify_lambda(float("nan"), "failed") == "failed"


def test_emit_plotdata_writes_sidecar(tmp_path):
    path = tmp_path / "plot.dat"
    emit_plotdata(path, {"t": np.array([0.0, 1.0]), "x": np.array([1.0, 0.5])}, {"kind": "trajectory"})
    body = path.read_text().splitlines()
    assert body[0].lstrip("# ").split() == ["t", "x"]
    meta = json.loads((tmp_path / "plot.dat.meta.json").read_text())
    assert meta["columns"] == ["t", "x"]
    assert meta["kind"] == "trajectory"


# Golden texts: hand-built results and the exact bytes each writer owes them.
NAN, INF = float("nan"), float("inf")
SMALL = {"command": "test"}
HEAD = '# {"command":"test"}\n'


def test_trajectory_csv_golden_text(tmp_path):
    traj = Trajectory(
        LINEAR,
        np.array([0.0, 0.1, 0.2, 0.30000000000000004, 0.4]),
        np.array([NAN, INF, -INF, -0.0, 5e-324]),
        np.array([1.0, -2.5, 1e300, 1.0 / 3.0, 0.0]),
        "completed",
    )
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj, SMALL)
    assert path.read_bytes().decode() == (
        HEAD
        + "t,x,v\n"
        "0,nan,1\n"
        "0.10000000000000001,inf,-2.5\n"
        "0.20000000000000001,-inf,1.0000000000000001e+300\n"
        "0.30000000000000004,-0,0.33333333333333331\n"
        "0.40000000000000002,4.9406564584124654e-324,0\n"
    )


def test_energy_csv_golden_text(tmp_path):
    # the trace of a hand-built run: -0 from -0.5*v*v at v = 0, and a nan
    # sample that every functional carries
    traj = Trajectory(
        LINEAR,
        np.array([0.0, 0.5, 1.0]),
        np.array([1.0, -0.0, NAN]),
        np.array([0.0, 0.2, 1.0]),
        "completed",
    )
    path = tmp_path / "energy.csv"
    with np.errstate(invalid="ignore"):
        write_energy_csv(path, energy_trace(traj), SMALL)
    assert path.read_bytes().decode() == (
        HEAD
        + "t,V,V_dot_exact,V_dot_paper,V_reg,E\n"
        "0,0.5,0,-0,0.5,0\n"
        "0.5,0.020000000000000004,-0.020000000000000004,-0.020000000000000004,"
        "0.020000000000000004,0.12000000000000001\n"
        "1,nan,nan,nan,nan,nan\n"
    )


def test_bifurcation_csv_golden_text(tmp_path):
    diagram = BifurcationDiagram(
        FORCED,
        Axis("gamma", 0.25, 0.75, 3),
        np.array([0.25, 0.5, 0.75]),
        [np.array([]), np.array([]), np.array([0.1, -1.5])],
        ["diverged", "empty", "ok"],
    )
    path = tmp_path / "bif.csv"
    write_bifurcation_csv(path, diagram, SMALL)
    assert path.read_bytes().decode() == (
        HEAD
        + "param,x\n"
        "0.25,Diverged\n"
        "0.5,Empty\n"
        "0.75,0.10000000000000001\n"
        "0.75,-1.5\n"
    )


def test_bifurcation_points_are_the_text_np_char_mod_gave(tmp_path):
    # the writer formats each section point with % over Python floats;
    # np.char.mod, which it replaced, gave these strings
    rng = np.random.default_rng(26)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, INF, -INF, NAN]
    cell = np.concatenate([special, rng.standard_normal(100_000) * 10.0 ** rng.uniform(-320, 308, 100_000)])
    diagram = BifurcationDiagram(FORCED, Axis("gamma", 0.0, 1.0, 2), np.array([0.0, 1.0]),
                                 [cell, np.array([])], ["ok", "empty"])
    path = tmp_path / "bif.csv"
    write_bifurcation_csv(path, diagram, SMALL)
    written = [line.split(",")[1] for line in path.read_text().splitlines()[2:]]
    assert written == np.char.mod(FLOAT_FMT, cell).tolist() + ["Empty"]


def test_lambda_map_csv_golden_text(tmp_path):
    lmap = LambdaMap(
        LINEAR,
        Axis("alpha", 0.0, 0.5, 2),
        Axis("beta", 0.1, 0.2, 2),
        np.array([[-0.25, NAN], [0.005, 0.5]]),
        [["ok", "diverged"], ["ok", "ok"]],
        "variational",
    )
    path = tmp_path / "map.csv"
    write_lambda_map_csv(path, lmap, SMALL)
    assert path.read_bytes().decode() == (
        HEAD
        + "axis1,axis2,lambda,status\n"
        "0,0.10000000000000001,-0.25,stable\n"
        "0,0.20000000000000001,nan,diverged\n"
        "0.5,0.10000000000000001,0.0050000000000000001,indeterminate\n"
        "0.5,0.20000000000000001,0.5,chaotic\n"
    )


def test_empty_poincare_csv_is_header_only(tmp_path):
    section = PoincareSection(
        LINEAR, VelocityZeroCrossing(direction="any"), np.empty((0, 2)), 0.1, "empty", ("t", "x")
    )
    path = tmp_path / "section.csv"
    write_poincare_csv(path, section, SMALL)
    assert path.read_bytes().decode() == HEAD + "t,x\n"


def test_emit_plotdata_golden_text(tmp_path):
    path = tmp_path / "plot.dat"
    emit_plotdata(path, {"gamma": [0.0, 0.1], "lambda": np.array([-0.0, INF])}, {"command": "critical"})
    assert path.read_bytes().decode() == "# gamma lambda\n0 -0\n0.10000000000000001 inf\n"
    assert (tmp_path / "plot.dat.meta.json").read_bytes().decode() == (
        '{\n  "columns": [\n    "gamma",\n    "lambda"\n  ],\n  "command": "critical"\n}\n'
    )


def _per_row(head, columns, sep):
    """The table _write_table writes, one row at a time: floats as %.17g,
    anything else as its str."""
    cells = [[format(float(v), ".17g") if c.dtype.kind == "f" else str(v) for v in c]
             for c in columns.values()]
    return head + sep.join(columns) + "\n" + "".join(sep.join(r) + "\n" for r in zip(*cells))


def _table(rows, text):
    rng = np.random.default_rng(rows)
    a = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    a[: min(rows, 4)] = [math.nan, -math.inf, -0.0, 0.1][: min(rows, 4)]
    columns = {"t": np.linspace(0.0, 1.0, rows), "a": a, "b": rng.uniform(-1.0, 1.0, rows)}
    if text:
        columns["label"] = rng.choice(["ok", "Diverged", "Empty"], rows)
    return columns


@pytest.mark.parametrize("rows", [0, 1, 4 * ROWS_PER_BLOCK - 1, 4 * ROWS_PER_BLOCK,
                                  4 * ROWS_PER_BLOCK + 1, 8 * ROWS_PER_BLOCK + 1])
@pytest.mark.parametrize("text, sep", [(False, ","), (True, ","), (False, " ")])
def test_blocks_write_the_rows_a_row_at_a_time_would(tmp_path, rows, text, sep):
    assert FLOAT_FMT == "%.17g"
    columns = _table(rows, text)
    path = tmp_path / "table"
    _write_table(path, "# head\n", Table.of(columns), sep=sep)
    written = path.read_text().splitlines(keepends=True)
    expected = _per_row("# head\n", columns, sep).splitlines(keepends=True)
    # the first line that differs, not a diff of two long texts
    differs = next((i for i, pair in enumerate(zip(written, expected)) if pair[0] != pair[1]), None)
    assert (len(written), differs) == (len(expected), None)


class _Exploding:
    """A table cell whose text cannot be formatted: the disk is full."""

    def __str__(self):
        raise OSError(28, "No space left on device")


def _failing_table():
    # the label column fails at row 1500 of 3000, after five blocks of rows
    label = np.array(["ok"] * 3000, dtype=object)
    label[1500] = _Exploding()
    return {"t": np.linspace(0.0, 1.0, 3000), "label": label}


def test_a_write_that_fails_removes_its_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("an older artifact\n")
    with pytest.raises(OSError, match="No space left"):
        _write_table(path, "# head\n", Table.of(_failing_table()))
    assert not path.exists()
    # json.dump writes the manifest before it meets the value it cannot encode
    with pytest.raises(TypeError):
        write_json(path, {"x": _Exploding()}, MANIFEST)
    assert not path.exists()


def test_a_write_that_fails_leaves_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()))
    reader.start()
    try:
        with pytest.raises(OSError, match="No space left"):
            _write_table(fifo, "# head\n", Table.of(_failing_table()))
    finally:
        reader.join(30)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert received[0].startswith("# head\nt,label\n")
