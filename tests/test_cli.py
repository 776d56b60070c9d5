"""Command-line front end: artifacts, exit codes, and manifest reruns."""

import hashlib
import json

import pytest

from chaoskit.cli import main, rerun
from chaoskit.io import read_manifest


LINEAR = ["--form", "B", "--alpha", "0.5", "--beta", "1"]
FORCED = ["--form", "B", "--alpha", "0.1", "--beta", "1", "--gamma", "0.3", "--delta", "0.5",
          "--omega", "2"]
# a linear Mathieu cell, parametrically resonant at omega = 2: lambda is about
# -0.1 at gamma = 0 and changes sign below gamma = 0.5
MATHIEU = ["--form", "B", "--alpha", "0.2", "--beta", "1", "--delta", "1", "--omega", "2",
           "--n", "1"]

# a tiny run of every subcommand, with the columns its --plot-out file holds
EVERY_COMMAND = {
    "simulate": (["simulate", *LINEAR, "--t-end", "1", "--dt", "1e-2"], ["t", "x", "v"]),
    "energy": (["energy", *LINEAR, "--t-end", "1", "--dt", "1e-2"],
               ["t", "V", "V_dot_exact", "V_dot_paper", "V_reg", "E"]),
    "lyapunov": (["lyapunov", *LINEAR, "--t-end", "2", "--dt", "1e-2"], ["t", "lambda_running"]),
    "hopf": (["hopf", *LINEAR, "--axis", "alpha", "--lo", "-1", "--hi", "1", "--steps", "5"],
             ["crossing"]),
    "poincare": (["poincare", "--section", "vzero", *LINEAR, "--t-end", "10", "--dt", "1e-2"],
                 ["t", "x"]),
    "bifurcation": (["bifurcation", "--section", "strobo", "--axis", "gamma", "--lo", "0",
                     "--hi", "1", "--steps", "2", *FORCED, "--t-end", "10", "--dt", "1e-2"],
                    ["gamma", "x"]),
    "map": (["map", "--axis1", "alpha", "--lo1", "0.3", "--hi1", "0.7", "--steps1", "2",
             "--axis2", "beta", "--lo2", "0.8", "--hi2", "1.2", "--steps2", "2", *LINEAR,
             "--t-end", "2", "--dt", "1e-2"],
            ["alpha", "beta", "lambda"]),
    "critical": (["critical", "--axis", "gamma", "--lo", "0", "--hi", "2", "--tol", "0.5",
                  *MATHIEU, "--t-end", "20", "--dt", "1e-2"],
                 ["gamma", "lambda"]),
}


def run(args):
    return main(args)


def _without_manifest(path):
    text = path.read_text()
    if text.startswith("#"):
        return text.split("\n", 1)[1]
    doc = json.loads(text)
    del doc["manifest"]
    return doc


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--form", "B", "--alpha", "0.5", "--beta", "1", "--t-end", "10",
                "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "t,x,v"
    manifest = read_manifest(out)
    assert manifest["command"] == "simulate"
    assert manifest["spec"]["params"]["alpha"] == 0.5


def test_repeat_invocations_are_byte_identical(tmp_path):
    args = ["simulate", "--form", "B", "--alpha", "0.3", "--beta", "1.2", "--gamma", "0.4",
            "--delta", "0.6", "--omega", "2", "--n", "3", "--t-end", "20", "--dt", "1e-3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", list(EVERY_COMMAND))
def test_rerun_from_manifest_reproduces_bytes(tmp_path, command):
    out, plot = tmp_path / "first", tmp_path / "first.dat"
    assert run(EVERY_COMMAND[command][0] + ["--out", str(out), "--plot-out", str(plot)]) == 0
    again, again_plot = tmp_path / "again", tmp_path / "again.dat"
    rerun(read_manifest(out), str(again), str(again_plot))
    assert out.read_bytes() == again.read_bytes()
    assert plot.read_bytes() == again_plot.read_bytes()


# the integrator settings the fixed rk4 grid never read
GRID_IGNORED = {"method": "rk4", "abs_tol": 1e-9, "rel_tol": 1e-9, "sample_every": 97}


@pytest.mark.parametrize("command", ["simulate", "hopf", "poincare", "map"])
def test_rerun_keeps_dropped_manifest_fields(tmp_path, command):
    # manifests once carried "seed": null and the unread params.p, hopf
    # manifests the run settings it never read, and grid-command manifests
    # the method, tolerances and sampling; artifacts holding them still
    # rerun to the same bytes
    out = tmp_path / "new"
    assert run(EVERY_COMMAND[command][0] + ["--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert "seed" not in manifest and "p" not in manifest["spec"]["params"]
    old_spec = dict(manifest["spec"], params=dict(manifest["spec"]["params"], p=2.0))
    old_manifest = dict(manifest, seed=None, spec=old_spec)
    if command == "hopf":
        assert "initial" not in manifest and "integrator" not in manifest
        old_manifest["initial"] = {"t": 0.0, "x": 1.0, "v": 0.0}
        old_manifest["integrator"] = {"method": "rk4", "dt": 1e-3, "t_end": 100.0}
    elif command != "simulate":
        assert set(manifest["integrator"]) == {"dt", "t_end", "blowup_threshold"}
        old_manifest["integrator"] = dict(manifest["integrator"], **GRID_IGNORED)
    old, again = tmp_path / "old", tmp_path / "again"
    rerun(old_manifest, str(old))
    rerun(str(old), str(again))
    assert read_manifest(old) == old_manifest
    assert old.read_bytes() == again.read_bytes()
    # the old fields change nothing but the manifest
    assert _without_manifest(old) == _without_manifest(out)


def test_simulate_diverged_is_still_success(tmp_path):
    out = tmp_path / "esc.csv"
    code = run(["simulate", "--form", "B", "--alpha", "0.1", "--beta", "1", "--gamma", "1",
                "--delta", "1", "--omega", "1", "--n", "3", "--x0", "6", "--t-end", "50",
                "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    assert read_manifest(out)["spec"]["params"]["n"] == 3


def test_escaping_rkf45_run_is_a_step_failure(tmp_path, capsys):
    # an adaptive stage reaches inf on the first step; the step is rejected
    # before the fallback's math.sin sees it, and the step size runs out at t0
    out = tmp_path / "esc.csv"
    code = run(["simulate", "--form", "A1", "--alpha", "0.1", "--beta", "0.6", "--g", "Cubic",
                "--g-k", "-3", "--method", "rkf45", "--dt", "0.05", "--t0", "1", "--x0", "3e7",
                "--t-end", "30", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[1:] == ["t,x,v", "1,30000000,0"]


# an RK4 stage position of this A1 run reaches inf between two checks; the
# forcing sin(omega*x) of it is nan, so the run diverges at t = 1.15
ESCAPING_A1 = ["--form", "A1", "--alpha", "0.1", "--beta", "0.6", "--delta", "0.35", "--omega",
               "2.5", "--g", "Cubic", "--g-k", "-3", "--dt", "0.05", "--t0", "1", "--x0", "3",
               "--t-end", "10", "--blowup-threshold", "1e150"]


@pytest.mark.parametrize("command", [["simulate"], ["poincare", "--section", "vzero"]],
                         ids=["simulate", "poincare"])
def test_escaping_a_form_run_is_diverged(tmp_path, capsys, command):
    out, plot = tmp_path / "esc.csv", tmp_path / "esc.dat"
    assert run(command + ESCAPING_A1 + ["--out", str(out), "--plot-out", str(plot)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "esc.dat.meta.json").read_text())["status"] == "diverged"


def test_escaping_a_form_exponent_exits_two(tmp_path, capsys):
    assert run(["lyapunov", *ESCAPING_A1, "--out", str(tmp_path / "lyap.json")]) == 2
    assert capsys.readouterr().err == "error: trajectory diverged at t = 1.15\n"


def test_escaping_a_form_map_has_diverged_cells(tmp_path):
    out = tmp_path / "map.csv"
    code = run(["map", *ESCAPING_A1, "--axis1", "alpha", "--lo1", "0.1", "--hi1", "0.2",
                "--steps1", "2", "--axis2", "delta", "--lo2", "0.35", "--hi2", "0.45",
                "--steps2", "2", "--out", str(out)])
    assert code == 0
    assert [line.split(",")[3] for line in out.read_text().splitlines()[2:]] == ["diverged"] * 4


# x**5 of this form-B run overflows a Python float before |x| passes the
# threshold, so the fallback reruns its kernels on the float64 vector; numpy
# warnings raised in package code fail the suite, so these runs show that
# the rerun prints none
OVERFLOWING_B = ["--form", "B", "--alpha", "0", "--beta", "0", "--gamma", "1", "--delta", "1",
                 "--omega", "1", "--n", "5", "--t0", "1", "--x0", "2", "--v0", "1",
                 "--blowup-threshold", "1e150", "--dt", "1e-2", "--t-end", "50"]


def test_overflow_rerun_prints_no_warning(tmp_path, capsys):
    out, plot = tmp_path / "esc.csv", tmp_path / "esc.dat"
    assert run(["simulate", *OVERFLOWING_B, "--out", str(out), "--plot-out", str(plot)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "esc.dat.meta.json").read_text())["status"] == "diverged"


def test_overflow_rerun_map_prints_no_warning(tmp_path, capsys):
    out = tmp_path / "map.csv"
    code = run(["map", *OVERFLOWING_B, "--axis1", "delta", "--lo1", "0.5", "--hi1", "1",
                "--steps1", "2", "--axis2", "omega", "--lo2", "1", "--hi2", "2", "--steps2", "2",
                "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert [line.split(",")[3] for line in out.read_text().splitlines()[2:]] == ["diverged"] * 4


# x0**100 of this form-B run overflows a Python float at the start state
# itself; a rerun that kept the start state as Python floats raised there
# again and ended each of these in a traceback
START_OVERFLOWING_B = ["--form", "B", "--alpha", "0.1", "--beta", "1", "--gamma", "1", "--delta",
                       "1", "--omega", "2", "--n", "100", "--x0", "1e4", "--t-end", "1", "--dt",
                       "1e-2"]


def test_start_overflow_is_diverged_at_the_first_step(tmp_path, capsys):
    out, plot = tmp_path / "esc.csv", tmp_path / "esc.dat"
    assert run(["simulate", *START_OVERFLOWING_B, "--out", str(out), "--plot-out", str(plot)]) == 0
    assert json.loads((tmp_path / "esc.dat.meta.json").read_text())["status"] == "diverged"
    lmap = tmp_path / "map.csv"
    code = run(["map", *START_OVERFLOWING_B, "--axis1", "delta", "--lo1", "0.5", "--hi1", "1",
                "--steps1", "2", "--axis2", "omega", "--lo2", "1", "--hi2", "2", "--steps2", "2",
                "--out", str(lmap)])
    assert code == 0
    assert [line.split(",")[3] for line in lmap.read_text().splitlines()[2:]] == ["diverged"] * 4
    assert capsys.readouterr().err == ""
    assert run(["lyapunov", *START_OVERFLOWING_B, "--out", str(tmp_path / "lyap.json")]) == 2
    assert capsys.readouterr().err == "error: trajectory diverged at t = 0.01\n"


def test_a_run_too_long_to_allocate_is_one_error_line(tmp_path, capsys):
    # 7 PiB of samples exceed any address space, so nothing is allocated
    out = tmp_path / "long.csv"
    code = run(["simulate", *LINEAR, "--t-end", "1e12", "--dt", "1e-3", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
    assert not out.exists()


# the tangent vector of this A1 run overflows at gamma = 1 (t = 1.57) and
# stays finite at gamma = 0
OVERFLOWING_TANGENT = ["--form", "A1", "--alpha", "0.1", "--g", "Sine", "--g-k", "1000",
                       "--g-w", "10", "--t0", "1", "--x0", "0.3", "--dt", "1e-2", "--t-end", "5"]


def test_map_cell_whose_estimate_fails_is_failed(tmp_path, capsys):
    out = tmp_path / "map.csv"
    code = run(["map", *OVERFLOWING_TANGENT, "--axis1", "gamma", "--lo1", "0", "--hi1", "1",
                "--steps1", "2", "--axis2", "alpha", "--lo2", "0.1", "--hi2", "0.2",
                "--steps2", "2", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [(row[0], row[3]) for row in rows] == [("0", "stable")] * 2 + [("1", "failed")] * 2
    assert [float(row[2]) for row in rows[:2]] == pytest.approx([-0.632, -1.100], abs=1e-3)
    assert [row[2] for row in rows[2:]] == ["nan", "nan"]


def test_critical_probe_whose_estimate_fails_exits_two(tmp_path, capsys):
    # a probe without an exponent has no sign to bisect on
    out = tmp_path / "crit.json"
    code = run(["critical", *OVERFLOWING_TANGENT, "--axis", "gamma", "--lo", "0", "--hi", "1",
                "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: tangent vector overflowed at t = 1.57\n"
    assert not out.exists()


def test_collapsed_tangent_vector_exits_two(tmp_path, capsys):
    out = tmp_path / "lyap.json"
    code = run(["lyapunov", "--form", "A2", "--alpha", "0.1", "--g", "Sine", "--g-k", "1e5",
                "--g-w", "10", "--t0", "1", "--x0", "0.3", "--dt", "1e-2", "--t-end", "5",
                "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: tangent vector collapsed to exactly zero; it cannot be renormalized\n"
    )


@pytest.mark.parametrize(
    "args, key",
    [
        (["simulate", "--form", "B", "--alpha", "nan", "--beta", "1"], "params key 'alpha'"),
        (["simulate", *LINEAR, "--epsilon", "Constant", "--epsilon-c", "nan"],
         "Constant regularization key 'value'"),
        (["map", *LINEAR, "--axis1", "alpha", "--lo1=-inf", "--hi1", "1", "--axis2", "beta",
          "--lo2", "0", "--hi2", "1"], "axis 'alpha'"),
        (["hopf", *LINEAR, "--axis", "alpha", "--lo", "0", "--hi", "inf"], "axis 'alpha'"),
        (["simulate", *LINEAR, "--t-end", "inf"], "t_end"),
        (["lyapunov", *LINEAR, "--renorm-interval", "inf"], "argument --renorm-interval"),
        (["lyapunov", *LINEAR, "--renorm-interval", "0"], "argument --renorm-interval"),
        ([*EVERY_COMMAND["map"][0], "--renorm-interval", "nan"], "argument --renorm-interval"),
        ([*EVERY_COMMAND["critical"][0], "--renorm-interval", "inf"], "argument --renorm-interval"),
        (["poincare", "--section", "strobo", "--period", "inf", *FORCED], "argument --period"),
        (["poincare", "--section", "strobo", "--phase", "inf", *FORCED], "argument --phase"),
        (["hopf", "--form", "A1", "--alpha", "0.5", "--beta", "1", "--axis", "alpha", "--lo", "-1",
          "--hi", "1", "--at-time", "inf"], "argument --at-time"),
        ([*EVERY_COMMAND["hopf"][0], "--at-time", "nan"], "argument --at-time"),
        (["simulate", *LINEAR, "--t0", "nan"], "argument --t0"),
        (["simulate", *LINEAR, "--x0", "inf"], "argument --x0"),
        (["poincare", "--section", "vzero", *LINEAR, "--v0=-inf"], "argument --v0"),
        (["lyapunov", *LINEAR, "--tangent0", "inf", "0"], "argument --tangent0"),
        (["lyapunov", *LINEAR, "--tangent0", "0", "nan"], "argument --tangent0"),
    ],
    ids=["nan-param", "nan-preset", "infinite-map-axis", "infinite-hopf-axis", "infinite-t-end",
         "infinite-renorm-interval", "zero-renorm-interval", "nan-map-renorm-interval",
         "infinite-critical-renorm-interval", "infinite-period", "infinite-phase",
         "infinite-at-time", "nan-at-time", "nan-t0", "infinite-x0", "infinite-v0",
         "infinite-tangent0", "nan-tangent0"],
)
def test_non_finite_input_exits_one(tmp_path, capsys, args, key):
    # each of these once ran (or died with a traceback) instead of being refused:
    # an infinite renorm interval or phase overflowed int(), an infinite period
    # wrote Infinity into the manifest, an infinite --at-time, --t0, --x0 or
    # --v0 was named "state field t" (or x, v), and a non-finite --tangent0
    # was reported as a tangent overflow at the first step
    run_flags = [] if args[0] == "hopf" or "--t-end" in args else ["--t-end", "1", "--dt", "0.1"]
    out = tmp_path / "x.out"
    assert run(args + run_flags + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and key in err[0]
    assert not out.exists()


def test_times_too_large_for_dt_exit_one(tmp_path, capsys):
    # floats near 1e17 lie 16 apart; this run once ended in an IndexError
    # from the stroboscopic event buffer
    out = tmp_path / "p.csv"
    code = run(["poincare", "--section", "strobo", "--period", "3.141592653589793", "--form", "B",
                "--alpha", "0.5", "--beta", "1", "--gamma", "0.3", "--delta", "0.5", "--omega",
                "2", "--t0", "1e17", "--t-end", "100000000000001600", "--dt", "1",
                "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert all(flag in err[0] for flag in ("--t0", "--t-end", "--dt"))
    assert not out.exists()


def test_energy_csv(tmp_path):
    out = tmp_path / "energy.csv"
    code = run(["energy", "--form", "B", "--alpha", "0.5", "--beta", "1", "--t-end", "10",
                "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[1] == "t,V,V_dot_exact,V_dot_paper,V_reg,E"


def test_energy_on_escaping_cell_is_a_runtime_failure(tmp_path, capsys):
    out = tmp_path / "energy.csv"
    code = run(["energy", "--form", "B", "--alpha", "0.1", "--beta", "1", "--gamma", "1",
                "--delta", "1", "--omega", "1", "--n", "3", "--x0", "6", "--t-end", "50",
                "--dt", "1e-3", "--out", str(out)])
    assert code == 2


def test_lyapunov_json_payload(tmp_path):
    out = tmp_path / "lyap.json"
    code = run(["lyapunov", "--form", "B", "--alpha", "0.5", "--beta", "1", "--t-end", "200",
                "--dt", "1e-2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "variational"
    assert doc["lambda"] == pytest.approx(-0.25, abs=5e-3)
    assert doc["manifest"]["command"] == "lyapunov"
    assert doc["convergence"][-1][1] == doc["lambda"]


def test_lyapunov_two_trajectory_flag(tmp_path):
    out = tmp_path / "lyap2.json"
    code = run(["lyapunov", "--estimator", "two_trajectory", "--d0", "1e-9", "--form", "B",
                "--alpha", "0.5", "--beta", "1", "--t-end", "200", "--dt", "1e-2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "two_trajectory"
    assert doc["lambda"] == pytest.approx(-0.25, abs=5e-3)


def test_hopf_crossing_json(tmp_path):
    out = tmp_path / "hopf.json"
    code = run(["hopf", "--form", "B", "--alpha", "0.5", "--beta", "1", "--axis", "alpha",
                "--lo", "-1", "--hi", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["crossings"]) == 1
    assert abs(doc["crossings"][0]) <= 1e-6


@pytest.mark.parametrize("argv", [
    # beta_eff = 0, so the eigenvalues are 0 and -alpha_eff: the leading real
    # part is positive for alpha < 0 and 0 for alpha >= 0
    ["--form", "A1", "--alpha", "0.5", "--beta", "1", "--axis", "alpha", "--lo", "-1", "--hi", "1"],
    # alpha_eff = 0: the leading real part is sqrt(-beta) > 0 for beta < 0, else 0
    ["--form", "B", "--alpha", "0", "--beta", "0", "--axis", "beta", "--lo", "-1", "--hi", "1"],
], ids=["A1-alpha", "B-beta"])
def test_hopf_counts_no_crossing_at_a_zero_without_a_sign_change(tmp_path, argv):
    # both wrote the 21 grid values where the leading real part is 0 as crossings
    out = tmp_path / "hopf.json"
    assert run(["hopf", *argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["crossings"] == []


def test_poincare_default_period_from_omega(tmp_path):
    out = tmp_path / "sec.csv"
    code = run(["poincare", "--section", "strobo", "--form", "B", "--alpha", "0.1", "--beta", "1",
                "--gamma", "0.3", "--delta", "0.5", "--omega", "2", "--t-end", "40",
                "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    manifest = read_manifest(out)
    assert manifest["options"]["period"] == pytest.approx(3.141592653589793, abs=0)
    assert out.read_text().splitlines()[1] == "x,v"


def test_poincare_strobo_without_forcing_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "sec.csv"
    code = run(["poincare", "--section", "strobo", "--form", "B", "--alpha", "0.5", "--beta", "1",
                "--t-end", "40", "--dt", "1e-3", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err != ""


def test_poincare_vzero(tmp_path):
    out = tmp_path / "vz.csv"
    code = run(["poincare", "--section", "vzero", "--direction", "falling", "--form", "B",
                "--alpha", "0.5", "--beta", "1", "--t-end", "40", "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[1] == "t,x"


def test_bifurcation_csv(tmp_path):
    out = tmp_path / "bif.csv"
    code = run(["bifurcation", "--axis", "gamma", "--lo", "0", "--hi", "1", "--steps", "5",
                "--section", "strobo", "--form", "B", "--alpha", "0.1", "--beta", "1",
                "--gamma", "0.3", "--delta", "0.5", "--omega", "2", "--t-end", "40",
                "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "param,x"
    assert len(lines) > 2


def test_map_csv(tmp_path):
    out = tmp_path / "map.csv"
    code = run(["map", "--axis1", "alpha", "--lo1", "0.3", "--hi1", "0.7", "--steps1", "2",
                "--axis2", "beta", "--lo2", "0.8", "--hi2", "1.2", "--steps2", "2",
                "--form", "B", "--alpha", "0.5", "--beta", "1", "--t-end", "60",
                "--dt", "1e-2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "axis1,axis2,lambda,status"
    assert len(lines) == 6


def test_critical_json(tmp_path):
    out = tmp_path / "crit.json"
    code = run(["critical", "--axis", "gamma", "--lo", "0", "--hi", "1", "--tol", "1e-2",
                "--form", "B", "--alpha", "0.4", "--beta", "64", "--gamma", "1",
                "--delta", "0.00390625", "--omega", "16", "--n", "3",
                "--epsilon", "Constant", "--epsilon-c", "2048",
                "--x0", "-32", "--v0", "0", "--t-end", "45", "--dt", "6.25e-4", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert 0.0 < doc["boundary"] < 1.0
    assert doc["lambda_lo"] < 0.0 < doc["lambda_hi"]
    assert doc["hi"] - doc["lo"] <= 1e-2 + 1e-12


def test_validation_failure_exits_one(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run(["simulate", "--form", "B", "--alpha", "-1", "--beta", "1", "--out", str(out)])
    assert code == 1
    assert "alpha" in capsys.readouterr().err
    assert not out.exists()


def test_usage_failure_exits_one(tmp_path):
    assert run(["simulate", "--no-such-flag", "--out", str(tmp_path / "x.csv")]) == 1
    assert run(["simulate", "--form", "B"]) == 1  # missing --out
    assert run([]) == 1
    # hopf takes no run flags, and no command takes --seed
    assert run(EVERY_COMMAND["hopf"][0] + ["--dt", "1e-3", "--out", str(tmp_path / "h.json")]) == 1
    assert run(EVERY_COMMAND["simulate"][0] + ["--seed", "1", "--out", str(tmp_path / "s.csv")]) == 1
    # the grid commands take no method, tolerance or sampling flag
    for command in ("lyapunov", "poincare", "bifurcation", "map", "critical"):
        for flag, value in (("--method", "rk4"), ("--abs-tol", "1e-6"), ("--rel-tol", "1e-6"),
                            ("--sample-every", "97")):
            out = tmp_path / f"{command}{flag}"
            assert run(EVERY_COMMAND[command][0] + [flag, value, "--out", str(out)]) == 1
            assert not out.exists()


def test_map_through_a_singular_start_exits_one(tmp_path, capsys):
    # the q = 1 row starts on the 1/t^q singularity at t0 = 0: the run is
    # refused, not reported as diverged cells
    out = tmp_path / "map.csv"
    code = run(["map", "--form", "A1", "--alpha", "0.5", "--beta", "1", "--t0", "0",
                "--axis1", "q", "--lo1", "0", "--hi1", "1", "--steps1", "2",
                "--axis2", "alpha", "--lo2", "0.4", "--hi2", "0.5", "--steps2", "2",
                "--t-end", "2", "--dt", "1e-2", "--out", str(out)])
    assert code == 1
    assert "singular" in capsys.readouterr().err
    assert not out.exists()


INERT_AXES = {
    "q on form B": (["map", *FORCED, "--t-end", "2", "--dt", "1e-2",
                     "--axis1", "q", "--lo1", "0", "--hi1", "1", "--steps1", "2",
                     "--axis2", "alpha", "--lo2", "0.1", "--hi2", "0.2", "--steps2", "2"],
                    "axis 'q' is inert: form B does not use it"),
    "n on form A1": (["map", "--form", "A1", "--alpha", "0.1", "--beta", "1", "--g", "Linear",
                      "--t0", "1", "--t-end", "2", "--dt", "1e-2",
                      "--axis1", "n", "--lo1", "1", "--hi1", "2", "--steps1", "2",
                      "--axis2", "alpha", "--lo2", "0.1", "--hi2", "0.2", "--steps2", "2"],
                     "axis 'n' is inert: form A1 does not use it"),
    "gamma on B without forcing": (
        ["bifurcation", *LINEAR, "--section", "vzero", "--t-end", "2", "--dt", "1e-2",
         "--axis", "gamma", "--lo", "0", "--hi", "1", "--steps", "2"],
        "axis 'gamma' is inert: on form B it enters only multiplied by delta, and delta = 0"),
    "omega on B without forcing": (
        ["critical", *LINEAR, "--t-end", "2", "--dt", "1e-2", "--axis", "omega", "--lo", "1",
         "--hi", "2"],
        "axis 'omega' is inert: on form B it enters only multiplied by gamma * delta, "
        "and gamma = 0"),
    "q on A1 without damping or coupling": (
        ["map", "--form", "A1", "--alpha", "0", "--beta", "0", "--gamma", "0.3", "--delta", "0.35",
         "--omega", "2.5", "--g", "Linear", "--t0", "1", "--t-end", "3", "--dt", "1e-2",
         "--axis1", "q", "--lo1", "0", "--hi1", "1", "--steps1", "2",
         "--axis2", "gamma", "--lo2", "0.2", "--hi2", "0.4", "--steps2", "2"],
        "axis 'q' is inert: on form A1 it enters only multiplied by alpha or by beta * g, "
        "and alpha = 0 and beta = 0"),
    "beta on A1 with a Sine of w = 0": (
        ["map", "--form", "A1", "--alpha", "0.1", "--beta", "1", "--gamma", "0.3", "--delta", "0.35",
         "--omega", "2.5", "--g", "Sine", "--g-k", "1", "--g-w", "0", "--t0", "1", "--t-end", "3",
         "--dt", "1e-2", "--axis1", "beta", "--lo1", "0", "--hi1", "1", "--steps1", "2",
         "--axis2", "alpha", "--lo2", "0.2", "--hi2", "0.4", "--steps2", "2"],
        "axis 'beta' is inert: on form A1 it enters only multiplied by g, and g = 0"),
    # hopf wrote no crossing for B and every grid value as a crossing for A1
    "q on form B in hopf": (
        ["hopf", *LINEAR, "--axis", "q", "--lo", "0", "--hi", "1"],
        "axis 'q' is inert: alpha_eff = 0.5 and beta_eff = 1 at every value in [0, 1] (at_time 1)"),
    "q on form A1 in hopf at t = 1, where t^q = 1": (
        ["hopf", "--form", "A1", "--alpha", "0.5", "--beta", "1", "--g", "Linear",
         "--axis", "q", "--lo", "0", "--hi", "1"],
        "axis 'q' is inert: alpha_eff = 1.5 and beta_eff = 1 at every value in [0, 1] (at_time 1)"),
}


@pytest.mark.parametrize("case", INERT_AXES)
def test_a_scan_over_an_inert_axis_exits_one(tmp_path, capsys, case):
    # the q case wrote two identical rows for q = 0 and q = 1
    argv, message = INERT_AXES[case]
    out = tmp_path / "scan.out"
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_hopf_scan_over_a_live_axis_keeps_its_bytes(tmp_path):
    # alpha_eff = (alpha + beta) / t^q + gamma, frozen at t = 2, vanishes at q = 1
    out, plot = tmp_path / "hopf.json", tmp_path / "hopf.dat"
    assert run(["hopf", "--form", "A2", "--alpha", "0.5", "--beta", "0.5", "--gamma", "-0.5",
                "--g", "Linear", "--axis", "q", "--lo", "0", "--hi", "2", "--at-time", "2",
                "--out", str(out), "--plot-out", str(plot)]) == 0
    assert json.loads(out.read_text())["crossings"] == [1.0]
    # the bytes hopf wrote for this run before it checked its axis
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, plot)]
    assert digests == [
        "5b287c44a290c789f8059ee976c602120053d2976a474fef6d07d3bb5dda3913",
        "85aca0d19cb57ae1524f75be6281d0288d8b2fdee028d76191a4d1980e479e94",
    ]


def test_an_axis_whose_factor_is_scanned_is_live(tmp_path):
    # gamma multiplies delta, which is 0 on LINEAR but scanned on the other axis
    out = tmp_path / "map.csv"
    assert run(["map", *LINEAR, "--t-end", "1", "--dt", "1e-2",
                "--axis1", "gamma", "--lo1", "0", "--hi1", "1", "--steps1", "2",
                "--axis2", "delta", "--lo2", "0", "--hi2", "1", "--steps2", "2",
                "--out", str(out)]) == 0
    lam = [line.split(",")[2] for line in out.read_text().splitlines()[2:]]
    assert lam[0] == lam[2] and lam[1] != lam[3]  # gamma is inert only where delta = 0


def test_spec_json_conflicts_with_inline_flags(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"form": "B", "params": {"alpha": 0.5, "beta": 1.0}}))
    out = tmp_path / "x.csv"
    code = run(["simulate", "--spec-json", str(spec_file), "--alpha", "0.7", "--out", str(out)])
    assert code == 1
    ok = run(["simulate", "--spec-json", str(spec_file), "--t-end", "5", "--out", str(out)])
    assert ok == 0


def test_spec_file_with_fractional_n_exits_one(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"form": "B", "params": {"alpha": 0.5, "beta": 1.0, "n": 2.7}}))
    out = tmp_path / "x.csv"
    assert run(["simulate", "--spec-json", str(spec_file), "--t-end", "1", "--out", str(out)]) == 1
    assert "n must be an integer, got 2.7" in capsys.readouterr().err
    assert not out.exists()


def test_map_over_fractional_n_exits_one(tmp_path, capsys):
    # Axis("n", 1, 3, 6) holds 1.4, 1.8, ...: truncating them would run
    # n = 1, 1, 1, 2, 2, 3 as six distinct cells
    out = tmp_path / "map.csv"
    code = run(["map", *LINEAR, "--axis1", "n", "--lo1", "1", "--hi1", "3", "--steps1", "6",
                "--axis2", "alpha", "--lo2", "0.4", "--hi2", "0.5", "--steps2", "2",
                "--t-end", "0.5", "--dt", "1e-2", "--out", str(out)])
    assert code == 1
    assert "n must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, variant",
    [("simulate", "epsilon", "powerlaw"), ("hopf", "epsilon", "powerlaw"),
     ("hopf", "nonlinearity", "cubic")],
)
def test_spec_file_with_unknown_variant_exits_one(tmp_path, capsys, command, key, variant):
    doc = {"form": "A1", "params": {"alpha": 0.5, "beta": 1.0, "q": 1.0}, key: {"variant": variant}}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(doc))
    flags = ["--t-end", "2"] if command == "simulate" else ["--axis", "alpha", "--lo", "-1", "--hi", "1"]
    out = tmp_path / "artifact"
    assert run([command, "--spec-json", str(spec_file), *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"variant '{variant}'" in err[0]
    assert not out.exists()


# inline flags and the spec document they describe; a field the document
# leaves out takes the flag default
SAME_SPEC = {
    "constant-without-value": (
        ["--form", "B", "--alpha", "0.5", "--beta", "1", "--epsilon", "Constant"],
        {"form": "B", "params": {"alpha": 0.5, "beta": 1.0}, "epsilon": {"variant": "Constant"}},
    ),
    "a1-sine-powerlaw-c": (
        ["--form", "A1", "--alpha", "0.5", "--beta", "0.2", "--q", "1", "--g", "Sine", "--g-k", "0.5",
         "--epsilon", "PowerLaw", "--epsilon-c", "0.3"],
        {"form": "A1", "params": {"alpha": 0.5, "beta": 0.2, "q": 1.0},
         "nonlinearity": {"variant": "Sine", "k": 0.5}, "epsilon": {"variant": "PowerLaw", "c": 0.3}},
    ),
    "a2-cubic-without-k": (
        ["--form", "A2", "--alpha", "0.4", "--beta", "1", "--gamma", "0.5", "--q", "1", "--g", "Cubic"],
        {"form": "A2", "params": {"alpha": 0.4, "beta": 1.0, "gamma": 0.5, "q": 1.0},
         "nonlinearity": {"variant": "Cubic"}},
    ),
    "powerlaw-without-c": (
        ["--form", "B", "--alpha", "0.5", "--beta", "1", "--epsilon", "PowerLaw", "--epsilon-p", "3"],
        {"form": "B", "params": {"alpha": 0.5, "beta": 1.0}, "epsilon": {"variant": "PowerLaw", "p": 3}},
    ),
}


@pytest.mark.parametrize("case", list(SAME_SPEC))
def test_inline_flags_decode_like_a_spec_file(tmp_path, case):
    flags, doc = SAME_SPEC[case]
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(doc))
    run_flags = ["--t0", "1", "--t-end", "3", "--dt", "1e-2"]
    inline, from_file = tmp_path / "inline.csv", tmp_path / "file.csv"
    assert run(["simulate", *flags, *run_flags, "--out", str(inline)]) == 0
    assert run(["simulate", "--spec-json", str(spec_file), *run_flags, "--out", str(from_file)]) == 0
    assert inline.read_bytes() == from_file.read_bytes()


@pytest.mark.parametrize(
    "source",
    [["--g-k", "0.5"], ["--epsilon-c", "0.2"], {"nonlinearity": {"k": 0.5}}, {"epsilon": {}}],
    ids=["g-k-flag", "epsilon-c-flag", "nonlinearity-file", "epsilon-file"],
)
def test_preset_without_variant_exits_one(tmp_path, capsys, source):
    flags = source
    if isinstance(source, dict):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"form": "A1", "params": {"alpha": 0.5}, **source}))
        flags = ["--spec-json", str(spec_file)]
    out = tmp_path / "x.csv"
    assert run(["simulate", *flags, "--t-end", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "needs a variant" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "source, keys",
    [
        ({"params": {"alpah": 0.5, "beta": 1}}, ["'alpah'"]),
        ({"params": {"alpha": 0.5, "beta": 1}, "epsilion": {"variant": "Constant", "value": 3}},
         ["'epsilion'"]),
        ({"params": {"alpha": 0.5, "beta": 1}, "epsilon": {"variant": "Constant", "value": 3, "c": 9}},
         ["'c'"]),
        ([*LINEAR, "--epsilon", "Constant", "--epsilon-p", "3"], ["'p'"]),
        ([*LINEAR, "--g", "Zero", "--g-w", "2"], ["'w'"]),
        ([*LINEAR, "--epsilon", "Constant", "--epsilon-p", "3", "--g", "Zero", "--g-w", "2"],
         ["Zero nonlinearity key 'w'", "Constant regularization key 'p'"]),
        ({"bogus": 1, "params": {"alpah": 0.5}}, ["'bogus'", "'alpah'"]),
        ({"params": {"alpha": None}}, ["params key 'alpha' must be a number"]),
        ({"params": {"n": None}}, ["params key 'n' must be a number"]),
        ({"params": [1]}, ["spec key 'params' must be an object"]),
        ("[1]", ["a spec document must be an object"]),
        ({"params": {"alpha": "abc"}}, ["params key 'alpha' must be a number, got 'abc'"]),
        ({"epsilon": {"variant": "Constant", "value": "x"}}, ["key 'value' must be a number"]),
        ({"params": {"alpha": "abc", "bogus": 1}}, ["'bogus'", "key 'alpha' must be a number"]),
        ({"epsilon": {"variant": "Constant", "value": "x", "c": 1}},
         ["key 'value' must be a number", "Constant regularization key 'c'"]),
        ({"epsilon": {"variant": [1]}}, ["unknown regularization variant [1]"]),
        ({"params": {"alpha": float("inf")}}, ["params key 'alpha' must be finite, got inf"]),
    ],
    ids=["params-typo", "top-level-typo", "preset-file-field", "epsilon-p-flag", "g-w-flag",
         "both-preset-flags", "top-level-and-params-typo", "null-value", "null-n", "params-list",
         "top-level-list", "string-value", "string-preset-value", "bad-value-and-typo",
         "bad-preset-value-and-typo", "list-variant", "infinite-value"],
)
def test_unknown_document_key_exits_one(tmp_path, capsys, source, keys):
    # each of these once ran with the user's value dropped or ended in a
    # traceback or an unnamed error; every refused key gets its own line
    flags = source
    if not isinstance(source, list):
        text = source if isinstance(source, str) else json.dumps({"form": "B", **source})
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(text)
        flags = ["--spec-json", str(spec_file)]
    out = tmp_path / "x.csv"
    assert run(["simulate", *flags, "--t-end", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(keys)
    assert all(line.startswith("error: ") and key in line for line, key in zip(err, keys))
    assert not out.exists()


@pytest.mark.parametrize("command", ["bifurcation", "map"])
def test_pool_width_leaves_scan_bytes_alone(tmp_path, monkeypatch, command):
    argv, _ = EVERY_COMMAND[command]
    written = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CHAOS_THREADS", threads)
        out, plot = tmp_path / f"{threads}.out", tmp_path / f"{threads}.dat"
        assert run(argv + ["--out", str(out), "--plot-out", str(plot)]) == 0
        written.append((out.read_bytes(), plot.read_bytes()))
    assert written[0] == written[1]


@pytest.mark.parametrize("command", ["hopf", "simulate"])
def test_spec_file_with_unknown_form_exits_one(tmp_path, capsys, command):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"form": "C", "params": {"alpha": 0.5, "beta": 1.0}}))
    flags = ["--t-end", "1"] if command == "simulate" else ["--axis", "alpha", "--lo", "-1", "--hi", "1"]
    out = tmp_path / "artifact"
    assert run([command, "--spec-json", str(spec_file), *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "form 'C'" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("axis", [["--lo", "1", "--hi", "-0.93"], ["--lo", "-1", "--hi", "1", "--steps", "1"]],
                         ids=["reversed", "one-point"])
def test_hopf_refuses_a_reversed_or_one_point_axis(tmp_path, capsys, axis):
    # a reversed bracket never bisected and reported 0.010875 for the
    # crossing at 0; one step silently found no crossing
    out = tmp_path / "hopf.json"
    assert run(["hopf", *LINEAR, "--axis", "alpha", *axis, "--out", str(out)]) == 1
    assert "axis 'alpha' needs" in capsys.readouterr().err
    assert not out.exists()


def test_diverged_bifurcation_cell_plots_no_points(tmp_path):
    # the alpha = 0.05 cell escapes after some section hits: the CSV marks it
    # Diverged and the plot file carries none of its hits
    out, plot = tmp_path / "bif.csv", tmp_path / "bif.dat"
    code = run(["bifurcation", "--section", "vzero", "--form", "B", "--beta", "1", "--gamma", "1",
                "--delta", "1", "--omega", "1", "--n", "3", "--axis", "alpha", "--lo", "0.05",
                "--hi", "4", "--steps", "4", "--x0", "6", "--t-end", "20", "--dt", "1e-2",
                "--out", str(out), "--plot-out", str(plot)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [x for a, x in rows if float(a) == 0.05] == ["Diverged"]
    points = [line.split() for line in plot.read_text().splitlines() if not line.startswith("#")]
    assert points and all(float(a) != 0.05 for a, _ in points)


def test_a_forms_default_to_t0_one(tmp_path):
    out = tmp_path / "a1.csv"
    code = run(["simulate", "--form", "A1", "--alpha", "0.5", "--beta", "0.2", "--q", "1",
                "--g", "Cubic", "--g-k", "0.5", "--t-end", "10", "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    manifest = read_manifest(out)
    assert manifest["initial"]["t"] == 1.0
    assert float(out.read_text().splitlines()[2].split(",")[0]) == 1.0


@pytest.mark.parametrize("command", list(EVERY_COMMAND))
def test_plot_out_writes_sidecar(tmp_path, command):
    argv, columns = EVERY_COMMAND[command]
    out, plot = tmp_path / "artifact", tmp_path / "plot.dat"
    assert run(argv + ["--out", str(out), "--plot-out", str(plot)]) == 0
    assert plot.read_text().splitlines()[0] == "# " + " ".join(columns)
    meta = json.loads((tmp_path / "plot.dat.meta.json").read_text())
    assert meta["columns"] == columns
    assert meta["command"] == command
