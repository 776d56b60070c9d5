"""Command-line interface.

Eight subcommands: simulate, energy, lyapunov, hopf, poincare, bifurcation,
map, critical.  Each one writes a single artifact carrying its manifest, and
the library function ``chaoskit.cli.rerun()`` reproduces any artifact
byte-for-byte from that manifest alone (there is no rerun subcommand).

Exit codes: 0 on success (a diverged trajectory is still data and exits 0
with its status recorded), 1 for validation problems (reported one per line
on stderr), 2 for runtime failures such as an unbracketed boundary, a
trajectory that escapes mid-estimate or a run too long to allocate.

``main`` builds the argument parser on its first call and reuses it for
the life of the process, so a caller that runs many commands in one
process holds one parser, not one per command.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import io as _io
from .analysis import energy_trace, hopf_scan
from .chaoscan import (
    _ESTIMATORS,
    Axis,
    bifurcation_sweep,
    critical_bisect,
    lambda_map,
    poincare,
)
from .errors import (
    ChaoskitError,
    InvalidAxis,
    SectionMismatch,
    SingularTime,
    ValidationError,
)
from .integrate import (
    COMPLETED,
    METHODS,
    IntegratorConfig,
    Stroboscopic,
    VelocityZeroCrossing,
    check_times,
    integrate,
)
from .model import (
    FORM_B,
    FORMS,
    PARAM_TYPES,
    EpsilonSchedule,
    Nonlinearity,
    State,
    SystemSpec,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through the
    # validation path (exit 1) instead.
    def error(self, message):
        raise _UsageError(message)


def _dest(flag):
    return flag[2:].replace("-", "_")


def _finite_float(positive=False):
    """argparse type of a float flag that must be finite (and > 0 if
    positive), so that a refusal names the flag as the user typed it."""

    def parse(text):
        value = float(text)
        if not math.isfinite(value) or positive and not value > 0.0:
            raise argparse.ArgumentTypeError(
                f"must be finite{' and > 0' if positive else ''}, got {text}"
            )
        return value

    parse.__name__ = "float"  # argparse's wording for text that is no number
    return parse


# Flags are (flag, add_argument keywords) pairs.  The inline system flags
# and the integrator flags are read off Params, the preset tables and
# IntegratorConfig.
_SPEC_FILE_FLAG = ("--spec-json", dict(metavar="FILE", help="read the system from a JSON file"))
_SYSTEM_FLAGS = (
    ("--form", dict(choices=FORMS)),
    *((f"--{name}", dict(type=kind)) for name, kind in PARAM_TYPES.items()),
    ("--g", dict(choices=tuple(Nonlinearity.VARIANTS), help="restoring-force preset")),
    ("--g-k", dict(type=float, help="preset gain k")),
    ("--g-w", dict(type=float, help="preset frequency w")),
    ("--epsilon", dict(choices=tuple(EpsilonSchedule.VARIANTS), help="regularization schedule")),
    ("--epsilon-c", dict(type=float, help="constant value or power-law coefficient c")),
    ("--epsilon-p", dict(type=float, help="power-law exponent p")),
)
# Preset families: the spec document key, the flag that picks the variant,
# and the class whose VARIANTS table maps each field attribute, set by the
# flag <flag>-<attribute>, to its document key.
_PRESETS = (("nonlinearity", "--g", Nonlinearity), ("epsilon", "--epsilon", EpsilonSchedule))
_INTEGRATOR_FLAGS = tuple(
    (
        "--" + f.name.replace("_", "-"),
        dict(type=type(f.default), default=f.default, choices=METHODS if f.name == "method" else None),
    )
    for f in fields(IntegratorConfig)
)
# the fixed rk4 grid reads no method, tolerance or sampling setting
_GRID_FLAGS = tuple(f for f in _INTEGRATOR_FLAGS if f[0] in ("--dt", "--t-end", "--blowup-threshold"))
_INITIAL_FLAGS = (
    ("--t0", dict(type=_finite_float(), help="start time (default 0 for form B, 1 for A1/A2)")),
    ("--x0", dict(type=_finite_float(), default=1.0)),
    ("--v0", dict(type=_finite_float(), default=0.0)),
)
_OUTPUT_FLAGS = (
    ("--out", dict(required=True, metavar="FILE")),
    ("--plot-out", dict(metavar="FILE", help="gnuplot data file plus .meta.json sidecar")),
)
_ESTIMATOR_FLAGS = (
    ("--estimator", dict(choices=tuple(_ESTIMATORS), default="variational")),
    ("--d0", dict(type=_finite_float(True), default=1e-8, help="two-trajectory initial offset")),
    ("--renorm-interval", dict(type=_finite_float(True), help="time between renormalizations")),
    ("--transient-fraction", dict(type=float, default=0.1)),
)
_SECTION_FLAGS = (
    ("--section", dict(choices=("strobo", "vzero"), required=True)),
    ("--period", dict(type=_finite_float(True), help="stroboscopic period (default 2*pi/omega)")),
    ("--phase", dict(type=_finite_float(), default=0.0)),
    ("--direction", dict(choices=("rising", "falling", "any"), default="any")),
    ("--transient-fraction", dict(type=float, default=0.1)),
)


def _axis_flags(suffix="", steps=None):
    flags = (
        (f"--axis{suffix}", dict(required=True)),
        (f"--lo{suffix}", dict(type=float, required=True)),
        (f"--hi{suffix}", dict(type=float, required=True)),
    )
    return flags if steps is None else flags + ((f"--steps{suffix}", dict(type=int, default=steps)),)


def _axis(opts, suffix=""):
    return Axis(
        opts["axis" + suffix],
        float(opts["lo" + suffix]),
        float(opts["hi" + suffix]),
        int(opts["steps" + suffix]),
    )


def _section_of(opts):
    if opts["section"] == "strobo":
        return Stroboscopic(period=float(opts["period"]), phase=float(opts["phase"]))
    return VelocityZeroCrossing(direction=opts["direction"])


def _estimator_kwargs(opts):
    kwargs = {"transient_fraction": float(opts["transient_fraction"])}
    if opts.get("renorm_interval") is not None:
        kwargs["renorm_interval"] = float(opts["renorm_interval"])
    if opts["estimator"] == "two_trajectory":
        kwargs["d0"] = float(opts["d0"])
    elif "tangent0" in opts:
        kwargs["tangent0"] = tuple(opts["tangent0"])
    return kwargs


# Runners take (spec, opts, initial, cfg) and return what the writer and the
# plot columns read; hopf gets no initial state or integrator.  They look
# the library functions up when called, so the names can be patched.


def _energy(spec, opts, initial, cfg):
    traj = integrate(spec, initial, cfg)
    if traj.status != COMPLETED:
        raise ChaoskitError(
            f"energy needs a completed trajectory; run ended {traj.status} "
            f"at t = {traj.status_time:.6g}"
        )
    return energy_trace(traj)


def _hopf(spec, opts, initial, cfg):
    crossings = hopf_scan(
        spec,
        opts["axis"],
        float(opts["lo"]),
        float(opts["hi"]),
        steps=int(opts["steps"]),
        at_time=float(opts["at_time"]),
        resolution=float(opts["resolution"]),
    )
    return {"axis": opts["axis"], "lo": opts["lo"], "hi": opts["hi"], "crossings": crossings}


def _bifurcation_columns(diagram, opts):
    par = np.repeat(diagram.values, [len(cell) for cell in diagram.cells])
    return {opts["axis"]: par, "x": np.concatenate(diagram.cells)}, {}


def _map_columns(lmap, opts):
    v1, v2 = np.meshgrid(lmap.axis1.values(), lmap.axis2.values(), indexing="ij")
    columns = {opts["axis1"]: v1.ravel(), opts["axis2"]: v2.ravel(), "lambda": lmap.lam.ravel()}
    return columns, {"estimator": opts["estimator"]}


@dataclass(frozen=True)
class Command:
    """One subcommand: its flags, how it runs, and what it writes.

    ``plot`` maps (result, options) to the --plot-out columns and the extra
    sidecar meta.  ``integrator`` holds the integrator flags the command
    reads; a command with none (hopf) integrates nothing and takes no
    initial-state flags either.
    """

    help: str
    flags: tuple
    run: Callable
    write: Callable
    plot: Callable
    integrator: tuple = _GRID_FLAGS


COMMANDS = {
    "simulate": Command(
        "integrate one trajectory to CSV",
        (),
        lambda spec, opts, initial, cfg: integrate(spec, initial, cfg),
        lambda out, traj, m: _io.write_trajectory_csv(out, traj, m),
        lambda traj, opts: (_io.trajectory_columns(traj), {"status": traj.status}),
        _INTEGRATOR_FLAGS,
    ),
    "energy": Command(
        "energy functionals along a trajectory",
        (),
        _energy,
        lambda out, trace, m: _io.write_energy_csv(out, trace, m),
        lambda trace, opts: (_io.energy_columns(trace), {}),
        _INTEGRATOR_FLAGS,
    ),
    "lyapunov": Command(
        "largest Lyapunov exponent estimate",
        _ESTIMATOR_FLAGS
        + (
            (
                "--tangent0",
                dict(type=_finite_float(), nargs=2, default=(1.0, 0.0), metavar=("UX", "UV")),
            ),
        ),
        lambda spec, opts, initial, cfg: _ESTIMATORS[opts["estimator"]](
            spec, initial, cfg, **_estimator_kwargs(opts)
        ),
        lambda out, est, m: _io.write_json(out, est.to_dict(), m),
        lambda est, opts: (
            {"t": est.convergence_t, "lambda_running": est.convergence},
            {"lambda": est.lam},
        ),
    ),
    "hopf": Command(
        "eigenvalue sign changes along a parameter axis",
        _axis_flags(steps=41)
        + (
            ("--at-time", dict(type=_finite_float(), default=1.0)),
            ("--resolution", dict(type=_finite_float(True), default=1e-6)),
        ),
        _hopf,
        lambda out, payload, m: _io.write_json(out, payload, m),
        lambda payload, opts: ({"crossing": payload["crossings"]}, {}),
        integrator=(),
    ),
    "poincare": Command(
        "section hits of one trajectory",
        _SECTION_FLAGS,
        lambda spec, opts, initial, cfg: poincare(
            spec, initial, cfg, _section_of(opts), float(opts["transient_fraction"])
        ),
        lambda out, section, m: _io.write_poincare_csv(out, section, m),
        lambda section, opts: (_io.poincare_columns(section), {"status": section.status}),
    ),
    "bifurcation": Command(
        "section sweep along a parameter axis",
        _SECTION_FLAGS + _axis_flags(steps=41),
        lambda spec, opts, initial, cfg: bifurcation_sweep(
            spec,
            _axis(opts),
            initial,
            cfg,
            _section_of(opts),
            float(opts["transient_fraction"]),
        ),
        lambda out, diagram, m: _io.write_bifurcation_csv(out, diagram, m),
        _bifurcation_columns,
    ),
    "map": Command(
        "exponent map over two parameter axes",
        _ESTIMATOR_FLAGS + _axis_flags("1", steps=11) + _axis_flags("2", steps=11),
        lambda spec, opts, initial, cfg: lambda_map(
            spec,
            _axis(opts, "1"),
            _axis(opts, "2"),
            initial,
            cfg,
            estimator=opts["estimator"],
            **_estimator_kwargs(opts),
        ),
        lambda out, lmap, m: _io.write_lambda_map_csv(out, lmap, m),
        _map_columns,
    ),
    "critical": Command(
        "bisect onto the stability boundary",
        _ESTIMATOR_FLAGS + _axis_flags() + (("--tol", dict(type=_finite_float(True), default=1e-2)),),
        lambda spec, opts, initial, cfg: critical_bisect(
            spec,
            opts["axis"],
            float(opts["lo"]),
            float(opts["hi"]),
            float(opts["tol"]),
            initial,
            cfg,
            estimator=opts["estimator"],
            **_estimator_kwargs(opts),
        ),
        lambda out, crit, m: _io.write_json(out, _io.critical_payload(crit), m),
        lambda crit, opts: (
            {opts["axis"]: [v for v, _ in crit.probes], "lambda": [l for _, l in crit.probes]},
            {"boundary": crit.boundary},
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chaoskit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        groups = [("system", (_SPEC_FILE_FLAG,) + _SYSTEM_FLAGS)]
        if command.integrator:
            groups.append(("run", command.integrator + _INITIAL_FLAGS))
        groups += [(name, command.flags), ("output", _OUTPUT_FLAGS)]
        for title, flags in groups:
            group = sp.add_argument_group(title)
            for flag, kwargs in flags:
                group.add_argument(flag, **kwargs)
    return parser


def _build_spec(args) -> SystemSpec:
    """The system of a --spec-json file, or of the spec document that the
    inline flags describe; both decode through SystemSpec.from_dict."""
    inline = {flag: getattr(args, _dest(flag)) for flag, _ in _SYSTEM_FLAGS}
    inline = {flag: value for flag, value in inline.items() if value is not None}
    if args.spec_json is not None:
        if inline:
            raise ValidationError(
                [f"--spec-json conflicts with inline system flags: {', '.join(inline)}"]
            )
        with open(args.spec_json, "r", encoding="utf-8") as fh:
            return SystemSpec.from_json(fh.read())
    doc = {"params": {name: inline[f"--{name}"] for name in PARAM_TYPES if f"--{name}" in inline}}
    if "--form" in inline:
        doc["form"] = inline["--form"]
    for key, flag, preset in _PRESETS:
        given = {f[len(flag) + 1 :]: v for f, v in inline.items() if f.startswith(flag + "-")}
        if flag in inline:
            # a field the variant does not take keeps its attribute name, which from_dict refuses
            keys = {attr: k for k, attr, _ in preset.VARIANTS[inline[flag]]}
            given = {"variant": inline[flag]} | {keys.get(a, a): v for a, v in given.items()}
        if given:
            doc[key] = given  # without a variant, from_dict refuses it
    return SystemSpec.from_dict(doc)


def manifest_from_args(args) -> tuple[dict, str, str | None]:
    """Normalize parsed flags into (manifest, out_path, plot_path)."""
    spec = _build_spec(args)
    command = COMMANDS[args.command]
    manifest = {"command": args.command, "spec": spec.to_dict()}
    if command.integrator:
        t0 = args.t0
        if t0 is None:
            t0 = 0.0 if spec.form == FORM_B else 1.0
        manifest["initial"] = {"t": t0, "x": args.x0, "v": args.v0}
        manifest["integrator"] = {
            _dest(flag): getattr(args, _dest(flag)) for flag, _ in command.integrator
        }
    opts = {_dest(flag): getattr(args, _dest(flag)) for flag, _ in command.flags}
    if opts.get("section") == "strobo" and opts["period"] is None:
        omega = spec.params.omega
        if omega <= 0.0:
            raise ValidationError(["stroboscopic sections need omega > 0 to default the period"])
        opts["period"] = 2.0 * math.pi / omega
    manifest["options"] = opts
    if command.integrator:
        # the run refuses these times too; here the refusal names the flags
        cfg = IntegratorConfig(**manifest["integrator"])
        check_times(t0, cfg.t_end, cfg.dt, ("--t0", "--t-end", "--dt"))
    return manifest, args.out, args.plot_out


def execute(manifest: dict, out: str, plot_out: str | None = None):
    """Run the manifest's command and write its artifact(s)."""
    name = manifest["command"]
    command = COMMANDS.get(name)
    if command is None:
        raise ValidationError([f"unknown command {name!r}"])
    spec = SystemSpec.from_dict(manifest["spec"])
    opts = manifest["options"]
    # every integrating runner checks its run on entry; hopf scans the
    # linearization and may sweep through regions a strict validate would reject
    initial = cfg = None
    if command.integrator:
        ini = manifest["initial"]
        initial = State(float(ini["t"]), float(ini["x"]), float(ini["v"]))
        cfg = IntegratorConfig(**manifest["integrator"])
    result = command.run(spec, opts, initial, cfg)
    command.write(out, result, manifest)
    if plot_out:
        columns, meta = command.plot(result, opts)
        _io.emit_plotdata(plot_out, columns, {"command": name, **meta})


def rerun(manifest, out: str, plot_out: str | None = None):
    """Re-execute a manifest (dict, or path to an artifact that embeds one)."""
    if isinstance(manifest, (str, bytes)):
        manifest = _io.read_manifest(manifest)
    execute(manifest, out, plot_out)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  A parser is a tree of some 240 actions
    full of reference cycles, so one per call would outlive the call until
    the next full garbage collection; parsing keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        manifest, out, plot_out = manifest_from_args(args)
        execute(manifest, out, plot_out)
    except ValidationError as exc:  # a ValueError, so before the one-line clause
        for msg in exc.messages:
            print(f"error: {msg}", file=sys.stderr)
        return 1
    except (_UsageError, InvalidAxis, SectionMismatch, SingularTime, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ChaoskitError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
