"""Command-line front end: invariant computation and equivalence audits.

Every report is canonical JSON with sorted keys; integer invariants are
accompanied by their adequacy evidence (residues, deviations, branch
checks).  Validation failures exit 2, numerical-adequacy failures exit 3.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import berry, ktable, nctorus, spectral, windex, z2
from .errors import AdequacyError, InvalidParams, SchemaError, ValidationError
from .model import (MAX_GRID_ENTRIES, MAX_MATRIX_ROWS, MomentumGrid, _matrix_from_json, builtin,
                    builtin_parameters, check_trs, load_model, ribbonize)

REPORT_VERSION = 1
MAX_SWEEP_POINTS = 256


@dataclass
class RunReport:
    command: list[str]
    model: dict | None = None
    grid: list[int] | None = None
    invariants: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    wall_time_s: float = 0.0
    csv: str | None = None  # plot-ready payload for --out csv
    usage: str | None = None  # the -h/--help text, printed instead of the report

    def to_json(self, include_timing: bool = True) -> str:
        doc = {
            "report_version": REPORT_VERSION,
            "command": self.command,
            "model": self.model,
            "grid": self.grid,
            "invariants": self.invariants,
            "checks": self.checks,
        }
        if include_timing:
            doc["wall_time_s"] = self.wall_time_s
        return json.dumps(doc, sort_keys=True)


def _number(text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InvalidParams(f"{name} must be a number, got {text!r}") from None
    if not np.isfinite(value):
        raise InvalidParams(f"{name} must be finite, got {text!r}")
    return value


def _integer(value: float, flag: str, lo: int, hi: int, context: str = "") -> int:
    """A flag value that must be an integer in [lo, hi]; 64.0 passes as 64."""
    if value != int(value) or not lo <= value <= hi:
        raise InvalidParams(f"{flag} must be an integer in [{lo}, {hi}]{context}, got {value:g}")
    return int(value)


def _read_config(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SchemaError(path, f"cannot read a JSON document: {exc}") from None


def _build_model(args, params):
    if args.config:
        return load_model(_read_config(args.config))
    if not args.model:
        raise InvalidParams("need --model NAME or --config FILE")
    return builtin(args.model, **params)


def _grid_from_arg(arg: str | None, dim: int, bands: int) -> MomentumGrid:
    """The --grid (default 12 per axis) for a dim-dimensional model; at most
    MAX_GRID_ENTRIES Hamiltonian entries, prod(sizes) * bands^2."""
    try:
        sizes = (12,) if arg is None else tuple(int(x) for x in arg.split(","))
    except ValueError:
        raise InvalidParams(f"--grid must be N or N,N[,N], got {arg!r}") from None
    grid = MomentumGrid(sizes * dim if len(sizes) == 1 else sizes)
    entries = math.prod(grid.sizes) * bands ** 2
    if entries > MAX_GRID_ENTRIES:
        raise InvalidParams(f"--grid {'x'.join(map(str, grid.sizes))} holds {entries} Hamiltonian"
                            f" entries for {bands} bands, above {MAX_GRID_ENTRIES}")
    return grid


def _model_and_grid(args, report, dim: int):
    """Build the model and its dim-dimensional grid, recorded in the report."""
    model = _build_model(args, args.params)
    grid = _grid_from_arg(args.grid, dim, model.bands)
    report.model = _model_descriptor(model)
    report.grid = list(grid.sizes)
    return model, grid


def _model_descriptor(model) -> dict:
    return {"name": model.name,
            "params": {k: float(v) for k, v in sorted(model.params.items())},
            "bands": model.bands, "occupied": model.occupied, "dim": model.dim}


def _sewing_checks(field_obj) -> list:
    """The sewing deviations of a SewingField or Z2Indices3D, each against 1e-8."""
    return [{"name": name, "deviation": dev, "pass": dev <= 1e-8} for name, dev in (
        ("sewing_unitarity", field_obj.unitarity_deviation),
        ("sewing_negation_relation", field_obj.relation_deviation),
        ("sewing_trim_skewness", field_obj.trim_skew_deviation))]


def _trs_check(model, grid) -> dict:
    rep = check_trs(model, grid)
    return {"name": "time_reversal_symmetry", "deviation": rep.max_deviation,
            "pass": rep.passed}


def _cmd_chern(args, report):
    model, grid = _model_and_grid(args, report, 2)
    curvature = berry.berry_curvature_field(berry.occupied_frame(model, grid))
    c1, residue = berry.plaquette_chern(curvature.values)
    report.invariants = {"c1": c1, "plaquette_sum_residue": residue,
                         "max_plaquette_phase": float(np.max(np.abs(curvature.values)))}
    if args.out == "csv":
        report.csv = curvature.to_csv()
    return report


def _cmd_z2(args, report):
    model, grid = _model_and_grid(args, report, 2)
    sf = z2.sewing_field(model, grid)
    nu = z2.kane_mele_nu(sf)
    flow = z2.wannier_center_flow(model, grid, frames=sf.frames)
    report.invariants = {"nu": nu, "wannier_verdict": flow.verdict,
                         "wannier_crossings": flow.crossings,
                         "oracles_agree": bool(nu == flow.verdict)}
    report.checks = [_trs_check(model, grid)] + _sewing_checks(sf)
    if args.out == "csv":
        report.csv = flow.to_csv()
    return report


def _cmd_z2_3d(args, report):
    model, grid = _model_and_grid(args, report, 3)
    idx = z2.strong_and_weak_indices_3d(model, grid)
    report.invariants = {"nu0": idx.strong, "weak": list(idx.weak)}
    report.checks = [_trs_check(model, grid)] + _sewing_checks(idx)
    return report


def _cmd_cs_index(args, report):
    model, grid = _model_and_grid(args, report, 3)
    sf = z2.sewing_field(model, grid)
    res = windex.winding3d(windex.UnitaryField(grid, sf.smooth_w))
    nu = z2.kane_mele_nu(sf)
    report.invariants = {
        "winding": res.value, "rounded": res.rounded, "residue": res.residue,
        "nu": nu, "parity_matches_nu": bool((-1) ** res.rounded == nu),
    }
    report.checks = _sewing_checks(sf)
    return report


def _cmd_boundary_index(args, report):
    model, grid = _model_and_grid(args, report, 2)
    sf = z2.sewing_field(model, grid)
    report.invariants = {"boundary_index": windex.boundary_index_2d(sf)}
    report.checks = _sewing_checks(sf)
    return report


def _ribbon_width(width: float | None, bands: int) -> int:
    """The --width (24 when not given) of a ribbon of bands-band cells: an
    integer in [8, cap], cap = MAX_MATRIX_ROWS // bands, as a ribbon matrix
    has width * bands rows."""
    cap = MAX_MATRIX_ROWS // bands
    if cap < 8:
        raise InvalidParams(f"no ribbon width fits {bands} bands: a ribbon matrix has"
                            f" width * bands rows, at most {MAX_MATRIX_ROWS}, and width >= 8")
    if width is None and cap < 24:
        raise InvalidParams(f"the default --width 24 exceeds {cap}, the widest ribbon for"
                            f" {bands} bands; pass --width from 8 to {cap}")
    return _integer(24 if width is None else width, "--width", 8, cap, f" for {bands} bands")


def _cmd_edge_parity(args, report):
    model = _build_model(args, args.params)
    width = _ribbon_width(args.width, model.bands)
    report.model = _model_descriptor(model)
    ribbon = ribbonize(model, open_axis=0, width=width)
    parity = spectral.edge_crossing_parity(ribbon)
    report.invariants = {"edge_parity": parity, "ribbon_width": width}
    if args.out == "csv":
        report.csv = spectral.ribbon_spectrum_csv(ribbon)
    return report


def _cmd_spectral_flow(args, report):
    if not args.config:
        raise InvalidParams("spectral-flow needs --config FILE with Hermitian samples")
    doc = _read_config(args.config)
    if not isinstance(doc, dict) or "samples" not in doc:
        raise SchemaError("$.samples", "missing required field")
    if not isinstance(doc["samples"], list) or not doc["samples"]:
        raise SchemaError("$.samples", "samples must be a nonempty list of matrices")
    samples = [_matrix_from_json(s, f"$.samples[{i}]") for i, s in enumerate(doc["samples"])]
    if len({s.shape for s in samples}) > 1:
        raise SchemaError("$.samples", "samples must all have one size")
    path = spectral.SpectralPath(samples=samples, closed=bool(doc.get("closed", False)))
    try:
        level = float(doc.get("level", 0.0))
    except (TypeError, ValueError):
        level = math.nan
    if not math.isfinite(level):
        raise SchemaError("$.level", "level must be a finite number")
    report.invariants = {"spectral_flow": spectral.spectral_flow(path, level),
                         "level": level, "samples": len(samples)}
    return report


def _cmd_kgroup(args, report):
    """Degrees are given as superscripts: --kq -1 means KQ^{-1}."""
    if (args.space or args.dim is not None) and args.kq is None and args.kr is None \
            or args.space == "pt" and args.dim is not None:
        raise InvalidParams("--space goes with --kq or --kr, and --dim with a torus or a sphere")
    space = args.space or "torus"
    # documented bound: a torus group is a sum of dim + 1 binomial terms
    dim = _integer(args.dim or 0, "--dim", 0, 1024)
    space_label = {"pt": "pt", "torus": f"T^{dim}", "sphere": f"S^{{1,{dim}}}"}[space]
    if args.kq is not None:
        expr = ktable.kq(args.kq, space, dim)
        label = f"KQ^{{{args.kq}}}({space_label})"
    elif args.kr is not None:
        makers = {"torus": ktable.kr_torus, "sphere": ktable.kr_sphere,
                  "pt": lambda j, d: ktable.ko_point(j)}
        expr = makers[space](-args.kr, dim)
        label = f"KR^{{{args.kr}}}({space_label})"
    else:
        expr = ktable.ko_point(-(args.ko or 0))
        label = f"KO^{{{args.ko or 0}}}(pt)"
    report.invariants = {"group": expr.to_json(), "pretty": f"{label} = {expr}"}
    return report


def _cmd_nc_index(args, report):
    if args.winding is not None:
        # documented bound; caps the oracle's window
        cutoff = _integer(64 if args.cutoff is None else args.cutoff, "--cutoff", 4, 1024)
        # the pairings need the cutoff to be at least 4x the Fourier support
        wdg = _integer(args.winding, "--winding", -(cutoff // 4), cutoff // 4)
        co = nctorus.winding_loop_coeffs(wdg)
        ti = nctorus.toeplitz_index(co, cutoff)
        pr = nctorus.nc_index_pairing_1d(co, cutoff)
        report.invariants = {"toeplitz_index": ti, "pairing": pr.to_json(),
                             "agree": bool(ti == pr.rounded)}
        return report
    co = nctorus.lattice_degree_one_coeffs(-2.0 if args.mass is None else args.mass)
    # fields take 0.54 GB at 8
    cutoff = _integer(8 if args.cutoff is None else args.cutoff, "--cutoff", 1, 8)
    pr = nctorus.nc_index_pairing_3d(co, cutoff, residue_tol=1.0)
    report.invariants = {"pairing_3d": pr.to_json()}
    return report


def _sweep_values(spec: str):
    """name=a:b:n as (name, n evenly spaced values from a to b): a and b
    finite, n an integer in [1, MAX_SWEEP_POINTS]."""
    try:
        name, rng = spec.split("=", 1)
        a, b, n = rng.split(":")
    except ValueError:
        raise InvalidParams(f"--sweep must be name=a:b:n, got {spec!r}") from None
    a, b = _number(a, "--sweep start"), _number(b, "--sweep stop")
    if not math.isfinite(b - a):
        raise InvalidParams(f"--sweep from {a:g} to {b:g} spans more than the largest float")
    n = _integer(_number(n, "--sweep count"), "--sweep count", 1, MAX_SWEEP_POINTS)
    return name, np.linspace(a, b, n)


def _cmd_audit(args, report):
    sweep = [(None, None)]
    if args.sweep:
        if not args.model:
            raise InvalidParams("--sweep goes with --model; a --config document is read as written")
        name, values = _sweep_values(args.sweep)
        sweep = [(name, float(v)) for v in values]
    points = []
    for name, value in sweep:
        pt_params = dict(args.params)
        if name is not None:
            pt_params[name] = value
        model = _build_model(args, pt_params)
        ribbon_width = _ribbon_width(args.width, model.bands) if model.dim == 2 else None
        grid = _grid_from_arg(args.grid, model.dim, model.bands)
        entry: dict = {"params": {k: float(v) for k, v in sorted(pt_params.items())}}
        try:
            sf = z2.sewing_field(model, grid)
            nu = z2.kane_mele_nu(sf)
            entry["nu"] = nu
            if model.dim == 2:
                flow = z2.wannier_center_flow(model, grid, frames=sf.frames)
                boundary = windex.boundary_index_2d(sf)
                parity = spectral.edge_crossing_parity(ribbonize(model, 0, ribbon_width))
                entry.update({
                    "wannier_verdict": flow.verdict,
                    "boundary_index": boundary,
                    "edge_parity": parity,
                    "agree": bool(nu == flow.verdict == boundary
                                  and (parity == 1) == (nu == -1)),
                })
            else:
                res = windex.winding3d(windex.UnitaryField(grid, sf.smooth_w))
                entry.update({
                    "winding": res.value, "winding_residue": res.residue,
                    "agree": bool((-1) ** res.rounded == nu),
                })
        except AdequacyError as exc:
            entry["skipped"] = str(exc)
        points.append(entry)
    report.model = {"name": args.model or args.config}
    checked = [p["agree"] for p in points if "agree" in p]
    report.invariants = {"points": points, "all_agree": bool(checked) and all(checked)}
    if not checked:
        raise AdequacyError(f"audit checked no point: all {len(points)} sweep points were skipped")
    if not all(checked):
        raise AdequacyError("audit found disagreeing invariants")
    return report


_M = "model config params"  # read by every command that builds a model
# name: (function, help, the argparse flags it reads, the --name value options it reads)
_COMMANDS = {
    "chern": (_cmd_chern, "lattice Chern number of the occupied bundle", f"{_M} grid out", ""),
    "z2": (_cmd_z2, "Kane-Mele invariant with the Wannier-flow oracle", f"{_M} grid out", ""),
    "z2-3d": (_cmd_z2_3d, "strong and weak 3D invariants", f"{_M} grid", ""),
    "cs-index": (_cmd_cs_index, "3D winding of the sewing field", f"{_M} grid", ""),
    "boundary-index": (_cmd_boundary_index, "2D boundary-circle product index", f"{_M} grid", ""),
    "spectral-flow": (_cmd_spectral_flow, "spectral flow of a sampled path", "config", ""),
    "edge-parity": (_cmd_edge_parity, "ribbon edge-crossing parity", f"{_M} out", "width"),
    "kgroup": (_cmd_kgroup, "KO/KR/KQ group calculator", "kq kr ko space dim", ""),
    "nc-index": (_cmd_nc_index, "noncommutative index pairings", "", "winding mass cutoff"),
    "audit": (_cmd_audit, "cross-check the invariant equivalences", f"{_M} grid sweep", "width"),
}
_FLAGS = {"model": {"help": "builtin model name"}, "config": {"help": "JSON model or input file"},
          "grid": {"help": "grid size N or N,N[,N]"}, "sweep": {"help": "sweep name=a:b:n"},
          "params": {"action": "append", "default": [], "help": "model parameters k=v[,k=v...]"},
          "out": {"choices": ("json", "csv"), "default": "json"}, "dim": {"type": int},
          "kq": {"type": int}, "kr": {"type": int}, "ko": {"type": int},
          "space": {"choices": ("pt", "torus", "sphere")}}
# flags and options of which one invocation gives at most one
_EXCLUSIVE = (("model", "config"), ("kq", "kr", "ko"), ("winding", "mass"))


class _HelpRequested(Exception):
    """-h/--help: carries the usage text in place of argparse's exit."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad input: exit 2 with a JSON report, not argparse's exit
        raise InvalidParams(message)

    def print_help(self, file=None):  # called by the help action just before it exits
        raise _HelpRequested(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="topoindex", allow_abbrev=False,
        description="Topological invariants of time-reversal-invariant insulators.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, flags, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False,
                           epilog=options and "also reads --" + ", --".join(options.split()))
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


# built once: parsing leaves no state in the parser (--params appends to a copy)
_PARSER = _build_parser()


def parse(argv: list[str]) -> argparse.Namespace:
    """The flags of one invocation, each option of its command (None when
    not given), and as params the model parameters: the --params entries
    and, with --model, the pairs --name value (or --name=value) that name a
    parameter of that model.  Any other pair raises InvalidParams."""
    args, extras = _PARSER.parse_known_args(argv)
    options = _COMMANDS[args.subcommand][3].split()
    model = getattr(args, "model", None)
    names = builtin_parameters(model) if model else {}
    params = {}
    for item in (x for chunk in getattr(args, "params", []) for x in chunk.split(",") if x):
        if "=" not in item:
            raise InvalidParams(f"--params entries must be key=value, got {item!r}")
        k, v = item.split("=", 1)
        params[k.strip()] = _number(v, k.strip())
    if params and not model:
        raise InvalidParams("--params goes with --model; a --config document is read as written")
    vars(args).update(dict.fromkeys(options))
    tokens = iter(extras)
    for tok in tokens:
        if not tok.startswith("--"):
            raise InvalidParams(f"unrecognized argument {tok!r}")
        flag, eq, value = tok.partition("=")
        key = flag[2:].replace("-", "_")
        if not eq and (value := next(tokens, None)) is None:
            raise InvalidParams(f"flag {tok} needs a value")
        if key not in options and key not in names:
            raise InvalidParams(f"{args.subcommand} does not read {flag}" + (
                f"; {model} parameters are {sorted(names)}" if model else
                "; model parameters go with --model" if hasattr(args, "model") else ""))
        (vars(args) if key in options else params)[key] = _number(value, key)
    for group in _EXCLUSIVE:
        given = [f"--{name}" for name in group if getattr(args, name, None) is not None]
        if len(given) > 1:
            raise InvalidParams(f"{' and '.join(given)} exclude each other")
    args.params = params
    return args


def run(argv: list[str]) -> tuple[int, RunReport]:
    """Execute one CLI invocation; returns (exit code, report)."""
    report = RunReport(command=list(argv))
    start = time.time()
    try:
        args = parse(argv)
        _COMMANDS[args.subcommand][0](args, report)
        code = 0
    except _HelpRequested as exc:
        report.usage, code = str(exc), 0
    except ValidationError as exc:
        report.invariants = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = 2
    except AdequacyError as exc:
        report.invariants.setdefault(
            "error", {"type": type(exc).__name__, "message": str(exc)})
        code = 3
    report.wall_time_s = time.time() - start
    return code, report


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code, report = run(argv)
    if report.usage is not None:
        sys.stdout.write(report.usage)
    elif report.csv is not None:  # built only by a successful --out csv command
        sys.stdout.write(report.csv)
    else:
        print(report.to_json())
    return code


if __name__ == "__main__":
    sys.exit(main())
