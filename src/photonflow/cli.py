"""Deterministic command-line exporter for field maps, traces, and rasters.

Six subcommands: fieldmap (named observable layers on a grid), stokes
(calcite pointer readout vs. the true momentum), trace (streamline CSV),
anomaly (vortices plus backflow/superluminal labeling), force (dipole
force maps), render (PGM raster of one scalar layer).

The CLI holds no physics: each grid command samples its grid once, and
every library result it writes is derived from that sample at most once.
It holds no file format either: photonflow.artifacts writes and reads
every file.  photonflow's own warnings (ParameterWarning) go to stderr as
"warning: ..." and never stop a command.  Exit codes: 0 success, 2
validation/usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from functools import cache

import numpy as np

from . import __version__
from .anomaly import _vortices_and_anomalies, anomalies_in_sample, check_label_options
from .artifacts import (_COMPONENTS, _decode, _label_layer, _read_text, _render, _scalar_layer,
                        _write_json, _write_trace_csv)
from .errors import ParameterError, ParameterWarning
from .fields import FieldSpec, GaussianPairSpec, _require_interval, field_from_dict
from .forces import Polarizability, force_from_sample, forces_from_momentum
from .grids import GridSpec, frame_names, sample_grid
from .observables import (PolarizationState, energy_density, local_momentum,
                          poynting_from_sample, singular_cells)
from .tracing import ARC_LENGTH, PARAXIAL, TraceConfig, check_seeds, trace_streamline
from .weakmeasure import (CalciteSpec, _check_invertible, calcite_fields, predicted_parameters,
                          readout_momentum, stokes_parameters)

_POLS = {
    "diag": PolarizationState.linear_diag,
    "x": PolarizationState.linear_x,
    "y": PolarizationState.linear_y,
    "rcp": lambda: PolarizationState.circular(+1),
    "lcp": lambda: PolarizationState.circular(-1),
}



# grid layers: name -> layer built from the layer name and the command's
# library results (_derivations)
_LAYERS = {
    "amp": lambda n, d: _scalar_layer(n, d["sample"].amplitude),
    "phase": lambda n, d: _scalar_layer(n, np.angle(d["sample"].psi), d["mask"]),
    "re_px": lambda n, d: _scalar_layer(n, d["momentum"].re_p[0], d["mask"]),
    "re_pz": lambda n, d: _scalar_layer(n, d["momentum"].re_p[-1], d["mask"]),
    "im_px": lambda n, d: _scalar_layer(n, d["momentum"].im_p[0], d["mask"]),
    "im_pz": lambda n, d: _scalar_layer(n, d["momentum"].im_p[-1], d["mask"]),
    "S1": lambda n, d: _scalar_layer(n, d["stokes"][0], d["stokes"][3]),
    "S2": lambda n, d: _scalar_layer(n, d["stokes"][1], d["stokes"][3]),
    "S3": lambda n, d: _scalar_layer(n, d["stokes"][2], d["stokes"][3]),
    "W": lambda n, d: _scalar_layer(n, energy_density(d["sample"])),
    "P_O": lambda n, d: _scalar_layer(n, np.moveaxis(d["poynting"].P_O, 0, -1)),
    "P_S": lambda n, d: _scalar_layer(n, np.moveaxis(d["poynting"].P_S, 0, -1)),
    "label": lambda n, d: _label_layer(d["anomalies"].labels),
    "S1_pred": lambda n, d: _scalar_layer(n, d["prediction"][0], d["mask"]),
    "S2_pred": lambda n, d: _scalar_layer(n, d["prediction"][1], d["mask"]),
    "S3_pred": lambda n, d: _scalar_layer(n, d["prediction"][2], d["mask"]),
    "re_px_readout": lambda n, d: _scalar_layer(n, d["readout"][0], d["stokes"][3]),
    "im_px_readout": lambda n, d: _scalar_layer(n, d["readout"][1], d["stokes"][3]),
    "F_grad": lambda n, d: _scalar_layer(n, np.moveaxis(d["force"][0], 0, -1), d["force"][2]),
    "F_scat": lambda n, d: _scalar_layer(n, np.moveaxis(d["force"][1], 0, -1), d["force"][2]),
}
ALL_LAYERS = ("amp", "phase", "re_px", "re_pz", "im_px", "im_pz", "S1", "S2", "S3", "W",
              "P_O", "P_S", "label")
_STOKES_LAYERS = ("S1", "S2", "S3", "S1_pred", "S2_pred", "S3_pred", "re_px_readout",
                  "im_px_readout", "re_px", "im_px")


class _Derived(dict):
    """Library results of one grid sample, each computed on its first lookup.
    The calls take this mapping as an argument rather than closing over it:
    no reference cycle keeps the results alive after the command."""

    def __init__(self, calls):
        super().__init__()
        self.calls = calls

    def __missing__(self, name):
        value = self[name] = self.calls[name](self)
        return value


def _derivations(spec, grid, args, cal=None, chi=None) -> _Derived:
    """Sample the grid once; every other result is derived from that sample."""
    sample = sample_grid(spec, grid)
    return _Derived({
        "sample": lambda d: sample,
        "singular": lambda d: singular_cells(sample.amplitude),  # (floor, mask)
        "mask": lambda d: d["singular"][1],
        "momentum": lambda d: local_momentum(sample, d["singular"][0]),
        "poynting": lambda d: poynting_from_sample(sample, cal.pol),
        "stokes": lambda d: stokes_parameters(
            *calcite_fields(spec, cal, grid.mesh(spec.ndim), sample.psi)),
        "prediction": lambda d: predicted_parameters(d["momentum"], cal),
        "readout": lambda d: readout_momentum(d["stokes"][0], d["stokes"][2], cal),
        # (F_grad, F_scat, mask): F/W is undefined on singular cells, F is not
        "force": lambda d: ((*forces_from_momentum(d["momentum"], chi), d["mask"])
                            if args.normalized else (*force_from_sample(sample, chi), None)),
        "anomalies": lambda d: anomalies_in_sample(spec, grid, d["mask"], d["momentum"],
                                                   args.bound, args.superluminal_guard),
    })


def _write_layers(args, spec, grid, names, extra, cal=None, chi=None) -> int:
    """Write the named layers of one grid sample and the command's extra keys."""
    derived = _derivations(spec, grid, args, cal, chi)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by name, as in sample_grid
        layers = {name: _LAYERS[name](name, derived) for name in names}
    derived["singular"]  # a peak that overflows or underflows to 0.0 exits 2, whatever the layers
    _write_json(args.out, {"grid": grid.to_dict(), "layers": layers,
                           "provenance": _provenance(spec, args), **extra})
    return 0


def _load_field(args) -> FieldSpec:
    if getattr(args, "field_json", None):
        text = args.field_json
    else:
        text = _read_text(args.field, "field spec")
    return field_from_dict(_decode(text, "field spec"))


def _parse_fixed(text: str) -> tuple:
    if not text:
        return ()
    pairs = []
    for clause in text.split(","):
        name, sep, value = clause.partition("=")
        if not sep:
            raise ParameterError(f"fixed coordinate must be name=value, got {clause!r}")
        try:
            pairs.append((name.strip(), float(value)))
        except ValueError:
            raise ParameterError(f"malformed fixed coordinate {clause!r}")
    return tuple(pairs)


def _provenance(spec, args) -> dict:
    return {
        "field": spec.to_dict(),
        "tool_version": __version__,
        "command": " ".join(args.argv),
    }


def _grid_of(args) -> GridSpec:
    return GridSpec.from_string(args.grid, _parse_fixed(args.fixed))


def _cmd_fieldmap(args) -> int:
    spec = _load_field(args)
    grid = _grid_of(args)
    names = [s for s in args.layers.split(",") if s]
    if not names:
        raise ParameterError("at least one layer is required")
    for name in names:
        if name not in ALL_LAYERS:
            raise ParameterError(f"unknown layer {name!r}; expected one of {ALL_LAYERS}")
    cal = CalciteSpec(delta_x=args.delta_x_mm, pol=_POLS[args.pol]())
    check_label_options(spec, args.bound, args.superluminal_guard)
    return _write_layers(args, spec, grid, names, {}, cal=cal)


def _cmd_stokes(args) -> int:
    """Exact calcite readout of the diagonal input, its first-order prediction and the truth."""
    spec = _load_field(args)
    grid = _grid_of(args)
    cal = CalciteSpec(delta_x=args.delta_x_mm)
    _check_invertible(cal)
    return _write_layers(args, spec, grid, _STOKES_LAYERS, {"delta_x_mm": cal.delta_x},
                         cal=cal)


def _cmd_anomaly(args) -> int:
    spec = _load_field(args)
    grid = _grid_of(args)
    vortices, amap = _vortices_and_anomalies(spec, grid, args.bound, args.superluminal_guard)
    out = {
        "grid": grid.to_dict(),
        "bound_model": args.bound,
        "guard": args.superluminal_guard,
        "vortices": [
            {"position": list(v.position), "charge": v.charge, "residual": v.residual}
            for v in vortices
        ],
        "counts": amap.counts,
        "fast_cells": int(np.sum(amap.fast)),
        "provenance": _provenance(spec, args),
    }
    if args.with_labels:
        out["labels"] = _label_layer(amap.labels)
    del amap  # the label codes and fast flags, before the artifact is written
    _write_json(args.out, out)
    return 0


def _parse_seeds(rows, source: str) -> tuple:
    """One seed per non-blank row of comma-separated coordinates."""
    seeds = []
    for row in rows:
        row = row.strip()
        if not row:
            continue
        try:
            seeds.append(tuple(float(tok) for tok in row.split(",")))
        except ValueError:
            raise ParameterError(f"malformed seed {row!r} in {source}")
    return tuple(seeds)


def _resolve_seeds(args, spec) -> tuple:
    if args.seeds:
        lines = _read_text(args.seeds, "seeds").split("\n")
        return _parse_seeds([ln for ln in lines if not ln.lstrip().startswith("#")], args.seeds)
    if args.seeds_inline:
        return _parse_seeds(args.seeds_inline.split(";"), "--seeds-inline")
    if isinstance(spec, GaussianPairSpec):
        # presentation default: a uniform fan spanning both input lobes
        # on the waist plane.
        half = spec.a_mm + spec.w0_mm
        return tuple((x, 0.0) for x in np.linspace(-half, half, 17))
    raise ParameterError("this field family has no default seeds; pass --seeds or --seeds-inline")


def _resolve_domain(args, spec, seeds, paraxial: bool) -> tuple:
    names = frame_names(spec.ndim)
    domain = {}  # the padded seed box, then each --domain clause laid over it
    for name, col in zip(names, np.asarray(seeds, dtype=float).T):
        lo, hi = float(col.min()), float(col.max())
        pad = max(1.0, hi - lo)  # Python max: an infinite seed keeps (inf, inf), not nan
        domain[name] = ((lo, hi + args.z_end) if paraxial and name == names[-1]
                        else (lo - pad, hi + pad))
    given = set()
    for clause in args.domain.split(",") if args.domain else ():
        parts = clause.split(":")
        if len(parts) != 3:
            raise ParameterError(f"domain clause must be name:lo:hi, got {clause!r}")
        name, lo, hi = parts
        if name not in names:
            raise ParameterError(f"domain coordinate {name!r} not in frame {names}")
        if name in given:
            raise ParameterError(f"duplicate domain coordinate {name!r}")
        given.add(name)
        try:
            domain[name] = (float(lo), float(hi))
        except ValueError:
            raise ParameterError(f"malformed domain clause {clause!r}")
    if not paraxial and len(given) != len(names):
        raise ParameterError(
            "arc-length tracing needs an explicit --domain covering every coordinate")
    if paraxial and names[-1] not in given and not 0.0 < args.z_end < math.inf:
        raise ParameterError(f"--z-end must be finite and > 0, got {args.z_end!r}")
    return tuple(domain.values())


def _cmd_trace(args) -> int:
    spec = _load_field(args)
    if args.mode == "3d":
        if spec.ndim != 3:
            raise ParameterError("--mode 3d needs a 3D field (bessel or a 3D plane wave)")
        parameterization = PARAXIAL
    else:
        if spec.ndim != 2:
            raise ParameterError(f"--mode {args.mode} applies to planar fields")
        parameterization = PARAXIAL if args.mode == "paraxial" else ARC_LENGTH
    paraxial = parameterization == PARAXIAL
    seeds = _resolve_seeds(args, spec)
    if not seeds:
        raise ParameterError("no seeds given")
    check_seeds(spec, seeds)
    # checked here, before its z range sets the default step
    domain = tuple(_require_interval("domain bounds", b)
                   for b in _resolve_domain(args, spec, seeds, paraxial))
    if args.step is not None:
        step = args.step
    elif paraxial:
        z_lo, z_hi = domain[-1]
        step = (z_hi - z_lo) / 1000.0
        if not 0.0 < step < math.inf:
            raise ParameterError(f"the z range ({z_lo}, {z_hi}) gives no default step "
                                 f"((z_hi - z_lo) / 1000 = {step}); pass --step")
    else:
        step = spec.wave.lambda_mm / 20.0
    cfg = TraceConfig(seeds=seeds, parameterization=parameterization, step=step,
                      max_steps=args.max_steps, domain=domain, vortex_guard=args.guard)
    trajectories = trace_streamline(spec, cfg, args.which)
    _write_trace_csv(args.out, trajectories)
    for tid, traj in enumerate(trajectories):
        print(f"trajectory {tid}: {len(traj.params)} points, {traj.termination}")
    return 0


def _cmd_force(args) -> int:
    spec = _load_field(args)
    grid = _grid_of(args)
    try:
        re_chi, im_chi = (float(tok) for tok in args.chi.split(","))
    except ValueError:
        raise ParameterError(f"--chi must be 're,im', got {args.chi!r}")
    chi = Polarizability(complex(re_chi, im_chi))
    return _write_layers(args, spec, grid, ("F_grad", "F_scat", "W"),
                         {"chi": [chi.chi.real, chi.chi.imag], "normalized": bool(args.normalized)},
                         chi=chi)


def _cmd_render(args) -> int:
    pgm = _render(args.input, args.layer, args.component)
    with open(args.out, "wb") as fh:
        fh.write(pgm)
    return 0


def _add_field_flags(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--field", help="path to a field-spec JSON file")
    group.add_argument("--field-json", help="inline field-spec JSON text")


def _add_grid_flags(sub):
    sub.add_argument("--grid", required=True,
                     help="two axes as name:lo:hi:count,name:lo:hi:count (mm)")
    sub.add_argument("--fixed", default="",
                     help="off-axis coordinates as name=value[,name=value]")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonflow",
        description="Deterministic exporter of local-momentum field maps and traces.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fieldmap", help="sample named observable layers on a grid")
    _add_field_flags(p)
    _add_grid_flags(p)
    p.add_argument("--layers", default="amp",
                   help=f"comma list from {','.join(ALL_LAYERS)}")
    p.add_argument("--delta-x-mm", type=float, default=1e-4,
                   help="calcite pointer shift used by the S1/S2/S3 layers")
    p.add_argument("--pol", choices=sorted(_POLS), default="diag",
                   help="input polarization for Stokes and spin-current layers")
    p.add_argument("--bound", choices=("uniform", "piecewise"), default="uniform",
                   help="spectrum bound model for the label layer")
    p.add_argument("--superluminal-guard", type=float, default=0.0,
                   help="relative margin above the bound before labeling superluminal")
    p.add_argument("--out", required=True)

    p = subs.add_parser("stokes", help="calcite weak-measurement readout maps")
    _add_field_flags(p)
    _add_grid_flags(p)
    p.add_argument("--delta-x-mm", type=float, default=1e-4)
    p.add_argument("--out", required=True)

    p = subs.add_parser("trace", help="integrate momentum streamlines to CSV")
    _add_field_flags(p)
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", help="CSV file of seed positions, one per row")
    seeds.add_argument("--seeds-inline", help="seeds as x,z;x,z or x,y,z;x,y,z")
    p.add_argument("--mode", choices=("paraxial", "arc", "3d"), default="paraxial")
    p.add_argument("--which", choices=("re", "im"), default="re")
    p.add_argument("--domain", default="",
                   help="bounds as name:lo:hi[,name:lo:hi]; defaults derived from seeds")
    p.add_argument("--z-end", type=float, default=10.0,
                   help="default trace length past the last seed (paraxial modes)")
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--max-steps", type=int, default=10000)
    p.add_argument("--guard", type=float, default=100.0,
                   help="vortex guard: step halving beyond |p| > guard*k")
    p.add_argument("--out", required=True)

    p = subs.add_parser("anomaly", help="vortices plus backflow/superluminal labels")
    _add_field_flags(p)
    _add_grid_flags(p)
    p.add_argument("--bound", choices=("uniform", "piecewise"), default="uniform")
    p.add_argument("--superluminal-guard", type=float, default=0.0)
    p.add_argument("--with-labels", action="store_true",
                   help="include the per-cell label grid in the JSON")
    p.add_argument("--out", required=True)

    p = subs.add_parser("force", help="dipole gradient/scattering force maps")
    _add_field_flags(p)
    _add_grid_flags(p)
    p.add_argument("--chi", default="1e-3,1e-4",
                   help="complex polarizability as re,im")
    p.add_argument("--normalized", action="store_true",
                   help="emit F/W (momentum units) instead of raw forces")
    p.add_argument("--out", required=True)

    p = subs.add_parser("render", help="write one scalar layer as a binary PGM")
    p.add_argument("--in", dest="input", required=True,
                   help="grid-result JSON produced by fieldmap/stokes/force")
    p.add_argument("--layer", required=True)
    p.add_argument("--component", choices=sorted(_COMPONENTS), default=None,
                   help="component selector for vector layers")
    p.add_argument("--out", required=True)

    return parser


def _warning_reporter(show):
    """A showwarning that prints ParameterWarning as "warning: ..." and passes
    every other warning on to show."""
    def report(message, category, *args, **kwargs):
        if issubclass(category, ParameterWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, *args, **kwargs)
    return report


def run(argv) -> int:
    """Parse argv (without the program name) and execute one subcommand."""
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.argv = argv
    try:
        with warnings.catch_warnings():
            # photonflow's own warnings never stop a valid command, even under -W error
            warnings.simplefilter("always", ParameterWarning)
            warnings.showwarning = _warning_reporter(warnings.showwarning)
            # looked up by name on each call: the parser is built once per process
            return globals()[f"_cmd_{args.command}"](args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error in {args.command} ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
