"""Deterministic command-line exporter for field maps, traces, and rasters.

Six subcommands: fieldmap (named observable layers on a grid), stokes
(calcite pointer readout vs. the true momentum), trace (streamline CSV),
anomaly (vortices plus backflow/superluminal labeling), force (dipole
force maps), render (PGM raster of one scalar layer).

The CLI holds no physics: each grid command samples its grid once, and
every library result it writes is derived from that sample at most once.

Output discipline: JSON is compact with sorted keys, floats use Python's
shortest round-trip repr, CSV floats likewise, PGM is binary P5; no
timestamps or environment data enter any output, so identical inputs
give byte-identical files.  Samples where a quantity is undefined are
written as the string "singular", never as silent zeros.  Exit codes:
0 success, 2 validation/usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain
from operator import itemgetter

import numpy as np

from . import __version__
from .anomaly import anomalies_in_sample, check_label_options, vortices_in_sample
from .errors import ParameterError
from .fields import FieldSpec, GaussianPairSpec, field_from_dict
from .forces import Polarizability, force_from_sample, forces_from_momentum
from .grids import GridSpec, frame_names, sample_grid
from .observables import (PolarizationState, embed3, energy_density, local_momentum,
                          poynting_from_sample, singular_cells)
from .tracing import ARC_LENGTH, PARAXIAL, TraceConfig, check_seeds, trace_streamline
from .weakmeasure import (CalciteSpec, calcite_fields, predicted_parameters, readout_momentum,
                          stokes_parameters)

_POLS = {
    "diag": PolarizationState.linear_diag,
    "x": PolarizationState.linear_x,
    "y": PolarizationState.linear_y,
    "rcp": lambda: PolarizationState.circular(+1),
    "lcp": lambda: PolarizationState.circular(-1),
}


def _check_finite(name, finite, mask):
    """JSON has no inf or nan: a layer that over- or underflows outside its
    singular cells cannot be written."""
    if mask is not None:
        finite = finite | mask
    if not finite.all():
        raise ParameterError(f"layer {name!r} cannot be represented: it holds non-finite "
                             "values outside singular cells")


def _scalar_rows(name, values, mask=None):
    values = np.asarray(values, dtype=float)
    _check_finite(name, np.isfinite(values), mask)
    if mask is None or not mask.any():
        return values.tolist()
    cells = values.astype(object)
    cells[mask] = "singular"
    return cells.tolist()


def _vector_rows(name, vx, vy, vz, mask=None):
    triples = np.stack([np.asarray(vx, dtype=float),
                        np.asarray(vy, dtype=float),
                        np.asarray(vz, dtype=float)], axis=-1)
    _check_finite(name, np.isfinite(triples).all(axis=-1), mask)
    if mask is None or not mask.any():
        return triples.tolist()
    # one object cell per [x, y, z] list, so a whole cell can become "singular"
    cells = np.fromiter(triples.reshape(-1, 3).tolist(), dtype=object, count=mask.size)
    cells[mask.ravel()] = "singular"
    return cells.reshape(mask.shape).tolist()


# grid layers: name -> rows built from the layer name and the command's
# library results (_derivations)
_LAYERS = {
    "amp": lambda n, d: _scalar_rows(n, d["sample"].amplitude),
    "phase": lambda n, d: _scalar_rows(n, np.angle(d["sample"].psi), d["mask"]),
    "re_px": lambda n, d: _scalar_rows(n, d["momentum"].re_p[0], d["mask"]),
    "re_pz": lambda n, d: _scalar_rows(n, d["momentum"].re_p[-1], d["mask"]),
    "im_px": lambda n, d: _scalar_rows(n, d["momentum"].im_p[0], d["mask"]),
    "im_pz": lambda n, d: _scalar_rows(n, d["momentum"].im_p[-1], d["mask"]),
    "S1": lambda n, d: _scalar_rows(n, d["stokes"][0], d["stokes"][3]),
    "S2": lambda n, d: _scalar_rows(n, d["stokes"][1], d["stokes"][3]),
    "S3": lambda n, d: _scalar_rows(n, d["stokes"][2], d["stokes"][3]),
    "W": lambda n, d: _scalar_rows(n, energy_density(d["sample"])),
    "P_O": lambda n, d: _vector_rows(n, *d["poynting"].P_O),
    "P_S": lambda n, d: _vector_rows(n, *d["poynting"].P_S),
    "label": lambda n, d: d["anomalies"].label_names().tolist(),
    "S1_pred": lambda n, d: _scalar_rows(n, d["prediction"][0], d["mask"]),
    "S2_pred": lambda n, d: _scalar_rows(n, d["prediction"][1], d["mask"]),
    "S3_pred": lambda n, d: _scalar_rows(n, d["prediction"][2], d["mask"]),
    "re_px_readout": lambda n, d: _scalar_rows(n, d["readout"][0], d["stokes"][3]),
    "im_px_readout": lambda n, d: _scalar_rows(n, d["readout"][1], d["stokes"][3]),
    "F_grad": lambda n, d: _vector_rows(n, *d["force"][0], d["force"][2]),
    "F_scat": lambda n, d: _vector_rows(n, *d["force"][1], d["force"][2]),
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
        "vortices": lambda d: vortices_in_sample(spec, grid, sample, *d["singular"]),
        "anomalies": lambda d: anomalies_in_sample(spec, grid, d["mask"], d["momentum"],
                                                   args.bound, args.superluminal_guard),
    })


def _write_layers(args, spec, grid, names, extra, cal=None, chi=None) -> int:
    """Write the named layers of one grid sample and the command's extra keys."""
    derived = _derivations(spec, grid, args, cal, chi)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by name, as in sample_grid
        layers = {name: _LAYERS[name](name, derived) for name in names}
    _write_json(args.out, {"grid": grid.to_dict(), "layers": layers,
                           "provenance": _provenance(spec, args), **extra})
    return 0


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {what}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"cannot read {what}: {path!r} is not UTF-8 text ({exc})")


def _load_field(args) -> FieldSpec:
    if getattr(args, "field_json", None):
        text = args.field_json
    else:
        text = _read_text(args.field, "field spec")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"field spec is not valid JSON: {exc}")
    return field_from_dict(obj)


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


def _write_json(path: str, obj) -> None:
    # json.dumps runs the C encoder; json.dump streams through the pure-Python
    # one.  Both give the same text.  Two writes, since text + "\n" would copy
    # the whole artifact once more.
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


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
    return _write_layers(args, spec, grid, names, {}, cal=cal)


def _cmd_stokes(args) -> int:
    """Exact calcite readout next to its first-order prediction and the truth."""
    spec = _load_field(args)
    grid = _grid_of(args)
    cal = CalciteSpec(delta_x=args.delta_x_mm, pol=_POLS[args.pol]())
    return _write_layers(args, spec, grid, _STOKES_LAYERS, {"delta_x_mm": cal.delta_x},
                         cal=cal)


def _cmd_anomaly(args) -> int:
    spec = _load_field(args)
    grid = _grid_of(args)
    check_label_options(spec, args.bound, args.superluminal_guard)
    derived = _derivations(spec, grid, args)
    vortices = derived["vortices"]
    amap = derived["anomalies"]
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
        out["labels"] = amap.label_names().tolist()
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


def _read_seeds_file(path: str) -> tuple:
    lines = _read_text(path, "seeds").split("\n")
    return _parse_seeds([line for line in lines if not line.lstrip().startswith("#")], path)


def _resolve_seeds(args, spec) -> tuple:
    if args.seeds:
        return _read_seeds_file(args.seeds)
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
    overrides = {}
    if args.domain:
        for clause in args.domain.split(","):
            parts = clause.split(":")
            if len(parts) != 3:
                raise ParameterError(f"domain clause must be name:lo:hi, got {clause!r}")
            name, lo, hi = parts
            if name not in names:
                raise ParameterError(f"domain coordinate {name!r} not in frame {names}")
            try:
                overrides[name] = (float(lo), float(hi))
            except ValueError:
                raise ParameterError(f"malformed domain clause {clause!r}")
    if not paraxial and set(overrides) != set(names):
        raise ParameterError(
            "arc-length tracing needs an explicit --domain covering every coordinate")
    domain = []
    arr = np.asarray(seeds, dtype=float)
    for i, name in enumerate(names):
        if name in overrides:
            domain.append(overrides[name])
            continue
        lo, hi = float(arr[:, i].min()), float(arr[:, i].max())
        if paraxial and name == names[-1]:
            domain.append((lo, hi + args.z_end))
        else:
            pad = max(1.0, hi - lo)
            domain.append((lo - pad, hi + pad))
    return tuple(domain)


def _write_trace_csv(path: str, trajectories) -> None:
    header = "traj_id,s_or_z,x,y,z,re_px,re_py,re_pz,im_px,im_py,im_pz"
    lines = [header]
    for tid, traj in enumerate(trajectories):
        ndim = traj.points.shape[1]
        momenta = embed3(traj.momenta.T, ndim).T
        rows = np.column_stack(
            [traj.params, embed3(traj.points.T, ndim).T, momenta.real, momenta.imag])
        lines += [",".join([str(tid)] + [repr(v) for v in row]) for row in rows.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    domain = _resolve_domain(args, spec, seeds, paraxial)
    if args.step is not None:
        step = args.step
    elif paraxial:
        z_lo, z_hi = domain[-1]
        step = (z_hi - z_lo) / 1000.0
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


_COMPONENTS = {"x": 0, "y": 1, "z": 2}
_ROWS = (list, str, dict)  # len() works; the cells of str and dict rows are rejected


def _non_finite(layer: str) -> ParameterError:
    return ParameterError(f"layer {layer!r} holds non-finite values (NaN, Infinity or a "
                          "numeral beyond the float range)")


def _render_cells(layer: str, cells, component):
    """Float values and singular mask of a layer's cells (a flat object array
    in row-major order).  The first cell that cannot be rendered raises; the
    cells before it are converted first, so their own failures come first."""
    types = np.fromiter(map(type, cells), dtype=object, count=cells.size)
    mask = np.zeros(cells.size, dtype=bool)
    vectors = np.zeros(cells.size, dtype=bool)
    offending = np.zeros(cells.size, dtype=bool)
    for kind in set(types.tolist()) - {int, float}:
        of_kind = types == kind
        if kind is str:
            mask[of_kind] = cells[of_kind] == "singular"
            offending |= of_kind & ~mask
        elif kind is list and component is not None:
            vectors = of_kind
        else:
            offending |= of_kind
    end = int(offending.argmax()) if offending.any() else cells.size

    numbers = cells[:end].copy()
    numbers[(mask | vectors)[:end]] = 0.0
    values = np.zeros(cells.size)
    picks = np.flatnonzero(vectors[:end])
    try:
        values[:end] = numbers.astype(float)
        if picks.size:
            components = map(itemgetter(_COMPONENTS[component]), cells[picks])
            values[picks] = np.fromiter(map(float, components), dtype=float, count=picks.size)
    except OverflowError:  # an integer numeral too large for a float
        raise _non_finite(layer)
    except (IndexError, TypeError, ValueError):
        raise ParameterError(
            f"layer {layer!r} has a vector cell without a numeric {component} component")

    if end < cells.size:
        cell = cells[end]
        if isinstance(cell, list):
            raise ParameterError(
                f"layer {layer!r} is a vector layer; pass --component x|y|z")
        raise ParameterError(
            f"layer {layer!r} is not numeric (cell {cell!r}); "
            "categorical layers cannot be rendered")
    return values, mask


def _cmd_render(args) -> int:
    try:
        obj = json.loads(_read_text(args.input, "grid result"))
    except json.JSONDecodeError as exc:
        raise ParameterError(f"grid result is not valid JSON: {exc}")
    layers = obj.get("layers") if isinstance(obj, dict) else None
    if not isinstance(layers, dict) or args.layer not in layers:
        raise ParameterError(f"no layer {args.layer!r} in {args.input}")
    rows = layers[args.layer]
    if not isinstance(rows, list) or not all(isinstance(row, _ROWS) for row in rows):
        raise ParameterError(f"layer {args.layer!r} is not a list of rows")

    height = len(rows)
    width = len(rows[0]) if height else 0
    if height < 1 or width < 1:
        raise ParameterError(f"layer {args.layer!r} is empty")
    # rows are checked in order: a row of the wrong length is reported only
    # after the cells of the rows above it pass
    full = next((j for j, row in enumerate(rows) if len(row) != width), height)
    cells = np.fromiter(chain.from_iterable(rows[:full]), dtype=object, count=full * width)
    values, mask = _render_cells(args.layer, cells, args.component)
    if full < height:
        raise ParameterError(f"layer {args.layer!r} rows have inconsistent lengths")
    if not np.isfinite(values).all():
        raise _non_finite(args.layer)
    values = values.reshape(height, width)
    mask = mask.reshape(height, width)

    live = values[~mask]
    pixels = np.zeros((height, width), dtype=np.uint8)
    if live.size:
        vmin = float(live.min())
        vmax = float(live.max())
        if not math.isfinite(vmax - vmin):  # the values span more than a double holds
            values, vmin, vmax = 0.5 * values, 0.5 * vmin, 0.5 * vmax
        if vmax == vmin:
            pixels[~mask] = 128
        else:
            scaled = np.rint((values - vmin) / (vmax - vmin) * 255.0)
            pixels = np.clip(scaled, 0, 255).astype(np.uint8)
            pixels[mask] = 0
    # Row 0 of the data is the lowest second-axis coordinate; PGM viewers
    # draw row 0 at the top, so maps appear flipped vs. plot conventions.
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    with open(args.out, "wb") as fh:
        fh.write(header + pixels.tobytes())
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
    p.set_defaults(handler=_cmd_fieldmap)

    p = subs.add_parser("stokes", help="calcite weak-measurement readout maps")
    _add_field_flags(p)
    _add_grid_flags(p)
    p.add_argument("--delta-x-mm", type=float, default=1e-4)
    p.add_argument("--pol", choices=sorted(_POLS), default="diag")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_stokes)

    p = subs.add_parser("trace", help="integrate momentum streamlines to CSV")
    _add_field_flags(p)
    p.add_argument("--seeds", help="CSV file of seed positions, one per row")
    p.add_argument("--seeds-inline", help="seeds as x,z;x,z or x,y,z;x,y,z")
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
    p.set_defaults(handler=_cmd_trace)

    p = subs.add_parser("anomaly", help="vortices plus backflow/superluminal labels")
    _add_field_flags(p)
    _add_grid_flags(p)
    p.add_argument("--bound", choices=("uniform", "piecewise"), default="uniform")
    p.add_argument("--superluminal-guard", type=float, default=0.0)
    p.add_argument("--with-labels", action="store_true",
                   help="include the per-cell label grid in the JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_anomaly)

    p = subs.add_parser("force", help="dipole gradient/scattering force maps")
    _add_field_flags(p)
    _add_grid_flags(p)
    p.add_argument("--chi", default="1e-3,1e-4",
                   help="complex polarizability as re,im")
    p.add_argument("--normalized", action="store_true",
                   help="emit F/W (momentum units) instead of raw forces")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_force)

    p = subs.add_parser("render", help="write one scalar layer as a binary PGM")
    p.add_argument("--in", dest="input", required=True,
                   help="grid-result JSON produced by fieldmap/stokes/force")
    p.add_argument("--layer", required=True)
    p.add_argument("--component", choices=sorted(_COMPONENTS), default=None,
                   help="component selector for vector layers")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_render)

    return parser


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
        return args.handler(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error in {args.command} ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
