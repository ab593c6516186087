"""Deterministic command-line exporter for field maps, traces, and rasters.

Six subcommands: fieldmap (named observable layers on a grid), stokes
(calcite pointer readout vs. the true momentum), trace (streamline CSV),
anomaly (vortices plus backflow/superluminal labeling), force (dipole
force maps), render (PGM raster of one scalar layer).

The CLI holds no physics: each grid command samples its grid once and
hands the sample to the library's element-wise observables.

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
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .anomaly import anomalies_in_sample, vortices_in_sample
from .errors import ParameterError
from .fields import FieldSpec, GaussianPairSpec, field_from_dict
from .forces import Polarizability, force_from_sample, forces_from_momentum
from .grids import GridSpec, frame_names, sample_grid
from .observables import (PolarizationState, energy_density, local_momentum,
                          poynting_from_sample, singular_cells)
from .tracing import ARC_LENGTH, PARAXIAL, TraceConfig, trace_streamline
from .weakmeasure import (CalciteSpec, calcite_fields, predicted_parameters, readout_momentum,
                          stokes_parameters)

_POLS = {
    "diag": PolarizationState.linear_diag,
    "x": PolarizationState.linear_x,
    "y": PolarizationState.linear_y,
    "rcp": lambda: PolarizationState.circular(+1),
    "lcp": lambda: PolarizationState.circular(-1),
}


@dataclass(frozen=True)
class GridResult:
    """A sampled grid with named layers and a provenance block.

    Layers are stored JSON-ready: scalar layers as rows of numbers,
    vector layers as rows of [x, y, z] triples, categorical layers as
    rows of strings; undefined samples carry the string "singular".
    """

    grid: GridSpec
    layers: dict
    provenance: dict

    def __post_init__(self):
        n1, n2 = self.grid.counts
        for name, rows in self.layers.items():
            if len(rows) != n2 or any(len(row) != n1 for row in rows):
                raise ParameterError(
                    f"layer {name!r} must have {n2} rows of {n1} entries")

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.to_dict(),
            "layers": self.layers,
            "provenance": self.provenance,
        }


def _scalar_rows(values, mask=None):
    rows = np.asarray(values, dtype=float).tolist()
    if mask is not None:
        for j, i in np.argwhere(mask):
            rows[j][i] = "singular"
    return rows


def _vector_rows(vx, vy, vz, mask=None):
    rows = np.stack([np.asarray(vx, dtype=float),
                     np.asarray(vy, dtype=float),
                     np.asarray(vz, dtype=float)], axis=-1).tolist()
    if mask is not None:
        for j, i in np.argwhere(mask):
            rows[j][i] = "singular"
    return rows


# grid layers: name -> (library result the layer reads, rows built from that
# result and the sample's singular mask)
_LAYERS = {
    "amp": ("sample", lambda s, sing: _scalar_rows(s.amplitude)),
    "phase": ("sample", lambda s, sing: _scalar_rows(np.angle(s.psi), sing)),
    "re_px": ("momentum", lambda m, sing: _scalar_rows(m.re_p[0], sing)),
    "re_pz": ("momentum", lambda m, sing: _scalar_rows(m.re_p[-1], sing)),
    "im_px": ("momentum", lambda m, sing: _scalar_rows(m.im_p[0], sing)),
    "im_pz": ("momentum", lambda m, sing: _scalar_rows(m.im_p[-1], sing)),
    "S1": ("stokes", lambda st, sing: _scalar_rows(st[0], st[3])),
    "S2": ("stokes", lambda st, sing: _scalar_rows(st[1], st[3])),
    "S3": ("stokes", lambda st, sing: _scalar_rows(st[2], st[3])),
    "W": ("poynting", lambda dec, sing: _scalar_rows(dec.W)),
    "P_O": ("poynting", lambda dec, sing: _vector_rows(*dec.P_O)),
    "P_S": ("poynting", lambda dec, sing: _vector_rows(*dec.P_S)),
    "label": ("anomalies", lambda amap, sing: amap.label_names().tolist()),
    "S1_pred": ("prediction", lambda pr, sing: _scalar_rows(pr[0], sing)),
    "S2_pred": ("prediction", lambda pr, sing: _scalar_rows(pr[1], sing)),
    "S3_pred": ("prediction", lambda pr, sing: _scalar_rows(pr[2], sing)),
    "re_px_readout": ("readout", lambda ro, sing: _scalar_rows(ro[0], ro[2])),
    "im_px_readout": ("readout", lambda ro, sing: _scalar_rows(ro[1], ro[2])),
}
ALL_LAYERS = ("amp", "phase", "re_px", "re_pz", "im_px", "im_pz", "S1", "S2", "S3", "W",
              "P_O", "P_S", "label")
_STOKES_LAYERS = ("S1", "S2", "S3", "S1_pred", "S2_pred", "S3_pred", "re_px_readout",
                  "im_px_readout", "re_px", "im_px")


def _grid_layers(spec, grid, names, cal, args) -> dict:
    """Rows of each named layer from one grid sample; each library result is
    computed once, and only when a named layer reads it."""
    sample = sample_grid(spec, grid)
    floor, sing = singular_cells(sample.amplitude)
    calls = {
        "sample": lambda: sample,
        "momentum": lambda: local_momentum(sample, floor),
        "poynting": lambda: poynting_from_sample(sample, cal.pol),
        "stokes": lambda: stokes_parameters(
            *calcite_fields(spec, cal, grid.mesh(spec.ndim), sample.psi)),
        "prediction": lambda: predicted_parameters(get("momentum"), cal),
        "readout": lambda: (*readout_momentum(get("stokes")[0], get("stokes")[2], cal),
                            get("stokes")[3]),
        "anomalies": lambda: anomalies_in_sample(spec, grid, sample, args.bound,
                                                 args.superluminal_guard),
    }
    results = {}

    def get(source):
        if source not in results:
            results[source] = calls[source]()
        return results[source]

    return {name: _LAYERS[name][1](get(_LAYERS[name][0]), sing) for name in names}


def _load_field(args) -> FieldSpec:
    if getattr(args, "field_json", None):
        text = args.field_json
    else:
        try:
            with open(args.field, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParameterError(f"cannot read field spec: {exc}")
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"), allow_nan=False)
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
    layers = _grid_layers(spec, grid, names, cal, args)
    result = GridResult(grid=grid, layers=layers, provenance=_provenance(spec, args))
    _write_json(args.out, result.to_dict())
    return 0


def _cmd_stokes(args) -> int:
    """Exact calcite readout next to its first-order prediction and the truth."""
    spec = _load_field(args)
    grid = _grid_of(args)
    cal = CalciteSpec(delta_x=args.delta_x_mm, pol=_POLS[args.pol]())
    layers = _grid_layers(spec, grid, _STOKES_LAYERS, cal, args)
    result = GridResult(grid=grid, layers=layers, provenance=_provenance(spec, args))
    out = result.to_dict()
    out["delta_x_mm"] = cal.delta_x
    _write_json(args.out, out)
    return 0


def _cmd_anomaly(args) -> int:
    spec = _load_field(args)
    grid = _grid_of(args)
    sample = sample_grid(spec, grid)
    vortices = vortices_in_sample(spec, grid, sample)
    amap = anomalies_in_sample(spec, grid, sample, args.bound,
                               superluminal_guard=args.superluminal_guard)
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


def _read_seeds_file(path: str) -> tuple:
    seeds = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    seeds.append(tuple(float(tok) for tok in line.split(",")))
                except ValueError:
                    raise ParameterError(f"malformed seed row {line!r} in {path}")
    except OSError as exc:
        raise ParameterError(f"cannot read seeds: {exc}")
    return tuple(seeds)


def _resolve_seeds(args, spec) -> tuple:
    if args.seeds:
        return _read_seeds_file(args.seeds)
    if args.seeds_inline:
        seeds = []
        for clause in args.seeds_inline.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            try:
                seeds.append(tuple(float(tok) for tok in clause.split(",")))
            except ValueError:
                raise ParameterError(f"malformed inline seed {clause!r}")
        return tuple(seeds)
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


def _row3(vec, ndim: int) -> tuple:
    if ndim == 2:
        return (float(vec[0]), 0.0, float(vec[1]))
    return (float(vec[0]), float(vec[1]), float(vec[2]))


def _write_trace_csv(path: str, trajectories) -> None:
    header = "traj_id,s_or_z,x,y,z,re_px,re_py,re_pz,im_px,im_py,im_pz"
    lines = [header]
    for tid, traj in enumerate(trajectories):
        ndim = traj.points.shape[1] if traj.points.size else 0
        for param, point, momentum in zip(traj.params, traj.points, traj.momenta):
            x, y, z = _row3(point, ndim)
            re3 = _row3(momentum.real, ndim)
            im3 = _row3(momentum.imag, ndim)
            cells = [str(tid), repr(float(param)), repr(x), repr(y), repr(z)]
            cells += [repr(v) for v in re3] + [repr(v) for v in im3]
            lines.append(",".join(cells))
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
    sample = sample_grid(spec, grid)
    if args.normalized:
        floor, mask = singular_cells(sample.amplitude)
        f_grad, f_scat = forces_from_momentum(local_momentum(sample, floor), chi)
    else:
        mask = None
        f_grad, f_scat = force_from_sample(sample, chi)
    layers = {
        "F_grad": _vector_rows(*f_grad, mask),
        "F_scat": _vector_rows(*f_scat, mask),
        "W": _scalar_rows(energy_density(sample)),
    }
    result = GridResult(grid=grid, layers=layers, provenance=_provenance(spec, args))
    out = result.to_dict()
    out["chi"] = [chi.chi.real, chi.chi.imag]
    out["normalized"] = bool(args.normalized)
    _write_json(args.out, out)
    return 0


_COMPONENTS = {"x": 0, "y": 1, "z": 2}


def _cmd_render(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read grid result: {exc}")
    except json.JSONDecodeError as exc:
        raise ParameterError(f"grid result is not valid JSON: {exc}")
    layers = obj.get("layers")
    if not isinstance(layers, dict) or args.layer not in layers:
        raise ParameterError(f"no layer {args.layer!r} in {args.input}")
    rows = layers[args.layer]

    height = len(rows)
    width = len(rows[0]) if height else 0
    if height < 1 or width < 1:
        raise ParameterError(f"layer {args.layer!r} is empty")
    values = np.zeros((height, width))
    mask = np.zeros((height, width), dtype=bool)
    for j, row in enumerate(rows):
        if len(row) != width:
            raise ParameterError(f"layer {args.layer!r} rows have inconsistent lengths")
        for i, cell in enumerate(row):
            if cell == "singular":
                mask[j, i] = True
            elif isinstance(cell, list):
                if args.component is None:
                    raise ParameterError(
                        f"layer {args.layer!r} is a vector layer; pass --component x|y|z")
                values[j, i] = float(cell[_COMPONENTS[args.component]])
            elif isinstance(cell, (int, float)) and not isinstance(cell, bool):
                values[j, i] = float(cell)
            else:
                raise ParameterError(
                    f"layer {args.layer!r} is not numeric (cell {cell!r}); "
                    "categorical layers cannot be rendered")

    live = values[~mask]
    pixels = np.zeros((height, width), dtype=np.uint8)
    if live.size:
        vmin = float(live.min())
        vmax = float(live.max())
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
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
