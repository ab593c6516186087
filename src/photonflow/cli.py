"""Deterministic command-line exporter for field maps, traces, and rasters.

Six subcommands: fieldmap (named observable layers on a grid), stokes
(calcite pointer readout vs. the true momentum), trace (streamline CSV),
anomaly (vortices plus backflow/superluminal labeling), force (dipole
force maps), render (PGM raster of one scalar layer).

The CLI holds no physics: each grid command samples its grid once, and
every library result it writes is derived from that sample at most once.

Output discipline: JSON is compact with sorted keys, floats are written
as Python's shortest round-trip repr writes them, CSV floats likewise, PGM
is binary P5; no timestamps or environment data enter any output, so
identical inputs give byte-identical files.  orjson writes every float of
the layers and trace rows.  It prints the digits repr prints (both print
the unique shortest digits that round-trip and lie nearest the value), so
only the layout differs, in two ways that are fixed on orjson's bytes with
numpy: an exponent gets repr's + or leading 0 (1e16 and 1e-7 become 1e+16
and 1e-07), and 1e-5 <= |x| < 1e-4 is moved into exponent form (0.0000123
becomes 1.23e-05).  Masked and non-finite floats go through orjson as NaN,
which it writes as null, and each null is replaced in order.  Samples where
a quantity is undefined are written as the string "singular", never as
silent zeros.  photonflow's own warnings (ParameterWarning) go to stderr as
"warning: ..." and never stop a command.  Exit codes: 0 success, 2
validation/usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from functools import cache
from typing import NamedTuple

import numpy as np

from . import __version__
from .anomaly import LABELS, anomalies_in_sample, check_label_options, vortices_in_sample
from .errors import ParameterError, ParameterWarning
from .fields import FieldSpec, GaussianPairSpec, _require_interval, field_from_dict
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


@cache
def _orjson():
    """orjson, imported on the first artifact write or read, as fields.special is.

    orjson's first decode allocates the parse buffer (8 MiB) it keeps for the
    life of the process.  It is made here, while the process is small, so that
    malloc maps it on its own; made by a later render, after grid arrays were
    freed, it would stay in the heap among them."""
    import orjson
    orjson.loads(b"0")
    return orjson


class _FloatLayer(NamedTuple):
    """A float layer as written: its values and the singular mask of its
    cells, or None.  A vector layer's values end in an [x, y, z] axis that
    its mask lacks."""
    values: np.ndarray
    mask: np.ndarray | None


class _LabelGrid(NamedTuple):
    """A grid of anomaly.LABELS codes, written as nested lists of their names."""
    codes: np.ndarray


_LABEL_NAMES = np.array(LABELS, dtype=object)


def _byte_class(chars: bytes) -> np.ndarray:
    """A lookup table: True at the byte values in chars."""
    table = np.zeros(256, dtype=bool)
    table[list(chars)] = True
    return table


_DIGIT = _byte_class(b"0123456789")
_TOKEN_END = _byte_class(b",]")
_TOKEN_START = _byte_class(b"[,-")  # the byte before a number's first digit
_E, _MINUS, _DOT, _ZERO = b"e-.0"
_BLOCK = 1 << 14  # floats per _float_text call when a layer is written


def _exponent_points(buf) -> list:
    """Where repr's exponent differs from orjson's: the + after an e not
    followed by -, and the 0 before a one-digit negative exponent."""
    e = np.flatnonzero(buf == _E)
    positive = buf[e + 1] != _MINUS
    short = e[~positive]
    short = short[_TOKEN_END[buf[short + 3]]]  # e-7, then , or ]
    return [e[positive] + 1, short + 2]


def _band_numbers(buf, band: int) -> tuple:
    """Where the `band` numbers written as 0.0000... start (after [, , or
    -), and how many significant digits follow the 0.0000 of each."""
    dots = np.flatnonzero(buf[:-5] == _DOT)
    for k in (4, 3, 2, 1, -1):
        dots = dots[buf[dots + k] == _ZERO]
    starts = dots[_TOKEN_START[buf[dots - 2]]] - 1
    if len(starts) != band:
        raise RuntimeError(f"orjson wrote {len(starts)} numbers as 0.0000... for {band} floats")
    end = starts + 7
    while (more := _DIGIT[buf[end]]).any():
        end += more
    return starts, end - starts - 6


def _repr_layout(raw: bytes, band: int):
    """orjson's text of a float array laid out as repr lays it out.

    orjson prints the digits that repr prints (both print the shortest
    digits that round-trip) but differs in two layouts, fixed here on the
    bytes: after an exponent's e it writes no + and no leading 0 (1e16 and
    1e-7 for repr's 1e+16 and 1e-07), and it writes the `band` floats with
    1e-5 <= |x| < 1e-4 as 0.0000123 for repr's 1.23e-05.  Returns raw
    itself when neither layout occurs, else a uint8 array."""
    exponents = b"e" in raw
    if not (exponents or band):
        return raw
    buf = np.frombuffer(raw, dtype=np.uint8)
    at, put = [], b""  # insertion points and the byte inserted at each
    if exponents:
        at += _exponent_points(buf)
        put += b"+0"
    if band:
        starts, digits = _band_numbers(buf, band)
        at = [p - 6 * np.searchsorted(starts, p) for p in at]  # once the 0.0000s are gone
        buf = np.delete(buf, (starts[:, None] + np.arange(6)).ravel())
        starts -= 6 * np.arange(band)
        at += [starts[digits > 1] + 1] + [starts + digits] * 4  # 1.23e-05, 1e-05
        put += b".e-05"
    values = np.concatenate([np.full(len(p), c, np.uint8) for p, c in zip(at, put)])
    return np.insert(buf, np.concatenate(at), values)


def _float_text(values, mask=None) -> str:
    """The text of json.dumps(cells.tolist(), separators=(",", ":")), where
    cells holds the floats of `values` (of one or more dimensions) with
    "singular" on the cells of `mask`.

    orjson writes every float and _repr_layout gives its text repr's layout.
    Masked and non-finite floats are set to NaN, which orjson writes as null,
    and the nulls are replaced in order by "singular" and the floats' repr
    (inf, -inf and nan, which only a trace CSV holds)."""
    floats = np.array(values, dtype=np.float64, order="C")
    bad = ~np.isfinite(floats)
    nulls = bad
    if mask is not None:
        masked = np.broadcast_to(mask.reshape(mask.shape + (1,) * (floats.ndim - mask.ndim)),
                                 floats.shape)
        nulls = bad | masked
        bad &= ~masked
    texts = None
    if nulls.any():
        texts = ['"singular"'] * np.count_nonzero(nulls)
        for i, value in zip(np.flatnonzero(bad[nulls]).tolist(), floats[bad].tolist()):
            texts[i] = repr(value)
        floats[nulls] = np.nan
    size = np.abs(floats)
    band = np.count_nonzero((size >= 1e-5) & (size < 1e-4))
    lib = _orjson()
    text = str(_repr_layout(lib.dumps(floats, option=lib.OPT_SERIALIZE_NUMPY), band), "ascii")
    if texts is None:
        return text
    pieces = text.split("null")
    if len(pieces) != len(texts) + 1:
        raise RuntimeError(f"orjson wrote {len(pieces) - 1} nulls for {len(texts)} floats")
    out = [""] * (2 * len(texts) + 1)
    out[0::2] = pieces
    out[1::2] = texts
    text = "".join(out)
    if mask is not None and mask.ndim < floats.ndim:  # a masked [x, y, z] cell is one "singular"
        text = text.replace('["singular","singular","singular"]', '"singular"')
    return text


def _write_rows(fh, values, text) -> None:
    """Write the list of the rows of values one block of rows at a time, so
    that no whole-layer text and no whole-layer temporary is held.  text(i, j)
    is the text of the list of rows i to j."""
    rows = max(1, _BLOCK * len(values) // max(1, values.size))
    fh.write("[")
    for i in range(0, len(values), rows):
        if i:
            fh.write(",")
        fh.write(text(i, i + rows)[1:-1])
    fh.write("]")


def _write_floats(fh, values, mask=None) -> None:
    """Write _float_text(values, mask) one block of rows at a time."""
    _write_rows(fh, values, lambda i, j: _float_text(values[i:j],
                                                     None if mask is None else mask[i:j]))


def _write_labels(fh, codes) -> None:
    """Write the names of the label codes one block of rows at a time.  orjson
    writes them: the names are ASCII, so its text is json.dumps's."""
    def text(i, j):
        return _orjson().dumps(_LABEL_NAMES[codes[i:j]].tolist()).decode("ascii")
    _write_rows(fh, codes, text)


def _scalar_layer(name, values, mask=None) -> _FloatLayer:
    """JSON has no inf or nan: a layer that over- or underflows outside its
    singular cells cannot be written.  A vector cell is finite when all three
    of its components are."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if mask is not None:
        finite = finite.reshape(mask.shape + (-1,)).all(axis=-1) | mask
    if not finite.all():
        raise ParameterError(f"layer {name!r} cannot be represented: it holds non-finite "
                             "values outside singular cells")
    return _FloatLayer(values, mask)


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
    "label": lambda n, d: _LabelGrid(d["anomalies"].labels),
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
        "vortices": lambda d: vortices_in_sample(spec, grid, sample, *d["singular"]),
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


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {what}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"cannot read {what}: {path!r} is not UTF-8 text ({exc})")


def _decode(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{what} is not valid JSON: {exc}")
    except RecursionError:  # nested past the interpreter's recursion limit
        raise ParameterError(f"{what} nests arrays or objects too deeply to decode")


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


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _write_object(fh, obj: dict) -> None:
    """Write obj as _dumps writes it, one value at a time: float layers go
    through _write_floats, label grids through _write_labels and dicts are
    walked likewise."""
    fh.write("{")
    for i, key in enumerate(sorted(obj)):
        value = obj[key]
        fh.write(f"{',' if i else ''}{_dumps(key)}:")
        if isinstance(value, _FloatLayer):
            _write_floats(fh, *value)
        elif isinstance(value, _LabelGrid):
            _write_labels(fh, value.codes)
        elif isinstance(value, dict):
            _write_object(fh, value)
        else:
            fh.write(_dumps(value))
    fh.write("}")


def _write_json(path: str, obj: dict) -> None:
    # each piece is written as soon as it is encoded: no whole-artifact string
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_object(fh, obj)
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
    """Exact calcite readout of the diagonal input, its first-order prediction and the truth."""
    spec = _load_field(args)
    grid = _grid_of(args)
    cal = CalciteSpec(delta_x=args.delta_x_mm)
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
        out["labels"] = _LabelGrid(amap.labels)
    del derived, amap  # the grid sample and momentum, before the artifact is written
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


def _write_trace_csv(path: str, trajectories) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("traj_id,s_or_z,x,y,z,re_px,re_py,re_pz,im_px,im_py,im_pz\n")
        for tid, traj in enumerate(trajectories):  # each holds at least its seed
            ndim = traj.points.shape[1]
            momenta = embed3(traj.momenta.T, ndim).T
            rows = np.column_stack(
                [traj.params, embed3(traj.points.T, ndim).T, momenta.real, momenta.imag])
            # [[a,b],[c,d]] becomes the lines "tid,a,b" and "tid,c,d"
            text = _float_text(rows)[2:-2].replace("],[", f"\n{tid},")
            fh.write(f"{tid},{text}\n")


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


_COMPONENTS = {"x": 0, "y": 1, "z": 2}
_NUMBERS = (int, float)  # exact types: a bool is not a number


def _non_finite(layer: str) -> ParameterError:
    return ParameterError(f"layer {layer!r} holds non-finite values (NaN, Infinity or a "
                          "numeral beyond the float range)")


def _render_cells(layer: str, rows: list, width: int, component):
    """Float values and singular mask of a layer's rows.  Rows and cells are
    read in row-major order and the first failure raises: a row of the wrong
    length, a cell that is neither a number nor "singular" (nor, with a
    component, a vector cell holding a number there), or an integer numeral
    beyond the float range.  A number is an int or a float, never a bool;
    NaN and infinite floats pass, for the caller to report."""
    axis = _COMPONENTS.get(component)
    values = np.empty((len(rows), width))
    mask = np.zeros((len(rows), width), dtype=bool)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParameterError(f"layer {layer!r} rows have inconsistent lengths")
        numbers = row  # copied only when a cell is not a float
        for j, cell in enumerate(row):
            if type(cell) is float:
                continue
            if type(cell) is list and axis is not None:
                cell = cell[axis] if axis < len(cell) else None
                if type(cell) not in _NUMBERS:
                    raise ParameterError(f"layer {layer!r} has a vector cell without a "
                                         f"numeric {component} component")
            if type(cell) in _NUMBERS:
                try:
                    value = float(cell)
                except OverflowError:  # an integer numeral too large for a float
                    raise _non_finite(layer)
            elif cell == "singular":
                mask[i, j] = True
                value = 0.0
            elif type(cell) is list:
                raise ParameterError(f"layer {layer!r} is a vector layer; pass --component x|y|z")
            else:
                raise ParameterError(f"layer {layer!r} is not numeric (cell {cell!r}); "
                                     "categorical layers cannot be rendered")
            if numbers is row:
                numbers = list(row)
            numbers[j] = value
        values[i] = numbers
    return values, mask


def _render_pgm(args, obj) -> bytes:
    """The binary PGM of layer args.layer of a decoded artifact."""
    layers = obj.get("layers") if isinstance(obj, dict) else None
    if not isinstance(layers, dict) or args.layer not in layers:
        raise ParameterError(f"no layer {args.layer!r} in {args.input}")
    rows = layers[args.layer]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ParameterError(f"layer {args.layer!r} is not a list of rows")

    height = len(rows)
    width = len(rows[0]) if height else 0
    if height < 1 or width < 1:
        raise ParameterError(f"layer {args.layer!r} is empty")
    values, mask = _render_cells(args.layer, rows, width, args.component)
    if not np.isfinite(values).all():
        raise _non_finite(args.layer)

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
    return f"P5\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()


def _cmd_render(args) -> int:
    """orjson decodes the artifact's bytes.  Where it raises, or the render
    would exit 2, json decodes the text again: every rejection is json's
    reading, with json's message."""
    lib = _orjson()
    try:
        with open(args.input, "rb") as fh:
            pgm = _render_pgm(args, lib.loads(fh.read()))
    except (OSError, lib.JSONDecodeError, ParameterError):
        pgm = None  # outside the handler: its traceback would keep orjson's objects alive
    if pgm is None:
        pgm = _render_pgm(args, _decode(_read_text(args.input, "grid result"), "grid result"))
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
