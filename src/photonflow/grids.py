"""Rectangular sampling grids shared by the map-making layers.

A grid is two sampled axes named after frame coordinates ({x, y, z}),
plus fixed values for any frame coordinate not on an axis (a 3D field
sampled on a 2D slice).  Coordinates are open axes in the field's frame
order: the first grid axis, shape (1, counts1), varies along columns, the
second, (counts2, 1), along rows, and off-axis ones are floats; no dense
mesh is built.  Orientation-sensitive consumers (vortex charge signs)
follow the right-handed (axis1, axis2) order as given.  sample_grid
evaluates a field on every node once, for all of the map-making layers, a
block of whole rows at a time into one buffer; the anomaly job reads the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fields import FieldSample, _require_finite, _require_interval

AXIS_NAMES = ("x", "y", "z")
_BLOCK_CELLS = 1 << 15  # cells per block of whole rows in which a grid is evaluated


def frame_names(ndim: int) -> tuple:
    return ("x", "z") if ndim == 2 else ("x", "y", "z")


@dataclass(frozen=True)
class GridSpec:
    """Two named axes with ranges (mm) and sample counts.

    fixed holds (name, value) pairs for off-axis frame coordinates;
    coordinates neither on an axis nor fixed default to 0.
    """

    axes: tuple
    ranges: tuple
    counts: tuple
    fixed: tuple = ()

    def __post_init__(self):
        axes = tuple(self.axes)
        if len(axes) != 2 or len(set(axes)) != 2:
            raise ParameterError(f"exactly two distinct axes required, got {axes!r}")
        for name in axes:
            if name not in AXIS_NAMES:
                raise ParameterError(f"axis name must be one of {AXIS_NAMES}, got {name!r}")
        object.__setattr__(self, "axes", axes)

        ranges = tuple(self.ranges)
        if len(ranges) != 2:
            raise ParameterError("one (lo, hi) range per axis required")
        object.__setattr__(self, "ranges", tuple(_require_interval("ranges", r) for r in ranges))

        if not all(float(c).is_integer() for c in self.counts):  # int() would truncate 2.9
            raise ParameterError(f"sample counts must be whole numbers, got {self.counts!r}")
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != 2 or any(c < 2 for c in counts):
            raise ParameterError(f"two sample counts >= 2 required, got {self.counts!r}")
        object.__setattr__(self, "counts", counts)

        fixed = tuple((str(name), float(value)) for name, value in self.fixed)
        for name, value in fixed:
            if name not in AXIS_NAMES:
                raise ParameterError(f"fixed coordinate must be one of {AXIS_NAMES}, got {name!r}")
            if name in axes:
                raise ParameterError(f"coordinate {name!r} is both an axis and fixed")
            _require_finite(f"fixed {name}", value)
        if len({name for name, _ in fixed}) != len(fixed):
            raise ParameterError("duplicate fixed coordinate")
        object.__setattr__(self, "fixed", fixed)

    @classmethod
    def from_string(cls, text: str, fixed: tuple = ()) -> "GridSpec":
        """Parse 'x:lo:hi:n,z:lo:hi:m' (two comma-separated axis clauses)."""
        clauses = [c for c in text.split(",") if c]
        if len(clauses) != 2:
            raise ParameterError(f"grid needs exactly two axis clauses, got {text!r}")
        axes = []
        ranges = []
        counts = []
        for clause in clauses:
            parts = clause.split(":")
            if len(parts) != 4:
                raise ParameterError(
                    f"axis clause must be name:lo:hi:count, got {clause!r}")
            name, lo, hi, n = parts
            try:
                ranges.append((float(lo), float(hi)))
                counts.append(int(n))
            except ValueError:
                raise ParameterError(f"malformed axis clause {clause!r}")
            axes.append(name)
        return cls(axes=tuple(axes), ranges=tuple(ranges), counts=tuple(counts), fixed=fixed)

    def coords(self, i: int) -> np.ndarray:
        lo, hi = self.ranges[i]
        return np.linspace(lo, hi, self.counts[i])

    def spacing(self, i: int) -> float:
        lo, hi = self.ranges[i]
        return (hi - lo) / (self.counts[i] - 1)

    def frame_coords(self, ndim: int, a1, a2) -> tuple:
        """Frame coordinates, in frame order, of axis values a1, a2 (numbers or arrays).

        Off-axis coordinates are floats: their fixed value, or 0.
        """
        names = frame_names(ndim)
        for name in self.axes:
            if name not in names:
                raise ParameterError(
                    f"axis {name!r} is not a coordinate of this field's frame {names}")
        for name, _ in self.fixed:
            if name not in names:
                raise ParameterError(
                    f"fixed coordinate {name!r} is not in this field's frame {names}")
        values = dict.fromkeys(names, 0.0) | dict(self.fixed) | dict(zip(self.axes, (a1, a2)))
        return tuple(values.values())

    def mesh(self, ndim: int) -> tuple:
        """Open frame coordinates as np.meshgrid(..., sparse=True) gives them: axis 1
        (1, counts1), axis 2 (counts2, 1), off-axis ones floats; they broadcast to the grid."""
        return self.frame_coords(ndim, *np.meshgrid(self.coords(0), self.coords(1), sparse=True))

    def to_dict(self) -> dict:
        return {
            "axes": list(self.axes),
            "ranges": [list(r) for r in self.ranges],
            "counts": list(self.counts),
            "fixed": {name: value for name, value in self.fixed},
        }


def _row_slices(grid: GridSpec) -> list:
    """The grid's rows in consecutive slices of about _BLOCK_CELLS cells."""
    n1, n2 = grid.counts
    step = max(1, _BLOCK_CELLS // n1)
    return [slice(r, min(r + step, n2)) for r in range(0, n2, step)]


def _row_blocks(spec, grid: GridSpec):
    """(rows, psi, grads) for each of _row_slices: the field on those rows of the
    (counts2, 1) frame coordinate, with the other coordinates as they are."""
    mesh = grid.mesh(spec.ndim)
    at = frame_names(spec.ndim).index(grid.axes[1])
    for rows in _row_slices(grid):
        coords = (*mesh[:at], mesh[at][rows], *mesh[at + 1:])
        with np.errstate(over="ignore", invalid="ignore"):  # the peak amplitude is checked
            psi, grads = spec.psi_grad(*coords)
        yield rows, psi, grads
        del psi, grads  # before the next block is evaluated


def sample_grid(spec, grid: GridSpec) -> FieldSample:
    """psi and its exact gradient on every node of the grid.

    psi has shape (counts2, counts1); grad_psi stacks the frame
    components on a leading axis, shape (ndim, counts2, counts1), in one buffer.
    """
    buf = np.empty((1 + spec.ndim, grid.counts[1], grid.counts[0]), dtype=complex)
    for rows, psi, grads in _row_blocks(spec, grid):
        for out, value in zip(buf, (psi, *grads)):
            out[rows] = value
    return FieldSample(psi=buf[0], grad_psi=buf[1:], k=spec.wave.k)
