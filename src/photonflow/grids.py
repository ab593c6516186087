"""Rectangular sampling grids shared by the map-making layers.

A grid is two sampled axes named after frame coordinates ({x, y, z}),
plus fixed values for any frame coordinate not on an axis (a 3D field
sampled on a 2D slice).  Meshes are returned in the field's frame order
with shape (counts2, counts1): the first grid axis varies along columns,
the second along rows.  Orientation-sensitive consumers (vortex charge
signs) therefore follow the right-handed (axis1, axis2) order as given.
sample_grid evaluates a field on every node once; the map-making layers
derive all of their observables from that one sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fields import FieldSample

AXIS_NAMES = ("x", "y", "z")


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

        ranges = tuple((float(lo), float(hi)) for lo, hi in self.ranges)
        if len(ranges) != 2:
            raise ParameterError("one (lo, hi) range per axis required")
        for lo, hi in ranges:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ParameterError(f"ranges must be finite and ordered, got {(lo, hi)}")
        object.__setattr__(self, "ranges", ranges)

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
            if not math.isfinite(value):
                raise ParameterError(f"fixed {name} must be finite, got {value!r}")
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

        Off-axis coordinates take their fixed value, or 0, in the same shape.
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
        shape = np.broadcast(a1, a2).shape
        return tuple(v if n in self.axes else np.full(shape, v) for n, v in values.items())

    def mesh(self, ndim: int) -> tuple:
        """Broadcast meshes for every frame coordinate, each (counts2, counts1)."""
        return self.frame_coords(ndim, *np.meshgrid(self.coords(0), self.coords(1)))

    def to_dict(self) -> dict:
        return {
            "axes": list(self.axes),
            "ranges": [list(r) for r in self.ranges],
            "counts": list(self.counts),
            "fixed": {name: value for name, value in self.fixed},
        }


def sample_grid(spec, grid: GridSpec) -> FieldSample:
    """psi and its exact gradient on every node of the grid.

    psi has shape (counts2, counts1); grad_psi stacks the frame
    components on a leading axis, shape (ndim, counts2, counts1).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # raised by singular_cells instead
        psi, grads = spec.psi_grad(*grid.mesh(spec.ndim))
    return FieldSample(psi=psi, grad_psi=np.stack(grads), k=spec.wave.k)
