"""Vortex detection by phase winding and momentum-spectrum anomaly maps.

A monochromatic free field has normal-momentum spectrum k_z in [0, k]
(n k in glass), yet the local momentum Re p_z can leave that interval:
negative values are backflow, values above the bound are superluminal
local group velocities.  Both happen near phase singularities, where
Re p diverges.  This module finds the singularities by discrete phase
winding on grid plaquettes and labels grid samples against the local
spectrum bound.

Winding conventions: phase differences per edge are mapped to (-pi, pi];
plaquette loops run counterclockwise in the right-handed (axis1, axis2)
plane of the grid, so charge signs follow the axis order the grid was
given in.  Edges whose wrapped difference exceeds pi/2 are refined by
recursive bisection with pointwise field evaluations, which keeps the
circulation exact for |charge| >= 2 and for plaquettes that straddle a
singularity asymmetrically.  Plaquettes with a singular corner sample
cannot be classified and are skipped; lay grids out so zeros fall in
plaquette interiors, not on nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResolutionError
from .fields import FieldSample, FieldSpec, TirTwoWaveSpec
from .grids import GridSpec, frame_names, sample_grid
from .observables import local_momentum, singular_cells

LABELS = ("normal", "backflow", "superluminal", "singular")
LABEL_CODES = {name: code for code, name in enumerate(LABELS)}

_HALF_PI = 0.5 * math.pi
_MAX_BISECTIONS = 32


def wrap_angle(delta):
    """Map angle differences to the principal branch (-pi, pi]."""
    return math.pi - np.mod(math.pi - np.asarray(delta), 2.0 * math.pi)


def phase_winding(phases) -> float:
    """Total winding (rad) of a closed loop of phase samples.

    The loop closes itself: the last-to-first step is included, so the
    first sample must not be repeated at the end.  Every step must stay
    below pi/2 in magnitude after wrapping; larger jumps mean the loop
    is undersampled and the winding untrustworthy.
    """
    ph = np.asarray(phases, dtype=float).ravel()
    if ph.size < 3:
        raise ParameterError(f"a closed loop needs at least 3 samples, got {ph.size}")
    steps = wrap_angle(np.diff(np.append(ph, ph[0])))
    worst = float(np.max(np.abs(steps)))
    if worst > _HALF_PI:
        raise ResolutionError(
            f"loop undersampled: wrapped phase step {worst:.3f} rad exceeds pi/2")
    return float(steps.sum())


def _plaquette_edges(ph):
    """Wrapped phase steps along rows and columns, and each plaquette's sum of them."""
    d_col = wrap_angle(np.diff(ph, axis=1))
    d_row = wrap_angle(np.diff(ph, axis=0))
    return d_col, d_row, d_col[:-1, :] + d_row[:, 1:] - d_col[1:, :] - d_row[:, :-1]


def plaquette_winding(phases: np.ndarray) -> np.ndarray:
    """Raw winding (rad) of every grid plaquette of a 2D phase array.

    Interior edges cancel exactly in floating point, so the sum over any
    rectangular block equals the winding around the block's boundary.
    Values are trustworthy where all four wrapped edge differences stay
    below pi/2; detect_vortices refines the rest.
    """
    ph = np.asarray(phases, dtype=float)
    if ph.ndim != 2 or ph.shape[0] < 2 or ph.shape[1] < 2:
        raise ParameterError(f"need a 2D phase array with >= 2 samples per axis, got {ph.shape}")
    return _plaquette_edges(ph)[2]


@dataclass(frozen=True)
class VortexRecord:
    """A phase singularity localized to one grid plaquette.

    position is the plaquette center in the field frame; charge is the
    winding divided by 2 pi, rounded, with |residual| < 0.1 guaranteed.
    """

    position: tuple
    charge: int
    residual: float


@dataclass(frozen=True)
class AnomalyMap:
    """Per-sample labels against the local momentum-spectrum bound.

    labels holds codes into LABELS, shape (counts2, counts1); bound is
    the local b (rad/mm); fast is the separate superoscillation flag
    |Re p| > b, which is not part of the labeling.  superluminal means
    re_p_z > b*(1 + guard) and backflow means re_p_z < 0, mutually
    exclusive by construction.
    """

    grid: GridSpec
    labels: np.ndarray
    bound: np.ndarray
    fast: np.ndarray
    guard: float

    @property
    def counts(self) -> dict:
        return {name: int(np.sum(self.labels == code)) for code, name in enumerate(LABELS)}

    def label_names(self) -> np.ndarray:
        return np.array(LABELS, dtype=object)[self.labels]


def _frame_point(grid: GridSpec, ndim: int, a1: float, a2: float) -> tuple:
    names = frame_names(ndim)
    fixed = dict(grid.fixed)
    values = {grid.axes[0]: a1, grid.axes[1]: a2}
    return tuple(float(values.get(n, fixed.get(n, 0.0))) for n in names)


def _check_resolution(spec, grid):
    lam_min = 2.0 * math.pi / spec.max_wavenumber()
    worst = max(grid.spacing(0), grid.spacing(1))
    if worst >= lam_min / 8.0:
        raise ResolutionError(
            f"grid spacing {worst:.4g} mm cannot resolve winding; "
            f"need < {lam_min / 8.0:.4g} mm (shortest local wavelength / 8)")


def _refined_edge(spec, pa, ph_a, pb, ph_b, floor, depth=0):
    d = float(wrap_angle(ph_b - ph_a))
    if abs(d) <= _HALF_PI:
        return d
    if depth >= _MAX_BISECTIONS:
        raise ResolutionError(
            f"phase step between {pa} and {pb} does not bisect below pi/2; "
            "the edge passes through (or too near) a field zero")
    pm = tuple(0.5 * (ca + cb) for ca, cb in zip(pa, pb))
    psi_m, _ = spec.psi_grad(*pm)
    psi_m = complex(psi_m)
    if abs(psi_m) <= floor:
        raise ResolutionError(f"plaquette edge passes through a field zero near {pm}")
    ph_m = math.atan2(psi_m.imag, psi_m.real)
    return (_refined_edge(spec, pa, ph_a, pm, ph_m, floor, depth + 1)
            + _refined_edge(spec, pm, ph_m, pb, ph_b, floor, depth + 1))


def detect_vortices(spec: FieldSpec, grid: GridSpec) -> list:
    """Locate phase singularities on the grid by plaquette winding.

    Samples the grid and runs vortices_in_sample on it.
    """
    return vortices_in_sample(spec, grid, sample_grid(spec, grid))


def vortices_in_sample(spec: FieldSpec, grid: GridSpec, sample: FieldSample) -> list:
    """Vortices of a grid sample (sample_grid(spec, grid)) by plaquette winding.

    Requires the grid to resolve the fastest local phase advance
    (spacing under an eighth of the shortest local wavelength).  Returns
    one VortexRecord per nonzero-winding plaquette, in row-major grid
    order.  A plaquette whose refined winding is not within 0.1 of an
    integer multiple of 2 pi raises ResolutionError instead of returning
    a fabricated charge.
    """
    _check_resolution(spec, grid)
    floor, singular = singular_cells(sample.amplitude)
    ph = np.angle(sample.psi)

    d_col, d_row, w_raw = _plaquette_edges(ph)

    rough_edge = ((np.abs(d_col[:-1, :]) > _HALF_PI) | (np.abs(d_col[1:, :]) > _HALF_PI)
                  | (np.abs(d_row[:, 1:]) > _HALF_PI) | (np.abs(d_row[:, :-1]) > _HALF_PI))
    corner_singular = (singular[:-1, :-1] | singular[:-1, 1:]
                       | singular[1:, 1:] | singular[1:, :-1])
    candidates = (np.abs(w_raw) > 0.5) | rough_edge

    c1 = grid.coords(0)
    c2 = grid.coords(1)
    records = []
    for j, i in np.argwhere(candidates & ~corner_singular):
        corners = [
            _frame_point(grid, spec.ndim, c1[i], c2[j]),
            _frame_point(grid, spec.ndim, c1[i + 1], c2[j]),
            _frame_point(grid, spec.ndim, c1[i + 1], c2[j + 1]),
            _frame_point(grid, spec.ndim, c1[i], c2[j + 1]),
        ]
        ph_c = [ph[j, i], ph[j, i + 1], ph[j + 1, i + 1], ph[j + 1, i]]
        total = 0.0
        for a in range(4):
            b = (a + 1) % 4
            total += _refined_edge(spec, corners[a], ph_c[a], corners[b], ph_c[b], floor)
        charge_f = total / (2.0 * math.pi)
        charge = round(charge_f)
        residual = abs(charge_f - charge)
        if residual >= 0.1:
            raise ResolutionError(
                f"plaquette at ({c1[i]:.6g}, {c2[j]:.6g}) has non-integer winding "
                f"{charge_f:.4f} x 2pi; refine the grid")
        if charge != 0:
            center = _frame_point(grid, spec.ndim,
                                  0.5 * (c1[i] + c1[i + 1]), 0.5 * (c2[j] + c2[j + 1]))
            records.append(VortexRecord(position=center, charge=int(charge),
                                        residual=residual))
    return records


def _bound_array(spec, bound_model, grid):
    k = spec.wave.k
    if bound_model == "uniform":
        return np.full(tuple(reversed(grid.counts)), k)
    if bound_model == "piecewise":
        if not isinstance(spec, TirTwoWaveSpec):
            raise ParameterError(
                "piecewise bound (n k in glass, k in air) requires a two-wave TIR field")
        x = grid.mesh(spec.ndim)[0]
        return np.where(x < 0.0, spec.n * k, k)
    raise ParameterError(f"bound_model must be 'uniform' or 'piecewise', got {bound_model!r}")


def classify_anomalies(spec: FieldSpec, grid: GridSpec, bound_model: str = "uniform",
                       superluminal_guard: float = 0.0) -> AnomalyMap:
    """Label every grid sample normal / backflow / superluminal / singular.

    Samples the grid and runs anomalies_in_sample on it.
    """
    return anomalies_in_sample(spec, grid, sample_grid(spec, grid), bound_model,
                               superluminal_guard)


def anomalies_in_sample(spec: FieldSpec, grid: GridSpec, sample: FieldSample,
                        bound_model: str = "uniform",
                        superluminal_guard: float = 0.0) -> AnomalyMap:
    """Labels of a grid sample (sample_grid(spec, grid)).

    backflow: re_p_z < 0.  superluminal: re_p_z > b*(1 + guard), with b
    the local spectrum bound from bound_model.  The guard (default 0,
    strict) absorbs a known paraxial excess of order 1e-5 when mapping
    fields whose p_z hugs the bound from above; pass it explicitly
    rather than loosening the bound globally.  Samples whose amplitude
    falls at or below 1e-12 of the grid maximum are labeled singular.
    """
    if not superluminal_guard >= 0.0:
        raise ParameterError(f"superluminal_guard must be >= 0, got {superluminal_guard!r}")
    bound = _bound_array(spec, bound_model, grid)
    floor, singular = singular_cells(sample.amplitude)
    re_p = local_momentum(sample, floor).re_p
    re_pz = re_p[-1]
    re_p_mag = np.sqrt(np.sum(re_p * re_p, axis=0))

    labels = np.zeros(sample.psi.shape, dtype=np.int8)
    labels[re_pz < 0.0] = LABEL_CODES["backflow"]
    labels[re_pz > bound * (1.0 + superluminal_guard)] = LABEL_CODES["superluminal"]
    labels[singular] = LABEL_CODES["singular"]
    fast = (re_p_mag > bound) & ~singular
    return AnomalyMap(grid=grid, labels=labels, bound=bound, fast=fast,
                      guard=float(superluminal_guard))
