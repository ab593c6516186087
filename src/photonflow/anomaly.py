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
given in.  Each edge whose wrapped difference exceeds pi/2 is refined
once, by bisection with one array field evaluation per level and grid
direction; this resolves plaquettes that straddle a singularity
asymmetrically, and the two plaquettes sharing an edge use one step.
Plaquettes with a singular corner sample cannot be classified and are
skipped; lay grids out so zeros fall in plaquette interiors, not on nodes.

Known limitation (anomaly-charge-split): an edge whose phase step is near
2 pi wraps small and is not refined, so a charge-2 vortex close to a
plaquette edge comes out as two charge-1 records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResolutionError
from .fields import FieldSample, FieldSpec, TirTwoWaveSpec
from .grids import GridSpec, sample_grid
from .observables import ComplexMomentum, _is_singular, local_momentum, singular_cells

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


def _edge_steps(ph):
    """Wrapped phase steps along rows (d_col) and along columns (d_row)."""
    return wrap_angle(np.diff(ph, axis=1)), wrap_angle(np.diff(ph, axis=0))


def _loop_sums(d_col, d_row):
    """Each plaquette's counterclockwise sum of its four edge steps."""
    return d_col[:-1, :] + d_row[:, 1:] - d_col[1:, :] - d_row[:, :-1]


def plaquette_winding(phases: np.ndarray) -> np.ndarray:
    """Raw winding (rad) of every grid plaquette of a 2D phase array.

    Interior edges cancel exactly in floating point, so the sum over any
    rectangular block equals the winding around the block's boundary.
    Values are trustworthy where all four wrapped edge differences stay
    below pi/2; vortices_in_sample refines the rest, edge by edge.
    """
    ph = np.asarray(phases, dtype=float)
    if ph.ndim != 2 or ph.shape[0] < 2 or ph.shape[1] < 2:
        raise ParameterError(f"need a 2D phase array with >= 2 samples per axis, got {ph.shape}")
    return _loop_sums(*_edge_steps(ph))


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


def _check_resolution(spec, grid):
    lam_min = 2.0 * math.pi / spec.max_wavenumber()
    worst = max(grid.spacing(0), grid.spacing(1))
    if worst >= lam_min / 8.0:
        raise ResolutionError(
            f"grid spacing {worst:.4g} mm cannot resolve winding; "
            f"need < {lam_min / 8.0:.4g} mm (shortest local wavelength / 8)")


def _refined_steps(spec, floor, a, b, ph_a, ph_b, depth=0):
    """Phase steps of the edges a -> b (frame points, shape (ndim, n)) with phases ph_a, ph_b.

    A step above pi/2 becomes the refined step of its first half plus that
    of its second half; all midpoints of one level are one array call.
    """
    d = wrap_angle(ph_b - ph_a)
    rough = np.abs(d) > _HALF_PI
    if not rough.any():
        return d
    a, b = a[:, rough], b[:, rough]
    if depth >= _MAX_BISECTIONS:
        raise ResolutionError(
            f"phase step between {tuple(a[:, 0].tolist())} and {tuple(b[:, 0].tolist())} "
            "does not bisect below pi/2; the edge passes through (or too near) a field zero")
    m = 0.5 * (a + b)
    psi_m, _ = spec.psi_grad(*m)
    zero = _is_singular(np.abs(psi_m), floor)
    if zero.any():
        near = tuple(m[:, zero.argmax()].tolist())
        raise ResolutionError(f"plaquette edge passes through a field zero near {near}")
    ph_m = np.angle(psi_m)
    halves = _refined_steps(spec, floor, np.hstack((a, m)), np.hstack((m, b)),
                            np.concatenate((ph_a[rough], ph_m)),
                            np.concatenate((ph_m, ph_b[rough])), depth + 1)
    d[rough] = halves[:ph_m.size] + halves[ph_m.size:]
    return d


def detect_vortices(spec: FieldSpec, grid: GridSpec) -> list:
    """Locate phase singularities on the grid by plaquette winding.

    Samples the grid and runs vortices_in_sample on it.
    """
    sample = sample_grid(spec, grid)
    return vortices_in_sample(spec, grid, sample, *singular_cells(sample.amplitude))


def vortices_in_sample(spec: FieldSpec, grid: GridSpec, sample: FieldSample, floor: float,
                       singular: np.ndarray) -> list:
    """Vortices of a grid sample (sample_grid(spec, grid)) by plaquette winding.

    floor and singular are singular_cells of the sample's amplitude.
    Requires the grid to resolve the fastest local phase advance
    (spacing under an eighth of the shortest local wavelength).  Returns
    one VortexRecord per nonzero-winding plaquette, in row-major grid
    order.  A plaquette whose refined winding is not within 0.1 of an
    integer multiple of 2 pi raises ResolutionError instead of returning
    a fabricated charge.
    """
    _check_resolution(spec, grid)
    ph = np.angle(sample.psi)
    c1, c2 = grid.coords(0), grid.coords(1)
    ok = ~(singular[:-1, :-1] | singular[:-1, 1:] | singular[1:, 1:] | singular[1:, :-1])

    def nodes(j, i):
        return np.array(grid.frame_coords(spec.ndim, c1[i], c2[j]))

    # refine, once, every rough edge of a plaquette that can be classified
    d_col, d_row = _edge_steps(ph)
    used_col = np.pad(ok, ((0, 1), (0, 0))) | np.pad(ok, ((1, 0), (0, 0)))
    used_row = np.pad(ok, ((0, 0), (0, 1))) | np.pad(ok, ((0, 0), (1, 0)))
    for steps, used, dj, di in ((d_col, used_col, 0, 1), (d_row, used_row, 1, 0)):
        rough = used & (np.abs(steps) > _HALF_PI)
        j, i = np.nonzero(rough)
        steps[rough] = _refined_steps(spec, floor, nodes(j, i), nodes(j + dj, i + di),
                                      ph[j, i], ph[j + dj, i + di])

    turns = _loop_sums(d_col, d_row) / (2.0 * math.pi)
    charge = np.rint(turns)
    residual = np.abs(turns - charge)
    bad = ok & (residual >= 0.1)
    if bad.any():
        j, i = np.argwhere(bad)[0]
        raise ResolutionError(
            f"plaquette at ({c1[i]:.6g}, {c2[j]:.6g}) has non-integer winding "
            f"{turns[j, i]:.4f} x 2pi; refine the grid")
    j, i = np.nonzero(ok & (np.abs(charge) >= 1))  # NaN windings (non-finite psi) give none
    centres = 0.5 * (nodes(j, i) + nodes(j + 1, i + 1))
    return [VortexRecord(position=tuple(p), charge=int(q), residual=float(r))
            for p, q, r in zip(centres.T.tolist(), charge[j, i], residual[j, i])]


def check_label_options(spec: FieldSpec, bound_model: str = "uniform",
                        superluminal_guard: float = 0.0) -> None:
    """Raise ParameterError unless anomalies_in_sample accepts these options.

    It evaluates nothing, so a caller can check before a grid's vortex search.
    """
    if not superluminal_guard >= 0.0:
        raise ParameterError(f"superluminal_guard must be >= 0, got {superluminal_guard!r}")
    if bound_model not in ("uniform", "piecewise"):
        raise ParameterError(
            f"bound_model must be 'uniform' or 'piecewise', got {bound_model!r}")
    if bound_model == "piecewise" and not isinstance(spec, TirTwoWaveSpec):
        raise ParameterError(
            "piecewise bound (n k in glass, k in air) requires a two-wave TIR field")


def _bound_array(spec, bound_model, grid):
    k = spec.wave.k
    if bound_model == "uniform":
        return np.full(tuple(reversed(grid.counts)), k)
    x = grid.mesh(spec.ndim)[0]
    return np.where(spec.in_glass(x), spec.n * k, k)


def classify_anomalies(spec: FieldSpec, grid: GridSpec, bound_model: str = "uniform",
                       superluminal_guard: float = 0.0) -> AnomalyMap:
    """Label every grid sample normal / backflow / superluminal / singular.

    Samples the grid and runs anomalies_in_sample on it.
    """
    sample = sample_grid(spec, grid)
    floor, singular = singular_cells(sample.amplitude)
    return anomalies_in_sample(spec, grid, singular, local_momentum(sample, floor), bound_model,
                               superluminal_guard)


def anomalies_in_sample(spec: FieldSpec, grid: GridSpec, singular: np.ndarray,
                        momentum: ComplexMomentum, bound_model: str = "uniform",
                        superluminal_guard: float = 0.0) -> AnomalyMap:
    """Labels of a grid sample from its singular mask and local momentum.

    backflow: re_p_z < 0.  superluminal: re_p_z > b*(1 + guard), with b
    the local spectrum bound from bound_model.  The guard (default 0,
    strict) absorbs a known paraxial excess of order 1e-5 when mapping
    fields whose p_z hugs the bound from above; pass it explicitly
    rather than loosening the bound globally.  Samples in the singular
    mask are labeled singular.
    """
    check_label_options(spec, bound_model, superluminal_guard)
    bound = _bound_array(spec, bound_model, grid)
    re_p = momentum.re_p
    re_pz = re_p[-1]
    re_p_mag = np.sqrt(np.sum(re_p * re_p, axis=0))

    labels = np.zeros(singular.shape, dtype=np.int8)
    labels[re_pz < 0.0] = LABEL_CODES["backflow"]
    labels[re_pz > bound * (1.0 + superluminal_guard)] = LABEL_CODES["superluminal"]
    labels[singular] = LABEL_CODES["singular"]
    fast = (re_p_mag > bound) & ~singular
    return AnomalyMap(grid=grid, labels=labels, bound=bound, fast=fast,
                      guard=float(superluminal_guard))
