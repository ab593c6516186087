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
A refined step is its end nodes' phase difference plus a multiple of
2 pi, so each loop sum is whole turns up to rounding (a record's
residual) and no winding is rejected as non-integer.  Plaquettes with a
singular corner sample cannot be classified and are skipped; lay grids
out so zeros fall in plaquette interiors, not on nodes.  One pass over the
grid's row blocks (grids._row_pass) keeps psi (16 B per cell) and, for labels,
the codes and fast flags (2 B); the singular cells are marked after it, from
the peak's floor, and the search runs each block with the next row as its
halo.  Both blocks refine an edge on their border, to the same step.

Known limitation (anomaly-charge-split): an edge whose phase step is near
2 pi wraps small and is not refined, so a charge-2 vortex close to a
plaquette edge comes out as two charge-1 records.  A charge-3 vortex
splits even with its axis 0.25-0.75 spacings from the nearest nodes: on 15
seeded 12x12 grids of each sign, 13 give three charge-1 records and 2 a
charge-2 and a charge-1 record (charges of the vortex's sign); |charge| <= 2
gives one record on the same grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResolutionError
from .fields import FieldSpec, TirTwoWaveSpec, _require_finite
from .grids import GridSpec, _row_pass, _row_slices
from .observables import _is_singular, local_momentum

LABELS = ("normal", "backflow", "superluminal", "singular")
LABEL_CODES = {name: code for code, name in enumerate(LABELS)}

_HALF_PI = 0.5 * math.pi
_MAX_BISECTIONS = 32


def wrap_angle(delta):
    """Map angle differences to the principal branch (-pi, pi]."""
    return _wrapped(np.array(delta, dtype=float))[()]


def _wrapped(d):
    """wrap_angle of the float array d, computed in d: no float temporary of its size."""
    np.subtract(math.pi, d, out=d)
    # np.mod returns a value in [0, 2 pi) unchanged (and -0.0 as +0.0, which
    # the subtraction below maps to the same pi), so it runs only on the
    # rest: a few edges of a sampled phase, and NaN
    kept = (d >= 0.0) & (d < 2.0 * math.pi)
    np.mod(d, 2.0 * math.pi, out=d, where=~kept)
    return np.subtract(math.pi, d, out=d)


def phase_winding(phases) -> float:
    """Total winding (rad) of a closed loop of phase samples.

    The loop closes itself: the last-to-first step is included, so the
    first sample must not be repeated at the end.  Every sample must be
    finite, and every step must stay below pi/2 in magnitude after
    wrapping; larger jumps mean the loop is undersampled and the winding
    untrustworthy.
    """
    ph = np.asarray(phases, dtype=float).ravel()
    if ph.size < 3:
        raise ParameterError(f"a closed loop needs at least 3 samples, got {ph.size}")
    for value in ph.tolist():  # a NaN step would pass the undersampling check
        _require_finite("phase sample", value)
    steps = wrap_angle(np.diff(np.append(ph, ph[0])))
    worst = float(np.max(np.abs(steps)))
    if worst > _HALF_PI:
        raise ResolutionError(
            f"loop undersampled: wrapped phase step {worst:.3f} rad exceeds pi/2")
    return float(steps.sum())


def _edge_steps(ph):
    """Wrapped phase steps along rows (d_col) and along columns (d_row)."""
    return _wrapped(np.diff(ph, axis=1)), _wrapped(np.diff(ph, axis=0))


def _loop_sums(d_col, d_row):
    """Each plaquette's counterclockwise sum of its four edge steps."""
    sums = d_col[:-1, :] + d_row[:, 1:]
    sums -= d_col[1:, :]  # in place: one plaquette-sized array, not three
    sums -= d_row[:, :-1]
    return sums


def plaquette_winding(phases: np.ndarray) -> np.ndarray:
    """Raw winding (rad) of every grid plaquette of a 2D phase array.

    Interior edges cancel to rounding, so the sum over any rectangular
    block equals the winding around the block's boundary to rounding.
    Values are trustworthy where all four wrapped edge differences stay
    below pi/2; detect_vortices refines the rest, edge by edge.
    """
    ph = np.asarray(phases, dtype=float)
    if ph.ndim != 2 or ph.shape[0] < 2 or ph.shape[1] < 2:
        raise ParameterError(f"need a 2D phase array with >= 2 samples per axis, got {ph.shape}")
    return _loop_sums(*_edge_steps(ph))


@dataclass(frozen=True)
class VortexRecord:
    """A phase singularity localized to one grid plaquette.

    position is the plaquette center in the field frame; charge is the
    winding in turns, rounded, and residual the rounding |turns - charge|.
    """

    position: tuple
    charge: int
    residual: float


@dataclass(frozen=True)
class AnomalyMap:
    """Per-sample labels against the local momentum-spectrum bound.

    labels holds codes into LABELS, shape (counts2, counts1); bound is
    the local b (rad/mm), a read-only broadcast to that shape; fast is
    the separate superoscillation flag |Re p| > b, not part of the
    labeling.  superluminal means re_p_z > b*(1 + guard) and backflow
    means re_p_z < 0, mutually exclusive by construction.
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

    Requires the grid to resolve the fastest local phase advance
    (spacing under an eighth of the shortest local wavelength).  Returns
    one VortexRecord per nonzero-winding plaquette, in row-major grid
    order.  Refined loop sums are whole turns up to rounding, which each
    record keeps as its residual.
    """
    return _vortices_and_anomalies(spec, grid)[0]


def _vortex_rows(spec, grid, psi, singular, floor, r0=0):
    """Vortices of the node rows r0 to r0 + len(psi) - 1, given their psi and singular mask."""
    ph = np.angle(psi)
    c1, c2 = grid.coords(0), grid.coords(1)[r0:]
    ok = ~(singular[:-1, :-1] | singular[:-1, 1:] | singular[1:, 1:] | singular[1:, :-1])

    def nodes(j, i):
        return np.array(np.broadcast_arrays(*grid.frame_coords(spec.ndim, c1[i], c2[j])))

    # refine, once, every rough edge of a plaquette that can be classified
    d_col, d_row = _edge_steps(ph)
    used_col = np.pad(ok, ((0, 1), (0, 0))) | np.pad(ok, ((1, 0), (0, 0)))
    used_row = np.pad(ok, ((0, 0), (0, 1))) | np.pad(ok, ((0, 0), (1, 0)))
    for steps, used, dj, di in ((d_col, used_col, 0, 1), (d_row, used_row, 1, 0)):
        rough = used & ((steps > _HALF_PI) | (steps < -_HALF_PI))  # |step| > pi/2; NaN is not
        j, i = np.nonzero(rough)
        steps[rough] = _refined_steps(spec, floor, nodes(j, i), nodes(j + dj, i + di),
                                      ph[j, i], ph[j + dj, i + di])
    del ph, steps

    turns = _loop_sums(d_col, d_row)
    del d_col, d_row
    turns /= 2.0 * math.pi
    charge = np.rint(turns)
    # |charge| >= 1, and only the records' residuals; NaN windings (non-finite psi) give none
    j, i = np.nonzero(ok & ((charge >= 1.0) | (charge <= -1.0)))
    charge, turns = charge[j, i], turns[j, i]
    centres = 0.5 * (nodes(j, i) + nodes(j + 1, i + 1))
    return [VortexRecord(position=tuple(p), charge=int(q), residual=float(r))
            for p, q, r in zip(centres.T.tolist(), charge, np.abs(turns - charge))]


def check_label_options(spec: FieldSpec, bound_model: str = "uniform",
                        superluminal_guard: float = 0.0) -> None:
    """Raise ParameterError unless classify_anomalies accepts these options.

    It evaluates nothing, so a caller can check before a grid's vortex search.
    """
    if not superluminal_guard >= 0.0:
        raise ParameterError(f"superluminal_guard must be >= 0, got {superluminal_guard!r}")
    # the anomaly artifact records it, and JSON has no inf
    _require_finite("superluminal_guard", superluminal_guard)
    if bound_model not in ("uniform", "piecewise"):
        raise ParameterError(
            f"bound_model must be 'uniform' or 'piecewise', got {bound_model!r}")
    if bound_model == "piecewise" and not isinstance(spec, TirTwoWaveSpec):
        raise ParameterError(
            "piecewise bound (n k in glass, k in air) requires a two-wave TIR field")


def _bound(spec, bound_model, coords):
    """The local spectrum bound at frame coordinates: a float, or an array that broadcasts."""
    k = spec.wave.k
    if bound_model == "piecewise":
        k = np.where(spec.in_glass(coords[0]), spec.n * k, k)
    return k


def classify_anomalies(spec: FieldSpec, grid: GridSpec, bound_model: str = "uniform",
                       superluminal_guard: float = 0.0) -> AnomalyMap:
    """Label every grid sample normal / backflow / superluminal / singular.

    backflow: re_p_z < 0.  superluminal: re_p_z > b*(1 + guard), with b
    the local spectrum bound from bound_model.  The guard (default 0,
    strict) absorbs a known paraxial excess of order 1e-5 when mapping
    fields whose p_z hugs the bound from above; pass it explicitly
    rather than loosening the bound globally.  Samples under the grid's
    singular floor are labeled singular.  The grid is labelled block by
    block (module docstring); any grid spacing will do, since no winding
    is taken.
    """
    return _vortices_and_anomalies(spec, grid, bound_model, superluminal_guard, search=False)[1]


def _label_rows(re_p, bound, guard, labels, fast=None):
    """Rows' codes but "singular" into labels (zeros on entry), returned; |Re p| > bound in fast."""
    re_pz = re_p[-1]
    labels[re_pz < 0.0] = LABEL_CODES["backflow"]
    labels[re_pz > bound * (1.0 + guard)] = LABEL_CODES["superluminal"]
    if fast is not None:  # the CLI's label layer keeps no fast flags
        # the squares added component by component, as a sum over the leading axis adds them
        re_p_mag = re_p[0] * re_p[0]
        for c in re_p[1:]:
            re_p_mag += c * c
        np.greater(np.sqrt(re_p_mag, out=re_p_mag), bound, out=fast)
    return labels


def _vortices_and_anomalies(spec, grid, bound_model=None, superluminal_guard=0.0,
                            search=True) -> tuple:
    """The vortices of the grid's sample (none unless search) and, given a bound_model, its
    AnomalyMap (else None), from one pass over its row blocks (module docstring).  Blocks
    are labelled with no floor, which only changes cells then marked singular."""
    check_label_options(spec, bound_model or "uniform", superluminal_guard)
    if search:
        _check_resolution(spec, grid)
    psi = np.empty(grid.counts[::-1], dtype=complex)
    amap = None if bound_model is None else AnomalyMap(
        grid=grid, labels=np.zeros(psi.shape, dtype=np.int8), fast=np.zeros(psi.shape, dtype=bool),
        bound=np.broadcast_to(_bound(spec, bound_model, grid.mesh(spec.ndim)), psi.shape),
        guard=float(superluminal_guard))

    def keep(rows, coords, sample):
        psi[rows] = sample.psi
        if amap is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # only on cells the floor masks
                re_p = local_momentum(sample).re_p
            _label_rows(re_p, amap.bound[rows], amap.guard, amap.labels[rows], amap.fast[rows])

    floor = _row_pass(spec, grid, keep)()
    vortices = []
    for rows in _row_slices(grid):
        halo = slice(rows.start, rows.stop + 1)
        singular = _is_singular(np.abs(psi[halo]), floor)
        if amap is not None:
            own = singular[:rows.stop - rows.start]
            amap.labels[rows][own] = LABEL_CODES["singular"]
            amap.fast[rows] &= ~own
        if search:
            vortices += _vortex_rows(spec, grid, psi[halo], singular, floor, rows.start)
    return vortices, amap
