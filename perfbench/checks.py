"""Output checks, run after the timed loop on the outputs of the last pass.

Each `check_*` returns None when the output is right and a one-line reason
when it is not.  Tolerances are fixed here, before any measurement:

* probe: closed-form momentum (plane, evanescent, Bessel) to 1e-9, the
  dipole-force identity to 1e-10, P_O/W == re_p/k to 1e-10, and the calcite
  readout against the momentum at the shifted midpoint within its
  second-order error (dx |p|)^2 |p| plus 1e-6 max(|p|, k);
* streamlines: helix radius drift < 1e-8 mm and phase-law error < 1e-6 rad,
  identical z ladders and no crossings within a Gaussian fan, and sampled
  CSV rows equal to the pointwise momentum;
* maps: sampled cells equal to the pointwise library to 1e-9 relative,
  vortex charges equal to a pointwise loop winding, rendered pixels equal to
  the scaling of the source layer.

Near a field zero the relative error of a phase-derived quantity grows like
peak amplitude / local amplitude, so grid-versus-point comparisons scale
their tolerance by that ratio; cells within a factor 10 of the singularity
floor are not compared, because the two routes may round to either side.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import special

from workloads import polarization

REL = 1e-9
FLOOR = 1e-12          # photonflow's singular-amplitude threshold (relative)
CELLS_PER_JOB = 16
ROWS_PER_TRACE = 12
VORTICES_PER_JOB = 6


# ------------------------------------------------------------ probe

def closed_form_momentum(spec, point):
    """(re_p, im_p) from the field's formula, or None for families without one."""
    fam = spec.family
    if fam == "plane_wave":
        d = np.asarray(spec.direction)
        return spec.wave.k * d, np.zeros_like(d)
    if fam == "evanescent":
        return np.array([0.0, spec.k_z]), np.array([spec.kappa, 0.0])
    if fam == "bessel":
        x, y, _ = point
        r2 = x * x + y * y
        r = math.sqrt(r2)
        m = abs(spec.ell)
        kp = spec.k_perp
        rad = -kp * special.jvp(m, kp * r) / special.jv(m, kp * r)
        re = np.array([-spec.ell * y / r2, spec.ell * x / r2, spec.k_z])
        return re, np.array([rad * x / r, rad * y / r, 0.0])
    return None


def check_point(prep, output, pf):
    sample, mom, dec, stokes, _pred, readout, (f_grad, f_scat) = output
    spec, pt, cal = prep.spec, prep.point, prep.cal
    k = spec.wave.k
    exact = closed_form_momentum(spec, pt)
    if exact is not None:
        re, im = exact
        err = math.sqrt(np.sum((mom.re_p - re) ** 2) + np.sum((mom.im_p - im) ** 2))
        scale = math.sqrt(np.sum(re ** 2) + np.sum(im ** 2))
        if err > REL * scale:
            return f"momentum off closed form by {err / scale:.2e} relative"

    chi = prep.chi.chi
    w = 0.5 * sample.amplitude ** 2
    re3 = pf.embed3(mom.re_p, spec.ndim)
    im3 = pf.embed3(mom.im_p, spec.ndim)
    scale = max(np.abs(chi.real * im3 * w).max(), np.abs(chi.imag * re3 * w).max())
    err = max(np.abs(f_grad + chi.real * im3 * w).max(),
              np.abs(f_scat - chi.imag * re3 * w).max())
    if scale > 0.0 and err > 1e-10 * scale:
        return f"force identity off by {err / scale:.2e}"

    ratio = pf.momentum_ratio(dec)
    want = re3 / k
    err = np.abs(ratio - want).max()
    if err > 1e-10 * max(np.abs(want).max(), 1.0):
        return f"P_O/W differs from re_p/k by {err:.2e}"

    mid = list(pt)
    mid[0] -= 0.5 * cal.delta_x
    p_mid = pf.local_momentum(pf.evaluate(spec, tuple(mid)))
    got = np.array(readout)
    want = np.array([p_mid.re_p[0], p_mid.im_p[0]])
    p_abs = float(np.abs(p_mid.p).max())
    tol = 1e-6 * max(p_abs, k) + (cal.delta_x * p_abs) ** 2 * p_abs
    if np.abs(got - want).max() > tol:
        return f"calcite readout off by {np.abs(got - want).max():.2e} (tolerance {tol:.1e})"
    if not math.isclose(stokes.norm_sq, 1.0, rel_tol=1e-9):
        return f"Stokes vector norm^2 {stokes.norm_sq!r} is not 1"
    return None


# ------------------------------------------------------------ streamlines

def check_helix(prep, traj):
    p = prep.job.payload
    spec = prep.spec
    r0 = p["r0"]
    r = np.hypot(traj.points[:, 0], traj.points[:, 1])
    drift = float(np.abs(r - r0).max())
    if drift >= 1e-8:
        return f"helix radius drift {drift:.2e} mm"
    z = traj.points[:, 2]
    phi = np.unwrap(np.arctan2(traj.points[:, 1], traj.points[:, 0]))
    phi += 2.0 * math.pi * round((p["phi0"] - phi[0]) / (2.0 * math.pi))   # same branch as phi0
    predicted = p["phi0"] + z * spec.ell / (spec.k_z * r0 * r0)
    err = float(np.abs(phi - predicted).max())
    if err >= 1e-6:
        return f"helix phase-law error {err:.2e} rad"
    if z[-1] != p["z_end"]:
        return f"helix stopped at z = {z[-1]!r}, not {p['z_end']!r}"
    return None


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "traj_id,s_or_z,x,y,z,re_px,re_py,re_pz,im_px,im_py,im_pz":
        raise ValueError("unexpected CSV header")
    return np.array([[float(t) for t in line.split(",")] for line in lines[1:]])


def check_trace(prep, rng, pf):
    rows = _read_csv(prep.out)
    spec = pf.field_from_dict(json.loads(prep.argv[prep.argv.index("--field-json") + 1]))
    ids = rows[:, 0].astype(int)
    n_traj = int(ids.max()) + 1
    if n_traj != prep.job.payload["seeds"]:
        return f"{n_traj} trajectories for {prep.job.payload['seeds']} seeds"
    if spec.family == "gaussian_pair":
        ladders = [rows[ids == t][:, 1] for t in range(n_traj)]
        if not all(np.array_equal(lad, ladders[0]) for lad in ladders[1:]):
            return "fan z ladders differ"
        xs = np.stack([rows[ids == t][:, 2] for t in range(n_traj)])
        if n_traj > 1 and not np.all(np.diff(xs, axis=0) > 0.0):
            return "fan trajectories cross"
    cols = [0, 2] if spec.ndim == 2 else [0, 1, 2]
    for r in rng.choice(len(rows), size=min(ROWS_PER_TRACE, len(rows)), replace=False):
        pos = rows[r, 2:5][cols]
        mom = pf.local_momentum(pf.evaluate(spec, tuple(pos))).p
        got = rows[r, 5:8][cols] + 1j * rows[r, 8:11][cols]
        if np.abs(got - mom).max() > REL * max(np.abs(mom).max(), spec.wave.k):
            return f"CSV row {r} momentum differs from the pointwise value"
    return None


# ------------------------------------------------------------ maps

def _grid_of(argv, pf):
    fixed = ()
    if "--fixed" in argv:
        name, value = argv[argv.index("--fixed") + 1].split("=")
        fixed = ((name, float(value)),)
    return pf.GridSpec.from_string(argv[argv.index("--grid") + 1], fixed)


def _frame_point(grid, ndim, a1, a2):
    names = ("x", "z") if ndim == 2 else ("x", "y", "z")
    values = dict(grid.fixed)
    values[grid.axes[0]] = a1
    values[grid.axes[1]] = a2
    return tuple(float(values.get(n, 0.0)) for n in names)


def _peak_amplitude(spec, grid):
    psi, _ = spec.psi_grad(*grid.mesh(spec.ndim))
    return float(np.abs(psi).max())


class _Cell:
    """Pointwise reference values at one grid node."""

    def __init__(self, pf, spec, point, peak):
        self.pf = pf
        self.spec = spec
        self.point = point
        self.sample = pf.evaluate(spec, point)
        self.amp = self.sample.amplitude
        self.k = spec.wave.k
        # cells this close to the floor may fall on either side of it
        self.ambiguous = FLOOR * peak / 10.0 < self.amp <= FLOOR * peak * 10.0
        self.singular = self.amp <= FLOOR * peak
        self.cond = peak / self.amp if self.amp > 0.0 else math.inf

    def momentum(self):
        return self.pf.local_momentum(self.sample)

    def axis(self, name):
        return {"x": 0, "y": 1, "z": self.spec.ndim - 1}[name]

    def label(self, bound_model, guard):
        if self.singular:
            return "singular", False
        re_pz = float(self.momentum().re_p[-1])
        k = self.k
        bound = self.spec.n * k if (bound_model == "piecewise" and self.point[0] < 0.0) else k
        near = (abs(re_pz) <= REL * k * self.cond
                or abs(re_pz - bound * (1.0 + guard)) <= REL * bound * self.cond)
        if re_pz > bound * (1.0 + guard):
            return "superluminal", near
        return ("backflow" if re_pz < 0.0 else "normal"), near


def _compare(got, want, scale):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.abs(got - want).max()) <= REL * scale


def _layer_reference(cell, name, opts):
    """(value, scale, singular) for one fieldmap/stokes/force layer at a cell."""
    pf, spec = cell.pf, cell.spec
    if name == "amp":
        return cell.amp, opts["peak"], False
    if name == "W":
        return 0.5 * cell.amp ** 2, 0.5 * opts["peak"] ** 2, False
    if name in ("phase", "re_px", "re_pz", "im_px", "im_pz"):
        if cell.singular:
            return None, 0.0, True
    if name == "phase":
        return cell.sample.phase, math.pi * cell.cond, False
    if name in ("re_px", "re_pz", "im_px", "im_pz"):
        mom = cell.momentum()
        part = mom.re_p if name.startswith("re") else mom.im_p
        return float(part[cell.axis(name[-1])]), cell.k * cell.cond, False
    if name in ("P_O", "P_S"):
        dec = pf.poynting_decomposition(spec, opts["pol"], cell.point)
        vec = dec.P_O if name == "P_O" else dec.P_S
        return list(vec), opts["peak"] ** 2, False
    if name.startswith("S") or name.endswith("_readout") or name in ("F_grad", "F_scat"):
        return _derived_reference(cell, name, opts)
    raise ValueError(f"no reference for layer {name!r}")


def _derived_reference(cell, name, opts):
    pf, spec = cell.pf, cell.spec
    if name in ("F_grad", "F_scat"):
        chi = opts["chi"]
        fg, fs = pf.force_from_sample(cell.sample, chi)
        vec = fg if name == "F_grad" else fs
        if opts["normalized"]:
            if cell.singular:
                return None, 0.0, True
            w = 0.5 * cell.amp ** 2
            return list(vec / w), abs(chi.chi) * cell.k * cell.cond, False
        return list(vec), abs(chi.chi) * opts["peak"] ** 2 * cell.k, False
    cal = opts["cal"]
    if name in ("S1_pred", "S2_pred", "S3_pred"):
        if cell.singular:
            return None, 0.0, True
        pred = pf.predicted_stokes(cell.momentum(), cal).as_tuple()
        return pred[int(name[1]) - 1], 1.0, False
    ex, ey = pf.apply_calcite(spec, cal, cell.point)
    root = math.sqrt(abs(ex) ** 2 + abs(ey) ** 2)
    if root <= FLOOR * opts["stokes_peak"]:
        return None, 0.0, True
    s = pf.exact_stokes(ex, ey)
    cond = opts["stokes_peak"] / root
    if name == "re_px_readout":
        return pf.momentum_from_stokes(s, cal)[0], cond / abs(cal.delta_x), False
    if name == "im_px_readout":
        return pf.momentum_from_stokes(s, cal)[1], cond / abs(cal.delta_x), False
    return s.as_tuple()[int(name[1]) - 1], cond, False


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check_grid_artifact(prep, rng, pf):
    """fieldmap, stokes and force: sampled cells against the pointwise library."""
    argv = prep.argv
    cmd = argv[0]
    with open(prep.out, encoding="utf-8") as fh:
        obj = json.load(fh)
    spec = pf.field_from_dict(json.loads(_flag(argv, "--field-json")))
    grid = _grid_of(argv, pf)
    if obj["grid"] != grid.to_dict() or obj["provenance"]["field"] != spec.to_dict():
        return "grid or provenance block does not match the request"
    pol = polarization(pf, _flag(argv, "--pol", "diag"))
    dx = float(_flag(argv, "--delta-x-mm", "1e-4"))
    opts = {"peak": _peak_amplitude(spec, grid), "pol": pol,
            "cal": pf.CalciteSpec(delta_x=dx, pol=pol)}
    if cmd == "force":
        re_chi, im_chi = (float(t) for t in _flag(argv, "--chi").split(","))
        opts["chi"] = pf.Polarizability(complex(re_chi, im_chi))
        opts["normalized"] = "--normalized" in argv
    if cmd == "stokes" or any(n.startswith("S") for n in obj["layers"]):
        meshes = grid.mesh(spec.ndim)
        shifted = list(meshes)
        shifted[0] = meshes[0] - dx
        ex = pol.ex * spec.psi_grad(*shifted)[0]
        ey = pol.ey * spec.psi_grad(*meshes)[0]
        opts["stokes_peak"] = float(np.sqrt(np.abs(ex) ** 2 + np.abs(ey) ** 2).max())

    c1, c2 = grid.coords(0), grid.coords(1)
    n1, n2 = grid.counts
    bound = _flag(argv, "--bound", "uniform")
    guard = float(_flag(argv, "--superluminal-guard", "0"))
    for _ in range(CELLS_PER_JOB):
        i, j = int(rng.integers(n1)), int(rng.integers(n2))
        cell = _Cell(pf, spec, _frame_point(grid, spec.ndim, c1[i], c2[j]), opts["peak"])
        if cell.ambiguous:
            continue
        for name, rows in obj["layers"].items():
            got = rows[j][i]
            if name == "label":
                want, near = cell.label(bound, guard)
                if not near and got != want:
                    return f"label at cell ({i}, {j}) is {got!r}, pointwise {want!r}"
                continue
            want, scale, singular = _layer_reference(cell, name, opts)
            if singular or got == "singular":
                if (got == "singular") != singular:
                    return f"{name} at cell ({i}, {j}) is {got!r}, pointwise singular={singular}"
                continue
            if name == "phase":       # compare on the circle
                got = want + float(pf.wrap_angle(got - want))
            if not _compare(got, want, max(scale, np.abs(np.asarray(want)).max())):
                return f"{name} at cell ({i}, {j}) is {got!r}, pointwise {want!r}"
    return None


def _loop_winding(pf, spec, grid, i, j):
    """Winding (in turns) of the plaquette (i, j) from pointwise phases.

    The loop is sampled more finely until every phase step is below pi/2;
    ResolutionError means a zero lies within about 1/2048 of an edge of the loop.
    """
    c1, c2 = grid.coords(0), grid.coords(1)
    corners = [(c1[i], c2[j]), (c1[i + 1], c2[j]), (c1[i + 1], c2[j + 1]), (c1[i], c2[j + 1])]
    per_edge = 32
    while True:
        phases = []
        for a in range(4):
            (u0, v0), (u1, v1) = corners[a], corners[(a + 1) % 4]
            for t in np.arange(per_edge) / per_edge:
                pt = _frame_point(grid, spec.ndim, u0 + t * (u1 - u0), v0 + t * (v1 - v0))
                phases.append(pf.evaluate(spec, pt).phase)
        try:
            return pf.phase_winding(phases) / (2.0 * math.pi)
        except pf.ResolutionError:
            if per_edge >= 2048:
                raise
            per_edge *= 4


def check_anomaly(prep, rng, pf):
    argv = prep.argv
    with open(prep.out, encoding="utf-8") as fh:
        obj = json.load(fh)
    spec = pf.field_from_dict(json.loads(_flag(argv, "--field-json")))
    grid = _grid_of(argv, pf)
    n1, n2 = grid.counts
    if sum(obj["counts"].values()) != n1 * n2:
        return "label counts do not add up to the grid size"
    c1, c2 = grid.coords(0), grid.coords(1)
    names = ("x", "z") if spec.ndim == 2 else ("x", "y", "z")
    a1, a2 = names.index(grid.axes[0]), names.index(grid.axes[1])
    vortices = obj["vortices"]
    picks = rng.choice(len(vortices), size=min(VORTICES_PER_JOB, len(vortices)), replace=False)
    for v in (vortices[int(p)] for p in picks):
        i = int(np.searchsorted(c1, v["position"][a1])) - 1
        j = int(np.searchsorted(c2, v["position"][a2])) - 1
        try:
            turns = _loop_winding(pf, spec, grid, i, j)
        except pf.ResolutionError:
            continue    # the zero sits on the plaquette's boundary: either side is right
        if round(turns) != v["charge"]:
            return f"vortex at {v['position']} has charge {v['charge']}, loop gives {turns:.3f}"
    if "labels" in obj:
        peak = _peak_amplitude(spec, grid)
        guard = float(_flag(argv, "--superluminal-guard", "0"))
        for _ in range(CELLS_PER_JOB):
            i, j = int(rng.integers(n1)), int(rng.integers(n2))
            cell = _Cell(pf, spec, _frame_point(grid, spec.ndim, c1[i], c2[j]), peak)
            if cell.ambiguous:
                continue
            want, near = cell.label(_flag(argv, "--bound", "uniform"), guard)
            if not near and obj["labels"][j][i] != want:
                return f"label at cell ({i}, {j}) is {obj['labels'][j][i]!r}, pointwise {want!r}"
    return None


_COMPONENTS = {"x": 0, "y": 1, "z": 2}


def check_render(prep, pf):
    argv = prep.argv
    with open(_flag(argv, "--in"), encoding="utf-8") as fh:
        rows = json.load(fh)["layers"][_flag(argv, "--layer")]
    comp = _flag(argv, "--component")
    height, width = len(rows), len(rows[0])
    mask = np.array([[c == "singular" for c in row] for row in rows])
    values = np.zeros((height, width))
    for j, row in enumerate(rows):
        for i, c in enumerate(row):
            if c != "singular":
                values[j, i] = c[_COMPONENTS[comp]] if comp else c
    live = values[~mask]
    want = np.zeros((height, width), dtype=np.uint8)
    if live.size:
        lo, hi = live.min(), live.max()
        if lo == hi:
            want[~mask] = 128
        else:
            want = np.clip(np.rint((values - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)
            want[mask] = 0
    with open(prep.out, "rb") as fh:
        data = fh.read()
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    if not data.startswith(header):
        return "PGM header does not match the layer's shape"
    got = np.frombuffer(data[len(header):], dtype=np.uint8)
    if got.size != width * height or not np.array_equal(got.reshape(height, width), want):
        return "PGM pixels differ from the scaled layer"
    return None


def check(prep, output, rng, pf):
    """Dispatch on the job kind; returns None or the reason the output is wrong."""
    if prep.kind == "point":
        return check_point(prep, output, pf)
    if prep.kind == "helix":
        return check_helix(prep, output)
    cmd = prep.argv[0]
    if cmd == "trace":
        return check_trace(prep, rng, pf)
    if cmd == "anomaly":
        return check_anomaly(prep, rng, pf)
    if cmd == "render":
        return check_render(prep, pf)
    return check_grid_artifact(prep, rng, pf)
