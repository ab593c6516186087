"""Seeded job lists for the three workloads, and how one job is run.

`generate(workload, seed)` is pure data: JSON-ready dicts built from
`numpy.random.default_rng(seed)` without touching photonflow, so the same
seed always gives the same inputs.  One list is one *pass*; a run repeats
whole passes, which keeps the job mix of every run identical to its list.

The shape of each pass (which command, grid size, bundle size, layer set) is
fixed, and jobs of equal shape are grouped so that the median and the 90th
percentile each fall inside a group of like jobs; the seed draws the physics
(field parameters, windows, seeds, points).  That keeps the work per pass
close across seeds while every parameter still moves.  Parameter ranges are
the full valid ranges except where a draw would run into a known fault:
evanescent overflow (kappa*|x| beyond ~350), Gaussian underflow far off
axis, and a charge-2 vortex near a plaquette edge.  Those are exercised on
every maps run by `known_faults()`, apart from the timed jobs.

Why these workloads:
* probe: the scalar path (evaluate, momentum, Poynting, calcite readout,
  force) that the pointwise acceptance criteria and the tracer sit on; it
  never touches grids, anomaly, tracing or encoding.
* streamlines: RK4 stepping over pointwise field calls; bundle size (1, 4,
  17 seeds) sets how much work seeds could share.
* maps: CLI grid commands from 64^2 (fits L2) to 800^2 (beyond L2, inside
  L3); encoding dominates fieldmap/stokes/force, compute dominates anomaly
  without labels.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("probe", "streamlines", "maps")
FAMILIES = ("plane_wave", "gaussian_pair", "bessel", "evanescent", "tir_two_wave")
TWO_PI = 2.0 * math.pi

# First zeros j_{m,1} of J_m, m = 0..3 (radius of the first nodal ring times k_perp).
_J_FIRST_ZERO = (2.404825557695773, 3.831705970207512, 5.135622301840683,
                 6.380161895923984)

PROBE_POINTS_PER_FAMILY = 200
SCHEMA = 1


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work; `payload` is JSON-ready data."""

    name: str
    kind: str          # "point", "cli" or "helix"
    payload: dict


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


# ------------------------------------------------------------ field draws

def draw_field(rng, family, **over):
    """A valid field spec dict of one family, drawn over its parameter range."""
    if family == "plane_wave":
        ang = _u(rng, 0.0, TWO_PI)
        spec = {"family": family, "lambda_mm": _u(rng, 0.3, 3.0),
                "direction": [math.cos(ang), math.sin(ang)]}
    elif family == "gaussian_pair":
        spec = {"family": family, "lambda_mm": _u(rng, 0.4e-3, 2.0e-3),
                "w0_mm": _u(rng, 0.35, 2.0), "a_mm": _u(rng, 0.0, 3.0)}
    elif family == "bessel":
        lam = _u(rng, 0.5, 2.0)
        spec = {"family": family, "lambda_mm": lam, "ell": int(rng.integers(-3, 4)),
                "k_perp_per_mm": _u(rng, 0.02, 0.6) * TWO_PI / lam}
    elif family == "evanescent":
        spec = {"family": family, "lambda_mm": _u(rng, 0.3, 3.0),
                "kappa_per_mm": _u(rng, 0.05, 50.0)}
    elif family == "tir_two_wave":
        n = _u(rng, 1.2, 2.0)
        tc = math.asin(1.0 / n)
        spec = {"family": family, "lambda_mm": _u(rng, 0.5, 2.0), "n": n,
                "theta1_rad": _u(rng, tc + 0.02, 0.5 * math.pi - 0.02),
                "theta2_rad": _u(rng, tc + 0.02, 0.5 * math.pi - 0.02),
                "amp1": _u(rng, 0.2, 1.5), "amp2": _u(rng, 0.2, 1.5)}
    else:
        raise ValueError(f"unknown family {family!r}")
    spec.update(over)
    return spec


def _k(spec):
    return TWO_PI / spec["lambda_mm"]


# criterion-03 boxes, one per family; Bessel boxes are (x, y, z)
PROBE_BOXES = {
    "plane_wave": ((-5.0, 5.0), (-5.0, 5.0)),
    "gaussian_pair": ((-4.0, 4.0), (0.0, 3000.0)),
    "bessel": ((-3.0, 3.0), (-3.0, 3.0), (0.0, 10.0)),
    "evanescent": ((0.0, 3.0), (-5.0, 5.0)),
    "tir_two_wave": ((-2.0, 2.0), (0.0, 12.0)),
}
_POL_NAMES = ("x", "y", "diag", "rcp", "lcp")


# ------------------------------------------------------------ probe

def _probe_jobs(rng):
    specs = {fam: [draw_field(rng, fam) for _ in range(8)] for fam in FAMILIES}
    jobs = []
    for i in range(PROBE_POINTS_PER_FAMILY):
        for fam in FAMILIES:
            spec = specs[fam][int(rng.integers(len(specs[fam])))]
            point = [_u(rng, lo, hi) for lo, hi in PROBE_BOXES[fam]]
            payload = {
                "field": spec, "point": point,
                "pol": _POL_NAMES[int(rng.integers(len(_POL_NAMES)))],
                "chi": [_u(rng, 1e-4, 1e-2), _u(rng, 0.0, 1e-3)],
                # small against every wavelength and waist, so the readout
                # stays in its first-order regime
                "delta_x": 1e-5 * spec["lambda_mm"],
            }
            jobs.append(Job(f"probe/{i:03d}-{fam}", "point", payload))
    return jobs


# ------------------------------------------------------------ streamlines

def _pair_trace(rng, name, n_seeds, steps):
    spec = draw_field(rng, "gaussian_pair")
    zr = 0.5 * _k(spec) * spec["w0_mm"] ** 2
    z_end = _u(rng, 0.3, 1.0) * zr       # within a Rayleigh range: the fan stays in its box
    argv = ["trace", "--field-json", json.dumps(spec), "--z-end", repr(z_end),
            "--step", repr(z_end / steps)]
    if n_seeds != 17:                     # 17 is the CLI's default fan
        half = spec["a_mm"] + spec["w0_mm"]
        xs = sorted(_u(rng, -half, half) for _ in range(n_seeds))
        # "=" form: a value starting with "-" would read as an option
        argv.append("--seeds-inline=" + ";".join(f"{x!r},0" for x in xs))
    return Job(name, "cli", {"argv": argv, "out": "csv", "seeds": n_seeds})


def _helix(rng, name):
    ell = int(rng.choice([-3, -2, -1, 1, 2, 3]))
    spec = draw_field(rng, "bessel", ell=ell)
    k = _k(spec)
    kp = _u(rng, 0.1, 0.6) * k
    spec["k_perp_per_mm"] = kp
    kz = math.sqrt(k * k - kp * kp)
    r_ring = _J_FIRST_ZERO[abs(ell)] / kp
    # The paraxial tracer halves any step whose displacement exceeds twice
    # the step, so the helix slope |ell|/(k_z r0) is kept at or below 1.
    r0 = max(_u(rng, 0.3, 0.8) * r_ring, abs(ell) / kz)
    rate = abs(ell) / (kz * r0 * r0)      # helix angular rate, rad/mm
    turn = 3.0                            # total angle swept, rad
    z_end = turn / rate
    steps = 400                           # 0.0075 rad per RK4 step
    return Job(name, "helix", {"field": spec, "r0": r0, "phi0": _u(rng, 0.0, TWO_PI),
                               "z_end": z_end, "step": z_end / steps})


def _tir_arc(rng, name, which, max_steps):
    spec = draw_field(rng, "tir_two_wave", lambda_mm=1.0)
    seeds = ";".join(f"{_u(rng, -2.0, -0.1)!r},{_u(rng, 0.2, 3.8)!r}" for _ in range(4))
    argv = ["trace", "--field-json", json.dumps(spec), "--mode", "arc", "--which", which,
            "--seeds-inline=" + seeds, "--domain", "x:-2.5:0.5,z:0:4",
            "--step", "0.05", "--max-steps", str(max_steps)]
    return Job(name, "cli", {"argv": argv, "out": "csv", "seeds": 4})


def _tir_funnel(rng, name):
    """Paraxial re-streamlines in the glass, which stall at TIR vortices.

    The field is criterion 05's, whose first row of glass vortices lies near
    z = 0.35 mm, so the bundles reach it within their 120 steps.
    """
    spec = dict(_CRITERION05_TIR)
    seeds = ";".join(f"{x!r},0" for x in sorted(_u(rng, -2.0, -0.1) for _ in range(4)))
    argv = ["trace", "--field-json", json.dumps(spec), "--seeds-inline=" + seeds,
            "--domain", "x:-2.5:0.5", "--z-end", "2.0", "--step", "0.01", "--max-steps", "120"]
    return Job(name, "cli", {"argv": argv, "out": "csv", "seeds": 4})


def _streamline_jobs(rng):
    """One streamlines pass: 30 jobs in latency groups of fixed work.

    Ten fast jobs (single-seed and 4-seed Gaussian traces, short TIR
    arc-length `re` bundles) sit below ten Bessel helices of 400 steps each,
    which hold the median.  Four TIR bundles (arc-length `im`, and paraxial
    bundles that stall at glass vortices) come next, and six 17-seed fans of
    100 steps hold the 90th percentile.  The order within a pass is shuffled
    so that each group is spread over the pass.
    """
    plan = ([("pair1", lambda n: _pair_trace(rng, n, 1, 100))] * 5
            + [("tir-re", lambda n: _tir_arc(rng, n, "re", 40))] * 2
            + [("pair4", lambda n: _pair_trace(rng, n, 4, 50))] * 3
            + [("helix", lambda n: _helix(rng, n))] * 10
            + [("tir-im", lambda n: _tir_arc(rng, n, "im", 150))] * 2
            + [("tir-funnel", lambda n: _tir_funnel(rng, n))] * 2
            + [("pair17", lambda n: _pair_trace(rng, n, 17, 100))] * 6)
    order = rng.permutation(len(plan))
    return [plan[idx][1](f"streamlines/{i:02d}-{plan[idx][0]}") for i, idx in enumerate(order)]


# ------------------------------------------------------------ maps

ALL_LAYERS = ("amp", "phase", "re_px", "re_pz", "im_px", "im_pz",
              "S1", "S2", "S3", "W", "P_O", "P_S", "label")


def _window(rng, lo, hi, min_frac=0.3):
    """A random sub-interval of [lo, hi] at least min_frac of its length."""
    width = (hi - lo) * _u(rng, min_frac, 1.0)
    a = _u(rng, lo, hi - width)
    return a, a + width


def _grid_for(rng, spec, n1, n2):
    """(--grid, --fixed) strings for a family-appropriate window."""
    fam = spec["family"]
    if fam == "plane_wave":
        x = _window(rng, -5.0, 5.0)
        z = _window(rng, -5.0, 5.0)
        return f"x:{x[0]!r}:{x[1]!r}:{n1},z:{z[0]!r}:{z[1]!r}:{n2}", ""
    if fam == "gaussian_pair":
        # one lobe, +-3 waists: no cell falls under the singular floor
        c = spec["a_mm"] * (1.0 if rng.random() < 0.5 else -1.0)
        h = 3.0 * spec["w0_mm"]
        z = _window(rng, 0.0, 3000.0)
        return f"x:{c - h!r}:{c + h!r}:{n1},z:{z[0]!r}:{z[1]!r}:{n2}", ""
    if fam == "bessel":
        half = 0.9 * _J_FIRST_ZERO[abs(spec["ell"])] / spec["k_perp_per_mm"]
        c = (_u(rng, -0.1, 0.1) * half, _u(rng, -0.1, 0.1) * half)
        h = _u(rng, 0.3, 0.8) * half
        return (f"x:{c[0] - h!r}:{c[0] + h!r}:{n1},y:{c[1] - h!r}:{c[1] + h!r}:{n2}",
                f"z={_u(rng, 0.0, 10.0)!r}")
    if fam == "evanescent":
        # kappa*|x| stays below ~300, so |psi|^2 stays finite; the window
        # spans kappa*width = 40, so about 30% of the cells fall under the
        # singular floor (amplitude below 1e-12 of the peak) for every draw
        kappa = spec["kappa_per_mm"]
        width = 40.0 / kappa
        x0 = _u(rng, max(-20.0, -300.0 / kappa), 3.0 - width)
        z = _window(rng, -5.0, 5.0)
        return f"x:{x0!r}:{x0 + width!r}:{n1},z:{z[0]!r}:{z[1]!r}:{n2}", ""
    x = _window(rng, -2.0, 2.0)
    z = _window(rng, 0.0, 12.0)
    return f"x:{x[0]!r}:{x[1]!r}:{n1},z:{z[0]!r}:{z[1]!r}:{n2}", ""


def _grid_args(grid, fixed):
    return ["--grid", grid] + (["--fixed", fixed] if fixed else [])


def _layer_set(first, count):
    """`count` layers taken cyclically from ALL_LAYERS starting at `first`."""
    picks = {(first + t) % len(ALL_LAYERS) for t in range(count)}
    return [ALL_LAYERS[i] for i in sorted(picks)]


def _map_field(rng, family):
    """A field for a grid job; evanescent decay rates start at 2 /mm so that
    the window of `_grid_for` fits inside x in [-20, 3]."""
    spec = draw_field(rng, family)
    if family == "evanescent":
        spec["kappa_per_mm"] = _u(rng, 2.0, 50.0)
    return spec


def _fieldmap(rng, name, family, n, layers):
    spec = _map_field(rng, family)
    grid, fixed = _grid_for(rng, spec, n, n)
    argv = ["fieldmap", "--field-json", json.dumps(spec)] + _grid_args(grid, fixed)
    argv += ["--layers", ",".join(layers), "--pol", str(rng.choice(_POL_NAMES))]
    if family == "tir_two_wave":
        argv += ["--bound", "piecewise"]
    if family == "gaussian_pair":
        argv += ["--superluminal-guard", "1e-4"]   # absorbs the known paraxial excess
    return Job(name, "cli", {"argv": argv, "out": "json", "cells": n * n})


def _stokes(rng, name, family, n):
    spec = _map_field(rng, family)
    grid, fixed = _grid_for(rng, spec, n, n)
    argv = ["stokes", "--field-json", json.dumps(spec)] + _grid_args(grid, fixed)
    argv += ["--delta-x-mm", repr(1e-5 * spec["lambda_mm"])]
    return Job(name, "cli", {"argv": argv, "out": "json", "cells": n * n})


def _force(rng, name, family, n, normalized):
    spec = _map_field(rng, family)
    grid, fixed = _grid_for(rng, spec, n, n)
    argv = ["force", "--field-json", json.dumps(spec)] + _grid_args(grid, fixed)
    argv += ["--chi", f"{_u(rng, 1e-4, 1e-2)!r},{_u(rng, 0.0, 1e-3)!r}"]
    if normalized:
        argv.append("--normalized")
    return Job(name, "cli", {"argv": argv, "out": "json", "cells": n * n})


# the two-wave field of acceptance criterion 05 (n = 1.5, 5 and 10 degrees
# past the critical angle); its 800^2 jobs do the same work for every seed
_CRITERION05_TIR = {"family": "tir_two_wave", "lambda_mm": 1.0, "n": 1.5,
                    "theta1_rad": math.asin(1.0 / 1.5) + math.radians(5.0),
                    "theta2_rad": math.asin(1.0 / 1.5) + math.radians(10.0),
                    "amp1": 1.0, "amp2": 1.0}


def _anomaly_tir(rng, name, n, labels, criterion05=False):
    spec = draw_field(rng, "tir_two_wave", lambda_mm=1.0)
    if criterion05:
        spec = dict(_CRITERION05_TIR)
        grid = f"x:-2.0:2.0:{n},z:0.0:4.0:{n}"
    else:
        # spacing stays under the resolution limit lambda/(8 n)
        width = min(0.9 * (n - 1) / (8.0 * spec["n"]), _u(rng, 2.0, 4.0))
        x0 = _u(rng, -2.0, 2.0 - width)
        z0 = _u(rng, 0.0, 8.0)
        grid = f"x:{x0!r}:{x0 + width!r}:{n},z:{z0!r}:{z0 + width!r}:{n}"
    argv = ["anomaly", "--field-json", json.dumps(spec), "--grid", grid, "--bound", "piecewise"]
    if labels:
        argv.append("--with-labels")
    return Job(name, "cli", {"argv": argv, "out": "json", "cells": n * n})


def _anomaly_bessel(rng, name, n, labels, ell):
    spec = draw_field(rng, "bessel", ell=ell)
    # The slice stays inside the first nodal ring (a ring is a line of zeros
    # that no plaquette loop can resolve) and under the lambda/8 spacing.
    # The beam axis sits at a plaquette centre, the layout anomaly.py asks
    # for; an off-centre charge-2 axis is a known fault (see known_faults).
    half = min(0.5 * _J_FIRST_ZERO[abs(ell)] / spec["k_perp_per_mm"],
               0.45 * (n - 1) * spec["lambda_mm"] / 8.0)
    step = 2.0 * half / (n - 1)
    c = [int(rng.integers(-(n // 8), n // 8 + 1)) * step for _ in range(2)]
    grid = f"x:{c[0] - half!r}:{c[0] + half!r}:{n},y:{c[1] - half!r}:{c[1] + half!r}:{n}"
    argv = ["anomaly", "--field-json", json.dumps(spec), "--grid", grid,
            "--fixed", f"z={_u(rng, 0.0, 10.0)!r}"]
    if labels:
        argv.append("--with-labels")
    return Job(name, "cli", {"argv": argv, "out": "json", "cells": n * n})


def _render(name, source, layer, component=None):
    argv = ["render", "--in", "{dir}/" + _out_name(source), "--layer", layer]
    if component:
        argv += ["--component", component]
    return Job(name, "cli", {"argv": argv, "out": "pgm", "cells": source.payload["cells"]})


def _out_name(job):
    return job.name.split("/", 1)[1] + "." + job.payload["out"]


def _maps_jobs(rng):
    """One maps pass: 41 jobs in latency groups of fixed shape.

    * 15 fast jobs (64^2..80^2 fieldmaps, anomaly on small TIR windows and
      Bessel slices, small forces, renders) below the median;
    * 8 fieldmaps at 128^2 with four scalar layers, which hold the median;
    * 12 medium jobs: stokes and force at 96^2..128^2, fieldmaps with 8 to
      13 layers (the label layer among them), renders of a vector component
      and of the 400^2 map;
    * 4 jobs of about a second, which hold the 90th percentile: the
      criterion-05 anomaly grid (800^2, no labels) and three 192^2 stokes;
    * 2 heavy jobs above it: the criterion-05 grid with labels and a 400^2
      three-layer fieldmap.
    Renders read artifacts written earlier in the same pass, so they run last;
    the other jobs are shuffled so that each group is spread over the pass.
    """
    fast = [_fieldmap(rng, "maps/fieldmap-a0-plane_wave", "plane_wave", 64, ["amp"]),
            _fieldmap(rng, "maps/fieldmap-a1-plane_wave", "plane_wave", 64, ["re_pz"]),
            _fieldmap(rng, "maps/fieldmap-a2-gaussian_pair", "gaussian_pair", 64,
                      ["amp", "im_px"]),
            _fieldmap(rng, "maps/fieldmap-a3-bessel", "bessel", 64, ["amp", "phase", "re_px"]),
            _fieldmap(rng, "maps/fieldmap-a4-evanescent", "evanescent", 80, ["W", "im_px"]),
            _anomaly_tir(rng, "maps/anomaly-a0-tir", 64, labels=False),
            _anomaly_tir(rng, "maps/anomaly-a1-tir", 80, labels=True),
            _anomaly_bessel(rng, "maps/anomaly-a2-bessel", 64, labels=False, ell=2),
            _anomaly_bessel(rng, "maps/anomaly-a3-bessel", 80, labels=True, ell=-2),
            _anomaly_bessel(rng, "maps/anomaly-a4-bessel", 64, labels=False, ell=1),
            _force(rng, "maps/force-a0-tir_two_wave", "tir_two_wave", 64, False),
            _force(rng, "maps/force-a1-bessel", "bessel", 64, True)]
    median = [_fieldmap(rng, f"maps/fieldmap-b{i}-{fam}", fam, 128,
                        ["amp", "phase", "re_px", "im_pz"])
              for i, fam in enumerate(("plane_wave", "tir_two_wave") * 4)]
    medium = [_stokes(rng, "maps/stokes-c0-gaussian_pair", "gaussian_pair", 96),
              _stokes(rng, "maps/stokes-c1-bessel", "bessel", 112),
              _stokes(rng, "maps/stokes-c2-evanescent", "evanescent", 128),
              _force(rng, "maps/force-c0-gaussian_pair", "gaussian_pair", 96, False),
              _force(rng, "maps/force-c1-evanescent", "evanescent", 112, True),
              _force(rng, "maps/force-c2-plane_wave", "plane_wave", 128, False),
              _force(rng, "maps/force-c3-tir_two_wave", "tir_two_wave", 128, True),
              _fieldmap(rng, "maps/fieldmap-c0-gaussian_pair", "gaussian_pair", 112,
                        _layer_set(6, 8)),
              _fieldmap(rng, "maps/fieldmap-c1-evanescent", "evanescent", 112,
                        _layer_set(2, 10)),
              _fieldmap(rng, "maps/fieldmap-c2-tir_two_wave", "tir_two_wave", 128,
                        list(ALL_LAYERS))]
    p90 = [_anomaly_tir(rng, "maps/anomaly-d0-c05", 800, labels=False, criterion05=True)]
    p90 += [_stokes(rng, f"maps/stokes-d{i}-{fam}", fam, 192)
            for i, fam in enumerate(("plane_wave", "tir_two_wave", "plane_wave"), start=1)]
    heavy = [_anomaly_tir(rng, "maps/anomaly-e0-c05-labels", 800, labels=True, criterion05=True),
             _fieldmap(rng, "maps/fieldmap-e1-gaussian_pair", "gaussian_pair", 400,
                       ["amp", "re_px", "im_px"])]
    jobs = fast + median + medium + p90 + heavy
    jobs = [jobs[i] for i in rng.permutation(len(jobs))]
    renders = [_render("maps/render-a0-scalar", fast[3], "phase"),
               _render("maps/render-a1-force-x", fast[10], "F_grad", "x"),
               _render("maps/render-a2-force-w", fast[11], "W"),
               _render("maps/render-c0-vector", medium[9], "P_O", "z"),
               _render("maps/render-c1-big", heavy[1], "amp")]
    return jobs + renders


def generate(workload, seed):
    """The job list of one pass, as pure data."""
    rng = np.random.default_rng([SCHEMA, WORKLOADS.index(workload), int(seed)])
    if workload == "probe":
        return _probe_jobs(rng)
    if workload == "streamlines":
        return _streamline_jobs(rng)
    return _maps_jobs(rng)


def known_faults(seed):
    """Known faults, drawn from the seed, run apart from the timed jobs.

    The first two are named in the repository's baseline: fieldmaps that
    should give finite numbers, where today the first exits 1 (JSON
    overflow) and the second marks every cell singular.  The third is a
    charge-2 Bessel vortex 0.1 spacings from a plaquette edge: the edge's
    phase change is near 2 pi, wraps to a small value, is not refined, and
    the charge is split over two plaquettes.
    """
    rng = np.random.default_rng([SCHEMA, 99, int(seed)])
    eva = {"family": "evanescent", "lambda_mm": _u(rng, 0.3, 3.0),
           "kappa_per_mm": _u(rng, 40.0, 50.0)}
    x_lo = _u(rng, -20.0, -18.0)
    pair = {"family": "gaussian_pair", "lambda_mm": _u(rng, 0.4e-3, 2.0e-3),
            "w0_mm": 0.01, "a_mm": _u(rng, 0.0, 3.0)}
    x0 = _u(rng, 50.0, 55.0)
    bessel = draw_field(rng, "bessel", ell=2, lambda_mm=1.0, k_perp_per_mm=0.5)
    # 64 nodes over [-1, 1]: the axis lies 0.1 spacings from a plaquette edge
    shift = 0.4 * 2.0 / 63
    return [
        Job("fault/evanescent-overflow", "cli", {"argv": [
            "fieldmap", "--field-json", json.dumps(eva),
            "--grid", f"x:{x_lo!r}:1.0:32,z:0.0:1.0:8", "--layers", "amp,re_px"],
            "out": "json", "cells": 256}),
        Job("fault/gaussian-underflow", "cli", {"argv": [
            "fieldmap", "--field-json", json.dumps(pair),
            "--grid", f"x:{x0!r}:{x0 + 5.0!r}:16,z:0.0:1.0:8", "--layers", "re_px,im_px"],
            "out": "json", "cells": 128}),
        Job("fault/anomaly-charge-split", "cli", {"argv": [
            "anomaly", "--field-json", json.dumps(bessel),
            "--grid", f"x:-1.0:1.0:64,y:{-1.0 + shift!r}:{1.0 + shift!r}:64",
            "--fixed", f"z={_u(rng, 0.0, 10.0)!r}"], "out": "json", "cells": 4096}),
    ]


# ------------------------------------------------------------ running a job

class Prepared:
    """A job with its inputs turned into photonflow objects and file paths."""

    def __init__(self, job, workdir, pf):
        self.job = job
        self.kind = job.kind
        p = job.payload
        if job.kind == "point":
            self.spec = pf.field_from_dict(p["field"])
            self.point = tuple(p["point"])
            self.pol = polarization(pf, p["pol"])
            self.cal = pf.CalciteSpec(delta_x=p["delta_x"])
            self.chi = pf.Polarizability(complex(*p["chi"]))
        elif job.kind == "helix":
            self.spec = pf.field_from_dict(p["field"])
        else:
            self.out = os.path.join(workdir, _out_name(job))
            self.argv = [a.replace("{dir}", workdir) for a in p["argv"]] + ["--out", self.out]


def polarization(pf, name):
    """The CLI's --pol choices as photonflow polarization states."""
    return {"x": pf.PolarizationState.linear_x, "y": pf.PolarizationState.linear_y,
            "diag": pf.PolarizationState.linear_diag,
            "rcp": lambda: pf.PolarizationState.circular(+1),
            "lcp": lambda: pf.PolarizationState.circular(-1)}[name]()


def execute(prep, pf):
    """Run one prepared job; returns (exit code, samples, output)."""
    if prep.kind == "point":
        spec, pt, cal = prep.spec, prep.point, prep.cal
        sample = pf.evaluate(spec, pt)
        mom = pf.local_momentum(sample)
        dec = pf.poynting_decomposition(spec, prep.pol, pt)
        stokes = pf.exact_stokes(*pf.apply_calcite(spec, cal, pt))
        pred = pf.predicted_stokes(mom, cal)
        readout = pf.momentum_from_stokes(stokes, cal)
        forces = pf.force_from_sample(sample, prep.chi)
        return 0, 1, (sample, mom, dec, stokes, pred, readout, forces)
    if prep.kind == "helix":
        p = prep.job.payload
        traj = pf.trace_bessel_helix(prep.spec, p["r0"], p["phi0"], p["z_end"], p["step"])
        return 0, len(traj.params), traj
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = pf.cli.run(prep.argv)
    text = sink.getvalue()
    if code != 0:
        return code, 0, text
    if prep.argv[0] == "trace":     # "trajectory <i>: <n> points, <cause>"
        samples = sum(int(line.split()[2]) for line in text.splitlines()
                      if line.startswith("trajectory "))
    else:
        samples = prep.job.payload["cells"]
    return code, samples, text
