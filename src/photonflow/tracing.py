"""Streamline integration of the local-momentum fields.

Trajectories are classical RK4 streamlines of either the current part
(Re p, the "average photon trajectories") or the osmotic part (Im p) of
the complex local momentum.  Two parameterizations are supported:

* paraxial-z: the transverse position evolves in z via
  dx/dz = p_x/p_z; natural for beams whose p_z never changes sign.
* arc-length: dr/ds = p/|p| at unit speed; required where p_z crosses
  zero (backflow regions of interface fields).

Im-p streamlines are integrated along -Im p, i.e. up the amplitude
gradient, so that they run toward and settle on intensity maxima (the
stagnation points where Im p = 0); as undirected curves the streamlines
are identical either way.

Near a phase singularity |p| diverges; whenever any RK4 stage sees
|p| > vortex_guard * k the step is halved, and eight consecutive
halvings terminate the trajectory with the vortex-proximity cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ParameterError, SeedError, SingularPointError
from .fields import BesselSpec, FieldSpec, evaluate
from .observables import SINGULAR_REL_THRESHOLD, local_momentum

PARAXIAL = "paraxial-z"
ARC_LENGTH = "arc-length"

_MAX_HALVINGS = 8


@dataclass(frozen=True)
class TraceConfig:
    """Seeds, parameterization, stepping and domain box for a trace batch.

    seeds are full positions in the field frame; in paraxial-z mode the
    final coordinate of each seed (z) is the start of the parameter
    range, which runs to the domain's upper z bound.  domain is one
    (lo, hi) pair per field coordinate.
    """

    seeds: tuple
    parameterization: str
    step: float
    max_steps: int
    domain: tuple
    vortex_guard: float = 100.0

    def __post_init__(self):
        if self.parameterization not in (PARAXIAL, ARC_LENGTH):
            raise ParameterError(
                f"parameterization must be {PARAXIAL!r} or {ARC_LENGTH!r}, "
                f"got {self.parameterization!r}")
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ParameterError(f"step must be > 0, got {self.step!r}")
        if self.max_steps < 1:
            raise ParameterError(f"max_steps must be >= 1, got {self.max_steps!r}")
        if not self.vortex_guard > 1.0:
            raise ParameterError(f"vortex_guard must be > 1, got {self.vortex_guard!r}")
        domain = tuple((float(lo), float(hi)) for lo, hi in self.domain)
        for lo, hi in domain:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ParameterError(f"domain bounds must be finite and ordered, got {(lo, hi)}")
        object.__setattr__(self, "domain", domain)
        seeds = tuple(tuple(float(c) for c in s) for s in self.seeds)
        if not seeds:
            raise ParameterError("at least one seed is required")
        for s in seeds:
            if len(s) != len(domain):
                raise ParameterError(
                    f"seed {s} has {len(s)} coordinates, domain has {len(domain)}")
        object.__setattr__(self, "seeds", seeds)


@dataclass(frozen=True)
class Trajectory:
    """One traced streamline.

    params holds the parameter value of every point (z in paraxial mode,
    arc length s otherwise); momenta holds the complex local momentum at
    each point.  termination records why integration stopped and is one
    of left-domain, max-steps, vortex-proximity, singular-amplitude.
    """

    which: str
    parameterization: str
    params: np.ndarray
    points: np.ndarray
    momenta: np.ndarray
    termination: str


class _GuardStop(Exception):
    pass


class _Probe:
    """Guarded momentum evaluation with a running singularity floor."""

    def __init__(self, spec, guard):
        self.spec = spec
        self.guard = guard
        self.k = spec.wave.k
        self.amp_max = 0.0

    def momentum(self, pos, guarded: bool = True):
        """p at pos; raises SingularPointError below the running floor."""
        sample = evaluate(self.spec, pos)
        self.amp_max = max(self.amp_max, sample.amplitude)
        p = local_momentum(sample, SINGULAR_REL_THRESHOLD * self.amp_max).p
        if guarded and np.linalg.norm(p) > self.guard * self.k:
            raise _GuardStop
        return p


def _velocity(p: np.ndarray, which: str) -> np.ndarray:
    # Orientation: re runs with the current; im descends the osmotic
    # field toward amplitude maxima (see module docstring).
    return p.real if which == "re" else -p.imag


def _inside(pos, domain) -> bool:
    return all(lo <= c <= hi for c, (lo, hi) in zip(pos, domain))


def _trace_one(spec, cfg: TraceConfig, which: str, seed) -> Trajectory:
    if not _inside(seed, cfg.domain):
        raise SeedError(f"seed {seed} outside domain {cfg.domain}")
    probe = _Probe(spec, cfg.vortex_guard)
    paraxial = cfg.parameterization == PARAXIAL

    try:
        probe.momentum(seed, guarded=False)
    except SingularPointError:
        raise SeedError(f"seed {seed} sits on a field zero")

    if paraxial:
        z_hi = cfg.domain[-1][1]

        def rhs(t, y):
            p = probe.momentum(np.append(y, t))
            v = _velocity(p, which)
            vz = v[-1]
            if vz <= 0.0:
                raise _GuardStop  # paraxial parameterization broke down
            return v[:-1] / vz

        t = seed[-1]
        y = np.asarray(seed[:-1], dtype=float)
    else:
        def rhs(t, y):
            p = probe.momentum(y)
            v = _velocity(p, which)
            speed = np.linalg.norm(v)
            if speed == 0.0:
                raise _GuardStop  # stagnation point
            return v / speed

        t = 0.0
        y = np.asarray(seed, dtype=float)

    params = []
    points = []
    momenta = []

    def emit(t_val, y_val):
        pos = np.append(y_val, t_val) if paraxial else y_val
        params.append(t_val)
        points.append(np.asarray(pos, dtype=float))
        momenta.append(probe.momentum(pos, guarded=False))

    def finish(cause):
        return Trajectory(
            which=which,
            parameterization=cfg.parameterization,
            params=np.array(params),
            points=np.array(points),
            momenta=np.array(momenta),
            termination=cause,
        )

    h = cfg.step
    steps_done = 0
    while True:
        try:
            emit(t, y)
        except SingularPointError:
            return finish("singular-amplitude")
        if paraxial and t >= z_hi:
            return finish("left-domain")
        if steps_done >= cfg.max_steps:
            return finish("max-steps")

        accepted = False
        halvings = 0
        while halvings <= _MAX_HALVINGS:
            h_eff = min(h, z_hi - t) if paraxial else h
            exact_landing = paraxial and h_eff < h
            try:
                k1 = rhs(t, y)
                k2 = rhs(t + 0.5 * h_eff, y + 0.5 * h_eff * k1)
                k3 = rhs(t + 0.5 * h_eff, y + 0.5 * h_eff * k2)
                k4 = rhs(t + h_eff, y + h_eff * k3)
            except _GuardStop:
                h *= 0.5
                halvings += 1
                continue
            except SingularPointError:
                return finish("singular-amplitude")
            y_new = y + (h_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_new = z_hi if exact_landing else t + h_eff
            disp = np.linalg.norm(y_new - y)
            if paraxial:
                disp = math.hypot(h_eff, disp)
            if disp > 2.0 * h_eff:
                h *= 0.5
                halvings += 1
                continue
            accepted = True
            break
        if not accepted:
            return finish("vortex-proximity")

        pos_new = np.append(y_new, t_new) if paraxial else y_new
        if not _inside(pos_new, cfg.domain):
            return finish("left-domain")
        t, y = t_new, y_new
        steps_done += 1
        h = min(cfg.step, 2.0 * h)


def trace_streamline(spec: FieldSpec, cfg: TraceConfig, which: str):
    """Trace every seed in cfg; returns one Trajectory per seed."""
    if which not in ("re", "im"):
        raise ParameterError(f"which must be 're' or 'im', got {which!r}")
    for seed in cfg.seeds:
        if len(seed) != spec.ndim:
            raise ParameterError(
                f"seed {seed} has {len(seed)} coordinates but the field frame has {spec.ndim}")
    return [_trace_one(spec, cfg, which, seed) for seed in cfg.seeds]


def trace_bessel_helix(spec: BesselSpec, r0: float, phi0: float, z_end: float,
                       step: float | None = None) -> Trajectory:
    """Trace the Re-p streamline of a Bessel beam seeded at radius r0.

    The exact streamline is a helix of constant radius with
    phi(z) = phi0 + z*ell/(k_z r0^2); the integration must reproduce it,
    it is never substituted for it.  Seeds on (or within 1e-6 relative
    of) a radial zero of J_|ell| are rejected: the momentum is singular
    there.
    """
    if not isinstance(spec, BesselSpec):
        raise ParameterError(f"expected a BesselSpec, got {type(spec).__name__}")
    if not (math.isfinite(r0) and r0 > 0.0):
        raise SeedError(f"r0 must be > 0, got {r0!r}")
    if not (math.isfinite(z_end) and z_end > 0.0):
        raise ParameterError(f"z_end must be > 0, got {z_end!r}")
    m = abs(spec.ell)
    x0 = spec.k_perp * r0
    n_zeros = int(x0 / math.pi) + 2
    zeros = special.jn_zeros(m, n_zeros)
    nearest = zeros[np.argmin(np.abs(zeros - x0))]
    if abs(x0 - nearest) / nearest < 1e-6:
        raise SeedError(
            f"r0 = {r0} mm sits at a radial zero of J_{m} (k_perp*r0 = {x0:.6g})")
    box = 2.0 * r0
    cfg = TraceConfig(
        seeds=((r0 * math.cos(phi0), r0 * math.sin(phi0), 0.0),),
        parameterization=PARAXIAL,
        step=step if step is not None else z_end / 1000.0,
        max_steps=100000,
        domain=((-box, box), (-box, box), (0.0, z_end)),
    )
    return trace_streamline(spec, cfg, "re")[0]
