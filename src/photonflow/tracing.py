"""Streamline integration of the local-momentum fields.

Trajectories are classical RK4 streamlines of either the current part
(Re p, the "average photon trajectories") or the osmotic part (Im p) of
the complex local momentum.  The integrated state is the frame position
r in both of the two parameterizations:

* paraxial-z: dr/dz = p/p_z, whose z component is 1, so z itself is the
  parameter; natural for beams whose p_z never changes sign.
* arc-length: dr/ds = p/|p| at unit speed; required where p_z crosses
  zero (backflow regions of interface fields).

Im-p streamlines are integrated along -Im p, i.e. up the amplitude
gradient, so that they run toward and settle on intensity maxima (the
stagnation points where Im p = 0); as undirected curves the streamlines
are identical either way.

Each recorded point is evaluated once: its momentum is also stage k1
of the RK4 step that leaves it.  Near a phase singularity |p| diverges;
whenever a later stage sees |p| > vortex_guard * k the step is halved,
and a step that still fails after eight halvings ends the trajectory
with the vortex-proximity cause.  A recorded point whose own |p| is over
the guard ends it at once, since k1 does not depend on the step size.
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


def _momentum_rate(spec, pos, which: str, paraxial: bool, p_max: float, amp_max: float):
    """(p, dpos/dt, running amplitude maximum with pos included) at pos.

    p is None at or below SINGULAR_REL_THRESHOLD times the largest
    amplitude the trajectory has seen, pos included.  The rate is None
    where the step must shrink: near a vortex (|p| > p_max), where the
    paraxial parameterization breaks down (v_z <= 0) and at an arc-length
    stagnation point (|v| = 0).
    """
    sample = evaluate(spec, pos)
    if not math.isfinite(sample.amplitude):  # not a field zero: no step size can pass it
        raise ParameterError(f"the field amplitude overflows at {tuple(pos.tolist())}: "
                             f"|psi| = {sample.amplitude!r}")
    amp_max = max(amp_max, sample.amplitude)
    try:
        p = local_momentum(sample, SINGULAR_REL_THRESHOLD * amp_max).p
    except SingularPointError:
        return None, None, amp_max
    if np.linalg.norm(p) > p_max:
        return p, None, amp_max
    # Orientation: re runs with the current; im descends the osmotic
    # field toward amplitude maxima (see module docstring).
    v = p.real if which == "re" else -p.imag
    speed = v[-1] if paraxial else np.linalg.norm(v)
    return p, (None if speed <= 0.0 else v / speed), amp_max


def _inside(pos, domain) -> bool:
    return all(lo <= c <= hi for c, (lo, hi) in zip(pos, domain))


def _trace_one(spec, cfg: TraceConfig, which: str, seed) -> Trajectory:
    if not _inside(seed, cfg.domain):
        raise SeedError(f"seed {seed} outside domain {cfg.domain}")
    paraxial = cfg.parameterization == PARAXIAL
    z_hi = cfg.domain[-1][1]
    p_max = cfg.vortex_guard * spec.wave.k
    # The ODE integrates the frame position over the parameter t: z in
    # paraxial mode, where pos[-1] is t itself, and arc length otherwise.
    pos = np.array(seed, dtype=float)
    t = seed[-1] if paraxial else 0.0
    params, points, momenta = [], [], []
    amp_max = 0.0
    h = cfg.step
    cause = None
    while True:
        if not _inside(pos, cfg.domain):
            cause = "left-domain"
            break
        # The point's momentum is recorded and its rate is also the next
        # step's stage k1, so every point is evaluated once.
        p, k1, amp_max = _momentum_rate(spec, pos, which, paraxial, p_max, amp_max)
        if p is None:
            if not params:
                raise SeedError(f"seed {seed} sits on a field zero")
            cause = "singular-amplitude"
            break
        params.append(t)
        points.append(pos)
        momenta.append(p)
        if paraxial and t >= z_hi:
            cause = "left-domain"
            break
        if len(params) > cfg.max_steps:
            cause = "max-steps"
            break
        if k1 is None:  # k1 does not depend on h: no halving can help
            cause = "vortex-proximity"
            break
        for _ in range(_MAX_HALVINGS + 1):
            h_eff = min(h, z_hi - t) if paraxial else h
            ks = [k1]
            for c in (0.5, 0.5, 1.0):
                p, k, amp_max = _momentum_rate(
                    spec, pos + c * h_eff * ks[-1], which, paraxial, p_max, amp_max)
                if k is None:
                    break
                ks.append(k)
            if p is None:
                cause = "singular-amplitude"
                break
            if len(ks) == 4:
                _, k2, k3, k4 = ks
                step = (h_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if not np.linalg.norm(step) > 2.0 * h_eff:  # a NaN step is taken, then leaves
                    break
            h *= 0.5
        else:
            cause = "vortex-proximity"
        if cause is not None:
            break
        pos = pos + step
        t = z_hi if paraxial and h_eff < h else t + h_eff  # land on z_hi exactly
        if paraxial:  # z is the parameter itself, so it keeps t's exact ladder
            pos[-1] = t
        h = min(cfg.step, 2.0 * h)
    return Trajectory(which=which, parameterization=cfg.parameterization,
                      params=np.array(params), points=np.array(points),
                      momenta=np.array(momenta), termination=cause)


def check_seeds(spec: FieldSpec, seeds) -> None:
    """Raise ParameterError unless every seed has one coordinate per frame axis."""
    for seed in seeds:
        if len(seed) != spec.ndim:
            raise ParameterError(
                f"seed {seed} has {len(seed)} coordinates but the field frame has {spec.ndim}")


def trace_streamline(spec: FieldSpec, cfg: TraceConfig, which: str):
    """Trace every seed in cfg; returns one Trajectory per seed."""
    if which not in ("re", "im"):
        raise ParameterError(f"which must be 're' or 'im', got {which!r}")
    check_seeds(spec, cfg.seeds)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises in _momentum_rate
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
