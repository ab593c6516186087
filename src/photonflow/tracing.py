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

A bundle of two or more seeds is integrated together: column i of the
state is seed i for the whole trace, each RK4 stage is one array psi_grad
call for every seed at that stage, and each seed keeps its own step size,
halving count, amplitude maximum and stop cause.  Every operation is
element-wise over the seeds, so a seed's row does not depend on the other
seeds of its bundle or on when they stopped.  A lone seed runs the loop
of 0-d calls, which cost less than a one-column array.  A bundle row can
differ in the last bits from the same seed traced alone: the Gaussian
pair and TIR fields round differently at a 0-d point and on an array, and
the arc-length speed |v| is summed in another order.  Its stop cause and
point count are the same unless a comparison falls within those bits;
near an arc-length stagnation point, where the direction of a vanishing v
is ill-conditioned, the difference can grow until the two paths visibly
part.  The first error of a bundle is raised: an overflow names its
point, and a seed outside the domain or on a field zero names the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SeedError
from .fields import BesselSpec, FieldSpec, _point_coords, _require_interval, special
from .observables import SINGULAR_REL_THRESHOLD, _is_singular, _momentum

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
            raise ParameterError(f"step must be finite and > 0, got {self.step!r}")
        if self.max_steps < 1:
            raise ParameterError(f"max_steps must be >= 1, got {self.max_steps!r}")
        if not self.vortex_guard > 1.0:
            raise ParameterError(f"vortex_guard must be > 1, got {self.vortex_guard!r}")
        domain = tuple(_require_interval("domain bounds", b) for b in self.domain)
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
    stagnation point (|v| = 0).  The speed |v| is sqrt(v.dot(v)), the bits
    of np.linalg.norm without its wrapper; |p| is only compared with p_max,
    so its squares are summed in p's memory order.
    """
    coords = pos.tolist()
    if not all(map(math.isfinite, coords)):
        _point_coords(spec, coords)  # raises evaluate's message
    psi, grads = spec.psi_grad(*coords)
    amp = abs(complex(psi))
    if not math.isfinite(amp):  # not a field zero: no step size can pass it
        raise ParameterError(f"the field amplitude overflows at {tuple(coords)}: |psi| = {amp!r}")
    amp_max = max(amp_max, amp)
    floor = SINGULAR_REL_THRESHOLD * amp_max
    if _is_singular(amp, floor):
        return None, None, amp_max
    p = _momentum(psi, grads)
    flat = p.view(float)  # re, im, re, im, ...
    if math.sqrt(flat.dot(flat)) > p_max:
        return p, None, amp_max
    # Orientation: re runs with the current; im descends the osmotic
    # field toward amplitude maxima (see module docstring).
    v = p.real if which == "re" else -p.imag
    speed = v[-1] if paraxial else math.sqrt(v.dot(v))
    return p, (None if speed <= 0.0 else v / speed), amp_max


def _inside(coords, domain) -> bool:
    """Whether coords, a sequence of Python floats, lie in the domain box."""
    return all(lo <= c <= hi for c, (lo, hi) in zip(coords, domain))


def _trace_one(spec, cfg: TraceConfig, which: str, seed) -> Trajectory:
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
        if not _inside(pos.tolist(), cfg.domain):
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
                if not math.sqrt(step.dot(step)) > 2.0 * h_eff:  # a NaN step is taken, then leaves
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


def _bundle_rate(spec, q, which: str, paraxial: bool, p_max: float, amp_max):
    """_momentum_rate at every column of q, shape (ndim, m), in one psi_grad call.

    Returns (p, rate, amp_max, singular, ok).  singular marks the columns
    where _momentum_rate's p is None and ok those where its rate is not;
    rate holds dpos/dt in the ok columns.  Each norm is np.linalg.norm's
    sqrt of a sum over axis 0, without its wrapper.  A non-finite column
    raises evaluate's message, as _momentum_rate does."""
    if not np.isfinite(q).all():
        _point_coords(spec, q[:, np.argmin(np.isfinite(q).all(axis=0))].tolist())
    psi, grads = spec.psi_grad(*q)
    amp = np.abs(psi)
    finite = np.isfinite(amp)
    if not finite.all():
        j = int(np.argmin(finite))
        raise ParameterError(f"the field amplitude overflows at {tuple(q[:, j].tolist())}: "
                             f"|psi| = {float(amp[j])!r}")
    amp_max = np.maximum(amp_max, amp)
    floor = SINGULAR_REL_THRESHOLD * amp_max
    singular = _is_singular(amp, floor)
    p = _momentum(psi, grads, ~singular)
    v = p.real if which == "re" else -p.imag
    speed = v[-1] if paraxial else np.sqrt((v * v).sum(axis=0))
    ok = ~(singular | (np.sqrt((p.conj() * p).real.sum(axis=0)) > p_max) | (speed <= 0.0))
    return p, v / np.where(ok, speed, 1.0), amp_max, singular, ok


_CAUSES = (None, "left-domain", "max-steps", "vortex-proximity", "singular-amplitude")
_LEFT, _MAX, _VORTEX, _SINGULAR = range(1, 5)


def _trace_bundle(spec, cfg: TraceConfig, which: str) -> list:
    """_trace_one for every seed of cfg at once, one psi_grad call per RK4 stage.

    Column i of the state is seed i for the whole trace, and code[i] is its
    stop cause, an index into _CAUSES that is 0 while the seed runs.  A
    round evaluates the seeds that have just arrived at a point, then tries
    one step of every running seed, each at its own step size.  Every
    operation is element-wise in the columns, so a seed's row does not
    depend on the other seeds or on when they stopped.
    """
    paraxial = cfg.parameterization == PARAXIAL
    z_hi = cfg.domain[-1][1]
    p_max = cfg.vortex_guard * spec.wave.k
    lo, hi = np.array(cfg.domain).T[:, :, None]
    n = len(cfg.seeds)
    pos = np.array(cfg.seeds).T
    t = pos[-1].copy() if paraxial else np.zeros(n)
    h = np.full(n, cfg.step)
    amp_max = np.zeros(n)
    count = np.zeros(n, dtype=int)       # points recorded
    fails = np.zeros(n, dtype=int)       # failed attempts at the current step
    code = np.zeros(n, dtype=int)
    k1 = np.empty_like(pos)
    arrived = np.arange(n)               # the seeds at a new point inside the domain
    records = []                         # (seeds, params, points, momenta) of new points
    while not code.all():                # until no seed runs
        a = arrived
        if a.size:
            x = pos[:, a]
            p, rate, amp_max[a], singular, ok = _bundle_rate(
                spec, x, which, paraxial, p_max, amp_max[a])
            if singular.any():
                if not records:  # the seeds themselves
                    raise SeedError(f"seed {cfg.seeds[np.argmax(singular)]} sits on a field zero")
                code[a[singular]] = _SINGULAR
                a, x, p, rate, ok = (arr[..., ~singular] for arr in (a, x, p, rate, ok))
            ta, ca = t[a], count[a] + 1
            records.append((a, ta, x, p))
            count[a] = ca
            k1[:, a] = rate
            # in reverse order of precedence: the first cause that applies is the last set
            code[a[~ok]] = _VORTEX
            code[a[ca > cfg.max_steps]] = _MAX
            if paraxial:
                code[a[ta >= z_hi]] = _LEFT
        j = np.flatnonzero(code == 0)    # the seeds that try a step, until a stage fails
        cols = slice(None) if j.size == n else j  # while every seed runs, views and not copies
        h_eff = np.minimum(h[cols], z_hi - t[cols]) if paraxial else h[cols]
        x, k = pos[:, cols], k1[:, cols]
        acc = k                          # k1 + 2 k2 + 2 k3 + k4, left to right
        for c, w in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
            if not j.size:
                break
            _, k, amp_max[cols], singular, ok = _bundle_rate(
                spec, x + (c * h_eff) * k, which, paraxial, p_max, amp_max[cols])
            if not ok.all():
                code[j[singular]] = _SINGULAR
                j, x, h_eff, k, acc = (arr[..., ok] for arr in (j, x, h_eff, k, acc))
                cols = j
            acc = acc + w * k
        step = (h_eff / 6.0) * acc
        # a NaN step is taken, then leaves
        good = ~(np.sqrt((step * step).sum(axis=0)) > 2.0 * h_eff)
        halved = code == 0
        halved[j[good]] = False
        if halved.any():  # h_eff may view h, but h[halved] is not among the h_eff[good] kept
            h[halved] *= 0.5
            fails[halved] += 1
            code[halved & (fails > _MAX_HALVINGS)] = _VORTEX
            j, h_eff, step = j[good], h_eff[good], step[:, good]
            cols = j
        y, hj = pos[:, cols] + step, h[cols]
        if paraxial:  # land on z_hi exactly; z keeps t's exact ladder
            t[cols] = y[-1] = np.where(h_eff < hj, z_hi, t[cols] + h_eff)
        else:
            t[cols] += h_eff
        pos[:, cols] = y
        h[cols] = np.minimum(cfg.step, 2.0 * hj)
        fails[cols] = 0
        inside = ((lo <= y) & (y <= hi)).all(axis=0)
        code[j[~inside]] = _LEFT
        arrived = j[inside]
    seed_of = np.concatenate([r[0] for r in records])
    order = np.argsort(seed_of, kind="stable")
    rows = np.cumsum(count)[:-1]
    params, points, momenta = (np.split(arr, rows) for arr in (
        np.concatenate([r[1] for r in records])[order],
        np.concatenate([r[2] for r in records], axis=1).T[order],
        np.concatenate([r[3] for r in records], axis=1).T[order]))
    return [Trajectory(which=which, parameterization=cfg.parameterization, params=pr,
                       points=pt, momenta=mo, termination=_CAUSES[c])
            for pr, pt, mo, c in zip(params, points, momenta, code.tolist())]


def check_seeds(spec: FieldSpec, seeds) -> None:
    """Raise ParameterError unless every seed has one finite coordinate per frame axis."""
    for seed in seeds:
        if len(seed) != spec.ndim:
            raise ParameterError(
                f"seed {seed} has {len(seed)} coordinates but the field frame has {spec.ndim}")
        if not all(math.isfinite(c) for c in seed):
            raise ParameterError(f"seed {seed} has a non-finite coordinate")


def trace_streamline(spec: FieldSpec, cfg: TraceConfig, which: str):
    """Trace every seed in cfg; returns one Trajectory per seed."""
    if which not in ("re", "im"):
        raise ParameterError(f"which must be 're' or 'im', got {which!r}")
    check_seeds(spec, cfg.seeds)
    for seed in cfg.seeds:
        if not _inside(seed, cfg.domain):
            raise SeedError(f"seed {seed} outside domain {cfg.domain}")
    # an overflow raises in _momentum_rate and _bundle_rate
    with np.errstate(over="ignore", invalid="ignore"):
        if len(cfg.seeds) == 1:  # a lone seed: 0-d calls cost less than a one-column array
            return [_trace_one(spec, cfg, which, cfg.seeds[0])]
        return _trace_bundle(spec, cfg, which)


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
        raise SeedError(f"r0 must be finite and > 0, got {r0!r}")
    if not (math.isfinite(z_end) and z_end > 0.0):
        raise ParameterError(f"z_end must be finite and > 0, got {z_end!r}")
    m = abs(spec.ell)
    x0 = spec.k_perp * r0
    n_zeros = int(x0 / math.pi) + 2
    zeros = special().jn_zeros(m, n_zeros)
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
