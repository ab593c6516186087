"""Analytic catalog of monochromatic field configurations.

Every field is a scalar envelope psi(r) carrying a uniform transverse
polarization.  The catalog provides psi together with its exact analytic
gradient, which is what makes the downstream local-momentum, force, and
trajectory machinery reliable: no numerical differentiation happens
outside the test oracles.

Conventions used throughout the package:

* lengths in mm, wavenumbers in rad/mm
* c = 1, so omega = k and velocities are in units of c
* planar families (plane wave, Gaussian pair, evanescent, two-wave TIR)
  live in the (x, z) plane with z the main propagation direction;
  the Bessel family is 3D (x, y, z)
* field normalization constants are dropped; downstream observables are
  intensity-normalized so overall constants cancel

Array inputs broadcast through the evaluation routines, so grids are
evaluated vectorized.  A single point is computed on numpy scalars (_axis),
not 0-d arrays: numpy takes its array path on a 0-d array, at about ten
times the cost of its scalar path, for the same bits.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import cache, cached_property
from typing import Union, get_args

import numpy as np

from .errors import ParameterError, RegimeError, SingularPointError

TWO_PI = 2.0 * math.pi


@cache
def special():
    """scipy.special, imported on first use: only the Bessel family needs it,
    and the import is more than half of a fresh process's start-up."""
    from scipy import special
    return special


def _axis(v):
    """v as float64: a numpy scalar at 0-d, an array otherwise."""
    return np.asarray(v, dtype=float)[()]


def _require_finite(name, value):
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(v):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return v


def _require_interval(name, bounds):
    """bounds as a (lo, hi) float pair; ParameterError unless both are finite and lo < hi."""
    lo, hi = (float(b) for b in bounds)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ParameterError(f"{name} must be finite and ordered, got {(lo, hi)}")
    return lo, hi


@dataclass(frozen=True)
class WaveParameters:
    """Vacuum wavelength and the quantities derived from it."""

    lambda_mm: float

    def __post_init__(self):
        lam = _require_finite("lambda_mm", self.lambda_mm)
        if lam <= 0.0:
            raise ParameterError(f"lambda_mm must be > 0, got {lam}")
        object.__setattr__(self, "lambda_mm", lam)

    @cached_property  # once per wave: every point evaluation reads it
    def k(self) -> float:
        """Wavenumber 2*pi/lambda (rad/mm)."""
        return TWO_PI / self.lambda_mm

    @property
    def omega(self) -> float:
        """Angular frequency in c = 1 units; identical to k."""
        return self.k


class FieldSample:
    """psi and its exact gradient at one point (evaluate) or on grid nodes.

    grad_psi has one complex entry per spatial coordinate of the field's
    frame on its leading axis: (d/dx, d/dz) for planar families,
    (d/dx, d/dy, d/dz) for 3D; the sample of a grid's block of rows
    (grids._row_pass) carries arrays of shape (rows, counts1).  The
    wavenumber k of the generating field rides along so that momentum
    consumers can normalize without re-fetching the spec.
    """

    __slots__ = ("psi", "grad_psi", "k", "amplitude")  # not a dataclass: one per point evaluation

    def __init__(self, psi, grad_psi, k):
        self.psi = psi
        self.grad_psi = grad_psi
        self.k = k
        self.amplitude = abs(psi)  # once: the mask, momentum and energy density all read it

    @property
    def phase(self) -> float:
        """arg(psi) of a point sample."""
        if self.psi == 0:
            raise SingularPointError("phase undefined where psi = 0")
        return math.atan2(self.psi.imag, self.psi.real)


class _FieldFamily:
    """What the field families share: the JSON object form and the default
    wavenumber bound.

    Each family declares its ``family`` name, its frame size ``ndim`` and
    ``json_keys``, the (JSON key, attribute) pairs in the order
    field_from_dict reads them.
    The object holds ``family``, ``lambda_mm`` and then each key; a key
    whose attribute has a dataclass default may be left out.
    """

    def max_wavenumber(self) -> float:
        """The largest local wavenumber, which sets the shortest wavelength the
        vortex search must resolve: k unless a family overrides it."""
        return self.wave.k

    def to_dict(self) -> dict:
        out = {"family": self.family, "lambda_mm": self.wave.lambda_mm}
        for key, attr in self.json_keys:
            value = getattr(self, attr)
            out[key] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class PlaneWaveSpec(_FieldFamily):
    """Uniform plane wave exp(i k dir.r); dir is normalized on construction."""

    wave: WaveParameters
    direction: tuple

    family = "plane_wave"
    json_keys = (("direction", "direction"),)

    def __post_init__(self):
        try:
            comps = tuple(_require_finite("direction component", c) for c in self.direction)
        except TypeError:
            raise ParameterError("direction must be a sequence of 2 or 3 numbers")
        if len(comps) not in (2, 3):
            raise ParameterError(f"direction needs 2 or 3 components, got {len(comps)}")
        norm = math.sqrt(sum(c * c for c in comps))
        if norm == 0.0:
            raise ParameterError("direction must be nonzero")
        object.__setattr__(self, "direction", tuple(c / norm for c in comps))

    @property
    def ndim(self) -> int:
        return len(self.direction)

    def psi_grad(self, *coords):
        k = self.wave.k
        phase = sum(k * d * c for d, c in zip(self.direction, coords))
        psi = np.exp(1j * _axis(phase))
        return psi, tuple(1j * k * d * psi for d in self.direction)


@dataclass(frozen=True)
class GaussianPairSpec(_FieldFamily):
    """Two coherent Gaussian beams with waists offset to x = +a and x = -a.

    Each beam is (w0/w) exp[-(1/w^2 - ik/2R)(x -+ a)^2] e^{ikz} with
    w^2(z) = w0^2 (1 + z^2/zR^2) and R(z) = (z^2 + zR^2)/z; no Gouy
    factor is included (the real w0/w prefactor is the whole envelope).
    Internally the exponent is written ik u^2 / 2q with q = z - i zR,
    which equals the width/curvature form identically and differentiates
    cleanly in z.
    """

    wave: WaveParameters
    w0_mm: float
    a_mm: float

    family = "gaussian_pair"
    ndim = 2
    json_keys = (("w0_mm", "w0_mm"), ("a_mm", "a_mm"))

    def __post_init__(self):
        w0 = _require_finite("w0_mm", self.w0_mm)
        a = _require_finite("a_mm", self.a_mm)
        if w0 <= 0.0:
            raise ParameterError(f"w0_mm must be > 0, got {w0}")
        if a < 0.0:
            raise ParameterError(f"a_mm must be >= 0, got {a}")
        object.__setattr__(self, "w0_mm", w0)
        object.__setattr__(self, "a_mm", a)
        zr = self.rayleigh_mm
        if not (0.0 < zr < math.inf and 0.0 < zr * zr < math.inf):  # psi_grad squares zR
            raise ParameterError(f"w0_mm = {w0} gives the Rayleigh range zR = k w0^2/2 = {zr} "
                                 "mm; zR and zR^2 must be finite and > 0")

    @cached_property  # once per spec: psi_grad reads it on every call
    def rayleigh_mm(self) -> float:
        """zR = k w0^2 / 2, by products: w0 ** 2 raises OverflowError where w0 * w0 is inf."""
        return 0.5 * self.wave.k * (self.w0_mm * self.w0_mm)

    def width_mm(self, z):
        zr = self.rayleigh_mm
        return self.w0_mm * np.sqrt(1.0 + (np.asarray(z, dtype=float) / zr) ** 2)

    def curvature_inv(self, z):
        """1/R(z) = z/(z^2 + zR^2); zero on the waist plane."""
        z = np.asarray(z, dtype=float)
        return z / (z * z + self.rayleigh_mm ** 2)

    def psi_grad(self, x, z):
        x = _axis(x)
        z = _axis(z)
        k = self.wave.k
        zr = self.rayleigh_mm
        q = z - 1j * zr
        winv = 1.0 / np.sqrt(1.0 + (z / zr) ** 2)          # w0/w(z)
        dwinv = -(z / zr ** 2) * winv ** 3                  # d(w0/w)/dz
        carrier = np.exp(1j * k * z)
        u1 = x - self.a_mm
        u2 = x + self.a_mm
        two_q = 2.0 * q
        e1 = np.exp(1j * k * u1 * u1 / two_q)
        e2 = np.exp(1j * k * u2 * u2 / two_q)
        both = e1 + e2
        envelope = winv * both
        psi = envelope * carrier
        gx = winv * (1j * k / q) * (u1 * e1 + u2 * e2) * carrier
        dq2 = -1j * k / (two_q * q)
        gz = (dwinv * both + winv * (u1 * u1 * e1 + u2 * u2 * e2) * dq2) * carrier \
            + 1j * k * psi
        return psi, (gx, gz)


@dataclass(frozen=True)
class BesselSpec(_FieldFamily):
    """Bessel vortex beam J_|ell|(k_perp r) exp(i ell phi + i k_z z)."""

    wave: WaveParameters
    ell: int
    k_perp: float

    family = "bessel"
    ndim = 3
    json_keys = (("ell", "ell"), ("k_perp_per_mm", "k_perp"))

    def __post_init__(self):
        ell = self.ell
        if isinstance(ell, float) and ell.is_integer():  # JSON may write 2 as 2.0
            ell = int(ell)
        if not isinstance(ell, (int, np.integer)) or isinstance(ell, bool):
            raise ParameterError(f"ell must be an integer, got {self.ell!r}")
        object.__setattr__(self, "ell", int(ell))
        kp = _require_finite("k_perp", self.k_perp)
        if not 0.0 < kp < self.wave.k:
            raise ParameterError(
                f"k_perp must satisfy 0 < k_perp < k = {self.wave.k:.6g}, got {kp}")
        object.__setattr__(self, "k_perp", kp)

    @cached_property  # once per spec, as _orders: psi_grad reads both on every call
    def k_z(self) -> float:
        k = self.wave.k
        return math.sqrt((k - self.k_perp) * (k + self.k_perp))

    @cached_property
    def _orders(self):
        """The orders m - 1, m, m + 1 of J with m = |ell|."""
        m = float(abs(self.ell))  # an ell beyond int64 would make an object array jv rejects
        return np.array([m - 1.0, m, m + 1.0])

    def psi_grad(self, x, y, z):
        z = _axis(z)  # x and y go to hypot and arctan2 as given: wrapping them cost more
        kp = self.k_perp
        kz = self.k_z
        r = np.hypot(x, y)
        phi = np.arctan2(y, x)
        orders = self._orders.reshape((3,) + (1,) * r.ndim)
        j_lo, jm, j_hi = special().jv(orders, kp * r)
        carrier = np.exp(1j * (self.ell * phi + kz * z))
        psi = jm * carrier

        # J_{m-1} - J_{m+1} = 2 J'_m and J_{m-1} + J_{m+1} = (2m/s) J_m (DLMF 10.6.1)
        # give both transverse components with no 1/r, so the axis needs no branch
        dr = kp * ((j_lo - j_hi) / 2) * carrier                           # radial derivative
        sign = (self.ell > 0) - (self.ell < 0)  # np.sign's int64 would make 1j * sign slow
        az = (1j * sign * kp) * ((j_lo + j_hi) / 2) * carrier  # (1/r) d/dphi
        cos_p = np.cos(phi)
        sin_p = np.sin(phi)
        gx = cos_p * dr - sin_p * az
        gy = sin_p * dr + cos_p * az
        gz = 1j * kz * psi
        return psi, (gx, gy, gz)


@dataclass(frozen=True)
class EvanescentSpec(_FieldFamily):
    """Evanescent wave exp(i k_z z - kappa x) with k_z = sqrt(k^2 + kappa^2)."""

    wave: WaveParameters
    kappa: float

    family = "evanescent"
    ndim = 2
    json_keys = (("kappa_per_mm", "kappa"),)

    def __post_init__(self):
        kap = _require_finite("kappa", self.kappa)
        if kap <= 0.0:
            raise ParameterError(f"kappa must be > 0, got {kap}")
        object.__setattr__(self, "kappa", kap)

    @cached_property  # once per spec: psi_grad reads it twice on every call
    def k_z(self) -> float:
        return math.hypot(self.wave.k, self.kappa)

    def max_wavenumber(self) -> float:
        return self.k_z

    def psi_grad(self, x, z):
        x = _axis(x)
        z = _axis(z)
        psi = np.exp(1j * self.k_z * z - self.kappa * x)
        return psi, (-self.kappa * psi, 1j * self.k_z * psi)


@dataclass(frozen=True)
class TirTwoWaveSpec(_FieldFamily):
    """Two plane waves totally internally reflected at a glass/air interface.

    Glass (index n) fills x < 0 and air x >= 0; psi_grad evaluates each side
    on its own nodes only (in_glass).  Each wave i arrives above the critical
    angle, at theta_i from the interface normal x-hat, so its transmitted part
    is evanescent.  The s-polarization Fresnel coefficients are used:

        r_i = (k_x,i - i kappa_i) / (k_x,i + i kappa_i)   (|r_i| = 1)
        t_i = 2 k_x,i / (k_x,i + i kappa_i)

    with k_z,i = n k sin(theta_i), k_x,i = n k cos(theta_i) and
    kappa_i = sqrt(k_z,i^2 - k^2).  1 + r_i = t_i makes psi and its
    x-derivative continuous across x = 0.

    On arrays psi_grad takes x along one axis (a grid's x axis in either
    position, or a bundle's columns; any other x is flattened first) and runs
    each side on its x entries against z as given, so on a grid the glass side
    exponentiates the x and z axes apart and the air side (_air) runs on its
    dense nodes.  Every node keeps the bits of the dense evaluation.
    """

    wave: WaveParameters
    n: float
    theta1: float
    theta2: float
    amp1: float = 1.0
    amp2: float = 1.0

    family = "tir_two_wave"
    ndim = 2
    json_keys = (("n", "n"), ("theta1_rad", "theta1"), ("theta2_rad", "theta2"),
                 ("amp1", "amp1"), ("amp2", "amp2"))

    def __post_init__(self):
        n = _require_finite("n", self.n)
        if n <= 1.0:
            raise ParameterError(f"glass index n must be > 1, got {n}")
        object.__setattr__(self, "n", n)
        tc = self.critical_angle
        for name in ("theta1", "theta2"):
            th = _require_finite(name, getattr(self, name))
            if not tc < th < 0.5 * math.pi:
                raise RegimeError(
                    f"{name} = {th:.6g} rad is outside the total-internal-reflection "
                    f"window ({tc:.6g}, pi/2) for n = {n}")
            object.__setattr__(self, name, th)
        a1 = _require_finite("amp1", self.amp1)
        a2 = _require_finite("amp2", self.amp2)
        if a1 == 0.0 and a2 == 0.0:
            raise ParameterError("at least one amplitude must be nonzero")
        object.__setattr__(self, "amp1", a1)
        object.__setattr__(self, "amp2", a2)

    @property
    def critical_angle(self) -> float:
        return math.asin(1.0 / self.n)

    def max_wavenumber(self) -> float:
        return self.n * self.wave.k

    def partial_waves(self):
        """Per-wave constants (amp, k_x, k_z, kappa, r, t)."""
        return self._partial_waves

    @cached_property  # once per spec: psi_grad reads them on every call
    def _partial_waves(self):
        k = self.wave.k
        nk = self.n * k
        out = []
        for amp, th in ((self.amp1, self.theta1), (self.amp2, self.theta2)):
            kz = nk * math.sin(th)
            kx = nk * math.cos(th)
            kappa = math.sqrt(kz * kz - k * k)
            denom = kx + 1j * kappa
            out.append((amp, kx, kz, kappa, (kx - 1j * kappa) / denom, 2.0 * kx / denom))
        return tuple(out)

    def in_glass(self, x):
        """True where x lies in the glass; the air holds x >= 0, x = -0.0 included."""
        return x < 0.0

    # A complex scalar multiplies a fresh array from the right: numpy's complex multiply
    # is not commutative bit for bit, and it swaps the operands of scalar * fresh array
    # from 256 KiB up, so a node would get other bits in a large batch than in a small one.
    def _glass(self, x, z):
        psi = gx = gz = 0j
        for amp, kx, kz, _, r, _ in self._partial_waves:
            zph = np.exp(1j * kz * z)
            up = np.exp(1j * kx * x)
            dn = np.conj(up) * r  # exp(-i kx x): up has unit modulus
            both = up + dn
            psi = psi + amp * both * zph
            gx = gx + (up - dn) * (amp * 1j * kx) * zph
            gz = gz + both * (amp * 1j * kz) * zph
        return psi, gx, gz

    def _air(self, x, z):
        # one exp per node: split into an x and a z factor, as in _glass, it would change bits
        psi = gx = gz = 0j
        for amp, _, kz, kappa, _, t in self._partial_waves:
            term = np.exp(-kappa * x + 1j * kz * z) * (amp * t)
            psi = psi + term
            gx = gx - kappa * term
            gz = gz + 1j * kz * term
        return psi, gx, gz

    def psi_grad(self, x, z):
        x = _axis(x)
        z = _axis(z)
        if x.ndim == z.ndim == 0:
            psi, gx, gz = (self._glass if self.in_glass(x) else self._air)(x, z)
            return psi, (gx, gz)
        shape = np.broadcast(x, z).shape
        along = [i for i, n in enumerate(x.shape) if n > 1]  # the axes x varies along
        if len(along) != 1 or x.ndim != z.ndim:  # x of one entry, or dense: one flat axis
            x, z = (np.broadcast_to(c, shape).ravel() for c in (x, z))
            along = [0]
        lead = (slice(None),) * along[0]
        glass = self.in_glass(x.ravel())
        count = np.count_nonzero(glass)
        sides = []  # both before the outputs, so that their temporaries never coexist
        for m, side, used in ((glass, self._glass, count), (~glass, self._air, glass.size - count)):
            if used:  # x's entries on this side, against z's too where z varies along x
                if x.ndim > 1:  # a grid's x axis: each side is one run, written through a slice
                    first = int(m.argmax())
                    if m[first:first + used].all():
                        m = slice(first, first + used)
                at = lead + (m,)
                sides.append((at, side(x[at], z[at] if z.shape[along[0]] > 1 else z)))
        if len(sides) == 1:  # one side fills the array
            values = sides[0][1]
        else:
            values = [np.empty(np.broadcast(x, z).shape, dtype=complex) for _ in range(3)]
            for at, side_values in sides:
                for out, value in zip(values, side_values):
                    out[at] = value
        psi, gx, gz = (v.reshape(shape) for v in values)
        return psi, (gx, gz)


FieldSpec = Union[PlaneWaveSpec, GaussianPairSpec, BesselSpec, EvanescentSpec, TirTwoWaveSpec]

_FAMILIES = {cls.family: cls for cls in get_args(FieldSpec)}


def _point_coords(spec: FieldSpec, point):
    """point as a list of one finite float per frame axis."""
    coords = np.asarray(point, dtype=float)
    if coords.shape != (spec.ndim,):
        raise ParameterError(
            f"{type(spec).__name__} expects a point with {spec.ndim} coordinates, "
            f"got shape {coords.shape}")
    coords = coords.tolist()  # Python floats: unpacking an array makes a numpy scalar each
    if not all(map(math.isfinite, coords)):
        raise ParameterError(f"point {tuple(coords)} has a non-finite coordinate")
    return coords


def evaluate(spec: FieldSpec, point) -> FieldSample:
    """Evaluate psi and its exact gradient at a single point.

    The point must have as many coordinates as the field's frame, each
    finite: (x, z) for planar families, (x, y, z) for the Bessel family.
    """
    psi, grads = spec.psi_grad(*_point_coords(spec, point))
    return FieldSample(psi=complex(psi), grad_psi=np.array(grads), k=spec.wave.k)


def field_to_dict(spec: FieldSpec) -> dict:
    return spec.to_dict()


def field_from_dict(obj: dict) -> FieldSpec:
    """Build a field spec from its JSON object form (see _FieldFamily)."""
    if not isinstance(obj, dict):
        raise ParameterError(f"field spec must be a JSON object, got {type(obj).__name__}")
    data = dict(obj)
    family = data.pop("family", None)
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ParameterError(
            f"unknown field family {family!r}; expected one of {sorted(_FAMILIES)}")
    if "lambda_mm" not in data:
        raise ParameterError("field spec is missing 'lambda_mm'")
    wave = WaveParameters(lambda_mm=data.pop("lambda_mm"))
    cls = _FAMILIES[family]
    optional = {f.name for f in fields(cls) if f.default is not MISSING}
    values = {}
    for key, attr in cls.json_keys:
        if key in data:
            values[attr] = data.pop(key)
        elif attr not in optional:
            raise ParameterError(f"{family} spec is missing '{key}'")
    spec = cls(wave=wave, **values)
    if data:
        raise ParameterError(f"unknown keys in {family} spec: {sorted(data)}")
    return spec
