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
evaluated vectorized.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Union, get_args

import numpy as np
from scipy import special

from .errors import ParameterError, RegimeError, SingularPointError

TWO_PI = 2.0 * math.pi


def _require_finite(name, value):
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(v):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return v


@dataclass(frozen=True)
class WaveParameters:
    """Vacuum wavelength and the quantities derived from it."""

    lambda_mm: float

    def __post_init__(self):
        lam = _require_finite("lambda_mm", self.lambda_mm)
        if lam <= 0.0:
            raise ParameterError(f"lambda_mm must be > 0, got {lam}")
        object.__setattr__(self, "lambda_mm", lam)

    @property
    def k(self) -> float:
        """Wavenumber 2*pi/lambda (rad/mm)."""
        return TWO_PI / self.lambda_mm

    @property
    def omega(self) -> float:
        """Angular frequency in c = 1 units; identical to k."""
        return self.k


@dataclass(frozen=True)
class FieldSample:
    """psi and its exact gradient at one point (evaluate) or on a grid.

    grad_psi has one complex entry per spatial coordinate of the field's
    frame on its leading axis: (d/dx, d/dz) for planar families,
    (d/dx, d/dy, d/dz) for 3D; grid samples (grids.sample_grid) carry
    arrays of shape (counts2, counts1) behind it.  The wavenumber k of
    the generating field rides along so that momentum consumers can
    normalize without re-fetching the spec.
    """

    psi: complex
    grad_psi: np.ndarray
    k: float
    amplitude: float = field(init=False, repr=False, compare=False)  # |psi|

    def __post_init__(self):  # once: the mask, momentum and energy density all read it
        object.__setattr__(self, "amplitude", abs(self.psi))

    @property
    def phase(self) -> float:
        """arg(psi) of a point sample."""
        if self.psi == 0:
            raise SingularPointError("phase undefined where psi = 0")
        return math.atan2(self.psi.imag, self.psi.real)


class _FieldFamily:
    """The JSON object form shared by the field families.

    Each family declares its ``family`` name and ``json_keys``, the
    (JSON key, attribute) pairs in the order field_from_dict reads them.
    The object holds ``family``, ``lambda_mm`` and then each key; a key
    whose attribute has a dataclass default may be left out.
    """

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

    def max_wavenumber(self) -> float:
        return self.wave.k

    def psi_grad(self, *coords):
        k = self.wave.k
        phase = sum(k * d * c for d, c in zip(self.direction, coords))
        psi = np.exp(1j * np.asarray(phase, dtype=float))
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
    json_keys = (("w0_mm", "w0_mm"), ("a_mm", "a_mm"))

    def __post_init__(self):
        w0 = _require_finite("w0_mm", self.w0_mm)
        a = _require_finite("a_mm", self.a_mm)
        if w0 <= 0.0:
            raise ParameterError(f"w0_mm must be > 0, got {w0}")
        if a < 0.0:
            raise ParameterError(f"a_mm must be >= 0, got {a}")
        zr = 0.5 * self.wave.k * (w0 * w0)  # rayleigh_mm, by products that cannot raise
        if not (0.0 < zr < math.inf and 0.0 < zr * zr < math.inf):  # psi_grad squares zR
            raise ParameterError(f"w0_mm = {w0} gives the Rayleigh range zR = k w0^2/2 = {zr} "
                                 "mm; zR and zR^2 must be finite and > 0")
        object.__setattr__(self, "w0_mm", w0)
        object.__setattr__(self, "a_mm", a)

    @property
    def ndim(self) -> int:
        return 2

    @property
    def rayleigh_mm(self) -> float:
        """zR = k w0^2 / 2."""
        return 0.5 * self.wave.k * self.w0_mm ** 2

    def width_mm(self, z):
        zr = self.rayleigh_mm
        return self.w0_mm * np.sqrt(1.0 + (np.asarray(z, dtype=float) / zr) ** 2)

    def curvature_inv(self, z):
        """1/R(z) = z/(z^2 + zR^2); zero on the waist plane."""
        z = np.asarray(z, dtype=float)
        return z / (z * z + self.rayleigh_mm ** 2)

    def max_wavenumber(self) -> float:
        return self.wave.k

    def psi_grad(self, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        k = self.wave.k
        zr = self.rayleigh_mm
        q = z - 1j * zr
        winv = 1.0 / np.sqrt(1.0 + (z / zr) ** 2)          # w0/w(z)
        dwinv = -(z / zr ** 2) * winv ** 3                  # d(w0/w)/dz
        carrier = np.exp(1j * k * z)
        u1 = x - self.a_mm
        u2 = x + self.a_mm
        e1 = np.exp(1j * k * u1 * u1 / (2.0 * q))
        e2 = np.exp(1j * k * u2 * u2 / (2.0 * q))
        envelope = winv * (e1 + e2)
        psi = envelope * carrier
        gx = winv * (1j * k / q) * (u1 * e1 + u2 * e2) * carrier
        dq2 = -1j * k / (2.0 * q * q)
        gz = (dwinv * (e1 + e2) + winv * (u1 * u1 * e1 + u2 * u2 * e2) * dq2) * carrier \
            + 1j * k * psi
        return psi, (gx, gz)


@dataclass(frozen=True)
class BesselSpec(_FieldFamily):
    """Bessel vortex beam J_|ell|(k_perp r) exp(i ell phi + i k_z z)."""

    wave: WaveParameters
    ell: int
    k_perp: float

    family = "bessel"
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

    @property
    def ndim(self) -> int:
        return 3

    @property
    def k_z(self) -> float:
        k = self.wave.k
        return math.sqrt((k - self.k_perp) * (k + self.k_perp))

    def max_wavenumber(self) -> float:
        return self.wave.k

    def psi_grad(self, x, y, z):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        m = float(abs(self.ell))  # an ell beyond int64 would make an object array jv rejects
        kp = self.k_perp
        kz = self.k_z
        r = np.hypot(x, y)
        phi = np.arctan2(y, x)
        orders = np.array([m - 1.0, m, m + 1.0]).reshape((3,) + (1,) * r.ndim)
        j_lo, jm, j_hi = special.jv(orders, kp * r)
        carrier = np.exp(1j * (self.ell * phi + kz * z))
        psi = jm * carrier

        # J_{m-1} - J_{m+1} = 2 J'_m and J_{m-1} + J_{m+1} = (2m/s) J_m (DLMF 10.6.1)
        # give both transverse components with no 1/r, so the axis needs no branch
        dr = kp * ((j_lo - j_hi) / 2) * carrier                           # radial derivative
        az = (1j * np.sign(self.ell) * kp) * ((j_lo + j_hi) / 2) * carrier  # (1/r) d/dphi
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
    json_keys = (("kappa_per_mm", "kappa"),)

    def __post_init__(self):
        kap = _require_finite("kappa", self.kappa)
        if kap <= 0.0:
            raise ParameterError(f"kappa must be > 0, got {kap}")
        object.__setattr__(self, "kappa", kap)

    @property
    def ndim(self) -> int:
        return 2

    @property
    def k_z(self) -> float:
        return math.hypot(self.wave.k, self.kappa)

    def max_wavenumber(self) -> float:
        return self.k_z

    def psi_grad(self, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        psi = np.exp(1j * self.k_z * z - self.kappa * x)
        return psi, (-self.kappa * psi, 1j * self.k_z * psi)


@dataclass(frozen=True)
class TirTwoWaveSpec(_FieldFamily):
    """Two plane waves totally internally reflected at a glass/air interface.

    Glass fills x < 0 (index n), air fills x >= 0.  Each incident wave i
    arrives at angle theta_i from the interface normal x-hat, above the
    critical angle, so the transmitted components are evanescent.  The
    s-polarization Fresnel coefficients are used:

        r_i = (k_x,i - i kappa_i) / (k_x,i + i kappa_i)   (|r_i| = 1)
        t_i = 2 k_x,i / (k_x,i + i kappa_i)

    with k_z,i = n k sin(theta_i), k_x,i = n k cos(theta_i) and
    kappa_i = sqrt(k_z,i^2 - k^2).  1 + r_i = t_i makes psi and its
    x-derivative continuous across x = 0.
    """

    wave: WaveParameters
    n: float
    theta1: float
    theta2: float
    amp1: float = 1.0
    amp2: float = 1.0

    family = "tir_two_wave"
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

    @property
    def ndim(self) -> int:
        return 2

    def max_wavenumber(self) -> float:
        return self.n * self.wave.k

    def partial_waves(self):
        """Per-wave constants (amp, k_x, k_z, kappa, r, t)."""
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

    def _glass(self, x, z):
        psi = 0j
        gx = 0j
        gz = 0j
        for amp, kx, kz, _, r, _ in self.partial_waves():
            zph = np.exp(1j * kz * z)
            up = np.exp(1j * kx * x)
            dn = r * np.exp(-1j * kx * x)
            psi = psi + amp * (up + dn) * zph
            gx = gx + amp * 1j * kx * (up - dn) * zph
            gz = gz + amp * 1j * kz * (up + dn) * zph
        return psi, gx, gz

    def _air(self, x, z):
        psi = 0j
        gx = 0j
        gz = 0j
        for amp, _, kz, kappa, _, t in self.partial_waves():
            # psi_grad keeps this side at x >= 0 only; at x < 0 exp(-kappa x) would overflow,
            # so the exponent is capped at 0. The glass terms have unit modulus and cannot.
            term = amp * t * np.exp(np.minimum(-kappa * x, 0.0) + 1j * kz * z)
            psi = psi + term
            gx = gx - kappa * term
            gz = gz + 1j * kz * term
        return psi, gx, gz

    def psi_grad(self, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        x_b, z_b = np.broadcast_arrays(x, z)
        glass = x_b < 0.0
        psi_g, gx_g, gz_g = self._glass(x_b, z_b)
        psi_a, gx_a, gz_a = self._air(x_b, z_b)
        psi = np.where(glass, psi_g, psi_a)
        gx = np.where(glass, gx_g, gx_a)
        gz = np.where(glass, gz_g, gz_a)
        if x_b.ndim == 0:
            psi, gx, gz = psi[()], gx[()], gz[()]
        return psi, (gx, gz)


FieldSpec = Union[PlaneWaveSpec, GaussianPairSpec, BesselSpec, EvanescentSpec, TirTwoWaveSpec]

_FAMILIES = {cls.family: cls for cls in get_args(FieldSpec)}


def evaluate(spec: FieldSpec, point) -> FieldSample:
    """Evaluate psi and its exact gradient at a single point.

    The point must have as many coordinates as the field's frame:
    (x, z) for planar families, (x, y, z) for the Bessel family.
    """
    coords = np.asarray(point, dtype=float)
    if coords.shape != (spec.ndim,):
        raise ParameterError(
            f"{type(spec).__name__} expects a point with {spec.ndim} coordinates, "
            f"got shape {coords.shape}")
    psi, grads = spec.psi_grad(*coords)
    return FieldSample(
        psi=complex(psi),
        grad_psi=np.array([complex(g) for g in grads]),
        k=spec.wave.k,
    )


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
