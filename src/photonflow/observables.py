"""Local (weak-value) observables of a field sample.

The complex local momentum is p = -i grad(psi)/psi, reported in rad/mm.
Its real part is the phase gradient that drives trajectories, its
imaginary part the negative log-amplitude gradient.  Poynting quantities
use the uniform-transverse-polarization reduction: the orbital current is
Im[psi* grad psi]/(2 omega), the spin current S3 grad|psi|^2 x z-hat /
(4 omega), and the energy density |psi|^2 / 2, all with omega = k.

Vectors returned by the Poynting routines are always 3-vectors (x, y, z);
planar fields embed with y = 0, which is also where their spin current
lives since nothing depends on y.

Every observable is element-wise in the sample: a point sample gives
values at one point, the sample of a grid's block of rows (grids._row_pass)
on each of its nodes, with vector components on the leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SingularPointError
from .fields import FieldSample, FieldSpec, evaluate

# A sample counts as singular when its amplitude is below this fraction of
# the largest amplitude on the active domain.
SINGULAR_REL_THRESHOLD = 1e-12


def _is_singular(amplitude, amp_floor):
    """Element-wise: amplitude at or below amp_floor, or exactly zero."""
    return (amplitude <= amp_floor) | (amplitude == 0.0)


def singular_cells(amplitude):
    """(floor, mask): SINGULAR_REL_THRESHOLD x peak amplitude, and the cells at or below it."""
    peak = float(np.max(amplitude))
    if not math.isfinite(peak):  # its floor would mark every cell singular
        raise ParameterError(f"the field amplitude overflows: its peak is {peak!r}")
    if peak == 0.0:  # no analytic family vanishes on a whole grid: every cell underflowed
        raise ParameterError(f"the field amplitude underflows: its peak is {peak!r}")
    floor = SINGULAR_REL_THRESHOLD * peak
    return floor, _is_singular(amplitude, floor)


def embed3(components, ndim: int) -> np.ndarray:
    """Lift per-coordinate values into an (x, y, z) 3-vector.

    Planar fields order their coordinates (x, z); the missing y slot is
    filled with zeros of matching shape, and the vector index leads.
    """
    if ndim == 3:
        return np.array(components)
    if ndim != 2:
        raise ParameterError(f"expected 2 or 3 components, got {ndim}")
    comps = np.asarray(components)
    out = np.zeros((3,) + comps.shape[1:], comps.dtype)
    out[::2] = comps  # x and z; y stays +0.0
    return out


@dataclass(frozen=True)
class PolarizationState:
    """Uniform transverse polarization e = (e_x, e_y), unit norm."""

    ex: complex
    ey: complex

    def __post_init__(self):
        norm_sq = abs(self.ex) ** 2 + abs(self.ey) ** 2
        if abs(norm_sq - 1.0) > 1e-12:
            raise ParameterError(
                f"polarization must be unit norm, got |e|^2 = {norm_sq!r}; "
                "use PolarizationState.of to normalize")

    @classmethod
    def of(cls, ex, ey) -> "PolarizationState":
        norm = math.sqrt(abs(ex) ** 2 + abs(ey) ** 2)
        if norm == 0.0:
            raise ParameterError("polarization vector must be nonzero")
        return cls(complex(ex) / norm, complex(ey) / norm)

    @classmethod
    def linear_diag(cls) -> "PolarizationState":
        return cls.of(1.0, 1.0)

    @classmethod
    def linear_x(cls) -> "PolarizationState":
        return cls(1.0 + 0j, 0j)

    @classmethod
    def linear_y(cls) -> "PolarizationState":
        return cls(0j, 1.0 + 0j)

    @classmethod
    def circular(cls, handedness: int = +1) -> "PolarizationState":
        if handedness not in (+1, -1):
            raise ParameterError("handedness must be +1 or -1")
        return cls.of(1.0, 1j * handedness)

    @property
    def s1(self) -> float:
        return abs(self.ex) ** 2 - abs(self.ey) ** 2

    @property
    def s2(self) -> float:
        return 2.0 * (self.ex.conjugate() * self.ey).real

    @property
    def s3(self) -> float:
        return 2.0 * (self.ex.conjugate() * self.ey).imag

    def stokes(self) -> tuple:
        return (self.s1, self.s2, self.s3)


@dataclass(slots=True)  # a plain record: one is built per momentum evaluation
class ComplexMomentum:
    """p = -i grad ln psi; p has one entry per coordinate on its leading axis."""

    p: np.ndarray
    k: float

    @property
    def re_p(self) -> np.ndarray:
        """Current part, equal to the phase gradient."""
        return self.p.real

    @property
    def im_p(self) -> np.ndarray:
        """Osmotic part, equal to -grad ln A."""
        return self.p.imag


@dataclass(slots=True)
class PoyntingDecomposition:
    """Orbital/spin split of the Poynting vector plus the energy density."""

    P_O: np.ndarray
    P_S: np.ndarray
    W: float

    @property
    def P(self) -> np.ndarray:
        return self.P_O + self.P_S


def local_momentum(sample: FieldSample, amp_floor: float = 0.0) -> ComplexMomentum:
    """Complex local momentum p = -i grad(psi)/psi of a sample, element-wise.

    amp_floor is the absolute singularity threshold for this domain
    (typically the floor from singular_cells).  At or below it the
    momentum is undefined: a point sample raises SingularPointError
    rather than returning divergent numbers, and on an array sample those
    cells keep -i grad(psi), undivided, so callers mask them (singular_cells).
    """
    amp = sample.amplitude
    singular = _is_singular(amp, amp_floor)
    if isinstance(amp, float) and singular:
        raise SingularPointError(f"amplitude {amp!r} at/below singularity floor {amp_floor!r}")
    p = -1j * sample.grad_psi
    if isinstance(amp, float):
        p /= sample.psi
    else:  # in place: on a grid, p is the largest array a command holds
        np.divide(p, sample.psi, out=p, where=~singular)
    return ComplexMomentum(p=p, k=sample.k)


def energy_density(sample: FieldSample):
    """W = |psi|^2 / 2, element-wise."""
    amp = sample.amplitude
    return 0.5 * amp * amp


def psi_conj_grad(sample: FieldSample) -> np.ndarray:
    """psi* grad psi as an (x, y, z) 3-vector, element-wise: the Poynting split
    and the dipole force are its imaginary and real parts."""
    return embed3(sample.psi.conjugate() * sample.grad_psi, len(sample.grad_psi))


def poynting_from_sample(sample: FieldSample, pol: PolarizationState) -> PoyntingDecomposition:
    """Orbital/spin Poynting split and energy density of a sample, element-wise."""
    omega = sample.k  # c = 1
    flux = psi_conj_grad(sample)
    p_o = flux.imag * (1.0 / (2.0 * omega))
    grad_i = 2.0 * flux.real  # grad |psi|^2
    scale = pol.s3 / (4.0 * omega)
    p_s = np.zeros_like(grad_i)  # slot z stays +0.0
    p_s[0] = grad_i[1] * scale
    p_s[1] = -grad_i[0] * scale
    return PoyntingDecomposition(P_O=p_o, P_S=p_s, W=energy_density(sample))


def poynting_decomposition(spec: FieldSpec, pol: PolarizationState, point) -> PoyntingDecomposition:
    return poynting_from_sample(evaluate(spec, point), pol)


def momentum_ratio(dec: PoyntingDecomposition, w_floor: float = 0.0) -> np.ndarray:
    """P_O / W; equals re_p/k at every non-singular point."""
    if _is_singular(dec.W, w_floor):
        raise SingularPointError(f"energy density {dec.W!r} at/below floor {w_floor!r}")
    return dec.P_O / dec.W


def group_velocity(mom: ComplexMomentum) -> np.ndarray:
    """Local group velocity re_p/k in units of c."""
    return mom.re_p / mom.k
