"""Calcite weak measurement of the local momentum.

A thin birefringent crystal walks the x-polarized component of the beam
off by a small lateral displacement delta_x while leaving the
y-component in place.  For an analytic field the perturbed components
can be evaluated exactly:

    E'_x(x, z) = e_x psi(x - delta_x, z)
    E'_y(x, z) = e_y psi(x, z)

The polarization pointer is then read out through the normalized Stokes
parameters.  For the default diagonal input e = (1, 1)/sqrt(2), whose
Stokes vector is (0, 1, 0), the first-order response is

    S' ~ (delta_x im_p_x, 1, delta_x re_p_x) / norm,

so dividing the measured S'_3 and S'_1 maps by delta_x reconstructs the
real and imaginary parts of the local momentum's x-component.

In a physical crystal delta_x derives from the birefringent phase
phi(alpha) around the incidence angle alpha0, delta_x = (d phi/d k_x);
no crystal dispersion data is modeled here, so delta_x is taken directly
as input and the overall phase offset is fixed to zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePointerError, ParameterError, ParameterWarning, SingularPointError
from .fields import FieldSpec, GaussianPairSpec, _point_coords, _require_finite
from .observables import ComplexMomentum, PolarizationState, singular_cells


@dataclass(frozen=True)
class CalciteSpec:
    """Pointer displacement and input polarization of the crystal stage."""

    delta_x: float
    pol: PolarizationState = field(default_factory=PolarizationState.linear_diag)

    def __post_init__(self):
        _require_finite("delta_x", self.delta_x)


@dataclass(frozen=True)
class StokesVector:
    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        for name, value in (("s1", self.s1), ("s2", self.s2), ("s3", self.s3)):
            if not math.isfinite(value) or abs(value) > 1.0 + 1e-9:
                raise ParameterError(f"{name} must lie in [-1, 1], got {value!r}")
        if self.norm_sq > 1.0 + 1e-12:
            raise ParameterError(
                f"Stokes vector norm^2 = {self.norm_sq!r} exceeds 1")

    @property
    def norm_sq(self) -> float:
        return self.s1 ** 2 + self.s2 ** 2 + self.s3 ** 2

    def as_tuple(self) -> tuple:
        return (self.s1, self.s2, self.s3)


def _perturbed(spec: FieldSpec, cal: CalciteSpec, coords, psi):
    # each public caller calls this directly, so stacklevel 3 names the line that called it
    if isinstance(spec, GaussianPairSpec) and abs(cal.delta_x) > spec.w0_mm / 100.0:
        warnings.warn(
            f"delta_x = {cal.delta_x} mm exceeds w0/100 = {spec.w0_mm / 100.0} mm; "
            "the first-order Stokes readout may be inaccurate", ParameterWarning, stacklevel=3)
    psi_shift, _ = spec.psi_grad(coords[0] - cal.delta_x, *coords[1:])
    return cal.pol.ex * psi_shift, cal.pol.ey * psi


def calcite_fields(spec: FieldSpec, cal: CalciteSpec, coords, psi):
    """Perturbed field components (E'_x, E'_y), element-wise.

    coords are the frame coordinates where psi was sampled (numbers for
    one point, GridSpec.mesh's open axes for a grid); the x-component is
    evaluated again shifted along the first coordinate, for every family.
    Warns when the shift is no longer small against a Gaussian field's
    waist, since the first-order readout degrades there.
    """
    return _perturbed(spec, cal, coords, psi)


def apply_calcite(spec: FieldSpec, cal: CalciteSpec, point):
    """Perturbed field components (E'_x, E'_y) at a point (see calcite_fields)."""
    coords = _point_coords(spec, point)
    return _perturbed(spec, cal, coords, complex(spec.psi_grad(*coords)[0]))


def _normalized_stokes(ex, ey, intensity):
    cross = ex.conjugate() * ey
    return (((ex.real ** 2 + ex.imag ** 2) - (ey.real ** 2 + ey.imag ** 2)) / intensity,
            2.0 * cross.real / intensity,
            2.0 * cross.imag / intensity)


def stokes_parameters(ex, ey):
    """Normalized Stokes maps (S1, S2, S3, singular) of two-component fields.

    singular marks cells whose field magnitude sqrt(I) is at or below the
    map's singular floor; they are divided by 1 instead of I and carry
    no meaning.
    """
    intensity = (ex.real ** 2 + ex.imag ** 2) + (ey.real ** 2 + ey.imag ** 2)
    _, singular = singular_cells(np.sqrt(intensity))
    return _normalized_stokes(ex, ey, np.where(singular, 1.0, intensity)) + (singular,)


def exact_stokes(ex: complex, ey: complex) -> StokesVector:
    """Normalized Stokes parameters of a two-component field point."""
    intensity = (ex.real ** 2 + ex.imag ** 2) + (ey.real ** 2 + ey.imag ** 2)
    if intensity == 0.0:
        raise SingularPointError("zero intensity; Stokes parameters undefined")
    return StokesVector(*_normalized_stokes(ex, ey, intensity))


def predicted_parameters(mom: ComplexMomentum, cal: CalciteSpec):
    """First-order weak-value prediction (S1, S2, S3) for the diagonal input.

    (delta_x im_p_x, 1, delta_x re_p_x) renormalized to unit length, so
    it stays a valid fully-polarized Stokes vector at finite delta_x;
    element-wise in the momentum.
    """
    s1 = cal.delta_x * mom.im_p[0]
    s3 = cal.delta_x * mom.re_p[0]
    norm = np.sqrt(1.0 + s1 ** 2 + s3 ** 2)
    return s1 / norm, 1.0 / norm, s3 / norm


def predicted_stokes(mom: ComplexMomentum, cal: CalciteSpec) -> StokesVector:
    """predicted_parameters at one point, as a StokesVector."""
    return StokesVector(*predicted_parameters(mom, cal))


def readout_momentum(s1, s3, cal: CalciteSpec):
    """Invert the pointer readout: (re_p_x, im_p_x) = (S'_3, S'_1)/delta_x.

    For the diagonal input e = (1, 1)/sqrt(2) only, element-wise in the Stokes
    parameters.  The reconstructed value is the momentum at the midpoint between
    the shifted and unshifted components, x - delta_x/2; the readout is
    second-order accurate there and only first-order accurate at x.
    """
    _check_invertible(cal)
    return (s3 / cal.delta_x, s1 / cal.delta_x)


def _check_invertible(cal: CalciteSpec) -> None:
    """Raise DegeneratePointerError unless readout_momentum can divide by cal.delta_x."""
    if cal.delta_x == 0.0:
        raise DegeneratePointerError("delta_x = 0 cannot be inverted")


def momentum_from_stokes(s: StokesVector, cal: CalciteSpec):
    """readout_momentum of one StokesVector."""
    return readout_momentum(s.s1, s.s3, cal)
