"""Gradient and scattering forces on a small dipole probe.

For a uniform transverse polarization the dipole force on a particle of
complex polarizability chi splits as

    F_grad = (1/2) Re(chi) Re[psi* grad psi]      (up-gradient for Re chi > 0)
    F_scat = (1/2) Im(chi) Im[psi* grad psi]

Normalizing by the energy density W = |psi|^2/2 turns these into the two
parts of the local momentum: F_grad/W = -Re(chi) im_p and
F_scat/W = Im(chi) re_p, which is what makes a probe particle a momentum
meter; forces_from_momentum computes them in that form.  Forces are in
(1/2)|chi| psi-units^2/mm; only ratios and directions are physically
meaningful since field normalization is dropped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ParameterWarning, SingularPointError
from .fields import FieldSample, FieldSpec, evaluate
from .observables import ComplexMomentum, _is_singular, embed3, psi_conj_grad


@dataclass(frozen=True)
class Polarizability:
    chi: complex

    def __post_init__(self):
        chi = complex(self.chi)
        if not (math.isfinite(chi.real) and math.isfinite(chi.imag)):
            raise ParameterError(f"chi must be finite, got {chi!r}")
        if chi.imag < 0.0:
            # 3 skips the dataclass __init__ to name the constructor's caller
            warnings.warn("Im(chi) < 0 describes gain, not a passive particle",
                          ParameterWarning, stacklevel=3)
        object.__setattr__(self, "chi", chi)


def force_from_sample(sample: FieldSample, chi: Polarizability):
    """(F_grad, F_scat) 3-vectors from an already evaluated sample, element-wise."""
    flux = psi_conj_grad(sample)
    return 0.5 * chi.chi.real * flux.real, 0.5 * chi.chi.imag * flux.imag


def forces_from_momentum(mom: ComplexMomentum, chi: Polarizability):
    """(F_grad/W, F_scat/W) = (-Re(chi) im_p, Im(chi) re_p) as 3-vectors, element-wise."""
    ndim = len(mom.p)
    return embed3(-chi.chi.real * mom.im_p, ndim), embed3(chi.chi.imag * mom.re_p, ndim)


def optical_force(spec: FieldSpec, chi: Polarizability, point):
    """(F_grad, F_scat) at a point.

    Under the uniform-polarization precondition, with |e| = 1, the scalar
    reduction E*.(grad)E = psi* grad psi does not depend on the polarization.
    """
    return force_from_sample(evaluate(spec, point), chi)


def normalized_forces(f_grad: np.ndarray, f_scat: np.ndarray, w: float, w_floor: float = 0.0):
    """(F_grad/W, F_scat/W); raises where the energy density is singular."""
    if _is_singular(w, w_floor):
        raise SingularPointError(f"energy density {w!r} at/below floor {w_floor!r}")
    return f_grad / w, f_scat / w
