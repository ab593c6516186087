"""Shared fixtures and numerical helpers for the photonflow test suite.

The finite-difference helpers here are deliberately independent of the
analytic gradients in ``photonflow.fields``: they differentiate the wrapped
phase and the log-amplitude of pointwise field evaluations, so agreement
between the two routes is evidence rather than tautology.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

import photonflow as pf

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic; a CLI run may take longer than
# hypothesis's default deadline.
settings.register_profile("photonflow", derandomize=True, database=None, deadline=None)
settings.load_profile("photonflow")

TWO_PI = 2.0 * math.pi

# glass/air two-wave geometry used across the suite: n = 1.5, incidence
# angles 5 and 10 degrees past critical, unit amplitudes
TIR_THETA1 = math.asin(1.0 / 1.5) + math.radians(5.0)
TIR_THETA2 = math.asin(1.0 / 1.5) + math.radians(10.0)


def make_tir(lambda_mm=1.0):
    return pf.TirTwoWaveSpec(
        wave=pf.WaveParameters(lambda_mm),
        n=1.5,
        theta1=TIR_THETA1,
        theta2=TIR_THETA2,
        amp1=1.0,
        amp2=1.0,
    )


@pytest.fixture
def gaussian_pair():
    # narrow pair, waist 0.608 mm, half-separation 2.345 mm
    return pf.GaussianPairSpec(
        wave=pf.WaveParameters(0.943e-3), w0_mm=0.608, a_mm=2.345
    )


@pytest.fixture
def bessel_ell2():
    return pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=2, k_perp=0.05 * TWO_PI)


@pytest.fixture
def helix_bessel():
    # k_perp chosen so k_z = 0.99 k exactly: k_perp = 2*pi*sqrt(1 - 0.99^2)
    return pf.BesselSpec(
        wave=pf.WaveParameters(1.0), ell=2, k_perp=0.8863766617893787
    )


@pytest.fixture
def evanescent():
    # lambda = 2*pi so k = 1 and k_z = sqrt(1 + kappa^2) is easy to read
    return pf.EvanescentSpec(wave=pf.WaveParameters(TWO_PI), kappa=0.75)


@pytest.fixture
def tir_field():
    return make_tir()


@pytest.fixture
def plane_wave():
    return pf.PlaneWaveSpec(wave=pf.WaveParameters(1.0), direction=(0.6, 0.8))


def wrap(delta):
    """Map angle differences into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(delta), TWO_PI)


def fd_momentum(spec, point, h):
    """Central-difference estimate of the complex local momentum.

    Differentiates arg(psi) (with wrap-around correction) and ln|psi|
    component by component.  Valid only where the field is smooth and
    nonzero over the stencil.
    """
    point = np.asarray(point, dtype=float)
    re = np.empty(point.size)
    im = np.empty(point.size)
    for i in range(point.size):
        lo = point.copy()
        hi = point.copy()
        lo[i] -= h
        hi[i] += h
        s_lo = pf.evaluate(spec, lo)
        s_hi = pf.evaluate(spec, hi)
        dphase = wrap(np.angle(s_hi.psi) - np.angle(s_lo.psi))
        re[i] = dphase / (2.0 * h)
        im[i] = -(math.log(abs(s_hi.psi)) - math.log(abs(s_lo.psi))) / (2.0 * h)
    return re, im


def draw_points(rng, box, n):
    """Uniform points in an axis-aligned box given as ((lo, hi), ...)."""
    box = np.asarray(box, dtype=float)
    return rng.uniform(box[:, 0], box[:, 1], size=(n, box.shape[0]))
