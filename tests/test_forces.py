"""Dipole gradient/scattering forces as momentum meters."""

import math

import numpy as np
import pytest
from scipy.special import jnp_zeros

import photonflow as pf
from photonflow.errors import ParameterError, SingularPointError


def test_plane_wave_scattering_force_points_along_k():
    spec = pf.PlaneWaveSpec(wave=pf.WaveParameters(1.0), direction=(0.0, 1.0))
    k = spec.wave.k
    f_grad, f_scat = pf.optical_force(spec, pf.Polarizability(1j), (0.2, 0.9))
    assert f_scat == pytest.approx([0.0, 0.0, 0.5 * k], abs=1e-14)
    assert np.all(f_grad == 0.0)


def test_real_polarizability_builds_no_scattering_force(gaussian_pair):
    f_grad, f_scat = pf.optical_force(gaussian_pair, pf.Polarizability(2.5 + 0j), (1.1, 3.0))
    assert np.all(f_scat == 0.0)
    assert np.abs(f_grad).max() > 0.0


def test_force_identities_against_momentum(gaussian_pair):
    # F_grad/W = -Re(chi) im_p and F_scat/W = Im(chi) re_p, pointwise
    chi = pf.Polarizability(0.8 + 0.3j)
    rng = np.random.RandomState(12)
    k = gaussian_pair.wave.k
    for _ in range(50):
        pt = (rng.uniform(-4, 4), rng.uniform(0, 3000))
        sample = pf.evaluate(gaussian_pair, pt)
        if sample.amplitude < 1e-12:
            continue
        f_grad, f_scat = pf.force_from_sample(sample, chi)
        w = 0.5 * sample.amplitude**2
        ng, ns = pf.normalized_forces(f_grad, f_scat, w)
        mom = pf.local_momentum(sample)
        im3 = pf.embed3(mom.im_p, 2)
        re3 = pf.embed3(mom.re_p, 2)
        assert np.abs(ng - (-chi.chi.real) * im3).max() <= 1e-10 * k
        assert np.abs(ns - chi.chi.imag * re3).max() <= 1e-10 * k


def test_gradient_force_antiparallel_to_osmotic_momentum(gaussian_pair):
    chi = pf.Polarizability(1.0 + 0.2j)
    rng = np.random.RandomState(4)
    checked = 0
    while checked < 25:
        pt = (rng.uniform(-3.5, 3.5), rng.uniform(0, 3000))
        sample = pf.evaluate(gaussian_pair, pt)
        if sample.amplitude < 1e-9:
            continue
        f_grad, _ = pf.force_from_sample(sample, chi)
        im3 = pf.embed3(pf.local_momentum(sample).im_p, 2)
        ng = np.linalg.norm(f_grad)
        ni = np.linalg.norm(im3)
        if ng < 1e-14 or ni < 1e-14:
            continue
        cosine = float(np.dot(f_grad, im3) / (ng * ni))
        assert cosine == pytest.approx(-1.0, abs=1e-12)
        checked += 1


def test_standing_wave_force_pattern():
    # hand-built sample: psi = cos(kx), d(psi)/dx = -k sin(kx)
    k = 2.0 * math.pi
    x = 1.0 / 8.0  # kx = pi/4, halfway up the fringe
    sample = pf.FieldSample(
        psi=complex(math.cos(k * x)),
        grad_psi=np.array([-k * math.sin(k * x), 0.0], dtype=complex),
        k=k,
    )
    f_grad, f_scat = pf.force_from_sample(sample, pf.Polarizability(1.0 + 1.0j))
    # no running phase: zero scattering force anywhere on the fringe
    assert np.all(f_scat == 0.0)
    # gradient force pulls toward the antinode at x = 0
    assert f_grad[0] == pytest.approx(-0.25 * k * math.sin(2 * k * x), rel=1e-14)
    assert f_grad[0] < 0.0


def test_gradient_force_vanishes_on_bessel_bright_ring(bessel_ell2):
    r_ring = jnp_zeros(2, 1)[0] / bessel_ell2.k_perp
    chi = pf.Polarizability(1.0 + 0.5j)
    f_grad, f_scat = pf.optical_force(bessel_ell2, chi, (r_ring, 0.0, 0.0))
    # the intensity maximum is a trap: gradient force dies, scattering stays
    assert np.linalg.norm(f_grad) < 1e-10 * np.linalg.norm(f_scat)
    assert np.linalg.norm(f_scat) > 0.0


def test_polarizability_validation_and_gain_warning():
    with pytest.raises(ParameterError):
        pf.Polarizability(complex("inf"))
    with pytest.warns(UserWarning, match="gain") as record:
        pf.Polarizability(1.0 - 0.1j)
    assert record[0].filename == __file__  # the caller, not the dataclass __init__
    assert pf.Polarizability(2).chi == 2.0 + 0j


def test_normalized_forces_raise_at_zero_energy():
    zero = np.zeros(3)
    with pytest.raises(SingularPointError):
        pf.normalized_forces(zero, zero, 0.0)
    with pytest.raises(SingularPointError):
        pf.normalized_forces(zero, zero, 1e-20, w_floor=1e-12)
