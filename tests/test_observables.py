"""Local momentum, Poynting split, group velocity."""

import math

import numpy as np
import pytest

import photonflow as pf
from photonflow.errors import ParameterError, SingularPointError
from photonflow.observables import singular_cells

from conftest import TWO_PI, draw_points, fd_momentum


def mom_at(spec, point):
    return pf.local_momentum(pf.evaluate(spec, point))


# ------------------------------------------------------- closed-form momenta


def test_plane_wave_momentum_is_k_times_direction(plane_wave):
    mom = mom_at(plane_wave, (0.37, -2.2))
    k = plane_wave.wave.k
    assert mom.re_p == pytest.approx([0.6 * k, 0.8 * k], rel=1e-14)
    assert np.abs(mom.im_p).max() < 1e-12 * k


def test_evanescent_momentum_components(evanescent):
    # re p = (0, k_z), im p = (kappa, 0); k = 1 here
    mom = mom_at(evanescent, (1.2, 0.4))
    assert mom.re_p[1] == pytest.approx(1.25, rel=1e-14)
    assert abs(mom.re_p[0]) < 1e-13
    assert mom.im_p[0] == pytest.approx(0.75, rel=1e-14)
    assert abs(mom.im_p[1]) < 1e-13


def test_bessel_azimuthal_momentum_is_ell_over_r(bessel_ell2):
    # at (r, 0, 0) the azimuthal direction is +y and |re p_phi| = ell/r
    mom = mom_at(bessel_ell2, (0.5, 0.0, 0.0))
    assert mom.re_p[1] == pytest.approx(4.0, rel=1e-12)
    assert abs(mom.re_p[0]) < 1e-12
    assert mom.re_p[2] == pytest.approx(bessel_ell2.k_z, rel=1e-14)
    # osmotic part is radial: -d/dr ln J_2(k_perp r)
    kp = bessel_ell2.k_perp
    from scipy.special import jv, jvp

    expected = -kp * jvp(2, kp * 0.5) / jv(2, kp * 0.5)
    assert mom.im_p[0] == pytest.approx(expected, rel=1e-12)
    assert abs(mom.im_p[1]) < 1e-12
    assert abs(mom.im_p[2]) < 1e-15


def test_gaussian_pair_axis_carries_superoscillating_pz(gaussian_pair):
    # on-axis, the two-beam overlap pushes the phase gradient slightly
    # past k near the waist; far downstream it relaxes toward k
    k = gaussian_pair.wave.k
    near = mom_at(gaussian_pair, (0.0, 1.0))
    assert near.re_p[1] > k
    assert near.re_p[1] < k * (1.0 + 1e-4)
    far = mom_at(gaussian_pair, (0.0, 2999.0))
    assert abs(far.re_p[1] / k - 1.0) < 1e-4


# -------------------------------------------- momentum vs finite differences


FD_FAMILIES = {
    "plane": (
        lambda: pf.PlaneWaveSpec(wave=pf.WaveParameters(1.0), direction=(0.6, 0.8)),
        ((-5.0, 5.0), (-5.0, 5.0)), 1e-4, 10.0,
    ),
    "gaussian_pair": (
        lambda: pf.GaussianPairSpec(wave=pf.WaveParameters(0.943e-3), w0_mm=0.608, a_mm=2.345),
        ((-4.0, 4.0), (0.0, 3000.0)), 1e-5, 2.0,
    ),
    "bessel": (
        lambda: pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=2, k_perp=0.05 * TWO_PI),
        ((-3.0, 3.0), (-3.0, 3.0), (0.0, 10.0)), 1e-4, 2.0,
    ),
    "evanescent": (
        lambda: pf.EvanescentSpec(wave=pf.WaveParameters(TWO_PI), kappa=0.75),
        ((0.0, 3.0), (-5.0, 5.0)), 1e-4, 10.0,
    ),
}


@pytest.mark.parametrize("family", sorted(FD_FAMILIES))
def test_momentum_matches_finite_differences(family):
    spec_fn, box, h, cap_mul = FD_FAMILIES[family]
    spec = spec_fn()
    k = spec.wave.k
    rng = np.random.RandomState(17)
    pts = draw_points(rng, box, 400)
    if family == "bessel":
        r = np.hypot(pts[:, 0], pts[:, 1])
        pts = pts[(r > 0.05) & (r < 3.0)]
    samples = [pf.evaluate(spec, p) for p in pts]
    floor = 1e-9 * max(s.amplitude for s in samples)
    used = 0
    for p, s in zip(pts, samples):
        if s.amplitude <= floor:
            continue
        mom = pf.local_momentum(s)
        if np.abs(mom.p).max() > cap_mul * k:
            continue  # FD stencil is unreliable where the field varies this fast
        re_fd, im_fd = fd_momentum(spec, p, h)
        err = max(np.abs(re_fd - mom.re_p).max(), np.abs(im_fd - mom.im_p).max())
        assert err <= 1e-6 * max(np.abs(mom.p).max(), k)
        used += 1
    assert used >= 150


# --------------------------------------------------------- polarization state


def test_polarization_constructors_and_stokes():
    diag = pf.PolarizationState.linear_diag()
    assert diag.stokes() == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)
    assert pf.PolarizationState.linear_x().stokes() == pytest.approx((1.0, 0.0, 0.0))
    assert pf.PolarizationState.linear_y().stokes() == pytest.approx((-1.0, 0.0, 0.0))
    rcp = pf.PolarizationState.circular(+1)
    assert rcp.stokes() == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
    assert pf.PolarizationState.circular(-1).s3 == pytest.approx(-1.0)
    # s1^2 + s2^2 + s3^2 = 1 for any pure state
    state = pf.PolarizationState.of(1.0, 0.3 - 0.4j)
    assert sum(c * c for c in state.stokes()) == pytest.approx(1.0, rel=1e-13)


def test_polarization_validation():
    with pytest.raises(ParameterError):
        pf.PolarizationState(1.0 + 0j, 1.0 + 0j)  # not unit norm
    with pytest.raises(ParameterError):
        pf.PolarizationState.of(0.0, 0.0)
    with pytest.raises(ParameterError):
        pf.PolarizationState.circular(2)


# ------------------------------------------------------------- poynting split


def test_spin_current_vanishes_for_linear_polarization(gaussian_pair):
    rng = np.random.RandomState(2)
    for pol in (
        pf.PolarizationState.linear_diag(),
        pf.PolarizationState.linear_x(),
        pf.PolarizationState.linear_y(),
    ):
        for _ in range(10):
            pt = (rng.uniform(-4, 4), rng.uniform(0, 3000))
            dec = pf.poynting_decomposition(gaussian_pair, pol, pt)
            assert np.all(dec.P_S == 0.0)  # s3 = 0 exactly kills the term


def test_spin_current_of_circular_plane_wave_is_zero(plane_wave):
    # uniform intensity: grad |psi|^2 = 0, so P_S = 0 even for circular
    dec = pf.poynting_decomposition(
        plane_wave, pf.PolarizationState.circular(+1), (0.3, 0.7)
    )
    assert np.abs(dec.P_S).max() < 1e-14


def test_spin_current_is_transverse_curl_of_intensity(gaussian_pair):
    # P_S = s3 (d_y I, -d_x I, 0) / (4 omega) with I = |psi|^2; for a planar
    # field d_y I = 0, so P_S points along -x_hat grad_x I
    pol = pf.PolarizationState.circular(+1)
    pt = (1.0, 5.0)
    dec = pf.poynting_decomposition(gaussian_pair, pol, pt)
    h = 1e-6
    i_hi = pf.evaluate(gaussian_pair, (pt[0] + h, pt[1])).amplitude ** 2
    i_lo = pf.evaluate(gaussian_pair, (pt[0] - h, pt[1])).amplitude ** 2
    gx = (i_hi - i_lo) / (2 * h)
    omega = gaussian_pair.wave.k
    assert dec.P_S[1] == pytest.approx(-gx / (4.0 * omega), rel=1e-7)
    assert dec.P_S[0] == 0.0 and dec.P_S[2] == 0.0
    # flipping handedness flips the spin current, and it never carries W
    dec_m = pf.poynting_decomposition(gaussian_pair, pf.PolarizationState.circular(-1), pt)
    assert dec_m.P_S == pytest.approx(-dec.P_S)
    assert dec_m.W == dec.W


def test_spin_current_divergence_free_planar(gaussian_pair):
    # 2D curl structure makes div P_S = d_x P_Sx + d_z P_Sz = 0 exactly
    pol = pf.PolarizationState.circular(+1)
    h = 1e-4
    for pt in ((0.4, 3.0), (2.2, 11.0), (-1.7, 40.0)):
        div = 0.0
        for axis in (0, 1):
            hi = list(pt)
            lo = list(pt)
            hi[axis] += h
            lo[axis] -= h
            d_hi = pf.poynting_decomposition(gaussian_pair, pol, hi)
            d_lo = pf.poynting_decomposition(gaussian_pair, pol, lo)
            comp = 0 if axis == 0 else 2
            div += (d_hi.P_S[comp] - d_lo.P_S[comp]) / (2 * h)
        assert div == 0.0


def test_spin_current_divergence_free_bessel(bessel_ell2):
    # 3D check: central-difference divergence, scaled by k W, stays tiny
    pol = pf.PolarizationState.circular(+1)
    k = bessel_ell2.wave.k
    h = 3e-3
    rng = np.random.RandomState(23)
    checked = 0
    while checked < 40:
        x, y = rng.uniform(-3, 3, size=2)
        z = rng.uniform(0, 5)
        if math.hypot(x, y) < 0.2:
            continue
        base = pf.poynting_decomposition(bessel_ell2, pol, (x, y, z))
        if base.W < 1e-6:
            continue
        div = 0.0
        for axis in range(3):
            hi = [x, y, z]
            lo = [x, y, z]
            hi[axis] += h
            lo[axis] -= h
            d_hi = pf.poynting_decomposition(bessel_ell2, pol, hi)
            d_lo = pf.poynting_decomposition(bessel_ell2, pol, lo)
            div += (d_hi.P_S[axis] - d_lo.P_S[axis]) / (2 * h)
        assert abs(div) <= 1e-8 * k * base.W
        checked += 1


def test_orbital_current_follows_re_p(bessel_ell2):
    # P_O / W = re_p / k pointwise
    pol = pf.PolarizationState.linear_diag()
    for pt in ((0.5, 0.0, 0.0), (1.0, 2.0, 0.3), (-2.0, 0.7, 5.0)):
        dec = pf.poynting_decomposition(bessel_ell2, pol, pt)
        mom = mom_at(bessel_ell2, pt)
        ratio = pf.momentum_ratio(dec)
        assert ratio == pytest.approx(mom.re_p / mom.k, rel=1e-10, abs=1e-12)


def test_total_poynting_is_sum_of_parts(gaussian_pair):
    dec = pf.poynting_decomposition(
        gaussian_pair, pf.PolarizationState.circular(+1), (0.8, 2.0)
    )
    assert dec.P == pytest.approx(dec.P_O + dec.P_S, rel=1e-15)
    assert dec.W == pytest.approx(
        0.5 * pf.evaluate(gaussian_pair, (0.8, 2.0)).amplitude ** 2, rel=1e-15
    )


# ------------------------------------------------------------ group velocity


def test_group_velocity_of_plane_wave_is_unit(plane_wave):
    v = pf.group_velocity(mom_at(plane_wave, (1.0, 1.0)))
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-14)


def test_group_velocity_superluminal_for_evanescent(evanescent):
    v = pf.group_velocity(mom_at(evanescent, (0.5, 0.0)))
    assert np.linalg.norm(v) == pytest.approx(1.25, rel=1e-14)
    assert v[1] > 1.0


def test_superoscillation_near_bessel_axis(bessel_ell2):
    # inside the vortex core the phase whirls faster than k: |v_g| > 1
    # all the way down to the axis
    for r in (1e-4, 3e-4, 1e-3):
        v = pf.group_velocity(mom_at(bessel_ell2, (r, 0.0, 0.0)))
        assert np.linalg.norm(v) > 1.0
    # right next to a ring zero of J_2 the motion is instead dominated by
    # the osmotic (imaginary) part; the real part stays subluminal
    from scipy.special import jn_zeros

    r_ring = jn_zeros(2, 1)[0] / bessel_ell2.k_perp + 1e-3
    mom = mom_at(bessel_ell2, (r_ring, 0.0, 0.0))
    assert np.linalg.norm(mom.re_p) / mom.k < 1.0
    assert np.linalg.norm(mom.im_p) / mom.k > 10.0


# ---------------------------------------------------------------- singulars


def test_local_momentum_raises_on_vortex_axis(bessel_ell2):
    sample = pf.evaluate(bessel_ell2, (0.0, 0.0, 0.0))
    with pytest.raises(SingularPointError):
        pf.local_momentum(sample)


def test_local_momentum_respects_amp_floor(plane_wave):
    sample = pf.evaluate(plane_wave, (0.0, 0.0))
    with pytest.raises(SingularPointError):
        pf.local_momentum(sample, amp_floor=2.0)


def test_momentum_ratio_raises_at_zero_energy(bessel_ell2):
    dec = pf.poynting_decomposition(
        bessel_ell2, pf.PolarizationState.linear_x(), (0.0, 0.0, 0.0)
    )
    assert dec.W == 0.0
    with pytest.raises(SingularPointError):
        pf.momentum_ratio(dec)


@pytest.mark.parametrize("peak", [math.inf, math.nan, 0.0])
def test_singular_cells_rejects_a_peak_that_is_not_finite(peak):
    # a zero peak is float underflow on every cell: its floor would mark them all singular
    flows = "underflows" if peak == 0.0 else "overflows"
    message = f"^the field amplitude {flows}: its peak is {peak!r}$"
    with pytest.raises(ParameterError, match=message):
        singular_cells(np.array([[peak, 0.0], [peak, peak]]))


def test_embed3_shapes():
    v = pf.embed3((1.0, 2.0), 2)
    assert v.tolist() == [1.0, 0.0, 2.0]
    v3 = pf.embed3((1.0, 2.0, 3.0), 3)
    assert v3.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ParameterError):
        pf.embed3((1.0, 2.0), 4)
