"""Field families: closed forms, symmetries, serialization, validation."""

import math
import re

import numpy as np
import pytest

import photonflow as pf
from photonflow.errors import ParameterError, RegimeError

from conftest import TIR_THETA1, TWO_PI, make_tir


# ---------------------------------------------------------------- plane wave


def test_plane_wave_matches_exponential_exactly(plane_wave):
    k = plane_wave.wave.k
    for x, z in ((0.0, 0.0), (0.3, -1.7), (12.5, 4.0)):
        s = pf.evaluate(plane_wave, (x, z))
        expected = np.exp(1j * k * (0.6 * x + 0.8 * z))
        assert s.psi == pytest.approx(expected, abs=0.0, rel=1e-15)
        assert s.grad_psi[0] == pytest.approx(1j * k * 0.6 * expected, rel=1e-15)
        assert s.grad_psi[1] == pytest.approx(1j * k * 0.8 * expected, rel=1e-15)


def test_plane_wave_direction_is_normalized():
    spec = pf.PlaneWaveSpec(wave=pf.WaveParameters(1.0), direction=(3.0, 4.0))
    assert spec.direction == (0.6, 0.8)
    spec3 = pf.PlaneWaveSpec(wave=pf.WaveParameters(1.0), direction=(0.0, 0.0, 2.0))
    assert spec3.direction == (0.0, 0.0, 1.0)
    assert spec3.ndim == 3


def test_wave_parameters_expose_k_and_omega():
    wave = pf.WaveParameters(2.0)
    assert wave.k == pytest.approx(math.pi, rel=1e-15)
    # c = 1 in these units, so omega and k coincide numerically
    assert wave.omega == wave.k


# ------------------------------------------------------------- gaussian pair


def test_gaussian_pair_width_and_curvature_identities(gaussian_pair):
    zr = gaussian_pair.rayleigh_mm
    assert zr == pytest.approx(
        math.pi * gaussian_pair.w0_mm**2 / gaussian_pair.wave.lambda_mm, rel=1e-15
    )
    for z in (0.0, 17.3, 500.0, 2999.0):
        w = gaussian_pair.width_mm(z)
        assert w == pytest.approx(
            gaussian_pair.w0_mm * math.sqrt(1.0 + (z / zr) ** 2), rel=1e-14
        )
        rinv = gaussian_pair.curvature_inv(z)
        assert rinv == pytest.approx(z / (z * z + zr * zr), rel=1e-14, abs=1e-300)
    assert gaussian_pair.curvature_inv(0.0) == 0.0


def test_gaussian_pair_agrees_with_width_curvature_form(gaussian_pair):
    # independent route: (w0/w) exp[-(1/w^2 - ik/2R) u^2] e^{ikz} per beam
    spec = gaussian_pair
    k = spec.wave.k

    def envelope(u, z):
        w = spec.width_mm(z)
        rinv = spec.curvature_inv(z)
        return (spec.w0_mm / w) * np.exp(-((1.0 / w**2) - 0.5j * k * rinv) * u * u)

    rng = np.random.RandomState(11)
    for _ in range(40):
        x = rng.uniform(-4.0, 4.0)
        z = rng.uniform(0.0, 3000.0)
        expected = (envelope(x - spec.a_mm, z) + envelope(x + spec.a_mm, z)) * np.exp(
            1j * k * z
        )
        got = pf.evaluate(spec, (x, z)).psi
        assert abs(got - expected) <= 1e-12 * abs(expected)


def test_gaussian_pair_is_bitwise_even_in_x(gaussian_pair):
    rng = np.random.RandomState(3)
    for _ in range(60):
        x = rng.uniform(0.0, 5.0)
        z = rng.uniform(0.0, 3000.0)
        left = pf.evaluate(gaussian_pair, (-x, z))
        right = pf.evaluate(gaussian_pair, (x, z))
        # mirror symmetry is arranged term-by-term, so it holds bitwise
        assert left.psi == right.psi
        assert left.grad_psi[0] == -right.grad_psi[0]
        assert left.grad_psi[1] == right.grad_psi[1]


def test_gaussian_pair_on_axis_gradient_vanishes_transversally(gaussian_pair):
    s = pf.evaluate(gaussian_pair, (0.0, 123.4))
    assert s.grad_psi[0] == 0.0


# ------------------------------------------------------------------- bessel


def _j_series(m, x, terms=60):
    """Power series for J_m, adequate for |x| < 10 at double precision."""
    x = float(x)
    half = 0.5 * x
    total = 0.0
    for j in range(terms):
        total += (-1.0) ** j * half ** (m + 2 * j) / (
            math.factorial(j) * math.factorial(m + j)
        )
    return total


def _j_series_prime(m, x):
    if m == 0:
        return -_j_series(1, x)
    return 0.5 * (_j_series(m - 1, x) - _j_series(m + 1, x))


@pytest.mark.parametrize("ell", range(-3, 4))
def test_bessel_profile_matches_power_series(ell):
    spec = pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=ell, k_perp=0.05 * TWO_PI)
    m = abs(ell)
    kp = spec.k_perp
    kz = spec.k_z
    rng = np.random.RandomState(5)
    for _ in range(50):
        r = rng.uniform(0.05, 9.0)
        phi = rng.uniform(-math.pi, math.pi)
        z = rng.uniform(-3.0, 3.0)
        x, y = r * math.cos(phi), r * math.sin(phi)
        s = pf.evaluate(spec, (x, y, z))
        carrier = np.exp(1j * (ell * phi + kz * z))
        expected = _j_series(m, kp * r) * carrier
        assert abs(s.psi - expected) <= 1e-12 * max(abs(expected), 1e-3)
        # radial derivative through the chain rule, checked on grad . r_hat
        dr = (s.grad_psi[0] * math.cos(phi) + s.grad_psi[1] * math.sin(phi))
        expected_dr = kp * _j_series_prime(m, kp * r) * carrier
        assert abs(dr - expected_dr) <= 1e-11 * max(abs(expected_dr), 1e-3)
        # azimuthal component: grad . phi_hat = (1/r) d(psi)/d(phi) = i ell psi / r
        dphi = (-s.grad_psi[0] * math.sin(phi) + s.grad_psi[1] * math.cos(phi))
        expected_dphi = 1j * ell * expected / r
        assert abs(dphi - expected_dphi) <= 1e-11 * max(abs(expected_dphi), 1e-3)


def test_bessel_longitudinal_wavenumber():
    spec = pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=1, k_perp=0.3 * TWO_PI)
    k = spec.wave.k
    assert spec.k_z == pytest.approx(math.sqrt(k * k - spec.k_perp**2), rel=1e-15)
    assert spec.k_z**2 + spec.k_perp**2 == pytest.approx(k * k, rel=1e-15)


@pytest.mark.parametrize("ell", range(-3, 4))
def test_bessel_on_axis_limits(ell):
    kp = 0.4
    spec = pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=ell, k_perp=kp)
    z = 1.0
    axial = np.exp(1j * spec.k_z * z)
    # J_m(s) ~ (s/2)^m / m!: psi vanishes on axis unless ell = 0, and so does the
    # transverse gradient unless |ell| = 1, where psi ~ (kp/2)(x + i sgn(ell) y) e^{i kz z}
    psi = axial if ell == 0 else 0.0
    gx, gy = (0.5 * kp * axial, 0.5j * np.sign(ell) * kp * axial) if abs(ell) == 1 else (0, 0)
    # every signed zero: the axis has no azimuth, and arctan2 gives 0 or +-pi there
    for x, y in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
        s = pf.evaluate(spec, (x, y, z))
        assert s.psi == pytest.approx(psi, rel=1e-14, abs=0.0)
        assert s.grad_psi[0] == pytest.approx(gx, rel=1e-14, abs=0.0)
        assert s.grad_psi[1] == pytest.approx(gy, rel=1e-14, abs=0.0)
        assert s.grad_psi[2] == pytest.approx(1j * spec.k_z * psi, rel=1e-14, abs=0.0)


def test_bessel_point_and_array_paths_agree_bit_for_bit():
    rng = np.random.RandomState(11)
    for ell in range(-3, 4):
        spec = pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=ell, k_perp=0.3 * TWO_PI)
        points = rng.uniform(-6.0, 6.0, size=(300, 3))
        points[:2, :2] = 0.0  # on axis
        psi, grads = spec.psi_grad(*points.T)
        for i, point in enumerate(points):
            s = pf.evaluate(spec, point)
            assert np.array([s.psi, *s.grad_psi]).tobytes() == \
                np.array([psi[i], *(g[i] for g in grads)]).tobytes()


def test_bessel_ell_zero_has_no_azimuthal_structure():
    spec = pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=0, k_perp=0.5)
    a = pf.evaluate(spec, (1.3, 0.0, 0.2))
    b = pf.evaluate(spec, (0.0, 1.3, 0.2))
    assert a.psi == pytest.approx(b.psi, rel=1e-14)


# --------------------------------------------------------------- evanescent


def test_evanescent_wavenumbers(evanescent):
    # k = 1, kappa = 0.75 -> k_z = 1.25 exactly (3-4-5 triangle)
    assert evanescent.wave.k == pytest.approx(1.0, rel=1e-15)
    assert evanescent.k_z == pytest.approx(1.25, rel=1e-15)
    s = pf.evaluate(evanescent, (0.8, 2.0))
    expected = np.exp(-0.75 * 0.8 + 1.25j * 2.0)
    assert s.psi == pytest.approx(expected, rel=1e-14)
    assert s.grad_psi[0] == pytest.approx(-0.75 * expected, rel=1e-14)
    assert s.grad_psi[1] == pytest.approx(1.25j * expected, rel=1e-14)


def test_evanescent_satisfies_helmholtz_dispersion(evanescent):
    # exp(-kappa x + i k_z z) solves the wave equation iff k_z^2 - kappa^2 = k^2
    k = evanescent.wave.k
    assert evanescent.k_z**2 - evanescent.kappa**2 == pytest.approx(k * k, rel=1e-15)


# ---------------------------------------------------------------------- tir


def test_tir_fresnel_coefficients_and_continuity(tir_field):
    waves = tir_field.partial_waves()
    assert len(waves) == 2
    for amp, kx, kz, kappa, r, t in waves:
        assert abs(abs(r) - 1.0) < 1e-12
        assert abs((1.0 + r) - t) < 1e-12
        assert kz * kz - kappa * kappa == pytest.approx(tir_field.wave.k ** 2, rel=1e-12)
        k_glass = tir_field.n * tir_field.wave.k
        assert kx * kx + kz * kz == pytest.approx(k_glass * k_glass, rel=1e-13)

    # psi and d(psi)/dx continuous across x = 0 (checked by tight Taylor step)
    eps = 1e-8
    for z in (0.0, 1.1, 7.5):
        g = pf.evaluate(tir_field, (-eps, z))
        a = pf.evaluate(tir_field, (+eps, z))
        scale = abs(a.psi)
        assert abs(g.psi - a.psi) < 1e-6 * scale
        assert abs(g.grad_psi[0] - a.grad_psi[0]) < 1e-5 * scale


def test_tir_glass_side_matches_cosine_form(tir_field):
    # r = e^{-2 i delta} with tan(delta) = kappa/k_x turns each glass-side
    # wave into 2 amp e^{-i delta} cos(k_x x + delta) e^{i k_z z}
    rng = np.random.RandomState(9)
    waves = tir_field.partial_waves()
    for _ in range(40):
        x = rng.uniform(-2.0, -1e-6)
        z = rng.uniform(0.0, 12.0)
        expected = 0j
        for amp, kx, kz, kappa, _, _ in waves:
            delta = math.atan2(kappa, kx)
            expected += (
                2.0 * amp
                * np.exp(-1j * delta)
                * math.cos(kx * x + delta)
                * np.exp(1j * kz * z)
            )
        got = pf.evaluate(tir_field, (x, z)).psi
        assert abs(got - expected) <= 1e-12 * max(abs(expected), 1e-6)


def test_tir_air_side_decays_with_both_kappas(tir_field):
    waves = tir_field.partial_waves()
    z = 0.7
    x = 1.5
    expected = sum(
        amp * t * np.exp(-kappa * x + 1j * kz * z)
        for amp, _, kz, kappa, _, t in waves
    )
    got = pf.evaluate(tir_field, (x, z)).psi
    assert abs(got - expected) <= 1e-13 * abs(expected)


def test_tir_deep_in_the_glass_does_not_overflow():
    # the air side, exp(+kappa |x|) here, is not evaluated at x < 0; the suite turns the
    # overflow warning its evaluation would raise into an error
    spec = pf.TirTwoWaveSpec(wave=pf.WaveParameters(0.5), n=2.0, theta1=1.2, theta2=1.3)
    s = pf.evaluate(spec, (-50.0, 0.0))
    psi, gx, gz = spec._glass(np.array(-50.0), np.array(0.0))
    assert np.array([s.psi, *s.grad_psi]).tobytes() == np.array([psi, gx, gz]).tobytes()


# ------------------------------------------------------------- serialization


ALL_SPECS = [
    pf.PlaneWaveSpec(wave=pf.WaveParameters(0.5), direction=(0.6, 0.8)),
    pf.PlaneWaveSpec(wave=pf.WaveParameters(0.5), direction=(1.0, 2.0, 2.0)),
    pf.GaussianPairSpec(wave=pf.WaveParameters(0.943e-3), w0_mm=0.608, a_mm=2.345),
    pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=-3, k_perp=0.2),
    pf.EvanescentSpec(wave=pf.WaveParameters(TWO_PI), kappa=0.75),
    make_tir(),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_field_dict_round_trip(spec):
    data = pf.field_to_dict(spec)
    assert data["family"] == spec.family
    rebuilt = pf.field_from_dict(data)
    assert rebuilt == spec
    # a second lap must be the identity on the dict too
    assert pf.field_to_dict(rebuilt) == data


# the largest local wavenumber sets the vortex search's resolution limit: k, except
# k_z = hypot(k, kappa) for the evanescent wave and n k in TIR's glass
@pytest.mark.parametrize("spec, ndim, bound", zip(ALL_SPECS, (2, 3, 2, 3, 2, 2), (
    2.0 * TWO_PI,              # plane wave, lambda 0.5
    2.0 * TWO_PI,
    TWO_PI / 0.943e-3,         # gaussian pair
    TWO_PI,                    # bessel, lambda 1
    math.hypot(1.0, 0.75),     # evanescent, k = 1
    1.5 * TWO_PI,              # tir, n = 1.5 and lambda 1
)), ids=["plane_wave_2d", "plane_wave_3d", "gaussian_pair", "bessel", "evanescent", "tir"])
def test_each_family_states_its_frame_size_and_largest_wavenumber(spec, ndim, bound):
    assert spec.ndim == ndim
    assert spec.max_wavenumber() == pytest.approx(bound, rel=1e-15)


def test_field_from_dict_rejects_unknown_keys():
    data = pf.field_to_dict(ALL_SPECS[0])
    data["typo"] = 1
    with pytest.raises(ParameterError, match="unknown"):
        pf.field_from_dict(data)


def test_field_from_dict_rejects_missing_and_unknown_family():
    with pytest.raises(ParameterError):
        pf.field_from_dict({"lambda_mm": 1.0})
    with pytest.raises(ParameterError):
        pf.field_from_dict({"family": "hypergeometric", "lambda_mm": 1.0})
    with pytest.raises(ParameterError, match="lambda_mm"):
        pf.field_from_dict({"family": "bessel", "ell": 1, "k_perp_per_mm": 0.2})


@pytest.mark.parametrize("family, key", [
    ("plane_wave", "direction"),
    ("gaussian_pair", "w0_mm"), ("gaussian_pair", "a_mm"),
    ("bessel", "ell"), ("bessel", "k_perp_per_mm"),
    ("evanescent", "kappa_per_mm"),
    ("tir_two_wave", "n"), ("tir_two_wave", "theta1_rad"), ("tir_two_wave", "theta2_rad"),
])
def test_field_from_dict_names_the_missing_key(family, key):
    data = next(s for s in ALL_SPECS if s.family == family).to_dict()
    del data[key]
    with pytest.raises(ParameterError) as exc:
        pf.field_from_dict(data)
    assert str(exc.value) == f"{family} spec is missing '{key}'"


def test_tir_amplitudes_default_to_one():
    data = make_tir().to_dict()
    del data["amp1"], data["amp2"]
    spec = pf.field_from_dict(data)
    assert (spec.amp1, spec.amp2) == (1.0, 1.0)


def test_field_from_dict_accepts_integral_float_ell():
    data = {"family": "bessel", "lambda_mm": 1.0, "ell": 2.0, "k_perp_per_mm": 0.3}
    spec = pf.field_from_dict(data)
    assert spec.ell == 2 and isinstance(spec.ell, int)
    direct = pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=-2.0, k_perp=0.3)
    assert direct.ell == -2 and isinstance(direct.ell, int)
    for ell in (2.5, math.inf, math.nan):
        with pytest.raises(ParameterError, match="ell must be an integer"):
            pf.field_from_dict({**data, "ell": ell})


# --------------------------------------------------------------- validation


def test_constructor_rejections():
    wave = pf.WaveParameters(1.0)
    with pytest.raises(ParameterError):
        pf.WaveParameters(0.0)
    with pytest.raises(ParameterError):
        pf.WaveParameters(float("nan"))
    with pytest.raises(ParameterError):
        pf.PlaneWaveSpec(wave=wave, direction=(0.0, 0.0))
    with pytest.raises(ParameterError):
        pf.PlaneWaveSpec(wave=wave, direction=(1.0,))
    with pytest.raises(ParameterError):
        pf.GaussianPairSpec(wave=wave, w0_mm=0.0, a_mm=1.0)
    with pytest.raises(ParameterError):
        pf.GaussianPairSpec(wave=wave, w0_mm=1.0, a_mm=-0.1)
    with pytest.raises(ParameterError):
        pf.BesselSpec(wave=wave, ell=1, k_perp=wave.k)  # must stay below k
    with pytest.raises(ParameterError):
        pf.BesselSpec(wave=wave, ell=1.5, k_perp=0.1)
    with pytest.raises(ParameterError):
        pf.EvanescentSpec(wave=wave, kappa=0.0)
    with pytest.raises(ParameterError):
        pf.TirTwoWaveSpec(wave=wave, n=1.0, theta1=1.0, theta2=1.1)
    with pytest.raises(ParameterError):
        make_tir_zero_amps()


def make_tir_zero_amps():
    return pf.TirTwoWaveSpec(
        wave=pf.WaveParameters(1.0), n=1.5,
        theta1=TIR_THETA1, theta2=TIR_THETA1 + 0.05,
        amp1=0.0, amp2=0.0,
    )


def test_sub_critical_angle_is_a_regime_error():
    # below critical there is no evanescent transmission to build
    with pytest.raises(RegimeError):
        pf.TirTwoWaveSpec(
            wave=pf.WaveParameters(1.0), n=1.5, theta1=0.3, theta2=TIR_THETA1
        )


def test_evaluate_rejects_wrong_dimension(gaussian_pair, bessel_ell2):
    with pytest.raises(ParameterError):
        pf.evaluate(gaussian_pair, (0.0, 0.0, 0.0))
    with pytest.raises(ParameterError):
        pf.evaluate(bessel_ell2, (0.0, 0.0))


POINT_CALLS = {
    "evaluate": pf.evaluate,
    "poynting_decomposition": lambda spec, point: pf.poynting_decomposition(
        spec, pf.PolarizationState.circular(), point),
    "optical_force": lambda spec, point: pf.optical_force(
        spec, pf.Polarizability(1e-3 + 1e-4j), point),
    "apply_calcite": lambda spec, point: pf.apply_calcite(
        spec, pf.CalciteSpec(delta_x=1e-5), point),
}


@pytest.mark.parametrize("call", POINT_CALLS.values(), ids=POINT_CALLS.keys())
@pytest.mark.parametrize("spec, point, shape", [
    (ALL_SPECS[2], (0.1, 0.2, 0.3), (3,)),
    (ALL_SPECS[2], [0.1], (1,)),
    (ALL_SPECS[2], ((0.1, 0.2), (0.3, 0.4)), (2, 2)),
    (ALL_SPECS[2], np.zeros((1, 2)), (1, 2)),
    (ALL_SPECS[3], (0.1, 0.2), (2,)),
], ids=["three", "one", "nested", "row", "bessel-two"])
def test_every_point_call_names_a_point_of_the_wrong_shape(call, spec, point, shape):
    message = (f"^{type(spec).__name__} expects a point with {spec.ndim} coordinates, "
               f"got shape {re.escape(str(shape))}$")
    with pytest.raises(ParameterError, match=message):
        call(spec, point)


@pytest.mark.parametrize("call", POINT_CALLS.values(), ids=POINT_CALLS.keys())
@pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
def test_every_point_call_names_a_non_finite_point(call, point):
    message = f"^point {re.escape(str(point))} has a non-finite coordinate$"
    with pytest.raises(ParameterError, match=message):
        call(ALL_SPECS[0], point)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_every_point_form_gives_the_same_bits(spec):
    def bits(point):
        sample = pf.evaluate(spec, point)
        dec = POINT_CALLS["poynting_decomposition"](spec, point)
        return [(type(v).__name__, np.asarray(v).tobytes())
                for v in (sample.psi, sample.grad_psi, sample.amplitude, dec.P_O, dec.P_S, dec.W,
                          *POINT_CALLS["optical_force"](spec, point),
                          *POINT_CALLS["apply_calcite"](spec, point))]

    for first in (0.37, -0.21):  # both sides of the TIR interface
        point = (first, 0.9, 1.3)[:spec.ndim]
        want = bits(point)
        for form in (list(point), np.array(point), tuple(map(np.float64, point)),
                     np.array(point)[None, :][0]):
            assert bits(form) == want


def test_field_sample_phase_raises_at_zero():
    sample = pf.FieldSample(psi=0j, grad_psi=np.array([0j, 0j]), k=1.0)
    assert sample.amplitude == 0.0
    with pytest.raises(pf.SingularPointError):
        sample.phase


def test_field_sample_phase_is_the_argument_of_psi():
    for psi, phase in ((1 + 1j, math.pi / 4), (-2 + 0j, math.pi), (-1j, -math.pi / 2)):
        assert pf.FieldSample(psi=psi, grad_psi=np.array([0j, 0j]), k=1.0).phase == phase


def test_grid_needs_one_range_per_axis():
    with pytest.raises(ParameterError, match=r"one \(lo, hi\) range per axis required"):
        pf.GridSpec(axes=("x", "z"), ranges=((0.0, 1.0),), counts=(2, 2))


def test_grid_range_whose_width_overflows_is_rejected():
    # finite and ordered, but hi - lo overflows, so coords and spacing would be inf or nan
    with pytest.raises(ParameterError, match=r"^the z range \(-1e\+308, 1e\+308\) is too wide: "
                                             r"hi - lo overflows$"):
        pf.GridSpec(axes=("x", "z"), ranges=((0.0, 1.0), (-1e308, 1e308)), counts=(3, 3))
    grid = pf.GridSpec(axes=("x", "z"), ranges=((0.0, 1.0), (-8e307, 8e307)), counts=(3, 3))
    assert np.isfinite(grid.coords(1)).all() and math.isfinite(grid.spacing(1))


def test_grid_counts_are_whole_numbers():
    ranges = ((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ParameterError, match=r"^sample counts must be whole numbers, "
                                             r"got \(2.9, 3\)$"):
        pf.GridSpec(axes=("x", "z"), ranges=ranges, counts=(2.9, 3))
    grid = pf.GridSpec(axes=("x", "z"), ranges=ranges, counts=(64.0, np.int64(3)))
    assert grid.counts == (64, 3) and all(type(c) is int for c in grid.counts)


def test_gaussian_waist_rule_admits_the_extremes_it_can_evaluate():
    for w0 in (1e-76, 1e76):  # zR and zR^2 stay finite and positive
        spec = pf.GaussianPairSpec(wave=pf.WaveParameters(1.0), w0_mm=w0, a_mm=0.0)
        assert np.isfinite(pf.local_momentum(pf.evaluate(spec, (0.0, 1.0))).p).all()


def test_grid_sample_amplitude_is_computed_once(bessel_ell2):
    grid = pf.GridSpec(axes=("x", "y"), ranges=((-1, 1), (-1, 1)), counts=(5, 4),
                       fixed=(("z", 0.0),))
    sample = pf.grids.sample_grid(bessel_ell2, grid)
    amp = sample.amplitude
    assert sample.amplitude is amp
    assert np.array_equal(amp, np.abs(sample.psi))

