"""Streamline tracer: straight lines, helices, stopping causes."""

import math

import numpy as np
import pytest
from scipy.special import jn_zeros, jnp_zeros

import photonflow as pf
from photonflow.errors import ParameterError, SeedError

from conftest import make_tir


def box2(x=5.0, z=(0.0, 10.0)):
    return ((-x, x), z)


# ------------------------------------------------------------ straight lines


def test_axial_plane_wave_paraxial_trace_is_straight():
    spec = pf.PlaneWaveSpec(wave=pf.WaveParameters(1.0), direction=(0.0, 1.0))
    cfg = pf.TraceConfig(
        seeds=((0.7, 0.0), (-1.2, 0.0)),
        parameterization="paraxial-z",
        step=0.25,
        max_steps=100,
        domain=box2(),
    )
    trajs = pf.trace_streamline(spec, cfg, "re")
    assert len(trajs) == 2
    for traj, x0 in zip(trajs, (0.7, -1.2)):
        assert traj.termination == "left-domain"
        assert traj.params[-1] == 10.0  # lands on the boundary exactly
        assert np.all(traj.points[:, 0] == x0)  # zero transverse velocity
        assert np.all(traj.points[:, 1] == traj.params)


def test_tilted_plane_wave_trace_has_constant_slope(plane_wave):
    # direction (0.6, 0.8): dx/dz = 0.75
    cfg = pf.TraceConfig(
        seeds=((0.0, 0.0),),
        parameterization="paraxial-z",
        step=0.5,
        max_steps=100,
        domain=((-20.0, 20.0), (0.0, 10.0)),
    )
    traj = pf.trace_streamline(plane_wave, cfg, "re")[0]
    expected = 0.75 * traj.params
    assert np.abs(traj.points[:, 0] - expected).max() < 1e-12


def test_arc_length_parameterization_tracks_distance(plane_wave):
    cfg = pf.TraceConfig(
        seeds=((0.0, 0.0),),
        parameterization="arc-length",
        step=0.05,
        max_steps=150,
        domain=((-100.0, 100.0), (-100.0, 100.0)),
    )
    traj = pf.trace_streamline(plane_wave, cfg, "re")[0]
    assert traj.termination == "max-steps"
    dist = np.linalg.norm(traj.points - traj.points[0], axis=1)
    assert np.abs(dist - traj.params).max() < 1e-10
    # unit-speed: each increment advances by one step
    gaps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
    assert np.abs(gaps - 0.05).max() < 1e-12


def test_gaussian_pair_axial_seed_stays_on_axis(gaussian_pair):
    cfg = pf.TraceConfig(
        seeds=((0.0, 0.0),),
        parameterization="paraxial-z",
        step=1.0,
        max_steps=400,
        domain=((-10.0, 10.0), (0.0, 300.0)),
    )
    traj = pf.trace_streamline(gaussian_pair, cfg, "re")[0]
    # the mirror symmetry of the pair holds bitwise, so the axis is invariant
    assert np.all(traj.points[:, 0] == 0.0)
    assert traj.termination == "left-domain"


def test_paraxial_points_carry_the_z_ladder_exactly(gaussian_pair):
    cfg = pf.TraceConfig(seeds=((0.3, 0.5),), parameterization="paraxial-z", step=7.0,
                         max_steps=400, domain=((-10.0, 10.0), (0.0, 100.0)))
    traj = pf.trace_streamline(gaussian_pair, cfg, "re")[0]
    # z is the parameter itself: 0.5 + 7 n, then the last step lands on z_hi
    assert np.array_equal(traj.points[:, -1], traj.params)
    assert traj.params.tolist() == [0.5 + 7.0 * n for n in range(15)] + [100.0]
    assert traj.termination == "left-domain"


def test_bessel_ell0_trace_is_axial():
    spec = pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=0, k_perp=0.5)
    cfg = pf.TraceConfig(
        seeds=((0.5, 0.2, 0.0),),
        parameterization="paraxial-z",
        step=0.05,
        max_steps=300,
        domain=((-2.0, 2.0), (-2.0, 2.0), (0.0, 10.0)),
    )
    traj = pf.trace_streamline(spec, cfg, "re")[0]
    assert np.all(traj.points[:, 0] == 0.5)
    assert np.all(traj.points[:, 1] == 0.2)
    assert traj.params[-1] == 10.0


# ------------------------------------------------------------------- helices


def test_bessel_helix_matches_closed_form(helix_bessel):
    spec = helix_bessel
    r0, phi0, z_end = 0.5, 0.3, 10.0
    traj = pf.trace_bessel_helix(spec, r0=r0, phi0=phi0, z_end=z_end)
    assert traj.termination == "left-domain"
    assert traj.params[-1] == z_end
    r = np.hypot(traj.points[:, 0], traj.points[:, 1])
    assert np.abs(r - r0).max() < 1e-8  # radius conserved
    phi = np.unwrap(np.arctan2(traj.points[:, 1], traj.points[:, 0]))
    expected = phi0 + 2.0 * traj.params / (spec.k_z * r0 * r0)
    assert np.abs(phi - expected).max() < 1e-6
    # the advance is genuinely helical: many radians over 10 mm
    assert expected[-1] - phi0 > 10.0


def test_helix_from_negative_ell_winds_backwards():
    spec = pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=-2, k_perp=0.8863766617893787)
    traj = pf.trace_bessel_helix(spec, r0=0.5, phi0=0.0, z_end=1.0)
    phi = np.unwrap(np.arctan2(traj.points[:, 1], traj.points[:, 0]))
    assert phi[-1] < -1.0


def test_rk4_convergence_is_fourth_order():
    # endpoint drift between consecutive halvings must shrink ~16x;
    # the field is curved enough here that truncation dominates roundoff
    spec = pf.GaussianPairSpec(wave=pf.WaveParameters(0.5), w0_mm=1.0, a_mm=1.5)

    def endpoint(h):
        cfg = pf.TraceConfig(
            seeds=((0.7, 0.0),),
            parameterization="paraxial-z",
            step=h,
            max_steps=int(round(40.0 / h)) + 10,
            domain=((-60.0, 60.0), (0.0, 40.0)),
        )
        traj = pf.trace_streamline(spec, cfg, "re")[0]
        assert traj.termination == "left-domain" and traj.params[-1] == 40.0
        return traj.points[-1, 0]

    e1, e2, e4 = endpoint(1.0), endpoint(0.5), endpoint(0.25)
    order = math.log2(abs(e1 - e2) / abs(e2 - e4))
    assert order >= 3.5


# --------------------------------------------------------- osmotic (im) flow


def test_im_trace_of_bessel_is_radial_and_finds_bright_ring(bessel_ell2):
    ring = jnp_zeros(2, 1)[0] / bessel_ell2.k_perp  # first intensity maximum
    cfg = pf.TraceConfig(
        seeds=((5.0, 0.0, 0.0), (3.0, 4.0, 0.0)),
        parameterization="arc-length",
        step=0.01,
        max_steps=3000,
        domain=((-12.0, 12.0), (-12.0, 12.0), (-1.0, 1.0)),
    )
    trajs = pf.trace_streamline(bessel_ell2, cfg, "im")
    for traj in trajs:
        # purely radial: azimuth and z never move
        ang = np.arctan2(traj.points[:, 1], traj.points[:, 0])
        assert np.abs(ang - ang[0]).max() < 1e-12
        assert np.abs(traj.points[:, 2]).max() < 1e-12
        # walks up the intensity gradient and parks on the ring
        r_final = np.hypot(traj.points[-1, 0], traj.points[-1, 1])
        assert abs(r_final - ring) < 0.05
        assert traj.termination == "max-steps"


def test_im_trace_descends_from_outside_the_ring(bessel_ell2):
    ring = jnp_zeros(2, 1)[0] / bessel_ell2.k_perp
    cfg = pf.TraceConfig(
        seeds=((11.0, 0.0, 0.0),),
        parameterization="arc-length",
        step=0.01,
        max_steps=3000,
        domain=((-12.0, 12.0), (-12.0, 12.0), (-1.0, 1.0)),
    )
    traj = pf.trace_streamline(bessel_ell2, cfg, "im")[0]
    r = np.hypot(traj.points[:, 0], traj.points[:, 1])
    assert r[0] > r[-1]  # pulled inward toward the maximum
    assert abs(r[-1] - ring) < 0.05


# ----------------------------------------------------------- stopping causes


def count_point_evaluations(monkeypatch, family):
    calls = []
    psi_grad = family.psi_grad

    def counting(self, *coords):
        calls.append(coords)
        return psi_grad(self, *coords)

    monkeypatch.setattr(family, "psi_grad", counting)
    return calls


def test_max_steps_bounds_the_point_count(monkeypatch, plane_wave):
    calls = count_point_evaluations(monkeypatch, pf.PlaneWaveSpec)
    cfg = pf.TraceConfig(
        seeds=((0.0, 0.0),),
        parameterization="paraxial-z",
        step=0.1,
        max_steps=3,
        domain=((-50.0, 50.0), (0.0, 1000.0)),
    )
    traj = pf.trace_streamline(plane_wave, cfg, "re")[0]
    assert traj.termination == "max-steps"
    assert len(traj.params) == 4  # seed plus three steps
    # no halvings on a plane wave: each point is evaluated once (its
    # momentum is also its step's k1), plus three later stages per step
    assert len(calls) == 4 * 3 + 1


def test_near_axis_vortex_stops_paraxial_trace(monkeypatch, bessel_ell2):
    # azimuthal velocity ~ ell/(r k_z) is over the guard at the seed itself;
    # k1 does not depend on the step, so the trace stops without halving
    calls = count_point_evaluations(monkeypatch, pf.BesselSpec)
    cfg = pf.TraceConfig(
        seeds=((1e-4, 0.0, 0.0),),
        parameterization="paraxial-z",
        step=0.01,
        max_steps=100,
        domain=((-1.0, 1.0), (-1.0, 1.0), (0.0, 5.0)),
    )
    traj = pf.trace_streamline(bessel_ell2, cfg, "re")[0]
    assert traj.termination == "vortex-proximity"
    assert np.array_equal(traj.points, [[1e-4, 0.0, 0.0]])
    assert len(calls) == 1


def test_tir_trace_funnels_into_glass_vortex(monkeypatch, tir_field):
    calls = count_point_evaluations(monkeypatch, pf.TirTwoWaveSpec)
    cfg = pf.TraceConfig(
        seeds=((-1.7, 0.0),),
        parameterization="paraxial-z",
        step=0.002,
        max_steps=3000,
        domain=((-2.5, 0.5), (0.0, 2.0)),
    )
    traj = pf.trace_streamline(tir_field, cfg, "re")[0]
    assert traj.termination == "vortex-proximity"
    assert len(traj.params) == 600  # travels, then stalls at the core
    assert np.abs(traj.points[-1] - (-1.8351674014904238, 1.197)).max() < 1e-12
    assert traj.points[-1, 0] < 0.0  # still in the glass
    assert len(calls) < 4.1 * len(traj.params)  # a few halvings on top of 4 per step


def test_consecutive_points_stay_within_twice_the_step(tir_field):
    cfg = pf.TraceConfig(
        seeds=((-1.0, 0.05),),
        parameterization="arc-length",
        step=0.02,
        max_steps=2000,
        domain=((-2.5, 0.0), (0.0, 12.0)),
    )
    traj = pf.trace_streamline(tir_field, cfg, "re")[0]
    assert traj.termination == "left-domain"
    gaps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
    assert gaps.max() <= 2.0 * cfg.step + 1e-12


def zero_psi(psi, grads):
    return 0.0 * psi, grads


def blow_up_grad(psi, grads):  # |grad psi| 1e9 times too large fails the vortex guard
    return psi, tuple(1e9 * g for g in grads)


class FaultAt:
    """spec, with fault(psi, grads) applied exactly at the given points (tuples);
    coords may be 0-d or arrays."""

    def __init__(self, spec, points, fault):
        self.spec, self.wave, self.ndim = spec, spec.wave, spec.ndim
        self.points, self.fault = points, fault

    def psi_grad(self, *coords):
        psi, grads = self.spec.psi_grad(*coords)
        hit = np.zeros(np.shape(coords[0]), dtype=bool)
        for point in self.points:
            hit |= np.logical_and.reduce([c == v for c, v in zip(coords, point)])
        bad_psi, bad_grads = self.fault(psi, grads)
        return (np.where(hit, bad_psi, psi),
                tuple(np.where(hit, b, g) for b, g in zip(bad_grads, grads)))


PAIR_1E3 = pf.GaussianPairSpec(wave=pf.WaveParameters(1e-3), w0_mm=0.5, a_mm=1.0)


def test_zero_amplitude_mid_trace_stops_with_equal_length_arrays():
    spec = PAIR_1E3
    cfg = pf.TraceConfig(
        seeds=((0.7, 0.0),),
        parameterization="paraxial-z",
        step=20.0,
        max_steps=1000,
        domain=((-10.0, 10.0), (0.0, 1000.0)),
    )
    reference = pf.trace_streamline(spec, cfg, "re")[0]
    zero_at = tuple(reference.points[3])
    # the Gaussian pair, with psi = 0 exactly at the reference's 4th point
    traj = pf.trace_streamline(FaultAt(spec, [zero_at], zero_psi), cfg, "re")[0]
    assert traj.termination == "singular-amplitude"
    assert len(traj.params) == len(traj.points) == len(traj.momenta) == 3
    assert np.array_equal(traj.points, reference.points[:3])


def test_each_bundle_row_stops_for_its_own_cause():
    cfg = pf.TraceConfig(
        seeds=((0.7, 0.0), (-0.4, 0.0), (9.5, 0.0), (0.2, 0.0)),
        parameterization="paraxial-z",
        step=20.0,
        max_steps=30,
        domain=((-10.0, 10.0), (0.0, 1000.0)),
    )
    reference = pf.trace_streamline(PAIR_1E3, cfg, "re")
    assert [len(t.params) for t in reference] == [31, 31, 14, 31]
    # psi = 0 at the first row's 4th point, and the second row's 3rd point over the guard
    faulty = FaultAt(FaultAt(PAIR_1E3, [tuple(reference[0].points[3])], zero_psi),
                     [tuple(reference[1].points[2])], blow_up_grad)
    bundle = pf.trace_streamline(faulty, cfg, "re")
    assert [t.termination for t in bundle] == [
        "singular-amplitude", "vortex-proximity", "left-domain", "max-steps"]
    for traj, ref, n in zip(bundle, reference, (3, 3, 14, 31)):
        assert len(traj.params) == len(traj.points) == len(traj.momenta) == n
        assert np.array_equal(traj.params, ref.params[:n])
        assert np.array_equal(traj.points, ref.points[:n])
        assert np.array_equal(traj.momenta[:2], ref.momenta[:2])
    assert np.array_equal(bundle[0].momenta, reference[0].momenta[:3])


STAGE_FAULTS = pytest.mark.parametrize("fault, params, termination", [
    (blow_up_grad, [0.0, 10.0, 30.0], "left-domain"),  # the step halves to 10 mm
    (zero_psi, [0.0], "singular-amplitude"),  # a zero at the stage ends the trajectory
], ids=["vortex-guard", "zero"])


@STAGE_FAULTS
def test_fault_at_an_rk4_stage(fault, params, termination):
    spec = pf.GaussianPairSpec(wave=pf.WaveParameters(1e-3), w0_mm=0.5, a_mm=1.0)
    cfg = pf.TraceConfig(
        seeds=((0.7, 0.0),),
        parameterization="paraxial-z",
        step=20.0,
        max_steps=1000,
        domain=((-10.0, 10.0), (0.0, 1000.0)),
    )
    calls = []

    class Recorder:
        wave, ndim = spec.wave, spec.ndim

        def psi_grad(self, *coords):
            calls.append(coords)
            return spec.psi_grad(*coords)

    reference = pf.trace_streamline(Recorder(), cfg, "re")[0]
    assert list(reference.params[:3]) == [0.0, 20.0, 40.0]
    stage = calls[1]  # the seed is the first call, the first step's k2 stage the second

    class FaultAtStage:
        wave, ndim = spec.wave, spec.ndim

        def psi_grad(self, *coords):
            psi, grads = spec.psi_grad(*coords)
            return fault(psi, grads) if coords == stage else (psi, grads)

    traj = pf.trace_streamline(FaultAtStage(), cfg, "re")[0]
    assert list(traj.params[:3]) == params
    assert traj.termination == termination
    assert len(traj.params) == len(traj.points) == len(traj.momenta)


@STAGE_FAULTS
def test_fault_at_an_rk4_stage_of_one_bundle_seed(fault, params, termination):
    cfg = pf.TraceConfig(
        seeds=((0.7, 0.0), (-0.3, 0.0)),
        parameterization="paraxial-z",
        step=20.0,
        max_steps=1000,
        domain=((-10.0, 10.0), (0.0, 1000.0)),
    )
    calls = []

    class Recorder:
        wave, ndim = PAIR_1E3.wave, PAIR_1E3.ndim

        def psi_grad(self, *coords):
            calls.append(tuple(np.copy(c) for c in coords))
            return PAIR_1E3.psi_grad(*coords)

    reference = pf.trace_streamline(Recorder(), cfg, "re")
    stage = tuple(c[0] for c in calls[1])  # the first seed's k2 stage of the first step

    traj, other = pf.trace_streamline(FaultAt(PAIR_1E3, [stage], fault), cfg, "re")
    assert list(traj.params[:3]) == params
    assert traj.termination == termination
    assert len(traj.params) == len(traj.points) == len(traj.momenta)
    assert np.array_equal(other.points, reference[1].points)  # the other seed steps on
    assert other.termination == reference[1].termination


def test_a_bundle_evaluates_all_its_seeds_in_one_call_per_stage(monkeypatch, gaussian_pair):
    calls = count_point_evaluations(monkeypatch, pf.GaussianPairSpec)
    half = gaussian_pair.a_mm + gaussian_pair.w0_mm
    cfg = pf.TraceConfig(
        seeds=tuple((x, 0.0) for x in np.linspace(-half, half, 17)),  # the CLI's default fan
        parameterization="paraxial-z",
        step=2.0,
        max_steps=400,
        domain=((-20.0, 20.0), (0.0, 100.0)),
    )
    trajs = pf.trace_streamline(gaussian_pair, cfg, "re")
    longest = max(len(t.params) for t in trajs)
    assert longest == 51 and all(t.termination == "left-domain" for t in trajs)
    # each point once, three later stages per step: as many calls as one seed alone needs
    assert len(calls) <= 4 * longest + 1
    assert all(np.shape(coords[0]) == (17,) for coords in calls)


def test_a_stopped_seed_is_never_evaluated_again(monkeypatch, plane_wave):
    calls = count_point_evaluations(monkeypatch, pf.PlaneWaveSpec)
    cfg = pf.TraceConfig(  # dx/dz = 0.75: the first seed crosses x = 1 after two steps
        seeds=((0.5, 0.0), (-9.0, 0.0)),
        parameterization="paraxial-z",
        step=0.5,
        max_steps=100,
        domain=((-10.0, 1.0), (0.0, 10.0)),
    )
    first, second = pf.trace_streamline(plane_wave, cfg, "re")
    assert first.termination == second.termination == "left-domain"
    assert len(first.params) == 2 and len(second.params) == 21
    # each of the first seed's points is evaluated once, then the three later
    # stages of the step that leaves it; every call after those holds only the second seed
    widths = [np.shape(coords[0]) for coords in calls]
    shared = 4 * len(first.params)
    assert widths == [(2,)] * shared + [(1,)] * (len(calls) - shared)
    assert all(coords[0][0] < 0.0 for coords in calls[shared:])


# ------------------------------------------------------------- non-crossing


def test_gaussian_bundle_preserves_seed_order(gaussian_pair):
    xs = (-3.0, -1.5, 0.0, 1.5, 3.0)
    cfg = pf.TraceConfig(
        seeds=tuple((x, 0.0) for x in xs),
        parameterization="paraxial-z",
        step=1.0,
        max_steps=4000,
        domain=((-40.0, 40.0), (0.0, 3000.0)),
    )
    trajs = pf.trace_streamline(gaussian_pair, cfg, "re")
    n = min(len(t.params) for t in trajs)
    for t in trajs:
        assert np.all(t.params[:n] == trajs[0].params[:n])  # shared z ladder
    bundle = np.stack([t.points[:n, 0] for t in trajs], axis=1)
    assert np.all(np.diff(bundle, axis=1) > 0.0)  # order never inverts


# --------------------------------------------------------------- structure


def test_trajectory_records_momenta_alongside_points(evanescent):
    cfg = pf.TraceConfig(
        seeds=((0.5, 0.0),),
        parameterization="arc-length",
        step=0.1,
        max_steps=10,
        domain=((-5.0, 5.0), (-5.0, 5.0)),
    )
    traj = pf.trace_streamline(evanescent, cfg, "re")[0]
    assert traj.which == "re"
    assert traj.parameterization == "arc-length"
    assert traj.momenta.shape == traj.points.shape
    assert traj.momenta.dtype == complex
    # evanescent momenta are position-independent: (i kappa, k_z) everywhere
    assert np.allclose(traj.momenta[:, 0], 0.75j, rtol=0, atol=1e-12)
    assert np.allclose(traj.momenta[:, 1], 1.25, rtol=0, atol=1e-12)


# --------------------------------------------------------------- validation


def test_trace_config_validation():
    dom = ((-1.0, 1.0), (0.0, 1.0))
    good = dict(seeds=((0.0, 0.5),), parameterization="paraxial-z",
                step=0.1, max_steps=10, domain=dom)
    pf.TraceConfig(**good)
    with pytest.raises(ParameterError):
        pf.TraceConfig(**{**good, "parameterization": "euler"})
    with pytest.raises(ParameterError):
        pf.TraceConfig(**{**good, "step": 0.0})
    with pytest.raises(ParameterError):
        pf.TraceConfig(**{**good, "max_steps": 0})
    with pytest.raises(ParameterError):
        pf.TraceConfig(**{**good, "seeds": ()})
    with pytest.raises(ParameterError):
        pf.TraceConfig(**{**good, "vortex_guard": 0.5})
    with pytest.raises(ParameterError):
        pf.TraceConfig(**{**good, "seeds": ((0.0, 0.5, 0.0),)})


def test_trace_rejects_bad_which_and_bad_seed(plane_wave, bessel_ell2):
    cfg = pf.TraceConfig(
        seeds=((0.0, 0.5),), parameterization="arc-length",
        step=0.1, max_steps=10, domain=((-1.0, 1.0), (0.0, 1.0)),
    )
    with pytest.raises(ParameterError):
        pf.trace_streamline(plane_wave, cfg, "abs")
    outside = pf.TraceConfig(
        seeds=((5.0, 0.5),), parameterization="arc-length",
        step=0.1, max_steps=10, domain=((-1.0, 1.0), (0.0, 1.0)),
    )
    with pytest.raises(SeedError):
        pf.trace_streamline(plane_wave, outside, "re")
    second_outside = pf.TraceConfig(  # a bundle checks every seed, not just the first
        seeds=((0.0, 0.5), (5.0, 0.5)), parameterization="arc-length",
        step=0.1, max_steps=10, domain=((-1.0, 1.0), (0.0, 1.0)),
    )
    with pytest.raises(SeedError, match=r"seed \(5.0, 0.5\) outside domain"):
        pf.trace_streamline(plane_wave, second_outside, "re")
    on_axis = pf.TraceConfig(
        seeds=((0.0, 0.0, 0.0),), parameterization="paraxial-z",
        step=0.1, max_steps=10,
        domain=((-1.0, 1.0), (-1.0, 1.0), (0.0, 1.0)),
    )
    with pytest.raises(SeedError):  # zero amplitude at the vortex core
        pf.trace_streamline(bessel_ell2, on_axis, "re")
    planar_seed = pf.TraceConfig(  # seed and domain agree, the field's frame does not
        seeds=((0.5, 0.0),), parameterization="paraxial-z",
        step=0.1, max_steps=10, domain=((-1.0, 1.0), (0.0, 1.0)),
    )
    with pytest.raises(ParameterError, match=r"seed \(0.5, 0.0\) has 2 coordinates but "
                                             "the field frame has 3"):
        pf.trace_streamline(bessel_ell2, planar_seed, "re")


def test_helix_validation(helix_bessel, gaussian_pair):
    with pytest.raises(ParameterError):
        pf.trace_bessel_helix(gaussian_pair, r0=0.5, phi0=0.0, z_end=1.0)
    with pytest.raises(ParameterError):
        pf.trace_bessel_helix(helix_bessel, r0=-0.5, phi0=0.0, z_end=1.0)
    with pytest.raises(ParameterError):
        pf.trace_bessel_helix(helix_bessel, r0=0.5, phi0=0.0, z_end=0.0)
    # seeding exactly on a radial null of J_2 cannot start a streamline
    null_r = jn_zeros(2, 1)[0] / helix_bessel.k_perp
    with pytest.raises(SeedError):
        pf.trace_bessel_helix(helix_bessel, r0=null_r, phi0=0.0, z_end=1.0)
