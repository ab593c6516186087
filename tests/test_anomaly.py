"""Phase winding, vortex detection, momentum-bound labeling."""

import math

import numpy as np
import pytest

import photonflow as pf
from photonflow.errors import ParameterError, ResolutionError
from photonflow.observables import singular_cells

from conftest import TWO_PI, wrap


# ------------------------------------------------------------ angle wrapping


def test_wrap_angle_branch():
    assert pf.wrap_angle(0.0) == 0.0
    assert pf.wrap_angle(math.pi) == pytest.approx(math.pi)
    assert pf.wrap_angle(-math.pi) == pytest.approx(math.pi)  # half-open at -pi
    assert pf.wrap_angle(1.5 * math.pi) == pytest.approx(-0.5 * math.pi)
    assert pf.wrap_angle(-1.5 * math.pi) == pytest.approx(0.5 * math.pi)
    assert pf.wrap_angle(7.0 * math.pi) == pytest.approx(math.pi)
    arr = pf.wrap_angle(np.array([0.1, 2 * math.pi + 0.1, -0.3]))
    assert arr == pytest.approx([0.1, 0.1, -0.3])


# ------------------------------------------------------------- loop winding


def test_phase_winding_counts_full_turns():
    t = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    for ell in (-3, -1, 0, 1, 2, 5):
        winding = pf.phase_winding(ell * t)
        assert winding == pytest.approx(TWO_PI * ell, abs=1e-12)


def test_phase_winding_rejects_undersampled_loops():
    t = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    with pytest.raises(ResolutionError):
        pf.phase_winding(17 * t)  # per-step jump exceeds pi/2
    with pytest.raises(ParameterError):
        pf.phase_winding([0.0, 1.0])  # a loop needs at least 3 samples


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_winding_rejects_a_non_finite_phase(bad):
    # a NaN step compares false against pi/2, so it would pass the undersampling check
    with pytest.raises(ParameterError, match=f"^phase sample must be finite, got {bad!r}$"):
        pf.phase_winding([0.0, bad, 1.0])


@pytest.mark.parametrize("shape", [(4,), (1, 4), (4, 1), (2, 2, 2)])
def test_plaquette_winding_needs_a_2d_array_of_at_least_2x2(shape):
    with pytest.raises(ParameterError, match="need a 2D phase array"):
        pf.plaquette_winding(np.zeros(shape))


def test_plaquette_sum_telescopes_to_boundary_winding():
    # interior edges cancel to rounding, so the sum over all plaquettes
    # must equal the winding around the outer boundary
    rng = np.random.RandomState(8)
    x = np.linspace(-1.0, 1.0, 30)
    y = np.linspace(-1.0, 1.0, 30)
    yy, xx = np.meshgrid(y, x, indexing="ij")
    # smooth random superposition with a handful of embedded zeros
    psi = (xx + 1j * yy - 0.3 + 0.1j) * (xx - 1j * yy + 0.2 + 0.4j)
    for _ in range(3):
        a, b = rng.uniform(-1, 1, 2)
        psi = psi * np.exp(1j * (a * xx + b * yy))
    phases = np.angle(psi)
    plq = pf.plaquette_winding(phases)
    boundary = np.concatenate(
        [phases[0, :-1], phases[:-1, -1], phases[-1, :0:-1], phases[:0:-1, 0]]
    )
    assert plq.shape == (29, 29)
    assert plq.sum() == pytest.approx(pf.phase_winding(boundary), abs=1e-9)


def test_charge_additivity_for_two_displaced_vortex_beams(bessel_ell2):
    # superposing two displaced ell = 2 beams rearranges the zeros, but
    # the total winding through any boundary still matches the sum of
    # the plaquette charges inside it
    n = 401
    x = np.linspace(-2.003, 2.003, n)
    y = np.linspace(-2.003, 2.003, n)
    yy, xx = np.meshgrid(y, x, indexing="ij")
    zz = np.zeros_like(xx)
    psi = (
        bessel_ell2.psi_grad(xx - 0.8, yy, zz)[0]
        + bessel_ell2.psi_grad(xx + 0.8, yy, zz)[0]
    )
    phases = np.angle(psi)
    plq = pf.plaquette_winding(phases)
    boundary = np.concatenate(
        [phases[0, :-1], phases[:-1, -1], phases[-1, :0:-1], phases[:0:-1, 0]]
    )
    total = pf.phase_winding(boundary)
    assert plq.sum() == pytest.approx(total, abs=1e-9)
    charges = np.rint(plq[np.abs(plq) > math.pi] / TWO_PI).astype(int)
    assert charges.sum() == int(round(total / TWO_PI)) == 2


# ---------------------------------------------------------- vortex detection


def bessel_grid(half=0.4, counts=40):
    return pf.GridSpec(
        axes=("x", "y"),
        ranges=((-half, half), (-half, half)),
        counts=(counts, counts),
        fixed=(("z", 0.0),),
    )


def test_detects_central_charge_two_vortex(bessel_ell2):
    records = pf.detect_vortices(bessel_ell2, bessel_grid())
    assert len(records) == 1
    rec = records[0]
    assert rec.charge == 2
    assert abs(rec.residual) < 1e-6
    assert math.hypot(rec.position[0], rec.position[1]) < 0.02
    assert len(rec.position) == 3 and rec.position[2] == 0.0


def test_detected_charge_follows_ell_sign():
    minus = pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=-2, k_perp=0.05 * TWO_PI)
    records = pf.detect_vortices(minus, bessel_grid())
    assert [r.charge for r in records] == [-2]


def test_axis_order_sets_winding_orientation(bessel_ell2):
    # swapping the two grid axes reverses the loop orientation
    swapped = pf.GridSpec(
        axes=("y", "x"),
        ranges=((-0.4, 0.4), (-0.4, 0.4)),
        counts=(40, 40),
        fixed=(("z", 0.0),),
    )
    records = pf.detect_vortices(bessel_ell2, swapped)
    assert [r.charge for r in records] == [-2]


def test_node_on_grid_point_is_skipped_not_crashed(bessel_ell2):
    # odd counts put a sample exactly on the core: those plaquettes are
    # dropped, and the classifier reports the node as singular instead
    grid = bessel_grid(counts=41)
    assert pf.detect_vortices(bessel_ell2, grid) == []
    amap = pf.classify_anomalies(bessel_ell2, grid)
    assert amap.counts["singular"] == 1


def test_plane_wave_has_no_vortices(plane_wave):
    grid = pf.GridSpec(
        axes=("x", "z"), ranges=((-1.0, 1.0), (-1.0, 1.0)), counts=(30, 30)
    )
    assert pf.detect_vortices(plane_wave, grid) == []


def test_tir_glass_vortex_rows(tir_field):
    # first interference row sits near z = 0.35 mm; all four cores in
    # x in (-2, 0) carry charge +1
    grid = pf.GridSpec(
        axes=("x", "z"), ranges=((-2.0, 0.0), (0.1, 0.6)), counts=(81, 21)
    )
    records = pf.detect_vortices(tir_field, grid)
    assert [r.charge for r in records] == [1, 1, 1, 1]
    xs = sorted(r.position[0] for r in records)
    assert xs == pytest.approx([-1.8625, -1.3625, -0.8375, -0.3375], abs=0.03)
    assert all(abs(r.position[1] - 0.348) < 0.03 for r in records)

    # half a standing-wave period later the charges flip sign
    lower = pf.GridSpec(
        axes=("x", "z"), ranges=((-2.0, 0.0), (5.9, 6.5)), counts=(81, 25)
    )
    flipped = pf.detect_vortices(tir_field, lower)
    assert flipped and all(r.charge == -1 for r in flipped)


def test_refinement_evaluates_each_midpoint_once(tir_field, monkeypatch):
    # an interior edge belongs to two plaquettes, yet it is refined once
    grid = pf.GridSpec(
        axes=("x", "z"), ranges=((-2.0, 0.0), (0.1, 0.6)), counts=(81, 21)
    )
    points = []
    psi_grad = pf.TirTwoWaveSpec.psi_grad

    def recording(self, *coords):
        coords = np.broadcast_arrays(*coords)
        if coords[0].shape != (21, 81):  # not the grid sample itself
            points.extend(zip(*(c.ravel().tolist() for c in coords)))
        return psi_grad(self, *coords)

    monkeypatch.setattr(pf.TirTwoWaveSpec, "psi_grad", recording)
    records = pf.detect_vortices(tir_field, grid)
    assert [r.charge for r in records] == [1, 1, 1, 1]
    assert points and len(set(points)) == len(points)


def reference_vortices(spec, grid):
    """(position, charge, residual) per vortex, from a per-plaquette loop
    that bisects each side recursively with scalar point evaluations."""
    psi = spec.psi_grad(*grid.mesh(spec.ndim))[0]
    floor, singular = singular_cells(np.abs(psi))
    ph = np.angle(psi)
    c1, c2 = grid.coords(0), grid.coords(1)

    def point(u, v):
        return tuple(float(c) for c in grid.frame_coords(spec.ndim, u, v))

    def side(pa, ph_a, pb, ph_b, depth=0):
        d = float(wrap(ph_b - ph_a))
        if abs(d) <= 0.5 * math.pi:
            return d
        assert depth < 32
        pm = tuple(0.5 * (a + b) for a, b in zip(pa, pb))
        psi_m = complex(spec.psi_grad(*pm)[0])
        assert abs(psi_m) > floor
        ph_m = math.atan2(psi_m.imag, psi_m.real)
        return side(pa, ph_a, pm, ph_m, depth + 1) + side(pm, ph_m, pb, ph_b, depth + 1)

    found = []
    for j in range(len(c2) - 1):
        for i in range(len(c1) - 1):
            loop = [(j, i), (j, i + 1), (j + 1, i + 1), (j + 1, i)]
            if any(singular[n] for n in loop):
                continue
            pts = [point(c1[n[1]], c2[n[0]]) for n in loop]
            total = sum(side(pts[a], ph[loop[a]], pts[(a + 1) % 4], ph[loop[(a + 1) % 4]])
                        for a in range(4))
            charge = round(total / TWO_PI)
            if charge:
                centre = point(0.5 * (c1[i] + c1[i + 1]), 0.5 * (c2[j] + c2[j + 1]))
                found.append((centre, charge, abs(total / TWO_PI - charge)))
    return found


@pytest.mark.parametrize("case", ["tir", "tir-lower", "bessel-2", "bessel-3-off-centre"])
def test_refinement_matches_the_per_plaquette_reference(case, tir_field):
    # same records as the loop; residuals may move by rounding only (array
    # and scalar evaluations differ in the last bit, and the reference sums
    # directed sides)
    spec, grid = {
        "tir": (tir_field, pf.GridSpec(axes=("x", "z"), ranges=((-2.0, 0.0), (0.1, 0.6)),
                                       counts=(81, 21))),
        "tir-lower": (tir_field, pf.GridSpec(axes=("x", "z"), ranges=((-2.0, 0.0), (5.9, 6.5)),
                                             counts=(81, 25))),
        "bessel-2": (pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=2, k_perp=0.05 * TWO_PI),
                     bessel_grid()),
        "bessel-3-off-centre": (
            pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=3, k_perp=0.05 * TWO_PI),
            pf.GridSpec(axes=("y", "x"), ranges=((-0.13, 0.09), (-0.07, 0.15)),
                        counts=(12, 12), fixed=(("z", 0.4),))),
    }[case]
    records = pf.detect_vortices(spec, grid)
    expected = reference_vortices(spec, grid)
    assert records and [(r.position, r.charge) for r in records] == [e[:2] for e in expected]
    assert [r.residual for r in records] == pytest.approx([e[2] for e in expected], abs=1e-15)


def off_centre_grids(ell):
    """15 seeded 12x12 grids whose Bessel axis sits 0.25-0.75 spacings from
    the nearest nodes, off the plaquette centre, each with its (h, fx, fy)."""
    rng = np.random.RandomState(100 + ell)
    for _ in range(15):
        h = rng.uniform(0.01, 0.1)
        fx, fy = rng.uniform(0.25, 0.75, 2)
        grid = pf.GridSpec(
            axes=("x", "y"),
            ranges=((-(5 + fx) * h, (6 - fx) * h), (-(5 + fy) * h, (6 - fy) * h)),
            counts=(12, 12),
            fixed=(("z", 0.0),),
        )
        yield (h, fx, fy), grid


@pytest.mark.parametrize("ell", [-3, -2, -1, 0, 1, 2, 3])
def test_off_centre_axis_charges_sum_to_ell(ell):
    # high charges may split over neighbouring plaquettes
    # (anomaly-charge-split), but the total is conserved
    spec = pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=ell, k_perp=0.05 * TWO_PI)
    for where, grid in off_centre_grids(ell):
        records = pf.detect_vortices(spec, grid)
        assert sum(r.charge for r in records) == ell, where


SPLITS = pytest.mark.xfail(strict=True, reason="anomaly-charge-split")


@pytest.mark.parametrize("ell", [pytest.param(-3, marks=SPLITS), -2, -1, 0, 1, 2,
                                 pytest.param(3, marks=SPLITS)])
def test_off_centre_axis_gives_one_record_of_charge_ell(ell):
    spec = pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=ell, k_perp=0.05 * TWO_PI)
    for where, grid in off_centre_grids(ell):
        charges = [r.charge for r in pf.detect_vortices(spec, grid)]
        assert charges == ([ell] if ell else []), where


def test_tir_air_side_is_vortex_free(tir_field):
    grid = pf.GridSpec(
        axes=("x", "z"), ranges=((0.01, 1.0), (0.0, 12.0)), counts=(41, 241)
    )
    assert pf.detect_vortices(tir_field, grid) == []


def refuse_to_sample(monkeypatch):
    def refuse(*args):
        raise AssertionError("the grid was sampled before the options were checked")

    monkeypatch.setattr(pf.anomaly, "_row_pass", refuse)


def test_coarse_grid_raises_resolution_error(tir_field, bessel_ell2, monkeypatch):
    # shortest wavelength in glass is (1/1.5) mm; spacing must stay
    # under an eighth of that
    coarse = pf.GridSpec(
        axes=("x", "z"), ranges=((-2.0, 0.0), (0.0, 2.0)), counts=(9, 9)
    )
    with monkeypatch.context() as m, pytest.raises(ResolutionError):
        refuse_to_sample(m)  # checked before the grid is sampled
        pf.detect_vortices(tir_field, coarse)
    ok = pf.GridSpec(axes=("x", "z"), ranges=((-0.2, 0.0), (0.0, 0.2)), counts=(9, 9))
    pf.detect_vortices(tir_field, ok)  # fine spacing passes the same check


# ------------------------------------------------------------ classification


def test_evanescent_half_space_is_superluminal(evanescent):
    grid = pf.GridSpec(
        axes=("x", "z"), ranges=((0.0, 3.0), (-5.0, 5.0)), counts=(30, 40)
    )
    amap = pf.classify_anomalies(evanescent, grid)
    assert amap.counts == {
        "normal": 0, "backflow": 0, "superluminal": 1200, "singular": 0,
    }
    # |re p| = k_z > k everywhere, so the superoscillation flag is global
    assert bool(amap.fast.all())
    assert amap.guard == 0.0


def test_plane_wave_is_entirely_normal(plane_wave):
    grid = pf.GridSpec(
        axes=("x", "z"), ranges=((-1.0, 1.0), (-1.0, 1.0)), counts=(25, 25)
    )
    amap = pf.classify_anomalies(plane_wave, grid)
    assert amap.counts["normal"] == 625
    assert amap.label_names().shape == amap.labels.shape
    assert set(np.unique(amap.label_names())) == {"normal"}
    # |re p| equals k exactly here, so the strict > comparison inside the
    # fast flag is a rounding coin flip cell by cell; assert instead that
    # no cell exceeds the bound by more than float noise
    k = plane_wave.wave.k
    psi, grads = plane_wave.psi_grad(*grid.mesh(plane_wave.ndim))
    amp2 = np.abs(psi) ** 2
    mag = np.hypot(*((np.conj(psi) * g).imag / amp2 for g in grads))
    assert np.abs(mag - k).max() <= 1e-12 * k


def test_paraxial_excess_needs_the_guard(gaussian_pair):
    # on-axis p_z sits ~1e-5 above k near the waist; the strict bound
    # flags it, a 1e-4 guard absorbs it; backflow shows up in neither
    grid = pf.GridSpec(
        axes=("x", "z"), ranges=((-4.0, 4.0), (0.0, 3000.0)), counts=(100, 150)
    )
    strict = pf.classify_anomalies(gaussian_pair, grid)
    assert strict.counts["superluminal"] > 0
    assert strict.counts["backflow"] == 0
    assert strict.counts["singular"] == 0
    guarded = pf.classify_anomalies(gaussian_pair, grid, superluminal_guard=1e-4)
    assert guarded.counts["superluminal"] == 0
    assert guarded.counts["normal"] == 15000
    assert guarded.guard == 1e-4


def test_piecewise_bound_uses_glass_index(tir_field):
    grid = pf.GridSpec(
        axes=("x", "z"), ranges=((-1.0, 1.0), (0.0, 2.0)), counts=(41, 41)
    )
    amap = pf.classify_anomalies(tir_field, grid, bound_model="piecewise")
    k = tir_field.wave.k
    glass = amap.grid.coords(0) < 0.0
    assert np.all(amap.bound[:, glass] == 1.5 * k)
    assert np.all(amap.bound[:, ~glass] == k)
    # uniform bound on the same field calls glass-side cells above k
    # superluminal that the piecewise bound accepts
    uniform = pf.classify_anomalies(tir_field, grid, bound_model="uniform")
    assert uniform.counts["superluminal"] > amap.counts["superluminal"]


@pytest.mark.parametrize("axes", [("x", "z"), ("z", "x")])
@pytest.mark.parametrize("bound_model", ["uniform", "piecewise"])
def test_the_bound_is_a_read_only_broadcast_to_the_grid(tir_field, axes, bound_model):
    grid = pf.GridSpec(axes=axes, ranges=((-1.0, 1.0), (-0.5, 1.0)), counts=(9, 6))
    amap = pf.classify_anomalies(tir_field, grid, bound_model=bound_model)
    assert amap.bound.shape == amap.labels.shape == (6, 9)
    assert not amap.bound.flags.writeable
    k = tir_field.wave.k
    x = np.broadcast_arrays(*grid.mesh(2))[0]
    glass = 1.5 * k if bound_model == "piecewise" else k
    assert np.array_equal(amap.bound, np.where(x < 0.0, glass, k))


def test_classifier_validation(gaussian_pair, tir_field, monkeypatch):
    grid = pf.GridSpec(
        axes=("x", "z"), ranges=((-1.0, 1.0), (0.0, 1.0)), counts=(10, 10)
    )
    refuse_to_sample(monkeypatch)  # each option is checked before the grid is sampled
    with pytest.raises(ParameterError):
        pf.classify_anomalies(gaussian_pair, grid, bound_model="piecewise")
    with pytest.raises(ParameterError):
        pf.classify_anomalies(tir_field, grid, bound_model="adaptive")
    with pytest.raises(ParameterError):
        pf.classify_anomalies(gaussian_pair, grid, superluminal_guard=-1e-6)


def test_labels_enumeration_is_stable():
    assert pf.LABELS == ("normal", "backflow", "superluminal", "singular")
