"""Calcite pointer readout of the local momentum."""

import math
import warnings

import numpy as np
import pytest

import photonflow as pf
from photonflow.errors import DegeneratePointerError, ParameterError, SingularPointError


def readout(spec, cal, point):
    ex, ey = pf.apply_calcite(spec, cal, point)
    return pf.momentum_from_stokes(pf.exact_stokes(ex, ey), cal)


def true_px(spec, point):
    mom = pf.local_momentum(pf.evaluate(spec, point))
    return float(mom.re_p[0]), float(mom.im_p[0])


def test_apply_calcite_shifts_only_the_x_component(gaussian_pair):
    cal = pf.CalciteSpec(delta_x=1e-4)
    pt = (0.7, 10.0)
    ex, ey = pf.apply_calcite(gaussian_pair, cal, pt)
    psi_shift = pf.evaluate(gaussian_pair, (pt[0] - 1e-4, pt[1])).psi
    psi_here = pf.evaluate(gaussian_pair, pt).psi
    assert ex == cal.pol.ex * psi_shift
    assert ey == cal.pol.ey * psi_here


def test_zero_shift_returns_input_polarization(gaussian_pair):
    cal = pf.CalciteSpec(delta_x=0.0)
    ex, ey = pf.apply_calcite(gaussian_pair, cal, (0.3, 5.0))
    s = pf.exact_stokes(ex, ey)
    assert s.as_tuple() == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)


def test_readout_reconstructs_momentum_at_the_midpoint(gaussian_pair):
    # the inversion is second-order accurate at x - delta_x/2: halving
    # delta_x must shrink the midpoint error by about 4
    rng = np.random.RandomState(31)
    for _ in range(5):
        pt = (rng.uniform(-3, 3), rng.uniform(1.0, 2000.0))
        errs = []
        for dx in (1e-4, 5e-5):
            cal = pf.CalciteSpec(delta_x=dx)
            re_r, im_r = readout(gaussian_pair, cal, pt)
            re_t, im_t = true_px(gaussian_pair, (pt[0] - dx / 2.0, pt[1]))
            errs.append(math.hypot(re_r - re_t, im_r - im_t))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.6)


def test_readout_is_only_first_order_at_the_sample_point(gaussian_pair):
    # against the unshifted point the error only halves with delta_x,
    # which is what makes the midpoint convention worth stating
    pt = (1.3, 40.0)
    errs = []
    for dx in (1e-4, 5e-5):
        cal = pf.CalciteSpec(delta_x=dx)
        re_r, im_r = readout(gaussian_pair, cal, pt)
        re_t, im_t = true_px(gaussian_pair, pt)
        errs.append(math.hypot(re_r - re_t, im_r - im_t))
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.4)


def test_exact_stokes_stays_near_s2_for_small_shift(gaussian_pair):
    cal = pf.CalciteSpec(delta_x=1e-4)
    ex, ey = pf.apply_calcite(gaussian_pair, cal, (0.9, 25.0))
    s = pf.exact_stokes(ex, ey)
    assert 1.0 - s.s2 < 1e-5  # perturbation is O(delta_x) in s1/s3 only
    assert abs(s.s1) < 1e-2 and abs(s.s3) < 1e-2
    assert s.norm_sq == pytest.approx(1.0, rel=1e-12)  # fully polarized


def test_predicted_stokes_matches_exact_to_second_order(gaussian_pair):
    pt = (0.4, 300.0)
    mom = pf.local_momentum(pf.evaluate(gaussian_pair, pt))
    diffs = []
    for dx in (2e-4, 1e-4):
        cal = pf.CalciteSpec(delta_x=dx)
        exact = pf.exact_stokes(*pf.apply_calcite(gaussian_pair, cal, pt))
        pred = pf.predicted_stokes(mom, cal)
        diffs.append(
            max(abs(exact.s1 - pred.s1), abs(exact.s2 - pred.s2), abs(exact.s3 - pred.s3))
        )
    assert diffs[0] / diffs[1] == pytest.approx(4.0, abs=1.0)


def test_predicted_stokes_is_unit_norm():
    mom = pf.ComplexMomentum(p=np.array([3.0 + 2.0j, 6.0 + 0j]), k=6.0)
    s = pf.predicted_stokes(mom, pf.CalciteSpec(delta_x=0.05))
    assert s.norm_sq == pytest.approx(1.0, rel=1e-14)
    assert s.s3 / s.s2 == pytest.approx(0.05 * 3.0, rel=1e-14)
    assert s.s1 / s.s2 == pytest.approx(0.05 * 2.0, rel=1e-14)


def test_large_shift_warns_on_gaussian(gaussian_pair):
    cal = pf.CalciteSpec(delta_x=0.01)  # w0/100 = 6.08e-3 mm
    with pytest.warns(UserWarning, match="w0/100") as record:
        pf.apply_calcite(gaussian_pair, cal, (0.0, 1.0))
    with pytest.warns(UserWarning, match="w0/100") as grid_record:
        pf.weakmeasure.calcite_fields(gaussian_pair, cal, (np.zeros((1, 3)), 1.0), np.ones((1, 3)))
    # the caller's line, so that the default filter shows it once per call site
    assert [r.filename for r in (*record, *grid_record)] == [__file__, __file__]


def test_small_shift_does_not_warn(gaussian_pair):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pf.apply_calcite(gaussian_pair, pf.CalciteSpec(delta_x=1e-4), (0.0, 1.0))


def test_non_gaussian_families_never_warn(evanescent):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pf.apply_calcite(evanescent, pf.CalciteSpec(delta_x=0.5), (1.0, 0.0))


def test_zero_delta_inversion_is_degenerate():
    s = pf.StokesVector(s1=0.0, s2=1.0, s3=0.0)
    with pytest.raises(DegeneratePointerError):
        pf.momentum_from_stokes(s, pf.CalciteSpec(delta_x=0.0))


def test_exact_stokes_raises_at_zero_intensity():
    with pytest.raises(SingularPointError):
        pf.exact_stokes(0j, 0j)


def test_stokes_vector_validation():
    with pytest.raises(ParameterError):
        pf.StokesVector(s1=1.2, s2=0.0, s3=0.0)
    with pytest.raises(ParameterError):
        pf.StokesVector(s1=0.9, s2=0.9, s3=0.0)  # norm exceeds 1
    with pytest.raises(ParameterError):
        pf.StokesVector(s1=float("nan"), s2=0.0, s3=0.0)
    s = pf.StokesVector(s1=0.6, s2=0.8, s3=0.0)
    assert s.norm_sq == pytest.approx(1.0)


def test_calcite_spec_validation():
    with pytest.raises(ParameterError):
        pf.CalciteSpec(delta_x=float("inf"))
    with pytest.raises(ParameterError):
        pf.apply_calcite(
            pf.PlaneWaveSpec(wave=pf.WaveParameters(1.0), direction=(0, 1)),
            pf.CalciteSpec(delta_x=0.1),
            (0.0, 0.0, 0.0),
        )
