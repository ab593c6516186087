"""Properties that must hold bit for bit across evaluation paths.

A grid's field is one array evaluation of its open axes.  Any sub-rectangle
of its dense nodes, strided or contiguous, evaluated on its own must give
exactly the matching slice of the whole: an element's value may not depend
on the array around it.  The two-wave TIR field picks a side per node, so its
blocks include both sides, one side only and the node at x = 0.0.  The
last case has more than 16384 nodes, so its complex arrays pass 256 KiB,
where numpy starts to reuse temporaries in place, and its blocks do not.
Likewise a point of a batch of 1000, on a grid node or between nodes,
equals the same point evaluated alone as a length-1 array.  A grid sample on
open axes, and its calcite-shifted copy, equal the same evaluations on the
dense nodes, and every family fills the whole grid on every axis pair, with
and without a fixed coordinate.  The TIR field evaluates its glass side on
the open axes, so seeded all-glass, all-air, straddling (with a node at
x = 0.0, which is air) and two-node grids, and criterion 05's 800x800 grid,
each x first and z first, are compared with the dense evaluation too, as is
an x of one entry against a z array and the other way round, and an x axis
whose glass and air entries interleave.  A grid sampled a block of rows at a
time, for every family, any grid and any block height down to one row, equals
one evaluation of the whole grid.

Physics holds on every grid: P_O / W equals re_p / k to rounding, and the
winding of two adjacent blocks adds up to that of their union.  The anomaly
job, in row blocks of any height with a one-row halo, gives the records,
residuals, labels, counts and fast cells of the whole sample, on TIR grids in
either axis order, on a Bessel vortex between a block and its halo row and on
a Gaussian pair.  Each refined vortex winding is whole turns to rounding, on
off-centre Bessel grids and on TIR grids across the interface, and a Bessel
grid's vortex set moves with the grid when both axes shift by whole spacings.

A traced bundle is one set of array evaluations per RK4 stage, and the same
holds for its rows: row i of a bundle equals seed i traced in a bundle with
any one other seed, whichever of the two stops first and for whatever cause.

Valid or not, a `trace`, `fieldmap`, `stokes`, `force` or `anomaly`
command line ends in exit 0 or 2, never in exit 1.  The drawn `trace`
command lines span every field family, mode and orientation, with seeds
inside the domain, on its edge, outside it and on a field zero.  The drawn
`fieldmap` command lines span every family, with specs that lose a key,
gain one or take an extreme value, every layer, and grids that are
malformed, too coarse, inverted, infinite, far out or off the field's
frame.  The drawn `stokes`, `force` and `anomaly` command lines take the
same specs and grids, with each option of the command or without it: a
calcite shift, a polarizability that is malformed, zero or not finite, a
bound model and a guard.  A `render` of a drawn artifact
ends the same way, whatever its layer holds: NaN and Infinity literals,
numerals beyond a double or beyond 64 bits, ragged rows, a string row,
strings (a lone surrogate among them), objects, booleans, nulls and arrays
nested past json's recursion limit as cells, and vector cells with too few
or non-numeric components; beside the layer may lie a deep array, a second
"L", a lone surrogate or a non-finite literal, and the file may open with a
byte-order mark or hold a byte that is not UTF-8.  render decodes with
orjson and falls back to json.loads, and its exit code, stderr and PGM bytes
equal those of the json.loads path, but for the one documented case of a
valid layer beside a value nested past json's limit.  It writes no PGM when
it exits 2.  The suite turns
RuntimeWarning and DeprecationWarning into errors, so such a warning
inside the command is an exit 1 too.

NaN or an infinity drawn into a point of any point call, a traced seed, a
grid bound or fixed value, a trace domain, a calcite shift or a superluminal
guard, in the library or on a command line, is a ParameterError (exit 2)
whose message names the value.

A float layer's text is the text json.dumps gives its list form, and a trace
CSV is the per-row repr join, for any finite floats, the boundaries of
orjson's range and their neighbours included.  So is a JSON artifact whose
float and label layers are written in blocks of any size.
"""

import contextlib
import io
import json
import math
from dataclasses import replace
from itertools import combinations, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import photonflow as pf
from conftest import TWO_PI, make_tir
from photonflow import artifacts, cli
from photonflow.anomaly import _vortex_rows, _vortices_and_anomalies, anomalies_in_sample
from photonflow.grids import frame_names, sample_grid
from photonflow.observables import local_momentum, poynting_from_sample, singular_cells

TILE_CASES = [
    (pf.PlaneWaveSpec(wave=pf.WaveParameters(0.5), direction=(0.6, 0.8)), "x:-2:2:33,z:0:3:27"),
    (pf.PlaneWaveSpec(wave=pf.WaveParameters(0.5), direction=(1.0, 2.0, 2.0)),
     "x:-1:1:29,y:-1:1:31"),
    (pf.GaussianPairSpec(wave=pf.WaveParameters(0.943e-3), w0_mm=0.608, a_mm=2.345),
     "x:-4:4:37,z:-500:500:25"),
    (pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=-3, k_perp=0.2), "x:-9:9:35,y:-9:9:29"),
    (pf.EvanescentSpec(wave=pf.WaveParameters(TWO_PI), kappa=0.75), "x:-3:3:31,z:0:5:27"),
    (make_tir(), "x:-2:2:41,z:0:3:23"),
    (make_tir(0.5), "z:-1:1:19,x:-1.5:0.5:33"),
    (make_tir(), "x:-2:2:161,z:0:3:121"),
]
RANDOM_BLOCKS = 60


def tir_blocks(grid, shape):
    """Blocks of a TIR mesh: glass only, air only, the x = 0.0 line, straddling."""
    axis = 1 - grid.axes.index("x")  # the array axis along which x varies
    x = grid.coords(grid.axes.index("x"))
    i0 = int(np.flatnonzero(x == 0.0)[0])
    full = slice(None)

    def along_x(sl):
        return (full, sl) if axis == 1 else (sl, full)

    blocks = [along_x(slice(None, i0)), along_x(slice(i0, None)), along_x(slice(i0, i0 + 1)),
              along_x(slice(i0 - 3, i0 + 4)), along_x(slice(i0 - 5, i0 + 6, 2)),
              along_x(slice(i0 - 4, i0 + 5, 4))]
    one = [0, 0]
    one[axis] = i0
    one[1 - axis] = shape[1 - axis] // 2
    blocks.append(tuple(slice(i, i + 1) for i in one))  # the x = 0.0 node alone
    return blocks


def random_blocks(rng, shape):
    blocks = []
    for _ in range(RANDOM_BLOCKS):
        sl = []
        for n in shape:
            lo, hi = sorted(rng.choice(n + 1, size=2, replace=False))
            sl.append(slice(int(lo), int(hi), int(rng.integers(1, 4))))
        blocks.append(tuple(sl))
    return blocks


def as_bytes(psi, grads):
    return [np.asarray(a).tobytes() for a in (psi, *grads)]


@pytest.mark.parametrize("case", range(len(TILE_CASES)),
                         ids=[f"{s.family}-{s.ndim}d-{i}" for i, (s, _) in enumerate(TILE_CASES)])
def test_a_sub_rectangle_equals_its_slice_of_the_grid(case):
    spec, grid_text = TILE_CASES[case]
    grid = pf.GridSpec.from_string(grid_text)
    psi, grads = spec.psi_grad(*grid.mesh(spec.ndim))
    nodes = np.broadcast_arrays(*grid.mesh(spec.ndim))
    shape = psi.shape
    rng = np.random.default_rng([11, case])
    blocks = random_blocks(rng, shape)
    if isinstance(spec, pf.TirTwoWaveSpec):
        blocks += tir_blocks(grid, shape)
    for sl in blocks:
        want = as_bytes(psi[sl], [g[sl] for g in grads])
        views = [c[sl] for c in nodes]  # strided wherever a step exceeds 1
        for coords in (views, [np.ascontiguousarray(v) for v in views]):
            got_psi, got_grads = spec.psi_grad(*coords)
            assert got_psi.shape == psi[sl].shape, sl
            assert as_bytes(got_psi, got_grads) == want, sl


BATCH = 1000  # points per batch: complex arrays under 256 KiB (see TirTwoWaveSpec._glass)


@pytest.mark.parametrize("case", range(len(TILE_CASES)),
                         ids=[f"{s.family}-{s.ndim}d-{i}" for i, (s, _) in enumerate(TILE_CASES)])
def test_a_point_of_a_batch_equals_the_point_alone(case):
    spec, grid_text = TILE_CASES[case]
    mesh = pf.GridSpec.from_string(grid_text).mesh(spec.ndim)
    nodes = np.stack([c.ravel() for c in np.broadcast_arrays(*mesh)])
    rng = np.random.default_rng([13, case])
    # half of the batch on grid nodes (axes, x = 0.0 and fixed coordinates among
    # them), half anywhere in the grid's box
    on_grid = nodes[:, rng.choice(nodes.shape[1], BATCH // 2, replace=False)]
    anywhere = rng.uniform(nodes.min(axis=1), nodes.max(axis=1), (BATCH // 2, len(nodes))).T
    points = np.concatenate([on_grid, anywhere], axis=1)
    psi, grads = spec.psi_grad(*points)
    for i in range(BATCH):
        one = slice(i, i + 1)
        alone = as_bytes(*spec.psi_grad(*points[:, one]))
        assert alone == as_bytes(psi[one], [g[one] for g in grads]), points[:, i]


def test_a_grid_mesh_is_its_open_axes():
    grid = pf.GridSpec.from_string("y:-1:1:5,x:0:2:7", (("z", 0.25),))
    x, y, z = grid.mesh(3)
    assert x.shape == (7, 1) and y.shape == (1, 5)
    assert np.array_equal(x.ravel(), grid.coords(1)) and np.array_equal(y.ravel(), grid.coords(0))
    assert type(z) is float and z == 0.25
    assert type(pf.GridSpec.from_string("x:0:1:3,y:0:1:4").mesh(3)[2]) is float  # z defaults to 0


# over 16384 nodes each, with a fixed coordinate where the frame has one; x
# fixed makes the calcite shift a float
OPEN_CASES = [(spec, text, ()) for spec, text in TILE_CASES] + [
    (TILE_CASES[1][0], "z:-1:1:161,x:-1:1:121", (("y", 0.3),)),
    (TILE_CASES[2][0], "z:-500:500:121,x:-4:4:161", ()),
    (TILE_CASES[3][0], "x:-9:9:161,y:-9:9:121", (("z", 0.25),)),
    (TILE_CASES[3][0], "y:-9:9:161,z:0:5:121", (("x", 0.5),)),
    (TILE_CASES[4][0], "x:-3:3:161,z:0:5:121", ()),
]


@pytest.mark.parametrize("case", range(len(OPEN_CASES)),
                         ids=[f"{c[0].family}-{c[0].ndim}d-{i}" for i, c in enumerate(OPEN_CASES)])
def test_an_open_axes_sample_equals_the_dense_sample(case):
    spec, grid_text, fixed = OPEN_CASES[case]
    grid = pf.GridSpec.from_string(grid_text, fixed)
    cal = pf.CalciteSpec(delta_x=1e-4 * spec.wave.lambda_mm)
    sample = sample_grid(spec, grid)
    shifted = pf.weakmeasure.calcite_fields(spec, cal, grid.mesh(spec.ndim), sample.psi)[0]
    dense = np.broadcast_arrays(*grid.mesh(spec.ndim))
    for coords in (dense, [np.ascontiguousarray(c) for c in dense]):
        psi, grads = spec.psi_grad(*coords)
        assert as_bytes(sample.psi, sample.grad_psi) == as_bytes(psi, grads)
        ex = pf.weakmeasure.calcite_fields(spec, cal, coords, psi)[0]
        assert ex.tobytes() == shifted.tobytes()


def tir_grid(rng, kind):
    """A seeded TIR grid, x first or z first: all glass, all air from x = 0.0,
    straddling x = 0 with a node at exactly 0.0 (air), or with two nodes on
    each axis."""
    n1, n2 = (int(c) for c in rng.integers(2, 90, 2))
    half = rng.uniform(0.05, 4.0)
    x = {"glass": (-half - rng.uniform(0.0, 2.0), -rng.uniform(1e-9, 0.1)),
         "air": (0.0, half), "two-node": (-half, rng.uniform(0.0, 4.0))}.get(kind)
    if kind == "zero":  # a power-of-two spacing: node i0 lands on 0.0 exactly
        step, i0 = 2.0 ** -int(rng.integers(1, 7)), int(rng.integers(1, n1 - 1)) if n1 > 2 else 1
        n1 = max(n1, 3)
        x = (-i0 * step, (n1 - 1 - i0) * step)
    if kind == "two-node":
        n1 = n2 = 2
    z0 = rng.uniform(-5.0, 5.0)
    axes = (("x", x, n1), ("z", (z0, z0 + rng.uniform(0.05, 6.0)), n2))
    if rng.integers(2):
        axes = axes[::-1]
    return pf.GridSpec(*zip(*axes))


def tir_spec(rng):
    n = rng.uniform(1.05, 3.0)
    tc = math.asin(1.0 / n)
    th1, th2 = rng.uniform(tc + 1e-3, 0.5 * math.pi - 1e-3, 2)
    return pf.TirTwoWaveSpec(wave=pf.WaveParameters(rng.uniform(0.3, 3.0)), n=n, theta1=th1,
                             theta2=th2, amp1=rng.uniform(-2.0, 2.0), amp2=rng.uniform(-2.0, 2.0))


@pytest.mark.parametrize("kind", ["glass", "air", "zero", "two-node", "criterion-05"])
def test_a_tir_sample_on_open_axes_equals_the_dense_evaluation(kind):
    """The glass side runs on the open axes (its x entries against the z
    axis), the air side on its dense nodes, with x first or z first; every
    node keeps the bits of the dense evaluation, whose side is picked node by
    node."""
    rng = np.random.default_rng([25, len(kind)])
    if kind == "criterion-05":
        cases = [(make_tir(), pf.GridSpec.from_string(text))
                 for text in ("x:-2.0:2.0:800,z:0.0:4.0:800", "z:0.0:4.0:800,x:-2.0:2.0:800")]
    else:
        cases = [(tir_spec(rng), tir_grid(rng, kind)) for _ in range(25)]
    assert {grid.axes for _, grid in cases} == {("x", "z"), ("z", "x")}
    for spec, grid in cases:
        if kind == "zero":
            assert 0.0 in grid.coords(grid.axes.index("x")) and not spec.in_glass(0.0)
        sample = sample_grid(spec, grid)
        psi, grads = spec.psi_grad(*np.broadcast_arrays(*grid.mesh(2)))
        assert as_bytes(sample.psi, sample.grad_psi) == as_bytes(psi, grads), grid


@pytest.mark.parametrize("one", ["x", "z"])
def test_a_tir_call_with_one_entry_on_one_axis_equals_the_dense_evaluation(one):
    """An x of one entry (a float or a length-1 array) against a z array, or
    the other way round, gives the bits of the same points as equal-length
    arrays."""
    rng = np.random.default_rng([25, ord(one)])
    for i in range(25):
        spec = tir_spec(rng)
        line = rng.uniform(-2.0, 2.0, int(rng.integers(2, 40)))
        entry = rng.uniform(-2.0, 2.0, 1)
        if i % 2:
            entry = float(entry[0])
        coords = (entry, line) if one == "x" else (line, entry)
        psi, grads = spec.psi_grad(*coords)
        want_psi, want_grads = spec.psi_grad(*np.broadcast_arrays(*coords))
        assert psi.shape == want_psi.shape == line.shape
        assert as_bytes(psi, grads) == as_bytes(want_psi, want_grads), coords


def test_a_tir_call_on_an_unsorted_axis_equals_the_dense_evaluation():
    """A grid's x axis puts each side in one run of entries, which psi_grad writes
    through a slice; an x column or row whose sides interleave keeps the mask."""
    rng = np.random.default_rng([25, 2])
    for i in range(25):
        spec = tir_spec(rng)
        x = rng.permutation(np.concatenate([rng.uniform(-2.0, -0.01, 4), rng.uniform(0.0, 2.0, 4)]))
        z = rng.uniform(-2.0, 2.0, int(rng.integers(2, 9)))
        coords = (x[:, None], z[None, :]) if i % 2 else (x[None, :], z[:, None])
        psi, grads = spec.psi_grad(*coords)
        want_psi, want_grads = spec.psi_grad(*np.broadcast_arrays(*coords))
        assert as_bytes(psi, grads) == as_bytes(want_psi, want_grads), coords


FAMILY_SPECS = [spec for spec, _ in TILE_CASES[:6]]


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=[f"{s.family}-{s.ndim}d" for s in FAMILY_SPECS])
def test_every_axis_pair_fills_the_grid(spec):
    names = frame_names(spec.ndim)
    cal = pf.CalciteSpec(delta_x=1e-4 * spec.wave.lambda_mm)
    for axes in permutations(names, 2):
        rest = [(name, 0.25) for name in names if name not in axes]
        for fixed in {(), tuple(rest)}:
            grid = pf.GridSpec(axes=axes, ranges=((-1.0, 1.0), (-0.5, 1.0)), counts=(5, 7),
                               fixed=fixed)
            sample = sample_grid(spec, grid)
            assert sample.psi.shape == (7, 5), (axes, fixed)
            assert sample.grad_psi.shape == (spec.ndim, 7, 5), (axes, fixed)
            ex, _ = pf.weakmeasure.calcite_fields(spec, cal, grid.mesh(spec.ndim), sample.psi)
            assert ex.shape == (7, 5), (axes, fixed)


SAMPLED_GRIDS = 300  # seeded grids per family


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=[f"{s.family}-{s.ndim}d" for s in FAMILY_SPECS])
def test_a_grid_sampled_in_row_blocks_equals_its_whole_evaluation(spec):
    """sample_grid evaluates a block of whole rows at a time into one buffer; for
    any axis pair, range, count and block height, 1-row blocks among them, psi and
    the gradient keep the bits of one evaluation of the whole grid."""
    rng = np.random.default_rng([15, len(spec.family), spec.ndim])
    names = frame_names(spec.ndim)
    heights = set()
    for _ in range(SAMPLED_GRIDS):
        axes = tuple(str(a) for a in rng.permutation(names)[:2])
        ranges = [tuple(sorted(rng.uniform(-3.0, 3.0, 2))) for _ in axes]
        counts = [int(c) for c in rng.integers(2, 40, 2)]
        fixed = tuple((name, float(rng.uniform(-3.0, 3.0))) for name in names if name not in axes)
        grid = pf.GridSpec(axes=axes, ranges=ranges, counts=counts, fixed=fixed)
        height = int(rng.integers(1, counts[1] + 1))
        heights.add(height == 1)
        psi, grads = spec.psi_grad(*grid.mesh(spec.ndim))
        with mock.patch.object(pf.grids, "_BLOCK_CELLS", height * counts[0]):
            sample = sample_grid(spec, grid)
        assert as_bytes(sample.psi, sample.grad_psi) == as_bytes(psi, grads), (grid, height)
    assert heights == {True, False}


# ------------------------------------------------------------------ physics on grids


@pytest.mark.parametrize("case", range(len(TILE_CASES)),
                         ids=[f"{s.family}-{s.ndim}d-{i}" for i, (s, _) in enumerate(TILE_CASES)])
def test_orbital_current_over_energy_density_is_re_p_over_k(case):
    # on non-singular cells where W is a normal float, to 8 ulps of the
    # layer's largest value (3.2 ulps at most on these grids)
    spec, grid_text = TILE_CASES[case]
    sample = sample_grid(spec, pf.GridSpec.from_string(grid_text))
    floor, singular = singular_cells(sample.amplitude)
    dec = poynting_from_sample(sample, pf.PolarizationState.linear_diag())
    ok = ~singular & (dec.W >= np.finfo(float).tiny)
    assert ok.sum() > 0.9 * ok.size
    want = pf.embed3(pf.local_momentum(sample, floor).re_p / spec.wave.k, spec.ndim)[:, ok]
    got = dec.P_O[:, ok] / dec.W[ok]
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * np.abs(want).max()


def loop_winding(ph):
    """Winding (rad) of a phase block's boundary, counterclockwise in (axis1, axis2)."""
    loop = np.concatenate([ph[0, :-1], ph[:-1, -1], ph[-1, :0:-1], ph[:0:-1, 0]])
    return float(pf.wrap_angle(np.diff(np.append(loop, loop[0]))).sum())


WINDING_TOL = 1e-12  # rad; sums over up to 11 x 11 plaquettes are off by 1.4e-14 at most


@settings(max_examples=300)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.tuples(st.integers(3, 12), st.integers(3, 12)),
       axis=st.integers(0, 1), data=st.data())
def test_winding_adds_up_over_adjacent_blocks(seed, shape, axis, data):
    # two blocks share one line of nodes; any phases, so plaquettes of any charge
    ph = np.random.default_rng(seed).uniform(-math.pi, math.pi, shape)
    cut = data.draw(st.integers(1, shape[axis] - 2), label="cut")
    first = np.take(ph, range(cut + 1), axis=axis)
    second = np.take(ph, range(cut, shape[axis]), axis=axis)
    wa, wb, wu = (float(pf.plaquette_winding(p).sum()) for p in (first, second, ph))
    assert abs(wa + wb - wu) <= WINDING_TOL
    for block, w in ((first, wa), (second, wb), (ph, wu)):
        assert abs(w - loop_winding(block)) <= WINDING_TOL  # interior edges cancel
    qa, qb, qu = (round(w / TWO_PI) for w in (wa, wb, wu))
    assert qa + qb == qu
    assert abs(wu - TWO_PI * qu) <= WINDING_TOL


def off_centre_grid(h, counts, lows, shift=(0, 0)):
    """An (x, y) grid at z = 0 of spacing h from lows, moved by whole spacings."""
    ranges = tuple((lo + s * h, lo + (s + n - 1) * h) for lo, n, s in zip(lows, counts, shift))
    return pf.GridSpec(axes=("x", "y"), ranges=ranges, counts=counts, fixed=(("z", 0.0),))


@st.composite
def off_centre_bessel(draw, ells, counts):
    """A Bessel field of a drawn charge and the (h, counts, lows) of a grid whose axis
    sits 0.25-0.75 spacings from its nearest nodes, as test_anomaly's off_centre_grids,
    but at any interior node of a grid of drawn counts."""
    ell = draw(st.sampled_from(ells))
    counts = (draw(counts), draw(counts))
    h = draw(st.floats(0.01, 0.1))
    lows = tuple(-(draw(st.integers(2, n - 3)) + draw(st.floats(0.25, 0.75))) * h
                 for n in counts)
    spec = pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=ell, k_perp=0.05 * TWO_PI)
    return spec, h, counts, lows


@st.composite
def tir_straddling(draw):
    """make_tir() and a grid, in either axis order, whose x range crosses the interface
    and whose z range crosses the row of glass vortices at z = 0.34 mm."""
    h = draw(st.floats(0.01, 0.08))  # under an eighth of the glass wavelength, 1/1.5 mm
    n_x, n_z = draw(st.integers(8, 80)), draw(st.integers(4, 40))
    x_lo = -draw(st.floats(0.1, 0.95)) * (n_x - 1) * h  # the share of the range in glass
    z_lo = 0.34 - draw(st.floats(0.05, 0.95)) * (n_z - 1) * h
    boxes = {"x": ((x_lo, x_lo + (n_x - 1) * h), n_x), "z": ((z_lo, z_lo + (n_z - 1) * h), n_z)}
    axes = draw(st.permutations(("x", "z")))
    return make_tir(), pf.GridSpec(axes=tuple(axes), ranges=tuple(boxes[a][0] for a in axes),
                                   counts=tuple(boxes[a][1] for a in axes))


RESIDUAL_TOL = 1e-12  # turns


@settings(max_examples=150)
@given(case=st.one_of(
    off_centre_bessel(range(-3, 4), st.integers(12, 24)).map(
        lambda c: (c[0], off_centre_grid(*c[1:]))),
    tir_straddling()))
def test_a_refined_winding_is_whole_turns(case):
    # a refined edge step is its end phases' difference plus a multiple of 2 pi,
    # so the node phases cancel around a plaquette and leave whole turns
    spec, grid = case
    for record in pf.detect_vortices(spec, grid):
        assert record.residual <= RESIDUAL_TOL, record


@settings(max_examples=110)
@given(case=off_centre_bessel((-2, -1, 1, 2), st.integers(16, 39)),
       shift=st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_the_vortex_set_moves_with_the_grid(case, shift):
    spec, h, counts, lows = case

    def by_plaquette(s):
        """Records of the grid moved by s on the plaquettes both grids share, as
        {plaquette in the unmoved grid's numbering: (charge, position in spacings
        from the moved grid's first node)}."""
        out = {}
        for record in pf.detect_vortices(spec, off_centre_grid(h, counts, lows, s)):
            at = tuple((record.position[k] - lows[k]) / h - s[k] for k in (0, 1))
            key = tuple(math.floor(u) + d for u, d in zip(at, s))
            if all(max(0, d) <= i <= n - 2 + min(0, d) for i, n, d in zip(key, counts, shift)):
                out[key] = (record.charge, at)
        return out

    still, moved = by_plaquette((0, 0)), by_plaquette(shift)
    assert {k: q for k, (q, _) in still.items()} == {k: q for k, (q, _) in moved.items()}
    for key, (_, at) in still.items():
        assert np.subtract(at, moved[key][1]) == pytest.approx(shift, abs=1e-9)


@st.composite
def bessel_on_a_halo_row(draw):
    """An off-centre Bessel grid and a block height that puts the vortex's plaquette
    in a block's last plaquette row, between the block's last row and its halo row."""
    spec, h, counts, lows = draw(off_centre_bessel((-2, -1, 1, 2), st.integers(12, 30)))
    halo = math.floor(-lows[1] / h) + 1  # the node row above the axis
    height = draw(st.sampled_from([d for d in range(1, halo + 1) if halo % d == 0]))
    return spec, off_centre_grid(h, counts, lows), "uniform", height


@st.composite
def gaussian_pair_grid(draw):
    """A Gaussian pair on a grid under the lambda/8 spacing that reaches past its
    Rayleigh range (0.79 mm), where it runs superluminal, and far enough off axis
    to hold singular cells."""
    spec = pf.GaussianPairSpec(wave=pf.WaveParameters(1.0), w0_mm=0.5, a_mm=1.0)
    n_x, n_z = draw(st.integers(8, 40)), draw(st.integers(8, 40))
    h = draw(st.floats(0.02, 0.12))
    x0, z0 = draw(st.floats(-7.0, 1.0)), draw(st.floats(-1.0, 5.0))
    grid = pf.GridSpec(axes=("x", "z"), ranges=((x0, x0 + (n_x - 1) * h), (z0, z0 + (n_z - 1) * h)),
                       counts=(n_x, n_z))
    return spec, grid, "uniform", draw(st.integers(1, n_z))


# waves 0.05 and 0.5 rad past the critical angle: backflow next to the glass vortices
BACKFLOW_TIR = pf.TirTwoWaveSpec(wave=pf.WaveParameters(1.0), n=1.5,
                                 theta1=math.asin(1.0 / 1.5) + 0.05,
                                 theta2=math.asin(1.0 / 1.5) + 0.5, amp1=1.0, amp2=0.9)


@st.composite
def tir_glass_vortices(draw):
    """make_tir() or BACKFLOW_TIR on a grid, in either axis order, across the
    interface and across the row of glass vortices near z = 0.36 mm that both have."""
    h = draw(st.floats(0.03, 0.08))  # under an eighth of the glass wavelength, 1/1.5 mm
    n_x, n_z = draw(st.integers(20, 50)), draw(st.integers(6, 30))
    x_lo = -draw(st.floats(0.5, 0.95)) * (n_x - 1) * h
    z_lo = 0.36 - draw(st.floats(0.05, 0.95)) * (n_z - 1) * h
    boxes = {"x": ((x_lo, x_lo + (n_x - 1) * h), n_x), "z": ((z_lo, z_lo + (n_z - 1) * h), n_z)}
    axes = tuple(draw(st.permutations(("x", "z"))))
    grid = pf.GridSpec(axes=axes, ranges=tuple(boxes[a][0] for a in axes),
                       counts=tuple(boxes[a][1] for a in axes))
    return (draw(st.sampled_from([make_tir(), BACKFLOW_TIR])), grid,
            draw(st.sampled_from(["uniform", "piecewise"])), draw(st.integers(1, grid.counts[1])))


BLOCK_CASES = {
    "tir": tir_glass_vortices(),
    "bessel-halo": bessel_on_a_halo_row(),
    "gaussian-pair": gaussian_pair_grid(),
}


@pytest.mark.parametrize("kind", sorted(BLOCK_CASES))
@settings(max_examples=40)
@given(data=st.data(), guard=st.sampled_from([0.0, 1e-4]))
def test_the_anomaly_job_in_row_blocks_equals_the_whole_sample(kind, data, guard):
    """The anomaly job keeps psi, labels and fast flags and searches each block of
    rows with the next row as its halo; for any block height its records, with
    their residuals, labels, counts and fast cells keep the bits of the search and
    labelling of the whole sample.  detect_vortices and classify_anomalies are the
    job's two halves."""
    spec, grid, bound, height = data.draw(BLOCK_CASES[kind], label="case")
    sample = sample_grid(spec, grid)
    floor, singular = singular_cells(sample.amplitude)
    want = _vortex_rows(spec, grid, sample.psi, singular, floor)
    want_map = anomalies_in_sample(spec, grid, singular, local_momentum(sample, floor), bound,
                                   guard)
    with mock.patch.object(pf.grids, "_BLOCK_CELLS", height * grid.counts[0]):
        got, got_map = _vortices_and_anomalies(spec, grid, bound, guard)
        vortices = pf.detect_vortices(spec, grid)
        amap = pf.classify_anomalies(spec, grid, bound, guard)
    assert got == want
    assert vortices == want  # the job's records need no label options
    for m in (got_map, amap):
        assert m.labels.tobytes() == want_map.labels.tobytes()
        assert m.counts == want_map.counts
        assert m.fast.tobytes() == want_map.fast.tobytes()


def _tir(n, theta1, theta2, amp1, amp2):
    return pf.TirTwoWaveSpec(wave=pf.WaveParameters(1.0), n=n, theta1=theta1, theta2=theta2,
                             amp1=amp1, amp2=amp2)


TIR_BOX = ((-2.5, 0.5), (0.0, 4.0))
# (field, which, config): every case mixes stop causes, and some seeds stop long before others
BUNDLE_CASES = {
    "gaussian-fan-paraxial": (
        pf.GaussianPairSpec(wave=pf.WaveParameters(1e-3), w0_mm=0.6, a_mm=1.2), "re",
        pf.TraceConfig(seeds=tuple((x, 0.0) for x in np.linspace(-2.4, 2.4, 7)),
                       parameterization="paraxial-z", step=40.0, max_steps=60,
                       domain=((-3.0, 3.0), (0.0, 3000.0)))),
    "tir-arc-re": (
        _tir(1.9, 0.9, 0.99, 0.53, 0.77), "re",
        pf.TraceConfig(seeds=((-1.5, 1.67), (-1.36, 2.36), (-0.68, 0.42), (-0.26, 0.76)),
                       parameterization="arc-length", step=0.05, max_steps=40, domain=TIR_BOX)),
    "tir-arc-im": (
        _tir(1.3, 1.42, 1.25, 0.74, 1.26), "im",
        pf.TraceConfig(seeds=((-0.64, 3.37), (-1.55, 0.69), (-1.86, 3.02), (-0.81, 2.67)),
                       parameterization="arc-length", step=0.05, max_steps=150, domain=TIR_BOX)),
    "tir-paraxial-glass-vortices": (  # step halvings near the cores, and stalls
        make_tir(), "re",
        pf.TraceConfig(seeds=tuple((x, 0.0) for x in (-1.9, -1.7, -1.3, -1.1, -0.8, -0.5)),
                       parameterization="paraxial-z", step=0.01, max_steps=120,
                       domain=((-2.5, 0.5), (0.0, 2.0)))),
    "bessel-arc-im": (  # the first seed is over the vortex guard at once
        pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=2, k_perp=0.5), "im",
        pf.TraceConfig(seeds=((1e-4, 0.0, 0.0), (5.0, 0.0, 0.0), (3.0, 4.0, 0.0),
                              (0.0, 2.0, 0.0), (11.5, 0.0, 0.0)),
                       parameterization="arc-length", step=0.05, max_steps=150,
                       domain=((-12.0, 12.0), (-12.0, 12.0), (-1.0, 1.0)))),
}


def row_bytes(traj):
    return (traj.termination, traj.params.tobytes(), traj.points.tobytes(),
            traj.momenta.tobytes())


@pytest.mark.parametrize("case", BUNDLE_CASES)
def test_a_traced_row_does_not_depend_on_its_bundle(case):
    spec, which, cfg = BUNDLE_CASES[case]
    bundle = pf.trace_streamline(spec, cfg, which)
    want = [row_bytes(traj) for traj in bundle]
    causes = set()  # (shorter row's cause, longer row's cause) of each pair
    for i, j in combinations(range(len(cfg.seeds)), 2):
        pair = pf.trace_streamline(spec, replace(cfg, seeds=(cfg.seeds[i], cfg.seeds[j])), which)
        assert [row_bytes(traj) for traj in pair] == [want[i], want[j]], (i, j)
        short, long = sorted(pair, key=lambda traj: len(traj.params))
        if len(short.params) < len(long.params):
            causes.add((short.termination, long.termination))
    # in some pair one seed stops first, for another cause than the other's
    assert any(a != b for a, b in causes), causes


# ------------------------------------------------------------ trace argv

def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


FIELD_JSON = {
    "plane_wave": st.fixed_dictionaries({
        "lambda_mm": st.just(1.0),
        "direction": st.sampled_from([[0.6, 0.8], [0.0, 1.0], [-0.6, 0.8], [1.0, 0.0],
                                      [0.0, -1.0], [1.0, 2.0, 2.0], [0.0, 0.0, 1.0]])}),
    "gaussian_pair": st.fixed_dictionaries({
        "lambda_mm": st.sampled_from([1.0, 1e-3]), "w0_mm": _floats(0.05, 5.0),
        "a_mm": _floats(0.0, 5.0)}),
    "bessel": st.fixed_dictionaries({
        "lambda_mm": st.just(1.0), "ell": st.integers(-3, 3), "k_perp_per_mm": _floats(0.05, 6.0)}),
    "evanescent": st.fixed_dictionaries({
        "lambda_mm": st.just(1.0), "kappa_per_mm": _floats(0.01, 50.0)}),
    "tir_two_wave": st.fixed_dictionaries({  # past the critical angle for either index
        "lambda_mm": st.just(1.0), "n": st.sampled_from([1.5, 1.9]),
        "theta1_rad": _floats(0.8, 1.5), "theta2_rad": _floats(0.8, 1.5)}),
}
# mostly valid: a seed off the box or on a zero, or a 2D mode on a 3D field, exits 2
SEED_KINDS = ["inside"] * 5 + ["edge"] * 2 + ["outside", "zero"]
MODES = {2: ["paraxial", "arc"] * 2 + ["3d"], 3: ["3d"] * 4 + ["paraxial", "arc"]}


@st.composite
def seed_in(draw, box):
    """A seed inside box, on its edge, outside it or on a field zero."""
    seed = [draw(_floats(lo, hi)) for lo, hi in box]
    kind = draw(st.sampled_from(SEED_KINDS))
    i = draw(st.integers(0, len(box) - 1))
    if kind == "edge":
        seed[i] = box[i][draw(st.integers(0, 1))]
    elif kind == "outside":
        seed[i] = draw(st.sampled_from([box[i][0] - 1.0, box[i][1] + 1.0]))
    elif kind == "zero":
        # on a Bessel axis, or far out where the Gaussian and evanescent fields underflow
        seed[:-1] = [0.0] * (len(box) - 1) if len(box) == 3 else [1e4]
    return seed


@st.composite
def trace_argv(draw):
    family = draw(st.sampled_from(sorted(FIELD_JSON)))
    spec = {"family": family, **draw(FIELD_JSON[family])}
    names = "xyz" if family == "bessel" or len(spec.get("direction", ())) == 3 else "xz"
    mode = draw(st.sampled_from(MODES[len(names)]))
    box = [sorted((draw(_floats(-5.0, 5.0)), draw(_floats(-5.0, 5.0)))) for _ in names]
    seeds = draw(st.lists(seed_in(box), min_size=1, max_size=5))
    argv = ["trace", "--field-json", json.dumps(spec),
            "--seeds-inline=" + ";".join(",".join(repr(c) for c in s) for s in seeds),
            "--mode", mode, "--which", draw(st.sampled_from(["re", "im"])),
            "--max-steps", str(draw(st.integers(1, 50)))]
    # arc-length needs the whole box; paraxial modes fill in the axes left out
    full = mode == "arc" or draw(st.booleans())
    clauses = [f"{n}:{lo!r}:{hi!r}" for n, (lo, hi) in zip(names, box)
               if full or draw(st.booleans())]
    if clauses:
        argv.append("--domain=" + ",".join(clauses))
    for flag, values in (("--step", _floats(1e-3, 10.0)), ("--z-end", _floats(1e-3, 100.0)),
                         ("--guard", _floats(1.0, 1e4))):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)!r}")
    return argv


@settings(max_examples=120)
@given(argv=trace_argv())
def test_a_trace_command_exits_0_or_2(argv, tmp_path_factory):
    out = tmp_path_factory.getbasetemp() / "trace-argv.csv"
    assert cli.run(argv + ["--out", str(out)]) in (0, 2)


# ------------------------------------------------------------ fieldmap argv

# Each weighted list keeps its rare entries away from its ends, which hypothesis
# draws more often than the rest.

# a spec may lose a key, gain an unknown one or take an extreme or non-numeric value
SPEC_EDITS = st.sampled_from([None] * 9 + ["drop", "unknown", "extreme"] + [None] * 9)
EXTREMES = st.sampled_from([0.0, -1.0, 1e-300, 1e300, -1e300, "x", None, [], True])
# mostly valid, some far out where a field over- or underflows; an empty, malformed,
# inverted, infinite or too-coarse clause exits 2
AXIS_KINDS = (["valid"] * 18 + ["far"] * 4
              + ["empty", "inverted", "infinite", "nan", "count", "token", "parts"]
              + ["valid"] * 18)


@st.composite
def field_spec_json(draw):
    family = draw(st.sampled_from(sorted(FIELD_JSON)))
    spec = {"family": family, **draw(FIELD_JSON[family])}
    frame = "xyz" if family == "bessel" or len(spec.get("direction", ())) == 3 else "xz"
    edit = draw(SPEC_EDITS)
    key = draw(st.sampled_from(sorted(spec)))
    if edit == "drop":
        del spec[key]
    elif edit == "unknown":
        spec["colour"] = 1.0
    elif edit == "extreme":
        spec[key] = draw(EXTREMES)
    return frame, spec


@st.composite
def axis_clause(draw, name):
    lo = draw(_floats(-5.0, 5.0))
    hi = lo + draw(_floats(0.1, 5.0))
    count = draw(st.integers(2, 32))
    kind = draw(st.sampled_from(AXIS_KINDS))
    if kind == "far":
        lo, hi = 10.0 * lo, 10.0 * hi
    elif kind == "empty":
        hi = lo
    elif kind == "inverted":
        lo, hi = hi + 1.0, lo
    elif kind == "infinite":
        lo = draw(st.sampled_from([-math.inf, math.inf]))
    elif kind == "nan":
        lo = math.nan
    elif kind == "count":
        count = draw(st.integers(-1, 1))
    elif kind == "token":
        count = draw(st.sampled_from(["", "a", "1.5", "1e1"]))
    elif kind == "parts":
        return f"{name}:{lo!r}:{hi!r}"
    return f"{name}:{lo!r}:{hi!r}:{count}"


@st.composite
def grid_text(draw, frame):
    """The axis names and --grid text: axes mostly in the frame; y on a planar
    field, q or a repeated axis exit 2."""
    names = draw(st.sampled_from([frame[:2], frame[::-1][:2]] * 4 + ["xy", "zq", "xx"]
                                 + [frame[:2], frame[::-1][:2]] * 4))
    clauses = [draw(axis_clause(name)) for name in names]
    clauses = draw(st.sampled_from([clauses] * 8 + [clauses[:1], clauses * 2,
                                                    [c + ",," for c in clauses]]
                                   + [clauses] * 9))
    return names, ",".join(clauses)


@st.composite
def fixed_flags(draw, frame, names):
    """Off-axis coordinates of a 3D frame, rarely one outside the frame."""
    off = [n for n in frame if n not in names] * 3
    off = off + ["y", "q"] + off
    if draw(st.booleans()) and (len(frame) == 3 or draw(st.integers(0, 3)) == 3):
        fixed = draw(st.sampled_from(off))
        value = draw(st.sampled_from(["0.25", "-1", "3"] * 2 + ["inf", "nan", "a", ""]
                                     + ["0.25", "-1", "3"] * 2))
        return [f"--fixed={fixed}={value}" if value else f"--fixed={fixed}"]
    return []


POLS = st.sampled_from(sorted(cli._POLS))
BOUNDS = st.sampled_from(["uniform", "piecewise", "uniform", "uniform"])
GUARDS = st.sampled_from([0.0, 1e-5, 0.5, -1.0, math.inf, math.nan])
DELTAS = st.sampled_from([1e-4, 0.0, -1e-3, 1e3])


@st.composite
def fieldmap_argv(draw):
    frame, spec = draw(field_spec_json())
    names, grid = draw(grid_text(frame))
    layers = draw(st.lists(st.sampled_from(cli.ALL_LAYERS), min_size=1, max_size=4))
    if draw(st.booleans()) and draw(st.booleans()):  # a stokes-only or unknown layer, or ""
        layers.insert(draw(st.integers(0, len(layers))),
                      draw(st.sampled_from(["S1_pred", "bogus", ""])))
    argv = ["fieldmap", "--field-json", json.dumps(spec), "--grid", grid,
            "--layers", ",".join(layers), "--pol", draw(POLS), "--bound", draw(BOUNDS)]
    argv += draw(fixed_flags(frame, names))
    for flag, values in (("--superluminal-guard", GUARDS), ("--delta-x-mm", DELTAS)):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)!r}")
    return argv


@settings(max_examples=120)
@given(argv=fieldmap_argv())
def test_a_fieldmap_command_exits_0_or_2(argv, tmp_path_factory):
    out = tmp_path_factory.getbasetemp() / "fieldmap-argv.json"
    assert cli.run(argv + ["--out", str(out)]) in (0, 2)


# ------------------------------------------------------- stokes, force and anomaly argv

# each option of a command, drawn as one argument; a malformed, non-finite or
# out-of-range value exits 2
COMMAND_OPTIONS = {
    "stokes": [DELTAS.map(lambda v: f"--delta-x-mm={v!r}")],
    "force": [st.sampled_from(["1e-3,1e-4"] * 3 + ["0,0", "-1,-1e300", "inf,0", "nan,1", "1",
                                                   "a,b", "1,2,3"] + ["1e-3,1e-4"] * 3)
              .map(lambda chi: f"--chi={chi}"),
              st.just("--normalized")],
    "anomaly": [BOUNDS.map(lambda b: f"--bound={b}"),
                GUARDS.map(lambda g: f"--superluminal-guard={g!r}"),
                st.just("--with-labels")],
}


@st.composite
def grid_command_argv(draw, command):
    """A stokes, force or anomaly command line over the specs and grids that
    fieldmap_argv draws, with each of the command's options or without it."""
    frame, spec = draw(field_spec_json())
    names, grid = draw(grid_text(frame))
    argv = [command, "--field-json", json.dumps(spec), "--grid", grid]
    argv += draw(fixed_flags(frame, names))
    return argv + [draw(option) for option in COMMAND_OPTIONS[command] if draw(st.booleans())]


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
@settings(max_examples=60)
@given(data=st.data())
def test_a_grid_command_exits_0_or_2(command, data, tmp_path_factory):
    argv = data.draw(grid_command_argv(command), label="argv")
    out = tmp_path_factory.getbasetemp() / f"{command}-argv.json"
    assert cli.run(argv + ["--out", str(out)]) in (0, 2)


# ------------------------------------------------------------ non-finite inputs

BAD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf])
POINT_CALLS = [
    pf.evaluate,
    lambda spec, point: pf.apply_calcite(spec, pf.CalciteSpec(delta_x=1e-5), point),
    lambda spec, point: pf.poynting_decomposition(spec, pf.PolarizationState.circular(), point),
    lambda spec, point: pf.optical_force(spec, pf.Polarizability(1e-3 + 1e-4j), point),
]
PLANE_FIELD = json.dumps({"family": "plane_wave", "lambda_mm": 1.0, "direction": [0.0, 1.0]})
BESSEL_FIELD = json.dumps({"family": "bessel", "lambda_mm": 1.0, "ell": 1,
                           "k_perp_per_mm": 0.5})


def _with(values, i, bad):
    return [bad if j == i else v for j, v in enumerate(values)]


def _library_case(data, bad):
    """A library call with bad drawn into one of its inputs."""
    target = data.draw(st.sampled_from(["point", "seed", "fixed", "range", "delta_x"]))
    if target == "point":
        spec = data.draw(st.sampled_from(FAMILY_SPECS))
        call = data.draw(st.sampled_from(POINT_CALLS))
        point = _with([0.3, 0.2, 0.1][:spec.ndim], data.draw(st.integers(0, spec.ndim - 1)), bad)
        return lambda: call(spec, point)
    if target == "seed":
        spec = FAMILY_SPECS[0]
        seed = tuple(_with([0.1, 0.2], data.draw(st.integers(0, 1)), bad))
        cfg = pf.TraceConfig(seeds=((0.0, 0.5), seed), parameterization="arc-length",
                             step=0.1, max_steps=10, domain=((-1.0, 1.0), (0.0, 1.0)))
        return lambda: pf.trace_streamline(spec, cfg, "re")
    if target == "delta_x":
        return lambda: pf.CalciteSpec(delta_x=bad)
    fixed, ranges = [(("z", 0.5),)], [[0.0, 1.0], [-1.0, 1.0]]
    if target == "fixed":
        fixed = [(("z", bad),)]
    else:
        i = data.draw(st.integers(0, 1))
        ranges[i] = _with(ranges[i], data.draw(st.integers(0, 1)), bad)
    return lambda: pf.GridSpec(axes=("x", "y"), ranges=ranges, counts=(4, 5), fixed=fixed[0])


def _cli_case(data, bad):
    """A command line with bad drawn into one of its values."""
    target = data.draw(st.sampled_from(["seed", "domain", "grid", "fixed", "delta_x", "guard"]))
    if target == "seed":
        seed = _with([0.0, 0.5], data.draw(st.integers(0, 1)), bad)
        return ["trace", "--field-json", PLANE_FIELD,
                f"--seeds-inline=0,0;{seed[0]!r},{seed[1]!r}"]
    if target == "domain":
        bounds = _with([-1.0, 1.0, 0.0, 2.0], data.draw(st.integers(0, 3)), bad)
        return ["trace", "--field-json", PLANE_FIELD, "--seeds-inline=0,0.5", "--mode", "arc",
                "--domain=x:{!r}:{!r},z:{!r}:{!r}".format(*bounds)]
    command = data.draw(st.sampled_from(["fieldmap", "stokes", "force", "anomaly"]))
    argv = [command, "--field-json", BESSEL_FIELD, "--fixed=z=0.5"]
    bounds = [-1.0, 1.0, -1.0, 1.0]
    if target == "grid":
        bounds = _with(bounds, data.draw(st.integers(0, 3)), bad)
    elif target == "fixed":
        argv[-1] = f"--fixed=z={bad!r}"
    elif target == "delta_x":
        argv[0] = data.draw(st.sampled_from(["fieldmap", "stokes"]))
        argv.append(f"--delta-x-mm={bad!r}")
    else:
        argv[0] = "anomaly"
        argv.append(f"--superluminal-guard={bad!r}")
    return argv + ["--grid=x:{!r}:{!r}:8,y:{!r}:{!r}:8".format(*bounds)]


@settings(max_examples=200)
@given(bad=BAD_FLOATS, data=st.data())
def test_a_non_finite_input_is_named(bad, data, tmp_path_factory):
    """NaN or an infinity in a point, a seed, a grid bound or fixed value, a trace
    domain, a calcite shift or a superluminal guard is a ParameterError (exit 2)
    that names the value, never a NaN result or exit 1."""
    if data.draw(st.booleans(), label="through the CLI"):
        argv = _cli_case(data, bad) + ["--out", str(tmp_path_factory.getbasetemp() / "nf.out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.run(argv) == 2
        message = err.getvalue()
    else:
        with pytest.raises(pf.ParameterError) as exc:
            _library_case(data, bad)()
        message = str(exc.value)
    assert repr(bad) in message


# ------------------------------------------------------------ render artifacts

# integers beyond 64 bits, which orjson reads as floats and json as ints
BIG_INTEGERS = st.sampled_from(["123456789012345678901234567890", str(2 ** 64), str(-2 ** 63 - 1),
                                "-1" + "0" * 308])
NUMERALS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.integers(-2 ** 70, 2 ** 70).map(str), BIG_INTEGERS)
# literals json.loads reads as non-finite floats or as integers too large for one
NON_FINITE = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e400", "1" + "0" * 400])
# nested past json's recursion limit; orjson reads it
DEEP = "[" * 100000 + "]" * 100000
# the last but one is a lone surrogate
NOT_NUMBERS = st.sampled_from(['"abc"', '"2.5"', '""', "{}", '{"a":1.0}', "true", "false", "null",
                               '"\\ud800"', DEEP])
NUMBER_KINDS = st.sampled_from(["number"] * 12 + ["non-finite", "not-number"] + ["number"] * 12)
# a value is a vector cell in a vector layer and a numeral in a scalar one
CELL_KINDS = st.sampled_from(["value"] * 8 + ["singular", "vector", "numeral"] + ["value"] * 8)
VECTOR_SIZES = st.sampled_from([3] * 6 + [0, 1, 2, 4] + [3] * 6)
ROW_EDITS = st.sampled_from([None] * 8 + ["short", "long", "string"] + [None] * 8)
# a key beside the drawn layer: nested past json's limit, a second "L" (json
# and orjson both keep the last), a lone surrogate or a non-finite literal
SIBLINGS = st.sampled_from([None] * 6 + ['"deep":' + DEEP, '"L":[[1.0,"singular"]]',
                                         '"s":"\\ud800"', '"s":1e999'])
# bytes that are no UTF-8 JSON text: a byte-order mark, or an invalid byte in a key
BYTE_EDITS = st.sampled_from([None] * 8 + ["bom", "invalid"])


@st.composite
def numeral(draw):
    """A numeral, rarely a non-finite literal or a token that is no number."""
    kind = draw(NUMBER_KINDS)
    return draw({"number": NUMERALS, "non-finite": NON_FINITE, "not-number": NOT_NUMBERS}[kind])


@st.composite
def layer_cell(draw, vector):
    kind = draw(CELL_KINDS)
    if kind == "singular":
        return '"singular"'
    if kind == "vector" or (kind == "value" and vector):
        return "[" + ",".join(draw(numeral()) for _ in range(draw(VECTOR_SIZES))) + "]"
    return draw(numeral())


@st.composite
def render_artifact(draw):
    """Artifact bytes of one layer 'L', maybe beside another key of the layers
    or of the artifact, and the --component to draw."""
    vector = draw(st.booleans())
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(layer_cell(vector)) for _ in range(width)] for _ in range(height)]
    edit, i = draw(ROW_EDITS), draw(st.integers(0, height - 1))
    if edit == "short":
        rows[i].pop()
    elif edit == "long":
        rows[i].append(draw(layer_cell(vector)))
    text = ["[" + ",".join(row) + "]" for row in rows]
    if edit == "string":
        text[i] = json.dumps("ab"[:width])
    layers = ['"L":[' + ",".join(text) + "]"]
    top = ['"layers":{}']
    sibling = draw(SIBLINGS)
    if sibling is not None:
        keys = draw(st.sampled_from([layers, top]))
        keys.insert(draw(st.integers(0, len(keys))), sibling)
    # mostly a component for a vector layer and none for a scalar one
    components = ["x", "y", "z"] * 2 + [None] + ["z", "y", "x"] * 2 if vector else [None, "y", None]
    component = draw(st.sampled_from(components))
    artifact = ("{" + ",".join(top) + "}").replace('"layers":{}', '"layers":{' + ",".join(layers)
                                                   + "}").encode("utf-8")
    byte_edit = draw(BYTE_EDITS)
    if byte_edit == "bom":
        artifact = b"\xef\xbb\xbf" + artifact
    elif byte_edit == "invalid":
        artifact = artifact.replace(b'"layers"', b'"\xffx":0,"layers"')
    return artifact, component


def _render_outcome(path, out, component):
    """(exit code, stderr, PGM bytes or None) of a render of path."""
    out.unlink(missing_ok=True)
    argv = ["render", "--in", str(path), "--layer", "L", "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv + (["--component", component] if component else []))
    return code, err.getvalue(), out.read_bytes() if out.exists() else None


class _NoOrjson:
    """Stands in for orjson in artifacts: every decode fails, so render takes json's path."""
    JSONDecodeError = ValueError

    @staticmethod
    def loads(data):
        raise ValueError("json's path only")


TOO_DEEP = "error: grid result nests arrays or objects too deeply to decode\n"


@settings(max_examples=200)
@given(case=render_artifact())
@example(case=(b'{"layers":{"L":[[123456789012345678901234567890,1.0]]}}', None))
@example(case=(b'{"layers":{"L":[[1.0,2.0]],"L":[[3.0]]},"layers":{"L":[[1.0,2.0]]}}', None))
@example(case=(b'\xef\xbb\xbf{"layers":{"L":[[1.0,2.0]]}}', None))
@example(case=(b'{"layers":{"L":[[1.0,"\xff"]]}}', None))
@example(case=(('{"deep":' + DEEP + ',"layers":{"L":[[1.0,2.0]]}}').encode("ascii"), None))
@example(case=(('{"layers":{"L":[[[1.0,2.0,' + DEEP + ']]]}}').encode("ascii"), "y"))
@example(case=(('{"layers":{"L":[[[1.0,2.0,' + DEEP + ']]]}}').encode("ascii"), "z"))
def test_a_render_command_exits_0_or_2(case, tmp_path_factory):
    """Exit code, stderr and PGM bytes equal those of the json.loads path.  The
    one documented exception: orjson reads a value nested past json's recursion
    limit, so where json rejects the file for it and the drawn layer is valid,
    the render draws the layer as though the deep value were []."""
    artifact, component = case
    base = tmp_path_factory.getbasetemp()
    path, out = base / "render-artifact.json", base / "render-artifact.pgm"
    path.write_bytes(artifact)
    got = _render_outcome(path, out, component)
    assert got[0] in (0, 2)
    assert (got[0] == 0) == (got[2] is not None)
    with mock.patch.object(artifacts, "_orjson", lambda: _NoOrjson):
        want = _render_outcome(path, out, component)
        if got[0] == 0 and want[1] == TOO_DEEP:
            path.write_bytes(artifact.replace(DEEP.encode("ascii"), b"[]"))
            want = _render_outcome(path, out, component)
    assert got == want


# ------------------------------------------------------------ float text

# zeros, the subnormal and normal minima, the ends of the band 1e-5 <= |x| <
# 1e-4 and of orjson's positional text, 2**53 + 1 (as a float, 2**53), the
# largest double and exponents of one, two and three digits, each with its
# neighbours and of both signs
EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 1e15, 1e16, float(2**53 + 1),
         1.7976931348623157e308, 1e-6, 1e-9, 1e-10, 1e-99, 1e-100, 1e99, 1e100, 1e-307]
EDGE_FLOATS = [sign * v for x in EDGES for sign in (1.0, -1.0)
               for v in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))
               if math.isfinite(v)]
# st.floats() alone seldom lands in 1e-5 <= |x| < 1e-4 or on a one-digit negative exponent
CELL_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from(EDGE_FLOATS),
                        st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([1.0, -1.0]),
                                  st.one_of(st.floats(-10, -3), st.floats(15, 308))))


def _float_array(draw, shape, elements=CELL_FLOATS):
    size = math.prod(shape)
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@st.composite
def float_layer(draw, rows=st.integers(1, 4), ranks=(1, 2, 3), masked=st.booleans()):
    m, n = draw(rows), draw(st.integers(1, 6))
    shape = draw(st.sampled_from([[(n,), (m, n), (m, n, 3)][r - 1] for r in ranks]))
    values = _float_array(draw, shape)
    if not draw(masked):
        return values, None
    mask = np.array(draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
    mask = mask[:n] if len(shape) == 1 else mask.reshape(m, n)
    # a masked cell may hold anything, as an over- or underflowing one does
    values[mask] = draw(st.sampled_from([0.0, math.inf, -math.inf, math.nan]))
    return values, mask


def list_form(values, mask):
    if mask is None:
        return values.tolist()
    cells = np.empty(mask.shape, dtype=object)
    for index in np.ndindex(mask.shape):
        cells[index] = "singular" if mask[index] else values[index].tolist()
    return cells.tolist()


@settings(max_examples=400)
@given(layer=float_layer())
def test_float_text_is_the_text_of_json_dumps(layer):
    values, mask = layer
    assert artifacts._float_text(values, mask) == json.dumps(list_form(values, mask),
                                                             separators=(",", ":"))


LABEL_CODES = hnp.arrays(np.int8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                         elements=st.integers(0, len(pf.LABELS) - 1))


@settings(max_examples=200)
@given(block=st.integers(1, 64),
       scalar=float_layer(rows=st.integers(1, 12), ranks=(2,), masked=st.just(True)),
       vector=float_layer(rows=st.integers(1, 12), ranks=(3,), masked=st.just(True)),
       codes=LABEL_CODES)
def test_write_json_writes_layers_block_by_block(block, scalar, vector, codes, tmp_path_factory):
    """Blocks of `block` floats or labels, whole rows and at least one row
    each, give the text json.dumps gives the layers' list form."""
    values, mask = vector
    components = np.ascontiguousarray(np.moveaxis(values, -1, 0))  # the library's (3, ...) form
    obj = {"layers": {"s": artifacts._scalar_layer("s", *scalar),
                      "v": artifacts._scalar_layer("v", np.moveaxis(components, 0, -1), mask),
                      "label": artifacts._label_layer(codes)}}
    lists = {"layers": {"s": list_form(*scalar), "v": list_form(values, mask),
                        "label": [[pf.LABELS[c] for c in row] for row in codes.tolist()]}}
    path = tmp_path_factory.getbasetemp() / "blocks.json"
    with mock.patch.object(artifacts, "_BLOCK", block):
        artifacts._write_json(str(path), obj)
    assert path.read_text(encoding="utf-8") == json.dumps(
        lists, sort_keys=True, separators=(",", ":")) + "\n"


# a trace's momenta may be infinite or NaN
MOMENTUM_FLOATS = st.one_of(CELL_FLOATS, st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def trajectories(draw):
    ndim = draw(st.sampled_from([2, 3]))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 5))
        # (re, im) pairs read as complex, so that no arithmetic mixes inf and nan parts
        momenta = _float_array(draw, (k, ndim, 2), MOMENTUM_FLOATS).view(complex)[..., 0]
        out.append(pf.Trajectory(which="re", parameterization="paraxial",
                                 params=_float_array(draw, (k,)),
                                 points=_float_array(draw, (k, ndim)),
                                 momenta=momenta,
                                 termination="max-steps"))
    return out


@settings(max_examples=200)
@given(trajs=trajectories())
def test_trace_csv_is_the_per_row_repr_join(trajs, tmp_path_factory):
    lines = ["traj_id,s_or_z,x,y,z,re_px,re_py,re_pz,im_px,im_py,im_pz"]
    for tid, traj in enumerate(trajs):
        ndim = traj.points.shape[1]
        momenta = pf.embed3(traj.momenta.T, ndim).T
        rows = np.column_stack(
            [traj.params, pf.embed3(traj.points.T, ndim).T, momenta.real, momenta.imag])
        lines += [",".join([str(tid)] + [repr(v) for v in row]) for row in rows.tolist()]
    out = tmp_path_factory.getbasetemp() / "trace-rows.csv"
    artifacts._write_trace_csv(str(out), trajs)
    assert out.read_text(encoding="utf-8") == "\n".join(lines) + "\n"
