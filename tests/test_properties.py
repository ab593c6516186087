"""Properties that must hold bit for bit across evaluation paths.

A grid's field is one array evaluation of its mesh.  Any sub-rectangle of
that mesh, strided or contiguous, evaluated on its own must give exactly
the matching slice of the whole: an element's value may not depend on the
array around it.  The two-wave TIR field picks a side per node, so its
blocks include both sides, one side only and the node at x = 0.0.  The
last case has more than 16384 nodes, so its complex arrays pass 256 KiB,
where numpy starts to reuse temporaries in place, and its blocks do not.

A traced bundle is one set of array evaluations per RK4 stage, and the same
holds for its rows: row i of a bundle equals seed i traced in a bundle with
any one other seed, whichever of the two stops first and for whatever cause.
"""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

import photonflow as pf
from conftest import TWO_PI, make_tir

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
    mesh = grid.mesh(spec.ndim)
    psi, grads = spec.psi_grad(*mesh)
    shape = psi.shape
    rng = np.random.default_rng([11, case])
    blocks = random_blocks(rng, shape)
    if isinstance(spec, pf.TirTwoWaveSpec):
        blocks += tir_blocks(grid, shape)
    for sl in blocks:
        want = as_bytes(psi[sl], [g[sl] for g in grads])
        views = [m[sl] for m in mesh]  # strided wherever a step exceeds 1
        for coords in (views, [np.ascontiguousarray(v) for v in views]):
            got_psi, got_grads = spec.psi_grad(*coords)
            assert got_psi.shape == psi[sl].shape, sl
            assert as_bytes(got_psi, got_grads) == want, sl


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
