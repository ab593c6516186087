"""End-to-end CLI behavior: JSON/CSV/PGM outputs, exit codes, determinism."""

import ast
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import photonflow as pf
from photonflow import artifacts, cli

from conftest import TIR_THETA1, TIR_THETA2, TWO_PI


def field_file(tmp_path, spec, name="field.json"):
    path = tmp_path / name
    path.write_text(json.dumps(pf.field_to_dict(spec)))
    return str(path)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def plane_file(tmp_path, plane_wave):
    return field_file(tmp_path, plane_wave, "plane.json")


@pytest.fixture
def pair_file(tmp_path, gaussian_pair):
    return field_file(tmp_path, gaussian_pair, "pair.json")


@pytest.fixture
def bessel_file(tmp_path, bessel_ell2):
    return field_file(tmp_path, bessel_ell2, "bessel.json")


@pytest.fixture
def tir_file(tmp_path, tir_field):
    return field_file(tmp_path, tir_field, "tir.json")


# ----------------------------------------------------------------- exit codes


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "fieldmap" in capsys.readouterr().out


def test_unknown_subcommand_exits_two(capsys):
    assert cli.run(["transmogrify"]) == 2


def test_missing_required_flag_exits_two(plane_file, capsys):
    assert cli.run(["fieldmap", "--field", plane_file, "--grid", "x:0:1:4,z:0:1:4"]) == 2


def test_unreadable_field_exits_two(tmp_path, capsys):
    out = str(tmp_path / "o.json")
    code = cli.run(["fieldmap", "--field", str(tmp_path / "nope.json"),
                    "--grid", "x:0:1:4,z:0:1:4", "--out", out])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_invalid_field_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = str(tmp_path / "o.json")
    assert cli.run(["fieldmap", "--field", str(bad),
                    "--grid", "x:0:1:4,z:0:1:4", "--out", out]) == 2


def test_bad_grid_strings_exit_two(plane_file, tmp_path, capsys):
    out = str(tmp_path / "o.json")
    for grid in ("x:0:1:1,z:0:1:4",      # counts must be >= 2
                 "x:0:1:4",              # need two axes
                 "q:0:1:4,z:0:1:4",      # unknown axis
                 "x:1:0:4,z:0:1:4",      # reversed range
                 "x:0:1:4,x:0:1:4"):     # duplicate axis
        assert cli.run(["fieldmap", "--field", plane_file,
                        "--grid", grid, "--out", out]) == 2, grid


def test_unwritable_output_exits_one(plane_file, capsys):
    code = cli.run(["fieldmap", "--field", plane_file,
                    "--grid", "x:0:1:4,z:0:1:4",
                    "--out", "/no/such/directory/out.json"])
    assert code == 1
    assert "runtime error in fieldmap (FileNotFoundError)" in capsys.readouterr().err


def test_coarse_anomaly_grid_exits_two(tir_file, tmp_path, capsys):
    out = str(tmp_path / "a.json")
    code = cli.run(["anomaly", "--field", tir_file,
                    "--grid", "x:-2:0:5,z:0:2:5", "--out", out])
    assert code == 2
    assert "resolve" in capsys.readouterr().err


def _refuse_to_sample(*args):
    raise AssertionError("the grid was sampled before the options were checked")


@pytest.mark.parametrize("command, flags, message", [
    ("fieldmap", ["--layers", "amp", "--superluminal-guard", "-1"],
     "superluminal_guard must be >= 0, got -1.0"),
    ("fieldmap", ["--bound", "piecewise"],
     "piecewise bound (n k in glass, k in air) requires a two-wave TIR field"),
    ("stokes", ["--delta-x-mm", "0"], "delta_x = 0 cannot be inverted"),
    ("anomaly", [], "grid spacing 0.5 mm cannot resolve winding; "
                    "need < 0.125 mm (shortest local wavelength / 8)"),
    ("anomaly", ["--superluminal-guard", "-1"], "superluminal_guard must be >= 0, got -1.0"),
    ("anomaly", ["--bound", "piecewise"],
     "piecewise bound (n k in glass, k in air) requires a two-wave TIR field"),
    ("anomaly", ["--superluminal-guard", "inf"], "superluminal_guard must be finite, got inf"),
])
def test_a_grid_command_checks_its_options_before_it_samples(bessel_file, tmp_path, capsys,
                                                             monkeypatch, command, flags, message):
    # the 0.5 mm grid cannot resolve the winding: anomaly checks its options first.
    # Sampling raises: every grid command evaluates its grid in grids._row_pass
    for module in (cli, pf.anomaly):
        monkeypatch.setattr(module, "_row_pass", _refuse_to_sample)
    code = cli.run([command, "--field", bessel_file, "--grid", "x:-1:1:5,y:-1:1:5",
                    "--fixed", "z=0", *flags, "--out", str(tmp_path / "a.json")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_anomaly_edge_through_a_field_zero_exits_two(tmp_path, capsys):
    # the l = 1 axis sits at the midpoint of the edge from x = -0.05 to x = 0.05
    field = json.dumps({"family": "bessel", "lambda_mm": 1, "ell": 1, "k_perp_per_mm": 0.3})
    code = cli.run(["anomaly", "--field-json", field, "--grid", "x:-0.05:0.05:2,y:-0.1:0.1:3",
                    "--fixed", "z=0", "--out", str(tmp_path / "a.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: plaquette edge passes through a field zero near (0.0, 0.0, 0.0)\n")


def test_anomaly_edge_that_never_bisects_exits_two(tmp_path, capsys):
    # the l = 1 axis lies 0.3 of the way along the edge from x = -0.03 to
    # x = 0.07, so no dyadic midpoint reaches it and the step stays near pi
    field = json.dumps({"family": "bessel", "lambda_mm": 1, "ell": 1, "k_perp_per_mm": 0.3})
    code = cli.run(["anomaly", "--field-json", field, "--grid", "x:-0.03:0.07:2,y:-0.1:0.1:3",
                    "--fixed", "z=0", "--out", str(tmp_path / "a.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: phase step between (") and err.endswith(
        " does not bisect below pi/2; the edge passes through (or too near) a field zero\n")
    ends = sorted(ast.literal_eval(p) for p in re.findall(r"\([^()]*,[^()]*\)", err))
    assert len(ends) == 2 and all(y == 0.0 and z == 0.0 for _, y, z in ends)
    (xa, _, _), (xb, _, _) = ends
    assert xa < 0.0 < xb and xb - xa < 1e-9


@pytest.mark.parametrize("family", [["x"], {"a": 1}])
def test_unhashable_family_exits_two(tmp_path, capsys, family):
    field = json.dumps({"family": family, "lambda_mm": 1})
    code = cli.run(["fieldmap", "--field-json", field, "--grid", "x:0:1:4,z:0:1:4",
                    "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: unknown field family {family!r}")


@pytest.mark.parametrize("reader", ["field", "seeds", "render"])
def test_non_utf8_input_exits_two(pair_file, tmp_path, capsys, reader):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe0.0,0.0\n")
    out = str(tmp_path / "o")
    argv = {
        "field": ["fieldmap", "--field", str(bad), "--grid", "x:0:1:4,z:0:1:4"],
        "seeds": ["trace", "--field", pair_file, "--seeds", str(bad)],
        "render": ["render", "--in", str(bad), "--layer", "amp"],
    }[reader]
    assert cli.run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read")
    assert repr(str(bad)) in err and "not UTF-8" in err


def test_unrepresentable_layer_exits_two_and_names_it(tmp_path, capsys):
    # the amplitude overflows to inf on most of the grid; JSON cannot hold it.  A layer
    # defined on every cell is checked before the peak, whatever the order of --layers
    out = tmp_path / "o.json"
    for layers in ("amp,re_px", "re_px,amp"):
        code = cli.run(["fieldmap", "--field-json",
                        '{"family":"evanescent","lambda_mm":1,"kappa_per_mm":50}',
                        "--grid", "x:-20:1:32,z:0:1:8", "--layers", layers,
                        "--out", str(out)])
        assert code == 2, layers
        assert "layer 'amp' cannot be represented" in capsys.readouterr().err, layers
        assert not out.exists()


EVANESCENT_45 = '{"family":"evanescent","lambda_mm":1,"kappa_per_mm":45}'


@pytest.mark.parametrize("argv, message", [
    (["stokes"], "the field amplitude overflows"),
    (["force"], "layer 'F_grad' cannot be represented"),
    (["fieldmap", "--layers", "S1"], "the field amplitude overflows"),
    (["fieldmap", "--layers", "W"], "layer 'W' cannot be represented"),
    (["fieldmap", "--layers", "P_O"], "layer 'P_O' cannot be represented"),
])
def test_layers_of_an_overflowing_grid_exit_two_without_a_warning(tmp_path, capsys, argv,
                                                                   message):
    # the suite turns a RuntimeWarning into an error, which the CLI would exit 1 on
    out = tmp_path / "o.json"
    assert cli.run(argv[:1] + ["--field-json", EVANESCENT_45, "--grid", "x:-19:1:32,z:0:1:8"]
                   + argv[1:] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


# two-wave TIR amplitudes whose waves overflow where they add up, to inf or, where
# one inf cancels another, to nan
TIR_HUGE = json.dumps({"family": "tir_two_wave", "lambda_mm": 1.0, "n": 1.5,
                       "theta1_rad": TIR_THETA1, "theta2_rad": TIR_THETA2,
                       "amp1": 1e308, "amp2": -1e308})


@pytest.mark.parametrize("command", [["anomaly"], ["fieldmap", "--layers", "re_px,phase"]],
                         ids=["anomaly", "fieldmap"])
@pytest.mark.parametrize("field, grid, peak", [
    # finite rows, then a last row that holds nan: a peak that dropped nan would pass
    (TIR_HUGE, "z:0:1:17,x:-0.4375:-0.125:6", "overflows: its peak is nan"),
    # an evanescent amplitude falls along x, so it overflows in the first rows only
    (EVANESCENT_45, "z:0:0.1:8,x:-16:-15:64", "overflows: its peak is inf"),
    (EVANESCENT_45, "z:0:0.1:8,x:17:18:64", "underflows: its peak is 0.0"),  # every cell
], ids=["tir-nan-last-row", "evanescent-first-rows", "evanescent-underflow"])
def test_a_grid_that_overflows_in_one_block_exits_two(tmp_path, capsys, monkeypatch, command,
                                                       field, grid, peak):
    monkeypatch.setattr(pf.grids, "_BLOCK_CELLS", 1)  # a block per row
    out = tmp_path / "o.json"
    assert cli.run(command[:1] + ["--field-json", field, "--grid", grid] + command[1:]
                   + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: the field amplitude {peak}\n"
    assert not out.exists()


def test_row_builders_reject_non_finite_cells_outside_the_mask():
    mask = np.array([[True, False]])
    assert artifacts._scalar_layer("S1", [[np.inf, 1.0]], mask).text(0, 1) == (
        '[["singular",1.0]]')
    with pytest.raises(pf.ParameterError, match="layer 'S1'"):
        artifacts._scalar_layer("S1", [[1.0, np.nan]], mask)
    layer = artifacts._scalar_layer(
        "F_grad", np.stack([[[np.nan, 1.0]], [[0.0, 2.0]], [[0.0, 3.0]]], axis=-1), mask)
    assert layer.text(0, 1) == '[["singular",[1.0,2.0,3.0]]]'
    with pytest.raises(pf.ParameterError, match="layer 'F_grad'"):
        artifacts._scalar_layer(
            "F_grad", np.stack([[[0.0, 1.0]], [[0.0, -np.inf]], [[0.0, 3.0]]], axis=-1), mask)


# ------------------------------------------------------------------ fieldmap


def test_fieldmap_structure_and_amplitude(plane_file, plane_wave, tmp_path):
    out = str(tmp_path / "map.json")
    argv = ["fieldmap", "--field", plane_file, "--grid", "x:-1:1:5,z:0:2:4",
            "--layers", "amp,phase,W", "--out", out]
    assert cli.run(argv) == 0
    data = load(out)
    assert data["grid"]["axes"] == ["x", "z"]
    assert data["grid"]["counts"] == [5, 4]
    assert set(data["layers"]) == {"amp", "phase", "W"}
    amp = np.asarray(data["layers"]["amp"], dtype=float)
    assert amp.shape == (4, 5)  # rows follow the second axis
    assert amp == pytest.approx(np.ones((4, 5)), rel=1e-14)
    w = np.asarray(data["layers"]["W"], dtype=float)
    assert w == pytest.approx(0.5 * amp**2, rel=1e-14)
    prov = data["provenance"]
    assert prov["field"]["family"] == "plane_wave"
    assert prov["tool_version"] == pf.__version__
    assert prov["command"] == " ".join(argv)


def test_fieldmap_momentum_layers_match_library(pair_file, gaussian_pair, tmp_path):
    out = str(tmp_path / "map.json")
    assert cli.run(["fieldmap", "--field", pair_file,
                    "--grid", "x:-3:3:7,z:1:50:6",
                    "--layers", "re_px,re_pz,im_px,im_pz", "--out", out]) == 0
    data = load(out)
    xs = np.linspace(-3, 3, 7)
    zs = np.linspace(1, 50, 6)
    for j, z in enumerate(zs):
        for i, x in enumerate(xs):
            mom = pf.local_momentum(pf.evaluate(gaussian_pair, (x, z)))
            assert data["layers"]["re_px"][j][i] == pytest.approx(mom.re_p[0], rel=1e-12, abs=1e-12)
            assert data["layers"]["re_pz"][j][i] == pytest.approx(mom.re_p[1], rel=1e-12)
            assert data["layers"]["im_px"][j][i] == pytest.approx(mom.im_p[0], rel=1e-12, abs=1e-12)
            assert data["layers"]["im_pz"][j][i] == pytest.approx(mom.im_p[1], rel=1e-12, abs=1e-12)


def test_fieldmap_stokes_layer_matches_library(pair_file, gaussian_pair, tmp_path):
    out = str(tmp_path / "map.json")
    assert cli.run(["fieldmap", "--field", pair_file,
                    "--grid", "x:-2:2:5,z:5:40:4", "--delta-x-mm", "1e-4",
                    "--layers", "S1,S2,S3", "--out", out]) == 0
    data = load(out)
    cal = pf.CalciteSpec(delta_x=1e-4)
    xs = np.linspace(-2, 2, 5)
    zs = np.linspace(5, 40, 4)
    for j, z in enumerate(zs):
        for i, x in enumerate(xs):
            s = pf.exact_stokes(*pf.apply_calcite(gaussian_pair, cal, (x, z)))
            assert data["layers"]["S1"][j][i] == pytest.approx(s.s1, abs=1e-12)
            assert data["layers"]["S2"][j][i] == pytest.approx(s.s2, rel=1e-12)
            assert data["layers"]["S3"][j][i] == pytest.approx(s.s3, abs=1e-12)


def test_fieldmap_vector_and_label_layers(bessel_file, bessel_ell2, tmp_path):
    out = str(tmp_path / "map.json")
    assert cli.run(["fieldmap", "--field", bessel_file,
                    "--grid", "x:-1:1:9,y:-1:1:9", "--fixed", "z=0.25",
                    "--pol", "rcp", "--layers", "P_O,P_S,label", "--out", out]) == 0
    data = load(out)
    grid = pf.GridSpec.from_string("x:-1:1:9,y:-1:1:9", (("z", 0.25),))
    pol = pf.PolarizationState.circular(+1)
    amap = pf.classify_anomalies(bessel_ell2, grid)
    labels = amap.label_names()
    xs, ys = np.linspace(-1, 1, 9), np.linspace(-1, 1, 9)
    for j in (0, 4, 8):
        for i in (0, 3, 8):
            dec = pf.poynting_decomposition(bessel_ell2, pol, (xs[i], ys[j], 0.25))
            got_po = data["layers"]["P_O"][j][i]
            got_ps = data["layers"]["P_S"][j][i]
            assert got_po == pytest.approx(list(dec.P_O), rel=1e-12, abs=1e-15)
            assert got_ps == pytest.approx(list(dec.P_S), rel=1e-12, abs=1e-15)
            assert data["layers"]["label"][j][i] == labels[j, i]


def test_fieldmap_diag_pol_spin_layer_is_zero(pair_file, tmp_path):
    out = str(tmp_path / "map.json")
    assert cli.run(["fieldmap", "--field", pair_file,
                    "--grid", "x:-1:1:4,z:1:2:3", "--layers", "P_S", "--out", out]) == 0
    rows = load(out)["layers"]["P_S"]
    assert all(cell == [0.0, 0.0, 0.0] for row in rows for cell in row)


def test_fieldmap_marks_singular_cells(bessel_file, tmp_path):
    # 9 odd samples across +-1 put one node exactly on the vortex core
    out = str(tmp_path / "map.json")
    assert cli.run(["fieldmap", "--field", bessel_file,
                    "--grid", "x:-1:1:9,y:-1:1:9", "--fixed", "z=0",
                    "--layers", "amp,phase,re_px", "--out", out]) == 0
    data = load(out)
    assert data["layers"]["amp"][4][4] == 0.0  # amplitude itself is defined
    assert data["layers"]["phase"][4][4] == "singular"
    assert data["layers"]["re_px"][4][4] == "singular"
    assert isinstance(data["layers"]["re_px"][4][5], float)


def test_fieldmap_unknown_layer_exits_two(plane_file, tmp_path, capsys):
    out = str(tmp_path / "o.json")
    assert cli.run(["fieldmap", "--field", plane_file,
                    "--grid", "x:0:1:4,z:0:1:4",
                    "--layers", "amp,curl", "--out", out]) == 2


def test_non_sequence_direction_exits_two(tmp_path, capsys):
    field = json.dumps({"family": "plane_wave", "lambda_mm": 1, "direction": 5})
    assert cli.run(["fieldmap", "--field-json", field, "--grid", "x:0:1:4,z:0:1:4",
                    "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == "error: direction must be a sequence of 2 or 3 numbers\n"


@pytest.mark.parametrize("ell, shown", [("1e999", "inf"), ("NaN", "nan"), ("-Infinity", "-inf")])
def test_non_finite_ell_exits_two(tmp_path, capsys, ell, shown):
    field = f'{{"family":"bessel","lambda_mm":1,"ell":{ell},"k_perp_per_mm":0.3}}'
    assert cli.run(["fieldmap", "--field-json", field, "--grid", "x:-1:1:4,y:-1:1:4",
                    "--fixed", "z=0", "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == f"error: ell must be an integer, got {shown}\n"


def test_field_json_inline_equals_file(plane_file, plane_wave, tmp_path):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert cli.run(["fieldmap", "--field", plane_file,
                    "--grid", "x:0:1:4,z:0:1:4", "--layers", "amp",
                    "--out", out1]) == 0
    inline = json.dumps(pf.field_to_dict(plane_wave))
    assert cli.run(["fieldmap", "--field-json", inline,
                    "--grid", "x:0:1:4,z:0:1:4", "--layers", "amp",
                    "--out", out2]) == 0
    assert load(out1)["layers"] == load(out2)["layers"]


# -------------------------------------------------------------------- stokes


def test_stokes_readout_maps(pair_file, tmp_path):
    out = str(tmp_path / "stokes.json")
    assert cli.run(["stokes", "--field", pair_file,
                    "--grid", "x:-2:2:6,z:5:100:5",
                    "--delta-x-mm", "1e-4", "--out", out]) == 0
    data = load(out)
    assert data["delta_x_mm"] == 1e-4
    layers = data["layers"]
    expected = {"S1", "S2", "S3", "S1_pred", "S2_pred", "S3_pred",
                "re_px_readout", "im_px_readout", "re_px", "im_px"}
    assert set(layers) == expected
    s1 = np.asarray(layers["S1"], dtype=float)
    s2 = np.asarray(layers["S2"], dtype=float)
    s3 = np.asarray(layers["S3"], dtype=float)
    # fully polarized everywhere, dominated by the S2 input state
    assert np.max(np.abs(s1 * s1 + s2 * s2 + s3 * s3 - 1.0)) < 1e-12
    assert s2.min() > 0.999
    # the readout maps are the measured Stokes maps over delta_x, and they
    # track the true momentum layers to first order
    assert np.asarray(layers["re_px_readout"]) == pytest.approx(s3 / 1e-4)
    k = TWO_PI / 0.943e-3
    assert np.asarray(layers["re_px_readout"]) == pytest.approx(
        np.asarray(layers["re_px"]), abs=2e-4 * k
    )
    assert np.asarray(layers["im_px_readout"]) == pytest.approx(
        np.asarray(layers["im_px"]), abs=2e-4 * k
    )


def test_stokes_zero_delta_exits_two(pair_file, tmp_path, capsys):
    out = str(tmp_path / "stokes.json")
    assert cli.run(["stokes", "--field", pair_file,
                    "--grid", "x:-2:2:6,z:5:100:5",
                    "--delta-x-mm", "0", "--out", out]) == 2


@pytest.mark.parametrize("pol", sorted(cli._POLS))
def test_stokes_takes_no_polarization(pair_file, tmp_path, capsys, pol):
    # the prediction and the readout hold for the diagonal input alone: with
    # --pol x, im_px_readout was 1/delta_x in every cell, so no --pol is read
    out = tmp_path / "stokes.json"
    assert cli.run(["stokes", "--field", pair_file, "--grid", "x:-2:2:6,z:5:100:5",
                    "--pol", pol, "--out", str(out)]) == 2
    assert "unrecognized arguments: --pol" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------- trace


def parse_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    return header, rows


def test_trace_default_gaussian_bundle(pair_file, tmp_path, capsys):
    out = str(tmp_path / "traj.csv")
    assert cli.run(["trace", "--field", pair_file, "--z-end", "100",
                    "--max-steps", "1200", "--out", out]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 17  # default seed fan
    assert all("left-domain" in line for line in printed)
    header, rows = parse_csv(out)
    assert header == ["traj_id", "s_or_z", "x", "y", "z",
                      "re_px", "re_py", "re_pz", "im_px", "im_py", "im_pz"]
    assert set(rows[:, 0].astype(int)) == set(range(17))
    assert np.all(rows[:, 3] == 0.0)  # planar: no y coordinate
    assert np.all(rows[:, 6] == 0.0)  # and no y momentum
    # paraxial parameter is z itself
    assert np.all(rows[:, 1] == rows[:, 4])
    # seeds start on the waist line z = 0 and reach z = 100 exactly
    t0 = rows[rows[:, 0] == 0]
    assert t0[0, 4] == 0.0 and t0[-1, 4] == 100.0


def test_trace_inline_seeds_and_symmetry(pair_file, tmp_path, capsys):
    out = str(tmp_path / "traj.csv")
    # the = form keeps argparse from reading the leading dash as a flag
    assert cli.run(["trace", "--field", pair_file,
                    "--seeds-inline=-1.5,0;0,0;1.5,0",
                    "--z-end", "50", "--out", out]) == 0
    _, rows = parse_csv(out)
    left = rows[rows[:, 0] == 0][:, 2]
    mid = rows[rows[:, 0] == 1][:, 2]
    right = rows[rows[:, 0] == 2][:, 2]
    assert np.all(mid == 0.0)  # axis seed never leaves the axis
    assert left == pytest.approx(-right, abs=1e-12)  # mirror pair


def test_trace_seeds_file(pair_file, tmp_path):
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("# one seed per row\n0.5,0.0\n-0.5,0.0\n")
    out = str(tmp_path / "traj.csv")
    assert cli.run(["trace", "--field", pair_file, "--seeds", str(seeds),
                    "--z-end", "10", "--out", out]) == 0
    _, rows = parse_csv(out)
    assert set(rows[:, 0].astype(int)) == {0, 1}


def test_trace_takes_one_seed_source(pair_file, tmp_path, capsys):
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("0.5,0.0\n")
    out = tmp_path / "traj.csv"
    assert cli.run(["trace", "--field", pair_file, "--seeds", str(seeds),
                    "--seeds-inline", "5,0;6,0", "--out", str(out)]) == 2
    assert "argument --seeds-inline: not allowed with argument --seeds" in capsys.readouterr().err
    assert not out.exists()


def test_trace_3d_helix_radius(tmp_path):
    spec = pf.BesselSpec(wave=pf.WaveParameters(1.0), ell=2, k_perp=0.8863766617893787)
    path = field_file(tmp_path, spec, "helix.json")
    out = str(tmp_path / "helix.csv")
    # explicit domain: the auto-padded box would put x = -0.5 exactly on
    # the wall, and the orbit grazes it
    assert cli.run(["trace", "--field", path, "--mode", "3d",
                    "--seeds-inline", "0.5,0,0",
                    "--domain", "x:-1:1,y:-1:1,z:0:10", "--out", out]) == 0
    _, rows = parse_csv(out)
    r = np.hypot(rows[:, 2], rows[:, 3])
    assert np.abs(r - 0.5).max() < 1e-6
    assert rows[-1, 4] == 10.0  # paraxial stepping lands on z_hi exactly
    phi_end = math.atan2(rows[-1, 3], rows[-1, 2])
    advance = 2.0 * 10.0 / (spec.k_z * 0.25)
    assert phi_end == pytest.approx(advance - 2.0 * TWO_PI, abs=1e-4)


def test_trace_arc_mode_requires_domain(tir_file, tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    code = cli.run(["trace", "--field", tir_file, "--mode", "arc",
                    "--seeds-inline=-1,0.05", "--out", out])
    assert code == 2
    assert "--domain" in capsys.readouterr().err
    assert cli.run(["trace", "--field", tir_file, "--mode", "arc",
                    "--seeds-inline=-1,0.05",
                    "--domain", "x:-2.5:0,z:0:12", "--out", out]) == 0


def test_trace_mode_dimension_mismatch(bessel_file, pair_file, tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    assert cli.run(["trace", "--field", bessel_file, "--mode", "paraxial",
                    "--seeds-inline", "0.5,0", "--out", out]) == 2
    assert cli.run(["trace", "--field", pair_file, "--mode", "3d",
                    "--seeds-inline", "0.5,0,0", "--out", out]) == 2


def test_trace_deep_in_tir_glass_exits_zero(tmp_path, capsys):
    # the discarded air side, exp(-kappa x), would overflow here; the suite makes that an error
    tir = '{"family":"tir_two_wave","lambda_mm":0.5,"n":2.0,"theta1_rad":1.2,"theta2_rad":1.3}'
    out = tmp_path / "t.csv"
    assert cli.run(["trace", "--field-json", tir, "--seeds-inline=-200,0",
                    "--domain", "x:-201:-199", "--z-end", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[1].startswith("0,0.0,-200.0,0.0,0.0,")


def test_trace_malformed_inline_seed(pair_file, tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    assert cli.run(["trace", "--field", pair_file,
                    "--seeds-inline", "0.5,zero", "--out", out]) == 2


# ------------------------------------------------------------------- anomaly


def test_anomaly_pipeline_on_tir(tir_file, tmp_path):
    out = str(tmp_path / "anomaly.json")
    assert cli.run(["anomaly", "--field", tir_file,
                    "--grid", "x:-2:0:81,z:0.1:0.6:21",
                    "--bound", "piecewise", "--out", out]) == 0
    data = load(out)
    assert data["bound_model"] == "piecewise"
    assert data["guard"] == 0.0
    charges = [v["charge"] for v in data["vortices"]]
    assert charges == [1, 1, 1, 1]
    for v in data["vortices"]:
        assert len(v["position"]) == 2
        assert abs(v["residual"]) < 1e-6
    counts = data["counts"]
    assert sum(counts.values()) == 81 * 21
    assert counts["backflow"] > 0  # standing-wave vortices carry backflow
    assert isinstance(data["fast_cells"], int)
    assert "labels" not in data


def test_anomaly_with_labels_layer(tmp_path, evanescent):
    path = field_file(tmp_path, evanescent, "evan.json")
    out = str(tmp_path / "anomaly.json")
    assert cli.run(["anomaly", "--field", path,
                    "--grid", "x:0:3:30,z:-5:5:40",
                    "--with-labels", "--out", out]) == 0
    data = load(out)
    assert data["counts"]["superluminal"] == 1200
    assert data["vortices"] == []
    labels = data["labels"]
    assert len(labels) == 40 and len(labels[0]) == 30
    assert set(cell for row in labels for cell in row) == {"superluminal"}
    assert data["fast_cells"] == 1200


# tracemalloc's peak of a criterion-05 anomaly job, in bytes per grid cell, by
# grid size: `anomaly --with-labels`, detect_vortices or classify_anomalies(...,
# "piecewise"), which run the same job.  It keeps psi, the label codes and the
# fast flags of the whole grid (18 B per cell; psi alone for detect_vortices) and
# evaluates and labels it a block of about 2^15 cells at a time, so a block's temporaries, about 4.3 MB, add less
# per cell on a larger grid: 45.7 B per cell at 400^2 and 24.8 at 800^2 when
# measured, in either axis order and for each entry point.  The bounds leave a
# margin of about a fifth and a quarter.  It was 96 with a whole-grid sample,
# momentum and labels, and 124 before those dropped their whole-grid temporaries;
# the library calls held 87-94 while they took a whole-grid sample.
ANOMALY_BYTES_PER_CELL = {400: 55, 800: 32}


@pytest.mark.parametrize("job", ["cli", "detect_vortices", "classify_anomalies"])
def test_the_criterion_05_anomaly_job_stays_in_its_memory_budget(tir_field, tir_file, tmp_path,
                                                                 job):
    argv = ["anomaly", "--field", tir_file, "--bound", "piecewise", "--with-labels",
            "--out", str(tmp_path / "anomaly.json"), "--grid"]

    def run(n):
        text = f"x:-2.0:2.0:{n},z:0.0:4.0:{n}"
        if job == "cli":
            assert cli.run(argv + [text]) == 0
        elif job == "detect_vortices":
            pf.detect_vortices(tir_field, pf.GridSpec.from_string(text))
        else:
            pf.classify_anomalies(tir_field, pf.GridSpec.from_string(text), "piecewise")

    run(64)  # imports and caches first
    for n, bound in ANOMALY_BYTES_PER_CELL.items():
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            run(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - held) / n ** 2 < bound, n


# tracemalloc's peak of the other grid commands on the same grid, in bytes per cell,
# by grid size.  Each keeps a whole-grid float array of each layer it writes and of
# each array its masks are taken from (24 B per cell for the three-layer fieldmap, 96
# for stokes, 56 for force and 64 for force --normalized) and evaluates the grid a
# block of about 2^15 cells at a time.  Measured in either axis order, at 400^2 and
# 800^2: 43.5 and 28.8, 130.1 and 104.4, 86.9 and 63.6, 94.9 and 71.6 (72.6 z first);
# the bounds leave a margin of about a fifth and a quarter.  With a whole-grid sample
# they held 96 and 92, 174 and 162, 152 and 152, 160 and 153.
GRID_BYTES_PER_CELL = {
    "fieldmap --layers amp,re_px,im_px": {400: 52, 800: 36},
    "stokes": {400: 156, 800: 130},
    "force": {400: 104, 800: 80},
    "force --normalized": {400: 114, 800: 90},
}


@pytest.mark.parametrize("job", sorted(GRID_BYTES_PER_CELL))
def test_a_grid_command_stays_in_its_memory_budget(tir_file, tmp_path, job):
    argv = job.split()

    def run(n):
        assert cli.run(argv[:1] + ["--field", tir_file, "--grid", f"x:-2.0:2.0:{n},z:0.0:4.0:{n}"]
                       + argv[1:] + ["--out", str(tmp_path / "map.json")]) == 0

    run(64)  # imports and caches first
    for n, bound in GRID_BYTES_PER_CELL[job].items():
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            run(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - held) / n ** 2 < bound, n


# tracemalloc's peak of `render` of one layer of a 400^2 three-layer fieldmap artifact
# (9.3 MB), in bytes per cell.  render reads the file a piece of rows at a time and keeps
# the drawn layer's float64 values and mask; then the PGM takes the live values and one
# scaling temporary.  Measured: 28.0 for amp and for re_px, at 400^2 and at 800^2; the
# bound leaves a margin of about a fifth.  Decoding the whole file held 154.7.
RENDER_BYTES_PER_CELL = 34


@pytest.mark.parametrize("layer", ["amp", "im_px"])
def test_a_render_stays_in_its_memory_budget(tir_file, tmp_path, layer):
    source, n = str(tmp_path / "map.json"), 400
    render = ["render", "--in", source, "--layer", layer, "--out", str(tmp_path / "x.pgm")]
    for size in (64, n):  # the first render imports and caches
        assert cli.run(["fieldmap", "--field", tir_file, "--grid",
                        f"x:-2.0:2.0:{size},z:0.0:4.0:{size}", "--layers", "amp,re_px,im_px",
                        "--out", source]) == 0
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            assert cli.run(render) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peak - held) / n ** 2 < RENDER_BYTES_PER_CELL


def test_micron_wavelength_field_needs_finer_anomaly_grid(pair_file, tmp_path, capsys):
    # vortex detection requires the grid to resolve the phase winding;
    # a mm-scale grid over a micron wavelength cannot
    out = str(tmp_path / "a.json")
    assert cli.run(["anomaly", "--field", pair_file,
                    "--grid", "x:-4:4:60,z:0:3000:80", "--out", out]) == 2
    assert "resolve" in capsys.readouterr().err


def test_guard_flag_suppresses_paraxial_excess(pair_file, tmp_path):
    # pointwise labeling has no resolution constraint, so the label layer
    # is the route for paraxial fields
    grid = "x:-4:4:60,z:0:3000:80"
    strict_out = str(tmp_path / "strict.json")
    guard_out = str(tmp_path / "guard.json")
    assert cli.run(["fieldmap", "--field", pair_file, "--grid", grid,
                    "--layers", "label", "--out", strict_out]) == 0
    assert cli.run(["fieldmap", "--field", pair_file, "--grid", grid,
                    "--layers", "label", "--superluminal-guard", "1e-4",
                    "--out", guard_out]) == 0
    strict = [cell for row in load(strict_out)["layers"]["label"] for cell in row]
    guarded = [cell for row in load(guard_out)["layers"]["label"] for cell in row]
    assert strict.count("superluminal") > 0
    assert strict.count("backflow") == 0
    assert set(guarded) == {"normal"}


# --------------------------------------------------------------------- force


def test_force_raw_and_normalized(bessel_file, bessel_ell2, tmp_path):
    raw_out = str(tmp_path / "raw.json")
    norm_out = str(tmp_path / "norm.json")
    argv = ["force", "--field", bessel_file, "--grid", "x:0.2:1.2:6,y:-0.5:0.5:5",
            "--fixed", "z=0", "--chi", "1e-3,1e-4"]
    assert cli.run(argv + ["--out", raw_out]) == 0
    assert cli.run(argv + ["--normalized", "--out", norm_out]) == 0
    raw = load(raw_out)
    norm = load(norm_out)
    assert raw["chi"] == [1e-3, 1e-4]
    assert raw["normalized"] is False and norm["normalized"] is True
    chi = pf.Polarizability(1e-3 + 1e-4j)
    xs, ys = np.linspace(0.2, 1.2, 6), np.linspace(-0.5, 0.5, 5)
    for j in (0, 2, 4):
        for i in (0, 3, 5):
            sample = pf.evaluate(bessel_ell2, (xs[i], ys[j], 0.0))
            f_grad, f_scat = pf.force_from_sample(sample, chi)
            assert raw["layers"]["F_grad"][j][i] == pytest.approx(list(f_grad), rel=1e-12, abs=1e-18)
            assert raw["layers"]["F_scat"][j][i] == pytest.approx(list(f_scat), rel=1e-12, abs=1e-18)
            w = 0.5 * sample.amplitude**2
            ng, ns = pf.normalized_forces(f_grad, f_scat, w)
            assert norm["layers"]["F_grad"][j][i] == pytest.approx(list(ng), rel=1e-10, abs=1e-12)
            assert norm["layers"]["F_scat"][j][i] == pytest.approx(list(ns), rel=1e-10, abs=1e-12)
            assert raw["layers"]["W"][j][i] == pytest.approx(w, rel=1e-13)


def test_force_normalized_marks_singular(bessel_file, tmp_path):
    out = str(tmp_path / "f.json")
    assert cli.run(["force", "--field", bessel_file,
                    "--grid", "x:-1:1:9,y:-1:1:9", "--fixed", "z=0",
                    "--normalized", "--out", out]) == 0
    data = load(out)
    assert data["layers"]["F_grad"][4][4] == "singular"
    assert data["layers"]["F_scat"][4][4] == "singular"
    assert data["layers"]["W"][4][4] == 0.0


def test_force_bad_chi_exits_two(bessel_file, tmp_path, capsys):
    out = str(tmp_path / "f.json")
    assert cli.run(["force", "--field", bessel_file,
                    "--grid", "x:0:1:5,y:0:1:5", "--chi", "alpha",
                    "--out", out]) == 2


PLANE = '{"family":"plane_wave","lambda_mm":1,"direction":[0,1]}'
BESSEL = '{"family":"bessel","lambda_mm":1,"ell":2,"k_perp_per_mm":0.3}'
# J_m underflows to 0.0 on every node for an order beyond a C long
BESSEL_HUGE_ELL = '{"family":"bessel","lambda_mm":1,"ell":1e300,"k_perp_per_mm":0.3}'
PLANE_TRACE = ["trace", "--field-json", PLANE, "--seeds-inline", "0,0"]
WAIST = ("w0_mm = {} gives the Rayleigh range zR = k w0^2/2 = {} mm; "
         "zR and zR^2 must be finite and > 0")


def pair(w0, lambda_mm=1):
    return json.dumps({"family": "gaussian_pair", "lambda_mm": lambda_mm, "w0_mm": w0,
                       "a_mm": 1})


# argv (with {dir} for the test's directory), files written there first, stderr line
@pytest.mark.parametrize("argv, files, message", [
    # grid strings and fixed coordinates
    (["fieldmap", "--field-json", PLANE, "--grid", "x:0:1,z:0:1:4"], {},
     "axis clause must be name:lo:hi:count, got 'x:0:1'"),
    (["fieldmap", "--field-json", PLANE, "--grid", "x:a:1:4,z:0:1:4"], {},
     "malformed axis clause 'x:a:1:4'"),
    (["fieldmap", "--field-json", PLANE, "--grid", "x:0:1:4,y:0:1:4"], {},
     "axis 'y' is not a coordinate of this field's frame ('x', 'z')"),
    (["fieldmap", "--field-json", PLANE, "--grid", "x:0:1:4,z:0:1:4", "--fixed", "y=0"], {},
     "fixed coordinate 'y' is not in this field's frame ('x', 'z')"),
    (["fieldmap", "--field-json", BESSEL, "--grid", "x:0:1:4,y:0:1:4", "--fixed", "q=1"], {},
     "fixed coordinate must be one of ('x', 'y', 'z'), got 'q'"),
    (["fieldmap", "--field-json", BESSEL, "--grid", "x:0:1:4,y:0:1:4", "--fixed", "x=1"], {},
     "coordinate 'x' is both an axis and fixed"),
    (["fieldmap", "--field-json", BESSEL, "--grid", "x:0:1:4,z:0:1:4", "--fixed", "y=inf"], {},
     "fixed y must be finite, got inf"),
    (["fieldmap", "--field-json", BESSEL, "--grid", "x:0:1:4,y:0:1:4", "--fixed", "z=1,z=2"],
     {}, "duplicate fixed coordinate"),
    (["fieldmap", "--field-json", BESSEL, "--grid", "x:0:1:4,y:0:1:4", "--fixed", "z"], {},
     "fixed coordinate must be name=value, got 'z'"),
    (["fieldmap", "--field-json", BESSEL, "--grid", "x:0:1:4,y:0:1:4", "--fixed", "z=a"], {},
     "malformed fixed coordinate 'z=a'"),
    (["fieldmap", "--field-json", PLANE, "--grid", "x:0:1:4,z:0:1:4", "--layers", ","], {},
     "at least one layer is required"),
    # field specs
    (["fieldmap", "--field-json", "[1]", "--grid", "x:0:1:4,z:0:1:4"], {},
     "field spec must be a JSON object, got list"),
    (["fieldmap", "--field-json", pair("wide"), "--grid", "x:0:1:4,z:0:1:4"], {},
     "w0_mm must be a real number, got 'wide'"),
    # Gaussian waists: zR^2 overflows; w0^2 overflows; zR overflows; zR underflows to 0
    (["fieldmap", "--field-json", pair(1e100), "--grid", "x:0:1:4,z:0:1:4"], {},
     WAIST.format(1e100, 3.141592653589793e200)),
    (["trace", "--field-json", pair(1e100), "--seeds-inline", "0,0"], {},
     WAIST.format(1e100, 3.141592653589793e200)),
    (["fieldmap", "--field-json", pair(1e200), "--grid", "x:0:1:4,z:0:1:4"], {},
     WAIST.format(1e200, math.inf)),
    (["trace", "--field-json", pair(1e150, 1e-300)], {}, WAIST.format(1e150, math.inf)),
    (["fieldmap", "--field-json", pair(1e-200), "--grid", "x:0:1:4,z:0:1:4",
      "--layers", "amp,re_px"], {}, WAIST.format(1e-200, 0.0)),
    # a grid on which the amplitude overflows
    (["fieldmap", "--field-json", '{"family":"evanescent","lambda_mm":1,"kappa_per_mm":45}',
      "--grid", "x:-19:1:32,z:0:1:8", "--layers", "re_px,phase"], {},
     "the field amplitude overflows: its peak is inf"),
    # trace seeds and domains
    (["trace", "--field-json", PLANE], {},
     "this field family has no default seeds; pass --seeds or --seeds-inline"),
    (["trace", "--field-json", PLANE, "--seeds-inline", ";"], {}, "no seeds given"),
    (["trace", "--field-json", PLANE, "--seeds-inline", "0,0;1"], {},
     "seed (1.0,) has 1 coordinates but the field frame has 2"),
    (["trace", "--field-json", BESSEL, "--mode", "3d", "--seeds-inline", "0.5,0"], {},
     "seed (0.5, 0.0) has 2 coordinates but the field frame has 3"),
    (PLANE_TRACE + ["--domain", "x:0"], {}, "domain clause must be name:lo:hi, got 'x:0'"),
    (PLANE_TRACE + ["--domain", "q:0:1"], {}, "domain coordinate 'q' not in frame ('x', 'z')"),
    (PLANE_TRACE + ["--domain", "x:a:1"], {}, "malformed domain clause 'x:a:1'"),
    (PLANE_TRACE + ["--domain", "x:1:0"], {},
     "domain bounds must be finite and ordered, got (1.0, 0.0)"),
    # render inputs
    (["render", "--in", "{dir}/bad.json", "--layer", "amp"], {"bad.json": "not json"},
     "grid result is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    (["render", "--in", "{dir}/empty.json", "--layer", "amp"],
     {"empty.json": '{"layers": {"amp": []}}'}, "layer 'amp' is empty"),
    # a grid on which the amplitude underflows everywhere
    (["fieldmap", "--field-json", BESSEL_HUGE_ELL, "--grid", "x:-1:1:4,y:-1:1:4",
      "--layers", "re_px,phase"], {}, "the field amplitude underflows: its peak is 0.0"),
    # ... also where no layer needs the singular mask: 0.0 cells are no field zero either
    (["fieldmap", "--field-json", BESSEL_HUGE_ELL, "--grid", "x:-1:1:4,y:-1:1:4",
      "--layers", "amp"], {}, "the field amplitude underflows: its peak is 0.0"),
    (["force", "--field-json", BESSEL_HUGE_ELL, "--grid", "x:-1:1:4,y:-1:1:4"], {},
     "the field amplitude underflows: its peak is 0.0"),
    # a trace point where the amplitude overflows is no field zero
    (["trace", "--field-json", '{"family":"evanescent","lambda_mm":1,"kappa_per_mm":50}',
      "--seeds-inline=-20,0"], {}, "the field amplitude overflows at (-20.0, 0.0): |psi| = inf"),
    # ... also when it is the second seed of a bundle
    (["trace", "--field-json", '{"family":"evanescent","lambda_mm":1,"kappa_per_mm":50}',
      "--seeds-inline=0,0;-20,0"], {},
     "the field amplitude overflows at (-20.0, 0.0): |psi| = inf"),
    # a bundle seed on the vortex axis
    (["trace", "--field-json", BESSEL, "--mode", "3d", "--seeds-inline", "0.5,0,0;0,0,0"], {},
     "seed (0.0, 0.0, 0.0) sits on a field zero"),
    # an empty, inverted or non-finite z range, where the default step would come from it
    (PLANE_TRACE + ["--domain=z:1:1"], {},
     "domain bounds must be finite and ordered, got (1.0, 1.0)"),
    (PLANE_TRACE + ["--domain=z:2:1"], {},
     "domain bounds must be finite and ordered, got (2.0, 1.0)"),
    (PLANE_TRACE + ["--domain=z:0:inf"], {},
     "domain bounds must be finite and ordered, got (0.0, inf)"),
    (PLANE_TRACE + ["--domain=z:nan:1"], {},
     "domain bounds must be finite and ordered, got (nan, 1.0)"),
    # a finite, ordered z range whose default step underflows or overflows
    (PLANE_TRACE + ["--domain=z:0:5e-324"], {},
     "the z range (0.0, 5e-324) gives no default step ((z_hi - z_lo) / 1000 = 0.0); "
     "pass --step"),
    (PLANE_TRACE + ["--domain=z:-1e308:1e308"], {},
     "the z range (-1e+308, 1e+308) gives no default step ((z_hi - z_lo) / 1000 = inf); "
     "pass --step"),
    # JSON nested deeper than the decoder's recursion limit
    (["render", "--in", "{dir}/deep.json", "--layer", "amp"],
     {"deep.json": "[" * 100000 + "]" * 100000},
     "grid result nests arrays or objects too deeply to decode"),
    (["fieldmap", "--field-json", '{"a":' * 100000 + "1" + "}" * 100000,
      "--grid", "x:0:1:4,z:0:1:4"], {},
     "field spec nests arrays or objects too deeply to decode"),
    # a --domain coordinate given twice
    (["trace", "--field-json", pair(1), "--seeds-inline", "0,0", "--mode", "arc",
      "--domain", "x:-1:1,x:-2:2,z:0:1"], {}, "duplicate domain coordinate 'x'"),
    # a non-finite seed is named, not reported as the domain built around it
    (PLANE_TRACE[:-1] + ["nan,0"], {}, "seed (nan, 0.0) has a non-finite coordinate"),
    (PLANE_TRACE[:-1] + ["inf,0"], {}, "seed (inf, 0.0) has a non-finite coordinate"),
    # a --z-end that sets the z range is named, not reported as the range it gives
    (PLANE_TRACE + ["--z-end=nan"], {}, "--z-end must be finite and > 0, got nan"),
    (PLANE_TRACE + ["--z-end=-5"], {}, "--z-end must be finite and > 0, got -5.0"),
    (PLANE_TRACE + ["--z-end=inf"], {}, "--z-end must be finite and > 0, got inf"),
    (PLANE_TRACE + ["--z-end=0"], {}, "--z-end must be finite and > 0, got 0.0"),
    # an infinite or NaN step is not "> 0" alone
    (PLANE_TRACE + ["--step=inf"], {}, "step must be finite and > 0, got inf"),
    (PLANE_TRACE + ["--step=nan"], {}, "step must be finite and > 0, got nan"),
    # a finite, ordered grid range whose width overflows, named before numpy warns of it
    pytest.param(["fieldmap", "--field-json", PLANE, "--grid", "x:-1e308:1e308:3,z:0:1:3",
                  "--layers", "amp"], {},
                 "the x range (-1e+308, 1e+308) is too wide: hi - lo overflows",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param(["anomaly", "--field-json", PLANE, "--grid", "z:0:1:3,x:-1e308:1e308:3"], {},
                 "the x range (-1e+308, 1e+308) is too wide: hi - lo overflows",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    # a layer is empty when it has no rows (above) or only empty rows, in either layout
    (["render", "--in", "{dir}/empty.json", "--layer", "amp"],
     {"empty.json": '{"layers": {"amp": [[]]}}'}, "layer 'amp' is empty"),
    (["render", "--in", "{dir}/empty.json", "--layer", "amp"],
     {"empty.json": '{"grid":{},"layers":{"amp":[[],[]],"b":[[1.0]]},"provenance":{}}\n'},
     "layer 'amp' is empty"),
    (["render", "--in", "{dir}/empty.json", "--layer", "amp"],
     {"empty.json": '{"grid":{},"layers":{"amp":[]}}\n'}, "layer 'amp' is empty"),
])
def test_rejected_input_exits_two_with_its_message(tmp_path, capsys, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    assert cli.run(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_z_end_is_unread_where_the_domain_sets_z(tmp_path):
    out = str(tmp_path / "t.csv")
    assert cli.run(PLANE_TRACE + ["--z-end=nan", "--domain=z:0:1", "--out", out]) == 0


# ------------------------------------------------- validation, grid sampling


@pytest.mark.parametrize("argv", [
    ["stokes", "--delta-x-mm", "nan"],
    ["stokes", "--delta-x-mm", "inf"],
    ["fieldmap", "--layers", "S1", "--delta-x-mm", "nan"],
    ["force", "--chi", "nan,0"],
    ["force", "--chi", "1e-3,inf"],
])
def test_non_finite_parameters_exit_two(tir_file, tmp_path, capsys, argv):
    out = str(tmp_path / "o.json")
    code = cli.run(argv[:1] + ["--field", tir_file, "--grid", "x:-2:0:9,z:0:1:9"]
                   + argv[1:] + ["--out", out])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


# nodes passed to local_momentum, in grids' worth, and calls of singular_cells by
# each command below: a raw force map needs no momentum, and every command derives
# each at most once (singular_cells also rejects a peak that over- or underflows).
# Every command takes each block's momentum once, and grids._row_pass takes
# singular_cells of the peak amplitude of its blocks.
DERIVED = {"anomaly --with-labels": (1, 1), "fieldmap --layers amp,re_px,P_O,label": (1, 1),
           "force": (0, 1), "stokes": (1, 1), "force --normalized": (1, 1)}


@pytest.mark.parametrize("argv, evals", [
    (["anomaly", "--with-labels"], 1),
    (["fieldmap", "--layers", "amp,re_px,P_O,label"], 1),
    (["force"], 1),
    (["stokes"], 2),  # the grid and its delta_x-shifted copy
    (["force", "--normalized"], 1),
])
def test_each_command_samples_its_grid_once(tir_file, tmp_path, monkeypatch, argv, evals):
    grid = pf.GridSpec.from_string("x:-2:0:81,z:0.1:0.6:21")
    monkeypatch.setattr(pf.grids, "_BLOCK_CELLS", 5 * 81)  # blocks of 5, 5, 5, 5 and 1 rows
    assert len(pf.grids._row_slices(grid)) == 5
    nodes = []
    psi_grad = pf.TirTwoWaveSpec.psi_grad

    def counting(self, *coords):
        # grid nodes only: the vortex search's refinement batches are 1-D
        if np.ndim(coords[0]) == 2:
            nodes.extend(zip(*(c.ravel().tolist() for c in np.broadcast_arrays(*coords))))
        return psi_grad(self, *coords)

    monkeypatch.setattr(pf.TirTwoWaveSpec, "psi_grad", counting)
    derived = {"local_momentum": 0, "singular_cells": 0}

    def counted(name, fn):
        def wrapper(*args):
            derived[name] += args[0].psi.size if name == "local_momentum" else 1
            return fn(*args)
        return wrapper

    # where the grid's own derivations are made; the Stokes map's singular_cells
    # of sqrt(I), which cli takes, is not one of them
    for module in (cli, pf.anomaly):
        monkeypatch.setattr(module, "local_momentum", counted("local_momentum",
                                                              module.local_momentum))
    monkeypatch.setattr(pf.grids, "singular_cells", counted("singular_cells",
                                                            pf.grids.singular_cells))
    out = str(tmp_path / "o.json")
    assert cli.run(argv[:1] + ["--field", tir_file, "--grid", "x:-2:0:81,z:0.1:0.6:21"]
                   + argv[1:] + ["--out", out]) == 0
    on_grid = set(zip(*(c.ravel().tolist() for c in np.broadcast_arrays(*grid.mesh(2)))))
    assert len(nodes) == evals * len(on_grid)
    assert sorted(node for node in nodes if node in on_grid) == sorted(on_grid)  # each once
    assert (derived["local_momentum"] / len(on_grid), derived["singular_cells"]) == (
        DERIVED[" ".join(argv)])


# -------------------------------------------------------------------- render


def read_pgm(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob.startswith(b"P5\n")
    rest = blob[3:]
    dims, maxval, payload = rest.split(b"\n", 2)
    w, h = (int(tok) for tok in dims.split())
    assert maxval == b"255"
    return w, h, np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def test_render_scales_min_to_max(pair_file, tmp_path):
    map_out = str(tmp_path / "map.json")
    assert cli.run(["fieldmap", "--field", pair_file,
                    "--grid", "x:-4:4:64,z:0:100:48",
                    "--layers", "amp", "--out", map_out]) == 0
    pgm_out = str(tmp_path / "amp.pgm")
    assert cli.run(["render", "--in", map_out, "--layer", "amp",
                    "--out", pgm_out]) == 0
    w, h, pixels = read_pgm(pgm_out)
    assert (w, h) == (64, 48)
    amp = np.asarray(load(map_out)["layers"]["amp"], dtype=float)
    assert pixels[np.unravel_index(amp.argmax(), amp.shape)] == 255
    assert pixels[np.unravel_index(amp.argmin(), amp.shape)] == 0
    expected = np.rint((amp - amp.min()) / (amp.max() - amp.min()) * 255)
    assert np.array_equal(pixels, expected.astype(np.uint8))


def test_render_constant_layer_is_mid_gray(pair_file, tmp_path):
    map_out = str(tmp_path / "map.json")
    assert cli.run(["fieldmap", "--field", pair_file,
                    "--grid", "x:-1:1:6,z:1:2:5",
                    "--layers", "P_S", "--out", map_out]) == 0
    pgm_out = str(tmp_path / "ps.pgm")
    assert cli.run(["render", "--in", map_out, "--layer", "P_S",
                    "--component", "x", "--out", pgm_out]) == 0
    _, _, pixels = read_pgm(pgm_out)
    assert np.all(pixels == 128)


def test_render_singular_cells_go_black(bessel_file, tmp_path):
    map_out = str(tmp_path / "map.json")
    assert cli.run(["fieldmap", "--field", bessel_file,
                    "--grid", "x:-1:1:9,y:-1:1:9", "--fixed", "z=0",
                    "--layers", "phase", "--out", map_out]) == 0
    pgm_out = str(tmp_path / "ph.pgm")
    assert cli.run(["render", "--in", map_out, "--layer", "phase",
                    "--out", pgm_out]) == 0
    _, _, pixels = read_pgm(pgm_out)
    assert pixels[4, 4] == 0


def test_render_vector_needs_component(bessel_file, tmp_path, capsys):
    map_out = str(tmp_path / "map.json")
    assert cli.run(["fieldmap", "--field", bessel_file,
                    "--grid", "x:0.2:1:5,y:0.2:1:5", "--fixed", "z=0",
                    "--layers", "P_O", "--out", map_out]) == 0
    assert cli.run(["render", "--in", map_out, "--layer", "P_O",
                    "--out", str(tmp_path / "x.pgm")]) == 2
    assert "component" in capsys.readouterr().err
    assert cli.run(["render", "--in", map_out, "--layer", "P_O",
                    "--component", "z", "--out", str(tmp_path / "x.pgm")]) == 0


def test_render_categorical_layer_exits_two(bessel_file, tmp_path, capsys):
    map_out = str(tmp_path / "map.json")
    assert cli.run(["fieldmap", "--field", bessel_file,
                    "--grid", "x:0.2:1:6,y:0.2:1:6", "--fixed", "z=0",
                    "--layers", "label", "--out", map_out]) == 0
    assert cli.run(["render", "--in", map_out, "--layer", "label",
                    "--out", str(tmp_path / "l.pgm")]) == 2


def test_render_missing_layer_exits_two(pair_file, tmp_path, capsys):
    map_out = str(tmp_path / "map.json")
    assert cli.run(["fieldmap", "--field", pair_file,
                    "--grid", "x:0:1:4,z:0:1:4", "--layers", "amp",
                    "--out", map_out]) == 0
    assert cli.run(["render", "--in", map_out, "--layer", "phase",
                    "--out", str(tmp_path / "p.pgm")]) == 2


def write_layer(tmp_path, rows):
    path = tmp_path / "layer.json"
    path.write_text(json.dumps({"layers": {"L": rows}}))
    return str(path)


def test_render_vector_component_with_singular_cells(tmp_path):
    rows = [[[0.0, -1.0, 5.0], "singular", [1.0, 2.0, 0.0]],
            ["singular", [3.0, 0.5, 1.0], [2.0, 3, 7.0]]]
    pgm_out = str(tmp_path / "v.pgm")
    assert cli.run(["render", "--in", write_layer(tmp_path, rows), "--layer", "L",
                    "--component", "y", "--out", pgm_out]) == 0
    _, _, pixels = read_pgm(pgm_out)
    # y components -1, 2, 0.5, 3 span [-1, 3]; singular cells are black
    expected = np.array([[0, 0, 191], [0, 96, 255]], dtype=np.uint8)
    assert np.array_equal(pixels, expected)


# rows of a layer L that render rejects, and the message it prints
UNDRAWABLE = [
    ([[1.0, True]], "error: layer 'L' is not numeric (cell True); "
                    "categorical layers cannot be rendered"),
    ([[1.0, "abc"]], "error: layer 'L' is not numeric (cell 'abc'); "
                     "categorical layers cannot be rendered"),
    ([[1.0, None]], "error: layer 'L' is not numeric (cell None); "
                    "categorical layers cannot be rendered"),
    ([[1.0, 2.0], [3.0]], "error: layer 'L' rows have inconsistent lengths"),
    ([[1.0, 2.0], [3.0, 4.0, 5.0]], "error: layer 'L' rows have inconsistent lengths"),
    # the first offending cell in row-major order is the one reported
    ([[1.0, "x"], [3.0]], "error: layer 'L' is not numeric (cell 'x'); "
                          "categorical layers cannot be rendered"),
    ([[1.0, 2.0], [3.0], [False]], "error: layer 'L' rows have inconsistent lengths"),
    ([[1.0, [1, 2, 3]], [None, 2.0]],
     "error: layer 'L' is a vector layer; pass --component x|y|z"),
    ([[1.0, None], [[1, 2, 3], 2.0]], "error: layer 'L' is not numeric (cell None); "
                                      "categorical layers cannot be rendered"),
    (5, "error: layer 'L' is not a list of rows"),
    ([5], "error: layer 'L' is not a list of rows"),
    ([[1, 2], 3], "error: layer 'L' is not a list of rows"),
    # an object row's keys and a string row's characters are not cells
    ([{"singular": 5}, [2.0]], "error: layer 'L' is not a list of rows"),
    (["ab", [1.0, 2.0]], "error: layer 'L' is not a list of rows"),
    # an empty first row is a row of the wrong length when a later row has cells
    ([[], [1.0]], "error: layer 'L' rows have inconsistent lengths"),
]


@pytest.mark.parametrize("rows, message", UNDRAWABLE)
def test_render_rejects_cells_it_cannot_draw(tmp_path, capsys, rows, message):
    assert cli.run(["render", "--in", write_layer(tmp_path, rows), "--layer", "L",
                    "--out", str(tmp_path / "x.pgm")]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "x.pgm").exists()


# rows of a vector layer L whose y component render rejects
NO_Y_COMPONENT = [
    [[[1.0, None, 0.0], 2.0]],
    [[[1.0, "x", 0.0]]],
    [[[1.0]]],
    # a component is a number as a scalar cell is: not a numeric string, not a bool
    [[[1.0, "2.5", 0.0]]],
    [[[1.0, True, 0.0]]],
    # the first failure in row-major order is the one reported, here before
    # an integer numeral beyond the float range
    [[[1.0], 10 ** 400]],
]


@pytest.mark.parametrize("rows", NO_Y_COMPONENT)
def test_render_rejects_vector_cells_without_the_component(tmp_path, capsys, rows):
    assert cli.run(["render", "--in", write_layer(tmp_path, rows), "--layer", "L",
                    "--component", "y", "--out", str(tmp_path / "x.pgm")]) == 2
    assert capsys.readouterr().err == (
        "error: layer 'L' has a vector cell without a numeric y component\n")


def writer_layout(tmp_path, rows):
    """An artifact in the writer's layout whose layer L, between a scalar and a
    vector layer, holds rows."""
    path = tmp_path / "writer.json"
    path.write_text('{"grid":{"axes":["x","z"]},"layers":{"A":[[1.0,"singular"]],"L":'
                    + json.dumps(rows, separators=(",", ":"))
                    + ',"Z":[[[1.0,2.0,3.0],"singular"]]},"provenance":{"tool_version":"0"}}\n')
    return str(path)


@pytest.mark.parametrize("rows, component, message", [
    *[(rows, None, message) for rows, message in UNDRAWABLE],
    *[(rows, "y", "error: layer 'L' has a vector cell without a numeric y component")
      for rows in NO_Y_COMPONENT],
])
def test_render_rejects_the_same_cells_in_the_writer_layout(tmp_path, capsys, rows, component,
                                                            message):
    argv = ["render", "--in", writer_layout(tmp_path, rows), "--layer", "L",
            "--out", str(tmp_path / "x.pgm")]
    assert cli.run(argv + (["--component", component] if component else [])) == 2
    assert capsys.readouterr().err == message + "\n"


# artifacts of each writer: TIR and Bessel fieldmaps of all 13 layers (the Bessel grid
# holds the vortex axis, a singular cell), a Gaussian-pair fieldmap whose rows run along
# z (its first and last rows are singular throughout), stokes, and force raw and
# normalized; {tir}, {bessel} and {pair} are field files
WRITER_ARTIFACTS = [
    ["fieldmap", "--field", "{tir}", "--grid", "x:-2:2:17,z:0:4:13"],
    ["fieldmap", "--field", "{bessel}", "--grid", "x:-1:1:9,y:-1:1:9", "--fixed", "z=0"],
    ["fieldmap", "--field", "{pair}", "--grid", "z:0:50:11,x:-12:12:15"],
    ["stokes", "--field", "{pair}", "--grid", "x:-4:4:12,z:0:50:10"],
    ["force", "--field", "{tir}", "--grid", "x:-2:2:10,z:0:4:14"],
    ["force", "--field", "{bessel}", "--grid", "x:-1:1:9,y:-1:1:9", "--fixed", "z=0",
     "--normalized"],
]


@pytest.mark.parametrize("argv", WRITER_ARTIFACTS, ids=lambda argv: " ".join(argv[:4]))
@pytest.mark.parametrize("piece, read", [(None, None), (64, 2048)])
def test_the_layout_reader_renders_every_writer_artifact_itself(
        tir_file, bessel_file, pair_file, tmp_path, monkeypatch, argv, piece, read):
    """Each layer and component of a writer's artifact renders without json's
    path, to the PGM json's path gives; with pieces of 64 bytes and reads of
    2048 every layer is read in several pieces, across several reads."""
    files = {"tir": tir_file, "bessel": bessel_file, "pair": pair_file}
    source = str(tmp_path / "map.json")
    extra = ["--layers", ",".join(cli.ALL_LAYERS)] if argv[0] == "fieldmap" else []
    assert cli.run([a.format(**files) for a in argv] + extra + ["--out", source]) == 0
    for name, value in (("_PIECE", piece), ("_READ", read)):
        if value:
            monkeypatch.setattr(artifacts, name, value)

    def fall_back(*args):
        raise ValueError("json's path only")

    def refuse(*args):
        raise AssertionError("json's path was taken")

    for layer, rows in load(source)["layers"].items():
        if layer == "label":  # categorical: every render of it exits 2
            continue
        vector = any(isinstance(cell, list) for row in rows for cell in row)
        for component in ("x", "y", "z") if vector else (None,):
            with monkeypatch.context() as patch:
                patch.setattr(artifacts, "_read_layer", fall_back)
                want = artifacts._render(source, layer, component)
            with monkeypatch.context() as patch:
                patch.setattr(artifacts, "_decode", refuse)
                assert artifacts._render(source, layer, component) == want, (layer, component)


def test_render_scales_values_that_span_more_than_a_double(tmp_path, capsys):
    pgm_out = str(tmp_path / "x.pgm")
    assert cli.run(["render", "--in", write_layer(tmp_path, [[1e308, -1e308, 0.0]]),
                    "--layer", "L", "--out", pgm_out]) == 0
    assert capsys.readouterr().err == ""
    _, _, pixels = read_pgm(pgm_out)
    assert pixels.tolist() == [[255, 0, 128]]


def test_render_rejects_an_artifact_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1,2]")
    assert cli.run(["render", "--in", str(path), "--layer", "L",
                    "--out", str(tmp_path / "x.pgm")]) == 2
    assert capsys.readouterr().err == f"error: no layer 'L' in {path}\n"


@pytest.mark.parametrize("text, component", [
    ("[[1.0,NaN],[Infinity,2.0]]", None),
    ("[[1e999,1.0]]", None),
    ('[[[1.0,-Infinity,0.0],"singular"]]', "y"),
    ("[[1.0,1" + "0" * 400 + "]]", None),
    ("[[[1.0,1" + "0" * 400 + ",0.0]]]", "y"),
])
def test_render_rejects_non_finite_values(tmp_path, capsys, text, component):
    path = tmp_path / "layer.json"
    path.write_text('{"layers":{"L":' + text + '}}')
    pgm_out = tmp_path / "x.pgm"
    argv = ["render", "--in", str(path), "--layer", "L", "--out", str(pgm_out)]
    assert cli.run(argv + (["--component", component] if component else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: layer 'L' holds non-finite values")
    assert "Warning" not in err
    assert not pgm_out.exists()


# -------------------------------------------------------------- determinism


def test_fieldmap_reruns_byte_identical(pair_file, tmp_path):
    out = str(tmp_path / "map.json")
    argv = ["fieldmap", "--field", pair_file, "--grid", "x:-2:2:20,z:0:50:20",
            "--layers", "amp,re_px,S3,P_O", "--out", out]
    assert cli.run(argv) == 0
    first = open(out, "rb").read()
    assert cli.run(argv) == 0
    assert open(out, "rb").read() == first


def test_round_trip_of_grid_result(pair_file, tmp_path):
    # parse -> rebuild -> serialize must be the identity on the JSON text
    out = str(tmp_path / "map.json")
    assert cli.run(["fieldmap", "--field", pair_file,
                    "--grid", "x:-1:1:8,z:0:9:7", "--layers", "amp,phase",
                    "--out", out]) == 0
    text = open(out, encoding="utf-8").read()
    data = json.loads(text)
    again = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    assert again == text


def test_write_json_matches_the_streaming_encoder(tmp_path):
    mask = np.array([[False, True], [False, False]])
    obj = {
        "layers": {
            "scalar": artifacts._scalar_layer("s", [[-0.0, 1.0], [1e-05, 5e-324]], mask),
            "vector": artifacts._scalar_layer(
                "v", np.stack([[[1.7976931348623157e+308, 0.0], [2.0, -0.0]],
                               [[1e-05, 2.0], [3.0, 4.0]], [[5e-324, 1.0], [1.0, 1.0]]], axis=-1),
                mask),
            "label": [["a", "b"], ["c", "d"]],
        },
        "ints": [0, -3, 2**53 + 1],
        "nested": {"b": {"z": 1, "a": [-0.0, 1e-05]}, "a": "text \u00e9"},
    }
    # the same object with its float layers in list form
    lists = dict(obj, layers=dict(obj["layers"], scalar=[[-0.0, "singular"], [1e-05, 5e-324]],
                                  vector=[[[1.7976931348623157e+308, 1e-05, 5e-324], "singular"],
                                          [[2.0, 3.0, 1.0], [-0.0, 4.0, 1.0]]]))
    path = tmp_path / "o.json"
    artifacts._write_json(str(path), obj)
    sink = io.StringIO()
    json.dump(lists, sink, sort_keys=True, separators=(",", ":"), allow_nan=False)
    blob = path.read_bytes()
    assert blob == (sink.getvalue() + "\n").encode("utf-8")
    for text in (b'"singular"', b"-0.0", b"1e-05", b"5e-324", b"1.7976931348623157e+308",
                 b"9007199254740993", b"\\u00e9"):
        assert text in blob


def test_the_cached_parser_carries_nothing_from_one_run_to_the_next(tmp_path, capsys):
    out, source = str(tmp_path / "out"), str(tmp_path / "map.json")
    assert cli.run(["fieldmap", "--field-json", PLANE, "--grid", "x:0:1:4,z:0:1:4",
                    "--layers", "P_O", "--out", source]) == 0
    runs = [
        ["fieldmap", "--field-json", BESSEL, "--grid", "x:-1:1:21,y:-1:1:21", "--fixed", "z=1",
         "--layers", "amp,P_S,label", "--pol", "rcp", "--superluminal-guard", "0.5", "--out", out],
        ["stokes", "--field-json", BESSEL, "--grid", "x:-1:1:21,y:-1:1:21", "--fixed", "z=1",
         "--out", out],
        ["fieldmap", "--field-json", BESSEL, "--grid", "x:-1:1:21,y:-1:1:21", "--fixed", "z=1",
         "--layers", "P_S", "--out", out],
        ["anomaly", "--field-json", BESSEL, "--grid", "x:-1:1:21,y:-1:1:21", "--fixed", "z=1",
         "--with-labels", "--out", out],
        ["anomaly", "--field-json", BESSEL, "--grid", "x:-1:1:21,y:-1:1:21", "--fixed", "z=1",
         "--out", out],
        ["force", "--field-json", PLANE, "--grid", "x:0:1:4,z:0:1:4", "--normalized",
         "--out", out],
        ["force", "--field-json", PLANE, "--grid", "x:0:1:4,z:0:1:4", "--out", out],
        PLANE_TRACE + ["--mode", "arc", "--max-steps", "5", "--domain", "x:-1:1,z:-1:1",
                       "--out", out],
        PLANE_TRACE + ["--z-end", "1", "--out", out],
        ["fieldmap", "--field-json", PLANE, "--out", out],
        ["render", "--in", source, "--layer", "P_O", "--component", "z", "--out", out],
        ["render", "--in", source, "--layer", "P_O", "--out", out],
    ]

    def outcome(argv):
        if os.path.exists(out):
            os.remove(out)
        code = cli.run(argv)
        blob = open(out, "rb").read() if os.path.exists(out) else None
        return code, capsys.readouterr(), blob

    assert cli.build_parser() is cli.build_parser()
    cached = [outcome(argv) for argv in runs]
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0] * 9 + [2, 0, 2]


def test_python_m_photonflow_runs_the_cli():
    src = os.path.dirname(os.path.dirname(pf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "photonflow", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "trace" in proc.stdout


# run in a fresh interpreter: this process already holds scipy.special
COLD_START = """
import json, sys
import photonflow, photonflow.cli
orjson = ["orjson" in sys.modules]
code = photonflow.cli.run(["fieldmap", "--field-json", sys.argv[1], "--grid", "x:0:1:8,z:0:1:8",
                           "--layers", "amp,re_px", "--out", sys.argv[2]])
orjson.append("orjson" in sys.modules)
cold = [name for name in ("scipy", "scipy.special") if name in sys.modules]
sample = photonflow.evaluate(photonflow.field_from_dict(json.loads(sys.argv[3])), (0.3, 0.2, 0.1))
print(json.dumps([code, cold, "scipy.special" in sys.modules,
                  [z.hex() for v in (sample.psi, *sample.grad_psi) for z in (v.real, v.imag)],
                  orjson]))
"""


def test_scipy_special_loads_on_the_first_bessel_evaluation(tmp_path):
    src = os.path.dirname(os.path.dirname(pf.__file__))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", COLD_START, PLANE,
                           str(tmp_path / "map.json"), BESSEL],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    code, cold, loaded, bits, orjson = json.loads(proc.stdout.splitlines()[-1])
    assert (code, cold, loaded) == (0, [], True)
    assert orjson == [False, True]  # imported, and its parse buffer made, on the first write
    sample = pf.evaluate(pf.field_from_dict(json.loads(BESSEL)), (0.3, 0.2, 0.1))
    assert bits == [z.hex() for v in (sample.psi, *sample.grad_psi) for z in (v.real, v.imag)]


@pytest.mark.parametrize("argv, warning", [
    (["fieldmap", "--field-json", pair(0.5), "--grid", "x:-1:1:4,z:0:1:4", "--layers", "S3",
      "--delta-x-mm", "1000"], "warning: delta_x = 1000.0 mm exceeds w0/100 = 0.005 mm"),
    (["force", "--field-json", PLANE, "--grid", "x:0:1:4,z:0:1:4", "--chi=1e-3,-1e-4"],
     "warning: Im(chi) < 0 describes gain, not a passive particle\n"),
])
def test_a_parameter_warning_does_not_stop_a_command_under_w_error(tmp_path, argv, warning):
    src = os.path.dirname(os.path.dirname(pf.__file__))
    out = tmp_path / "map.json"
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "photonflow", *argv,
                           "--out", str(out)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith(warning)
    assert out.exists()


def test_a_runtime_warning_in_a_command_still_raises(monkeypatch, capsys):
    def warns(args):
        np.float64(1.0) / np.float64(0.0)
        return 0

    monkeypatch.setattr(cli, "_cmd_fieldmap", warns)
    assert cli.run(["fieldmap", "--field-json", PLANE, "--grid", "x:0:1:4,z:0:1:4",
                    "--out", "unused.json"]) == 1
    assert capsys.readouterr().err.startswith("runtime error in fieldmap (RuntimeWarning): ")


def test_console_script_is_wired():
    proc = subprocess.run(["photonflow", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "trace" in proc.stdout

