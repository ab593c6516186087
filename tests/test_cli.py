"""End-to-end CLI behavior: JSON/CSV/PGM outputs, exit codes, determinism."""

import json
import math
import subprocess

import numpy as np
import pytest

import photonflow as pf
from photonflow import cli

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
    assert "runtime error" in capsys.readouterr().err


def test_coarse_anomaly_grid_exits_two(tir_file, tmp_path, capsys):
    out = str(tmp_path / "a.json")
    code = cli.run(["anomaly", "--field", tir_file,
                    "--grid", "x:-2:0:5,z:0:2:5", "--out", out])
    assert code == 2
    assert "resolve" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, evals", [
    (["anomaly", "--with-labels"], 1),
    (["fieldmap", "--layers", "amp,re_px,P_O,label"], 1),
    (["force"], 1),
    (["stokes"], 2),  # the grid and its delta_x-shifted copy
])
def test_each_command_samples_its_grid_once(tir_file, tmp_path, monkeypatch, argv, evals):
    calls = []
    psi_grad = pf.TirTwoWaveSpec.psi_grad

    def counting(self, *coords):
        if any(np.ndim(c) for c in coords):
            calls.append(coords)
        return psi_grad(self, *coords)

    monkeypatch.setattr(pf.TirTwoWaveSpec, "psi_grad", counting)
    out = str(tmp_path / "o.json")
    assert cli.run(argv[:1] + ["--field", tir_file, "--grid", "x:-2:0:81,z:0.1:0.6:21"]
                   + argv[1:] + ["--out", out]) == 0
    assert len(calls) == evals


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


def test_console_script_is_wired():
    proc = subprocess.run(["photonflow", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "trace" in proc.stdout


def test_grid_result_shape_validation(plane_wave):
    grid = pf.GridSpec(axes=("x", "z"), ranges=((0, 1), (0, 1)), counts=(3, 2))
    with pytest.raises(pf.ParameterError):
        cli.GridResult(grid=grid, layers={"amp": [[1.0, 2.0, 3.0]]}, provenance={})
    ok = cli.GridResult(
        grid=grid, layers={"amp": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]}, provenance={}
    )
    assert ok.to_dict()["layers"]["amp"][1][2] == 6.0
