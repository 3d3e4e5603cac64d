"""Manifest parsing, subcommand artifacts and the exit-code contract."""

import errno
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import lathom
from lathom.bench import LaminateGeometry, stiffness_field
from lathom.cli import (
    _key_line,
    emit_heatmap,
    main,
    nearest_point_grid,
    parse_manifest,
    run,
    run_selftest,
    write_strain_csv,
)
from lathom.errors import ParseError, ShapeMismatch, ValidationError
from lathom.green import periodised_green_table
from lathom.kernels import KernelSpec, coefficient_table
from lathom.solver import default_reference, effective_tensor
from lathom.tensor import isotropic_stiffness, lame_stiffness

LAMINATE = """\
[pattern]
matrix = 8 0 0 8
[kernel]
kind = dirichlet
[geometry]
type = laminate
normal = 1 0
volume_fraction = 0.5
young_1 = 1.0
poisson_1 = 0.3
young_2 = 10.0
poisson_2 = 0.3
[load]
eps0 = 1 0 0
"""

HOMOG = """\
[pattern]
matrix = 8 0 0 8
[kernel]
kind = dirichlet
[geometry]
type = homogeneous
young = 2.0
poisson = 0.25
[load]
eps0 = 1 0 0
"""


def manifest_file(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_pnm(path, magic):
    data = path.read_bytes()
    head, dims, depth, pixels = data.split(b"\n", 3)
    assert head == magic and depth == b"255"
    w, h = (int(tok) for tok in dims.split())
    channels = 3 if magic == b"P6" else 1
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, channels)


# parsing


def test_parse_minimal_defaults(tmp_path):
    man = parse_manifest(manifest_file(tmp_path, LAMINATE))
    assert np.array_equal(man.matrix, [[8, 0], [0, 8]])
    assert man.kernel_kind == "dirichlet"
    assert man.alpha is None
    assert man.directions == (2, 2, 0) and man.radius == 16
    assert man.geometry_type == "laminate"
    assert np.array_equal(man.eps0, [1.0, 0.0, 0.0])
    assert man.tolerance == 1e-10 and man.max_iter == 5000
    assert man.reference is None and man.reference_matrix is None
    assert man.metric_mode == "mean_total"
    assert man.output_dir == "out"
    assert man.strain_csv is True and man.phase_map is False
    assert man.heatmap == "none" and man.colormap == "gray"
    assert man.sweep_pairs is None


def test_parse_every_key(tmp_path):
    text = """\
# full manifest, every key exercised
[pattern]
matrix = 4 -2 4 14
[kernel]
kind = box
directions = 1 2 1
radius = 8
[geometry]
type = hashin
c1 = 0.04
c2 = 0.3
rho_outer = 0.1
rotation_degrees = 30.0
core_young = 2.0
core_poisson = 0.2
coating_young = 20.0
coating_poisson = 0.25
matrix_young = 7.0
matrix_poisson = 0.35
[load]
eps0 = 0 1 0
[solve]
tolerance = 1e-8
max_iter = 50
reference_lambda = 1.5
reference_mu = 0.75
reference_matrix = 8 -4 8 28
metric_mode = summed_action
[output]
directory = results
strain_csv = false
heatmap = e_log
heatmap_shape = 32 48
colormap = coolwarm
phase_map = yes
[sweep]
alpha1 = 0.0 0.25
alpha2 = 0.1 0.2 0.3
"""
    man = parse_manifest(manifest_file(tmp_path, text))
    assert np.array_equal(man.matrix, [[4, -2], [4, 14]])
    assert man.kernel_kind == "box"
    assert man.directions == (1, 2, 1) and man.radius == 8
    assert man.geometry.c1 == 0.04 and man.geometry.rotation_degrees == 30.0
    assert man.tolerance == 1e-8 and man.max_iter == 50
    assert np.array_equal(man.reference, lame_stiffness(1.5, 0.75))
    assert np.array_equal(man.reference_matrix, [[8, -4], [8, 28]])
    assert man.metric_mode == "summed_action"
    assert man.output_dir == "results"
    assert man.strain_csv is False and man.phase_map is True
    assert man.heatmap == "e_log" and man.heatmap_shape == (32, 48)
    assert man.colormap == "coolwarm"
    assert len(man.sweep_pairs) == 6
    assert man.sweep_pairs[0] == (0.0, 0.1) and man.sweep_pairs[-1] == (0.25, 0.3)


def test_parse_comments_and_spacing(tmp_path):
    text = (
        "; leading comment\n"
        "[pattern]\n"
        "matrix=8 0 0 8\n"
        "\n"
        "[kernel]\n"
        "   kind =    dirichlet\n"
        "# trailing comment\n"
        "[geometry]\n"
        "type = homogeneous\n"
        "young = 1.0\n"
        "poisson = 0.3\n"
        "[load]\n"
        "eps0 = 1 0 0\n"
    )
    man = parse_manifest(manifest_file(tmp_path, text))
    assert man.kernel_kind == "dirichlet"


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("[kernel\nkind = dirichlet\n", 1, "unterminated"),
        ("kind = dirichlet\n", 1, "outside any"),
        ("[kernel]\nkind = a\nkind = b\n", 3, "duplicate key"),
        ("[kernel]\nkind = a\n[kernel]\n", 3, "duplicate section"),
        ("[kernel]\ngarbage\n", 2, "expected 'key = value'"),
        ("[]\nkind = a\n", 1, "empty section name"),
        ("[kernel]\n= 3\n", 2, "missing key"),
    ],
)
def test_grammar_errors(tmp_path, text, line, fragment):
    path = manifest_file(tmp_path, text)
    with pytest.raises(ParseError) as info:
        parse_manifest(path)
    assert info.value.line == line
    assert fragment in str(info.value)


def replace(text, old, new):
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda t: replace(t, "matrix = 8 0 0 8\n", ""), "pattern.matrix is required"),
        (lambda t: t + "[foo]\nx = 1\n", "unknown section [foo]"),
        (lambda t: replace(t, "kind = dirichlet", "kind = dirichlet\nbogus = 1"),
         "unknown key 'bogus'"),
        (lambda t: replace(t, "kind = dirichlet", "kind = dlvp"),
         "kernel.alpha is required"),
        (lambda t: replace(t, "kind = dirichlet", "kind = dirichlet\nalpha = 0.1 0.1"),
         "only applies to dlvp"),
        (lambda t: replace(t, "kind = dirichlet", "kind = dirichlet\nradius = 4"),
         "only applies to box"),
        (lambda t: replace(t, "matrix = 8 0 0 8", "matrix = 2 2 2 2"),
         "pattern.matrix"),
        (lambda t: replace(t, "matrix = 8 0 0 8", "matrix = 8 0 0"),
         "expected 4 values"),
        (lambda t: replace(t, "eps0 = 1 0 0", "eps0 = 1 0"), "expected 3 values"),
        (lambda t: replace(t, "volume_fraction = 0.5", "volume_fraction = 0.0"),
         "volume fraction"),
        (lambda t: t + "[solve]\ntolerance = 0\n", "must be positive"),
        (lambda t: t + "[solve]\nmax_iter = 0\n", "at least 1"),
        (lambda t: t + "[solve]\nreference_lambda = 1.0\n", "given together"),
        (lambda t: t + "[solve]\nmetric_mode = bogus\n", "expected one of"),
        (lambda t: t + "[output]\nheatmap = eps99\n", "expected one of"),
        (lambda t: t + "[output]\nheatmap_shape = 4 0\n", "must be positive"),
        (lambda t: t + "[output]\nstrain_csv = maybe\n", "expected a boolean"),
        (lambda t: t + "[sweep]\nalpha1 = 0.6\n", "outside [0, 1/2]"),
        (lambda t: t + "[sweep]\nalpha2 = 0.1\n", "sweep.alpha1 is required"),
        (lambda t: replace(t, "eps0 = 1 0 0", "eps0 = 1 x 0"), "expected numbers"),
        (lambda t: replace(t, "normal = 1 0", "normal = 1 0.5"), "expected integers"),
        (lambda t: t + "[sweep]\nalpha1 =\n", "sweep.alpha1: no values given"),
        (lambda t: t + "[output]\ndirectory =\n", "output.directory must not be empty"),
        (lambda t: replace(t, "kind = dirichlet", "kind = dlvp\nalpha = 0.1 0.1\n"
                                                  "directions = 2 2 0"),
         "kernel.directions only applies to box"),
        (lambda t: replace(HOMOG, "young = 2.0\n", ""), "geometry.young is required"),
        (lambda t: t + "[solve]\nreference_matrix = 2 2 2 2\n", "solve.reference_matrix"),
        (lambda t: t + "[solve]\nreference_matrix = 16 4 0 16\n",
         "solve.reference_matrix: [[16, 4], [0, 16]] does not refine [[8, 0], [0, 8]]"),
        (lambda t: replace(t, "kind = dirichlet", "kind = box\ndirections = 2 2 -1"),
         "must not be negative"),
        (lambda t: replace(t, "kind = dirichlet", "kind = box\nradius = 0"),
         "bad truncation radius"),
        (lambda t: t + "[sweep]\nalpha1 = 0.1\nalpha2 = 0.2 0.7\n",
         "sweep alpha value 0.7 outside"),
    ],
)
def test_validation_errors(tmp_path, mutate, fragment):
    path = manifest_file(tmp_path, mutate(LAMINATE))
    with pytest.raises(ValidationError) as info:
        parse_manifest(path)
    assert fragment in str(info.value)


def test_missing_manifest_file(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        parse_manifest(str(tmp_path / "nope.cfg"))


def test_sweep_grid_is_full_product(tmp_path):
    grid = " ".join(f"{a:.2f}" for a in np.linspace(0.0, 0.5, 11))
    text = LAMINATE + f"[sweep]\nalpha1 = {grid}\nalpha2 = {grid}\n"
    man = parse_manifest(manifest_file(tmp_path, text))
    pairs = man.sweep_pairs
    assert len(pairs) == 121
    assert pairs[0] == (0.0, 0.0) and pairs[-1] == (0.5, 0.5)
    # row-major ordering: second alpha varies fastest
    assert pairs[1] == (0.0, 0.05) and pairs[11] == (0.05, 0.0)


# solve


def test_solve_writes_artifacts(tmp_path, capsys):
    text = LAMINATE + (
        "[solve]\nreference_matrix = 16 0 0 16\n"
        "[output]\nheatmap = eps11\nphase_map = true\n"
    )
    out = tmp_path / "out"
    code = main(["solve", manifest_file(tmp_path, text), "--out", str(out)])
    assert code == 0
    for name in (
        "report.txt",
        "strain.csv",
        "phases.csv",
        "phases.pgm",
        "metrics.csv",
        "heatmap.ppm",
        "heatmap.ppm.txt",
    ):
        assert (out / name).exists(), name
    report = (out / "report.txt").read_text()
    assert "converged       true" in report
    assert "effective action" in report
    assert capsys.readouterr().out == report
    strain = (out / "strain.csv").read_text().splitlines()
    assert strain[0].startswith("y1,y2,eps_11,eps_22,eps_12")
    assert len(strain) == 1 + 64


def test_solve_memory_grows_by_the_solver_buffers(tmp_path, capsys):
    # a whole dlVP Hashin `solve` from 128^2 to 256^2: the tracemalloc peak
    # grows by at most 220 bytes per point.  CG's six (3, m) fields (144),
    # the Green workspace (32), the half table (24) and the phase codes make
    # ~200; a seventh field (24), the (6, m) rows of C - C0 (48), a dense
    # (m, 3, 3) stiffness field held through the solve (72) or a resident
    # pattern (64) would not fit
    def peak(side):
        text = (
            f"[pattern]\nmatrix = {side} 0 0 {side}\n"
            "[kernel]\nkind = dlvp\nalpha = 0.25 0.25\n"
            "[geometry]\ntype = hashin\nrotation_degrees = 37.0\n"
            "[load]\neps0 = 0.6 -0.7 0.3\n"
            f"[output]\ndirectory = {tmp_path / str(side)}\nstrain_csv = false\n"
        )
        manifest = parse_manifest(manifest_file(tmp_path, text, f"{side}.cfg"))
        tracemalloc.start()
        try:
            assert run(manifest) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(128), peak(256)
    assert large - small <= 220 * (256**2 - 128**2)


def test_box_solve_writes_real_strain_csv(tmp_path):
    text = LAMINATE.replace("kind = dirichlet", "kind = box\nradius = 4")
    out = tmp_path / "out"
    assert main(["solve", manifest_file(tmp_path, text), "--out", str(out)]) == 0
    strain = (out / "strain.csv").read_text().splitlines()
    assert strain[0] == "y1,y2,eps_11,eps_22,eps_12"


def test_output_directory_from_manifest(tmp_path):
    out = tmp_path / "fromfile"
    text = HOMOG + f"[output]\ndirectory = {out}\n"
    assert main(["solve", manifest_file(tmp_path, text)]) == 0
    assert (out / "report.txt").exists()


def test_homogeneous_solves_in_one_iteration(tmp_path, capsys):
    text = HOMOG + "[solve]\nreference_matrix = 16 0 0 16\n"
    out = tmp_path / "out"
    assert main(["solve", manifest_file(tmp_path, text), "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "iterations      1" in report
    assert "effective action 2.4, 0.8, 0" in report
    # identical discrete solutions on both patterns: error metrics vanish
    assert (out / "metrics.csv").read_text() == "e_eff,e_l2\n0,0\n"


def test_solve_exit_3_on_iteration_budget(tmp_path, capsys):
    text = """\
[pattern]
matrix = 16 0 0 16
[kernel]
kind = dirichlet
[geometry]
type = hashin
[load]
eps0 = 1 0 0
[solve]
max_iter = 4
"""
    out = tmp_path / "out"
    assert main(["solve", manifest_file(tmp_path, text), "--out", str(out)]) == 3
    # the partial report is still written
    assert "converged       false" in (out / "report.txt").read_text()


def test_solve_exit_3_on_divergence(tmp_path, capsys):
    # CG diverges only through overflow: |eps0|^2 exceeds the float range
    text = replace(LAMINATE, "eps0 = 1 0 0", "eps0 = 1e155 0 0")
    out = tmp_path / "out"
    assert main(["solve", manifest_file(tmp_path, text), "--out", str(out)]) == 3
    assert "error: diverged: non-finite residual at iteration 1" in capsys.readouterr().err
    # the partial report is still written
    assert "converged       false" in (out / "report.txt").read_text()


def test_solve_converges_with_a_too_soft_reference(tmp_path, capsys):
    # the fixed-point Basic Scheme diverges with a reference far softer
    # than both phases; CG converges for any positive definite reference,
    # to the same discrete solution as with the default reference
    actions = []
    for solve in ("", "[solve]\nreference_lambda = 0.1\nreference_mu = 0.1\n"):
        out = tmp_path / f"out{len(actions)}"
        assert main(["solve", manifest_file(tmp_path, LAMINATE + solve), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "converged       true" in report
        action = report.split("effective action ")[1]
        actions.append(np.array([float(x) for x in action.split(",")]))
    assert capsys.readouterr().err == ""
    assert np.allclose(actions[0], [2.44755244755, 1.04895104895, 0.0], rtol=0, atol=1e-10)
    assert np.linalg.norm(actions[1] - actions[0]) <= 1e-8 * np.linalg.norm(actions[0])


@pytest.mark.parametrize("lam,mu", [("-5", "1"), ("1", "-1"), ("0", "0")])
def test_exit_2_on_reference_not_positive_definite(tmp_path, capsys, lam, mu):
    # the pair becomes a stiffness and is checked while the manifest is
    # read, so the error names both keys at the first one's line
    text = LAMINATE + f"[solve]\nreference_lambda = {lam}\nreference_mu = {mu}\n"
    path = manifest_file(tmp_path, text)
    with pytest.raises(ValidationError) as info:
        parse_manifest(path)
    assert info.value.line == 16
    assert "solve.reference_lambda and solve.reference_mu: reference stiffness is not " \
        "positive definite (lower bound" in str(info.value)
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"
    assert not (tmp_path / "out").exists()


def test_exit_2_on_bad_manifest(tmp_path, capsys):
    bad = manifest_file(tmp_path, "[kernel\n", name="bad.cfg")
    assert main(["solve", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 1" in err
    missing = manifest_file(tmp_path, replace(LAMINATE, "matrix = 8 0 0 8\n", ""),
                            name="missing.cfg")
    assert main(["solve", missing]) == 2
    assert "pattern.matrix is required" in capsys.readouterr().err
    assert main(["solve", str(tmp_path / "absent.cfg")]) == 2


def latin1_file(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"[pattern]\nmatrix = 8 0 0 8 \xe9\n")
    return str(path)


@pytest.mark.parametrize(
    "make,fragment",
    [
        (lambda d: manifest_file(d, replace(LAMINATE, "eps0 = 1 0 0", "eps0 = nan 0 0")),
         "load.eps0: expected finite numbers"),
        (lambda d: manifest_file(d, replace(HOMOG, "homogeneous\nyoung = 2.0\npoisson = 0.25",
                                            "hashin\nrotation_degrees = inf")),
         "geometry.rotation_degrees: expected finite numbers"),
        (lambda d: str(d), "cannot read manifest"),
        (latin1_file, "not UTF-8"),
        # would otherwise solve the (0, 2, 2) box spline and exit 0; a kernel
        # error is reported at the line of the key at fault
        (lambda d: manifest_file(d, replace(LAMINATE, "kind = dirichlet",
                                            "kind = box\ndirections = -5 2 2\nradius = 4")),
         "line 5: direction multiplicities must not be negative"),
        (lambda d: manifest_file(d, replace(LAMINATE, "kind = dirichlet",
                                            "kind = box\ndirections = 2 2 0\nradius = 0")),
         "line 6: bad truncation radius 0"),
        (lambda d: manifest_file(d, replace(LAMINATE, "kind = dirichlet",
                                            "kind = dlvp\nalpha = 0.1 0.6")),
         "line 5: slopes must lie in [0, 1/2]"),
        # a geometry error is reported at the line of the first key it names
        # that the manifest gives: c2 in the second row, as c1 keeps its default
        (lambda d: manifest_file(d, replace(HOMOG, "homogeneous\nyoung = 2.0\npoisson = 0.25",
                                            "hashin\nrotation_degrees = 30\nc1 = 0.5")),
         "line 8: semi-axes must satisfy 0 < c1 < c2"),
        (lambda d: manifest_file(d, replace(HOMOG, "homogeneous\nyoung = 2.0\npoisson = 0.25",
                                            "hashin\nrotation_degrees = 30\nc2 = 0.01")),
         "line 8: semi-axes must satisfy 0 < c1 < c2"),
        (lambda d: manifest_file(d, replace(HOMOG, "homogeneous\nyoung = 2.0\npoisson = 0.25",
                                            "hashin\nc1 = 0.1\nrho_outer = -1")),
         "line 8: rho_outer must be positive"),
        (lambda d: manifest_file(d, replace(LAMINATE, "volume_fraction = 0.5",
                                            "volume_fraction = 0")),
         "line 8: volume fraction must lie in (0, 1]"),
        (lambda d: manifest_file(d, replace(LAMINATE, "normal = 1 0", "normal = 0 0")),
         "line 7: normal must be nonzero"),
        # would otherwise write the coarse results before the 12^2 solve fails
        (lambda d: manifest_file(d, LAMINATE + "[solve]\nreference_matrix = 12 0 0 12\n"),
         "line 16: solve.reference_matrix: [[12, 0], [0, 12]] does not refine"),
    ],
)
def test_exit_2_on_malformed_input(tmp_path, capsys, make, fragment):
    assert main(["solve", make(tmp_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "matrix,fragment",
    [
        # m = 15: the Smith-grid frequencies (or points) of these matrices
        # leave int64 in the exact reductions; they used to end in a
        # traceback from frac_coordinates, exit 1, after parsing succeeded
        ("3 1099511627776 0 5", "too large for exact int64 reductions"),
        ("3 0 1099511627776 5", "too large for exact int64 reductions"),
        ("3 18446744073709551616 0 5", "must be int64 integers"),
        # m = 1, whose one point is 0: the refusal is a bound on the
        # reductions of any canonical vector, not on this pattern's points
        ("1099511627777 1099511627776 1099511627776 1099511627775",
         "too large for exact int64 reductions"),
        # M itself passes; a sweep's reference solve on 2 M used to fail
        # after the coarse work was done
        ("3 536870912 0 5", "the default reference pattern 2 M"),
    ],
    ids=["frequencies", "points", "beyond-int64", "unimodular", "reference"],
)
def test_exit_2_on_a_matrix_too_large_for_exact_reductions(tmp_path, capsys, matrix, fragment):
    path = manifest_file(tmp_path, replace(LAMINATE, "matrix = 8 0 0 8", f"matrix = {matrix}"))
    with pytest.raises(ValidationError) as info:
        parse_manifest(path)
    assert info.value.line == 2 and fragment in str(info.value)
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"
    assert not (tmp_path / "out").exists()


def test_key_line_falls_back_to_the_section_header():
    lines = {("kernel", "directions"): 5, ("geometry", "c2"): 9}
    assert _key_line(lines, 3, "kernel", "xi") == 5
    assert _key_line(lines, 7, "geometry", ("c1", "c2")) == 9
    assert _key_line(lines, 7, "geometry", "c1") == 7
    assert _key_line(lines, 3, "kernel", None) == 3


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        (replace(LAMINATE, "poisson_1 = 0.3", "poisson_1 = 0.7"), 9,
         "geometry.young_1 and geometry.poisson_1: Poisson ratio must lie in (-1, 1/2), got 0.7"),
        (replace(LAMINATE, "young_2 = 10.0", "young_2 = -10.0"), 11,
         "geometry.young_2 and geometry.poisson_2: Young modulus must be positive"),
        # core_young keeps its default, so the given key's line is reported
        (replace(HOMOG, "homogeneous\nyoung = 2.0\npoisson = 0.25",
                 "hashin\nc1 = 0.1\ncore_poisson = 0.5"), 8,
         "geometry.core_young and geometry.core_poisson: Poisson ratio must lie"),
        (replace(HOMOG, "poisson = 0.25", "poisson = 0.7"), 7,
         "geometry.young and geometry.poisson: Poisson ratio must lie"),
    ],
    ids=["laminate-poisson", "laminate-young", "hashin", "homogeneous"],
)
def test_exit_2_on_invalid_material(tmp_path, capsys, text, line, fragment):
    # every (young, poisson) pair becomes a stiffness while the manifest is
    # parsed, so an invalid one stops the run before any output exists
    path = manifest_file(tmp_path, text)
    with pytest.raises(ValidationError) as info:
        parse_manifest(path)
    assert info.value.line == line and fragment in str(info.value)
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"
    assert not (tmp_path / "out").exists()


def test_homogeneous_cell_is_one_isotropic_phase(tmp_path):
    man = parse_manifest(manifest_file(tmp_path, HOMOG))
    field = stiffness_field(man.matrix, man.geometry)
    material = isotropic_stiffness(2.0, 0.25)
    # every point carries phase 0 and nothing else
    assert field.phases.shape == (64,) and not field.phases.any()
    assert np.array_equal(field.present(), material[None])
    assert np.array_equal(field.gather(field.stiffness), np.broadcast_to(material, (64, 3, 3)))


# heatmaps


def test_heatmap_indicator_highlights_nearest_cells(tmp_path):
    mat = [[4, 0], [0, 4]]
    field = np.zeros(16)
    field[5] = 1.0
    path = tmp_path / "ind.ppm"
    emit_heatmap(mat, field, "gray", str(path))
    img = read_pnm(path, b"P6")
    assert img.shape == (4, 4, 3)
    grid = nearest_point_grid(mat)
    hot = grid == 5
    assert hot.sum() == 1  # diagonal raster: one cell per point
    assert np.all(img[hot] == 255) and np.all(img[~hot] == 0)
    sidecar = (tmp_path / "ind.ppm.txt").read_text()
    assert sidecar == "min 0\nmax 1\n"


def test_heatmap_constant_field_is_flat(tmp_path):
    path = tmp_path / "flat.ppm"
    emit_heatmap([[4, 0], [0, 4]], np.full(16, 3.25), "gray", str(path), shape=(6, 10))
    img = read_pnm(path, b"P6")
    assert img.shape == (6, 10, 3)
    assert np.all(img == 0)
    assert (tmp_path / "flat.ppm.txt").read_text() == "min 3.25\nmax 3.25\n"


def test_heatmap_coolwarm_endpoints(tmp_path):
    field = np.zeros(16)
    field[3] = 1.0
    field[7] = 0.5
    path = tmp_path / "cw.ppm"
    emit_heatmap([[4, 0], [0, 4]], field, "coolwarm", str(path))
    img = read_pnm(path, b"P6")
    grid = nearest_point_grid([[4, 0], [0, 4]])
    assert tuple(img[grid == 3][0]) == (180, 4, 38)  # hot end
    assert tuple(img[grid == 0][0]) == (59, 76, 192)  # cold end
    mid = img[grid == 7][0].astype(int)
    assert np.all(np.abs(mid - 221) <= 2)  # near-white middle


def test_heatmap_rejects_wrong_length():
    with pytest.raises(ShapeMismatch):
        emit_heatmap([[4, 0], [0, 4]], np.zeros(15), "gray", "/tmp/never.ppm")


@pytest.mark.parametrize("shape", [(4, 2), (4,), (4, 4)])
def test_strain_csv_rejects_rows_of_other_than_three_components(tmp_path, shape):
    # the header names y1, y2 and three components, so every row must too
    path = tmp_path / "strain.csv"
    with pytest.raises(ShapeMismatch):
        write_strain_csv(path, [[2, 0], [0, 2]], np.zeros(shape))
    assert not path.exists()


def test_laminate_heatmap_shows_bands(tmp_path):
    text = LAMINATE + "[output]\nheatmap = eps11\n"
    out = tmp_path / "out"
    assert main(["solve", manifest_file(tmp_path, text), "--out", str(out)]) == 0
    img = read_pnm(out / "heatmap.ppm", b"P6")
    assert img.shape == (8, 8, 3)
    # layer normal e1: colour depends on the raster column only
    assert np.all(img == img[0:1, :, :])
    levels = set(img[0, :, 0].tolist())
    assert levels == {0, 255}  # two-phase field spans the whole scale


def test_error_heatmap_pipeline(tmp_path):
    text = """\
[pattern]
matrix = 8 0 0 8
[kernel]
kind = dlvp
alpha = 0.25 0.25
[geometry]
type = hashin
[load]
eps0 = 1 0 0
[output]
heatmap = e_log
colormap = coolwarm
"""
    out = tmp_path / "out"
    assert main(["solve", manifest_file(tmp_path, text), "--out", str(out)]) == 0
    img = read_pnm(out / "heatmap.ppm", b"P6")
    assert img.shape == (8, 8, 3)
    assert (out / "metrics.csv").exists()  # e_log forces the reference solve


# sweep


def test_sweep_deterministic_across_runs(tmp_path):
    text = LAMINATE + "[sweep]\nalpha1 = 0 0.25 0.5\nalpha2 = 0 0.25\n"
    path = manifest_file(tmp_path, text)
    outs = [tmp_path / f"out{i}" for i in range(2)]
    assert main(["sweep", path, "--out", str(outs[0])]) == 0
    assert main(["sweep", path, "--out", str(outs[1])]) == 0
    blobs = [(o / "sweep.csv").read_bytes() for o in outs]
    assert blobs[0] == blobs[1]
    lines = blobs[0].decode().splitlines()
    assert lines[0] == "alpha1,alpha2,iterations,converged,e_eff,e_l2"
    assert len(lines) == 1 + 6
    assert lines[1].startswith("0,0,")


def test_sweep_requires_sweep_section(tmp_path, capsys):
    assert main(["sweep", manifest_file(tmp_path, LAMINATE)]) == 2
    assert "no [sweep] section" in capsys.readouterr().err


# effective


def test_effective_csv_matches_library(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["effective", manifest_file(tmp_path, LAMINATE), "--out", str(out)]) == 0
    rows = (out / "effective.csv").read_text().splitlines()
    assert rows[0] == "c1,c2,c3"
    got = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])

    geom = LaminateGeometry(
        isotropic_stiffness(1.0, 0.3), isotropic_stiffness(10.0, 0.3),
        normal=(1, 0), volume_fraction=0.5,
    )
    c = stiffness_field([[8, 0], [0, 8]], geom)
    table = periodised_green_table(
        default_reference(c), coefficient_table(KernelSpec.dirichlet([[8, 0], [0, 8]]))
    )
    expected, _ = effective_tensor(c, table)
    assert np.array_equal(got, expected)  # %.17g round-trips doubles
    assert np.array_equal(got, got.T)


def test_effective_of_a_homogeneous_cell_is_its_stiffness(tmp_path):
    # the demo manifest gives an explicit reference, which the Green table
    # carries into every solve of effective_tensor
    demos = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
    out = tmp_path / "out"
    path = os.path.join(demos, "manifests", "solve_homogeneous.cfg")
    assert main(["effective", path, "--out", str(out)]) == 0
    rows = (out / "effective.csv").read_text().splitlines()[1:]
    got = np.array([[float(v) for v in row.split(",")] for row in rows])
    expected = isotropic_stiffness(2.0, 0.25)
    assert np.linalg.norm(got - expected) <= 1e-15 * np.linalg.norm(expected)


def test_effective_exit_3_writes_no_tensor(tmp_path, capsys):
    # a column whose solve stops early leaves no tensor to write: the
    # output directory, made before the first solve, stays empty
    out = tmp_path / "out"
    text = """\
[pattern]
matrix = 8 0 0 8
[kernel]
kind = dirichlet
[geometry]
type = hashin
[load]
eps0 = 1 0 0
[solve]
max_iter = 2
"""
    assert main(["effective", manifest_file(tmp_path, text), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: no convergence after 2 iterations\n"
    assert os.listdir(out) == []


# selftest


def test_selftest_passes(capsys):
    assert run_selftest(seed=0) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert all(line.startswith("PASS: ") for line in lines)


def test_selftest_subcommand(capsys):
    assert main(["selftest", "--seed", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_exit_2_when_memory_runs_out(tmp_path):
    # a 100000 x 100000 heatmap raster needs ~75 GiB; under a 2 GiB address
    # space limit, set in the child process only, the CLI must name the
    # cause and exit 2 instead of dying with a traceback
    text = """\
[pattern]
matrix = 8 0 0 8
[kernel]
kind = dlvp
alpha = 0.25 0.25
[geometry]
type = hashin
[load]
eps0 = 1 0 0
[output]
heatmap = eps11
heatmap_shape = 100000 100000
"""
    child_main = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from lathom.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(lathom.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    argv = ["solve", manifest_file(tmp_path, text), "--out", str(tmp_path / "out")]
    child = subprocess.run(
        [sys.executable, "-c", child_main] + argv,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 2, child.stderr
    assert "out of memory" in child.stderr and "depends on the machine" in child.stderr
    assert "Traceback" not in child.stderr


# outputs that cannot be written


def lathom_process(argv):
    """`python -m lathom *argv` in a fresh process on this tree's source."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lathom.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "lathom", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("command", ["solve", "sweep", "effective"])
def test_exit_2_when_the_output_directory_is_a_file(tmp_path, command):
    # the directory is made before any table is built, so nothing is
    # solved: solve prints its report, sweep and effective their summaries
    # only after their solves
    path = manifest_file(tmp_path, LAMINATE + "[sweep]\nalpha1 = 0 0.25\n")
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    child = lathom_process([command, path, "--out", str(taken)])
    assert child.returncode == 2
    # one line, no traceback
    assert child.stderr == f"error: cannot write {taken}: {os.strerror(errno.EEXIST)}\n"
    assert child.stdout == ""
    assert taken.read_text() == "kept\n"


def test_exit_2_when_an_output_file_is_a_directory(tmp_path):
    # the rename onto strain.csv fails after the solve: the report is
    # written, the directory in the way is left as it was and the
    # temporary sibling is removed
    out = tmp_path / "out"
    (out / "strain.csv").mkdir(parents=True)
    child = lathom_process(["solve", manifest_file(tmp_path, LAMINATE), "--out", str(out)])
    assert child.returncode == 2
    target = out / "strain.csv"
    assert child.stderr == f"error: cannot write {target}: {os.strerror(errno.EISDIR)}\n"
    assert sorted(os.listdir(out)) == ["report.txt", "strain.csv"]
    assert os.listdir(target) == []
