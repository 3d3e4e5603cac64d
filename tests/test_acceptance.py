"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its tolerance and any runtime budget inline; pytest -v
gives the one-line pass/fail verdict per guarantee.
"""

import time

import numpy as np
import pytest
from scipy.interpolate import BSpline

from lathom.bench import (
    HashinGeometry,
    LaminateGeometry,
    error_metrics,
    laminate_effective_oracle,
    rasterize_hashin,
    rasterize_laminate,
    restrict_field,
)
from lathom.cli import main
from lathom.green import apply_green, green_multiplier, periodised_green_table
from lathom.kernels import (
    KernelSpec,
    coeff,
    coefficient_table,
    orthonormalize,
    three_direction_set,
)
from lathom.lattice import as_pattern_matrix, generating_set
from lathom.pattern_fft import pattern_dft, pattern_fft
from lathom.solver import (
    basic_scheme,
    default_reference,
    effective_action,
    effective_tensor,
    residual_ls,
)
from lathom.tensor import IDENTITY_VECTOR, ellipticity_bounds, isotropic_stiffness

from oracles import (
    class_matrices,
    dlvp_window,
    isotropic_green_closed_form,
    mandel_operator_2d,
    random_regular,
    residual_variational,
)

EPS0 = np.array([1.0, 0.0, 0.0])

ALPHAS = (0.0, 0.1, 0.25, 0.45)


def green_table(spec, c0):
    return periodised_green_table(c0, orthonormalize(coefficient_table(spec)))


def solve_geometry(mat, spec, c, tol=1e-10):
    c0 = default_reference(c)
    table = green_table(spec, c0)
    report = basic_scheme(c, c0, EPS0, table, tol=tol)
    return c0, table, report


def test_fast_transform_matches_direct_on_random_patterns():
    # >= 20 random regular matrices with m <= 256 plus the named shapes;
    # relative agreement and Parseval both to 1e-12, all under 5 s.
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    mats = [np.array(m) for m in ([[7, 0], [0, 9]], [[5, 3], [0, 7]], [[4, 4], [-4, 4]])]
    mats += [random_regular(rng, span=8, max_m=256, min_m=2) for _ in range(20)]
    for mat in mats:
        m = as_pattern_matrix(mat).m
        a = rng.normal(size=m) + 1j * rng.normal(size=m)
        fast = pattern_fft(mat, a)
        direct = pattern_dft(mat, a)
        assert np.linalg.norm(fast - direct) <= 1e-12 * np.linalg.norm(direct)
        # unitary scaling preserves the l2 norm
        assert abs(np.linalg.norm(fast) - np.linalg.norm(a)) <= 1e-12 * np.linalg.norm(a)
    assert time.perf_counter() - start < 5.0


def test_kernel_partition_of_unity_and_orthonormality():
    # every shipped kernel tiles to one and orthonormalises to a flat
    # bracket, on a diagonal and a non-diagonal pattern, under 10 s
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    # trapezoid windows tile the frequency line: sum_z w(t + z) = 1
    ts = rng.uniform(-3.0, 3.0, size=(300, 2))
    for a1 in ALPHAS:
        for a2 in ALPHAS:
            total = np.zeros(len(ts))
            for z1 in range(-4, 5):
                for z2 in range(-4, 5):
                    total += dlvp_window((a1, a2), ts + [z1, z2])
            assert np.max(np.abs(total - 1.0)) <= 1e-12, (a1, a2)

    # independent space-domain route for the spline generator: scipy's
    # cardinal hat tiles the plane, matching the product-of-sinc spectrum
    hat = BSpline.basis_element([-1.0, 0.0, 1.0], extrapolate=False)
    x = rng.uniform(-1.0, 1.0, size=(300, 2))
    tiled = np.ones(len(x))
    for axis in range(2):
        s = np.zeros(len(x))
        for z in range(-3, 4):
            s += np.nan_to_num(hat(x[:, axis] + z), nan=0.0)
        tiled *= s
    assert np.max(np.abs(tiled - 1.0)) <= 1e-12

    zs = np.array([(i, j) for i in range(-2, 3) for j in range(-2, 3)])
    offsite = np.any(zs != 0, axis=1)
    for mat in ([[16, 0], [0, 16]], [[4, -2], [4, 14]]):
        pm = as_pattern_matrix(mat)
        specs = [KernelSpec.box_spline(mat, three_direction_set(2, 2, 0), radius=16)]
        specs += [KernelSpec.dlvp(mat, (a1, a2)) for a1 in ALPHAS for a2 in ALPHAS]
        for spec in specs:
            # partition of unity in Fourier form: the generator's
            # coefficients vanish on the nonzero dual lattice
            vals = coeff(spec, zs @ pm.entries)
            c_zero = vals[~offsite][0]
            assert c_zero > 0.0
            assert np.max(np.abs(vals[offsite])) <= 1e-12 * c_zero
            # post-orthonormalisation the bracket sums are exactly flat
            table = orthonormalize(coefficient_table(spec))
            bracket = np.einsum("mt,mt->m", table.coeffs, table.coeffs)
            assert np.max(np.abs(pm.m * bracket - 1.0)) <= 1e-10
    assert time.perf_counter() - start < 10.0


def test_green_multiplier_matches_isotropic_closed_form():
    # 21 x 21 grid of nonzero integer frequencies against the hand-coded
    # isotropic formula (1e-12); degree-0 homogeneity to 1e-14
    lam, mu = 1.2, 0.8
    iv = IDENTITY_VECTOR
    c0 = lam * np.outer(iv, iv) + 2.0 * mu * np.eye(3)
    for k1 in range(-10, 11):
        for k2 in range(-10, 11):
            if k1 == 0 and k2 == 0:
                continue
            k = np.array([k1, k2])
            expected = mandel_operator_2d(isotropic_green_closed_form(lam, mu, k))
            got = green_multiplier(c0, k)
            assert np.max(np.abs(got - expected)) <= 1e-12
            assert np.max(np.abs(green_multiplier(c0, 2 * k) - got)) <= 1e-14


def test_periodised_green_operator_properties():
    # operator identities at m = 32^2, under 30 s
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    mat = [[32, 0], [0, 32]]
    m = 1024
    c0 = isotropic_stiffness(2.0, 0.3)
    dirichlet = green_table(KernelSpec.dirichlet(mat), c0)
    dlvp = green_table(KernelSpec.dlvp(mat, (0.25, 0.25)), c0)

    # (a) flat-spectrum table reproduces the raw multiplier per class
    freqs = generating_set(mat).freqs
    values = class_matrices(dirichlet)
    for i in rng.choice(m, size=200, replace=False):
        direct = green_multiplier(c0, freqs[i])
        assert np.max(np.abs(values[i] - direct)) <= 1e-14

    # (b) projection on the flat spectrum, measurably not off it
    g = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
    once = apply_green(dirichlet, g @ c0.T)
    twice = apply_green(dirichlet, once @ c0.T)
    assert np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(once)
    once = apply_green(dlvp, np.real(g) @ c0.T)
    twice = apply_green(dlvp, once @ c0.T)
    assert np.linalg.norm(twice - once) > 1e-3 * np.linalg.norm(np.real(g))

    # (c) adjointness <G C0 g, d> = <g, C0 G d> on 100 random pairs
    for table in (dirichlet, dlvp):
        for _ in range(50):
            g = rng.normal(size=(m, 3))
            d = rng.normal(size=(m, 3))
            left = np.vdot(apply_green(table, g @ c0.T), d)
            right = np.vdot(g, apply_green(table, d) @ c0.T)
            assert abs(left - right) <= 1e-10 * (1.0 + abs(left))

    # (d) norm bound by the ellipticity ratio on 100 random fields
    lower, upper = ellipticity_bounds(c0)
    ratio = upper / lower
    for table in (dirichlet, dlvp):
        for _ in range(50):
            g = rng.normal(size=(m, 3))
            out = apply_green(table, g @ c0.T)
            assert np.linalg.norm(out) <= ratio * np.linalg.norm(g) * (1.0 + 1e-12)
    assert time.perf_counter() - start < 30.0


def test_homogeneous_material_exact_and_residual_bound():
    # a constant stiffness solves in one iteration with a zero field and
    # the exact mean stress; any converged solve at tol 1e-10 leaves an
    # l2 fixed-point residual below 1e-8 * |eps0|
    mat = [[8, 0], [0, 8]]
    cm = isotropic_stiffness(2.0, 0.25)
    c = np.broadcast_to(cm, (64, 3, 3)).copy()
    c0, table, report = solve_geometry(mat, KernelSpec.dirichlet(mat), c)
    assert report.iterations == 1
    assert not np.any(report.strain)
    assert np.array_equal(report.effective_action, cm @ EPS0)

    geom = HashinGeometry(matrix_material=isotropic_stiffness(5.0, 0.3))
    mat = [[16, 0], [0, 16]]
    c, _ = rasterize_hashin(mat, geom)
    c0, table, report = solve_geometry(mat, KernelSpec.dirichlet(mat), c)
    assert report.converged
    res = residual_ls(report.strain, c, c0, EPS0, table)
    assert res <= 1e-8 * np.linalg.norm(EPS0)


def test_laminate_effective_tensor_within_two_percent_and_converging():
    # two-phase axis laminate against the interface-condition oracle:
    # every component within 2% at m = 64^2, error non-increasing over
    # 16^2 -> 32^2 -> 64^2, under 60 s
    start = time.perf_counter()
    geom = LaminateGeometry(
        isotropic_stiffness(1.0, 0.3),
        isotropic_stiffness(10.0, 0.3),
        normal=(1, 0),
        volume_fraction=0.5,
    )
    oracle = laminate_effective_oracle(geom)
    errs = []
    for n in (16, 32, 64):
        mat = [[n, 0], [0, n]]
        c, _ = rasterize_laminate(mat, geom)
        c0 = default_reference(c)
        table = green_table(KernelSpec.dirichlet(mat), c0)
        eff, _ = effective_tensor(c, c0, table)
        if n == 64:
            assert np.allclose(eff, oracle, rtol=0.02, atol=1e-12)
        errs.append(np.linalg.norm(eff - oracle) / np.linalg.norm(oracle))
    # an axis laminate with equal transverse moduli is exactly
    # representable in every flat-spectrum space, so all three errors sit
    # at the rounding floor (~1e-16); the monotonicity claim is asserted
    # up to that floor rather than on raw noise ordering
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= coarse + 5e-15, errs
    assert errs[-1] < 0.02
    assert time.perf_counter() - start < 60.0


def test_variational_residual_vanishes_only_on_flat_spectrum_space():
    # the fixed-point solution also satisfies the weak form exactly when
    # the spectrum is flat; with trapezoid weights the two formulations
    # measurably disagree on a heterogeneous cell
    geom = HashinGeometry(matrix_material=isotropic_stiffness(5.0, 0.3))
    mat = [[16, 0], [0, 16]]
    c, _ = rasterize_hashin(mat, geom)

    c0, table, report = solve_geometry(mat, KernelSpec.dirichlet(mat), c, tol=1e-11)
    assert residual_variational(report.strain, c, c0, EPS0, table) <= 1e-8

    c0, table, report = solve_geometry(mat, KernelSpec.dlvp(mat, (0.25, 0.25)), c)
    assert report.converged
    assert residual_variational(report.strain, c, c0, EPS0, table) > 1e-4


def test_three_phase_inclusion_error_levels_and_window_slopes():
    # coated-inclusion cell with a user-supplied isotropic matrix phase:
    # the 64^2 solve converges, stays within e_l2 < 0.15 of a 128^2
    # flat-spectrum reference, and at least one trapezoid slope matches
    # the flat-spectrum effective-action error up to a factor 1.2
    geom = HashinGeometry(matrix_material=isotropic_stiffness(5.0, 0.3))
    mat_fine = [[128, 0], [0, 128]]
    mat = [[64, 0], [0, 64]]
    c_fine, _ = rasterize_hashin(mat_fine, geom)
    _, _, ref = solve_geometry(mat_fine, KernelSpec.dirichlet(mat_fine), c_fine)
    ref_eff = effective_action(c_fine, ref.strain, EPS0)
    ref_field = restrict_field(ref.strain, mat_fine, mat)

    c, _ = rasterize_hashin(mat, geom)
    _, _, report = solve_geometry(mat, KernelSpec.dirichlet(mat), c)
    assert report.converged
    e_eff_flat, e_l2, _ = error_metrics(report.strain, ref_field, c, EPS0, ref_eff)
    assert e_l2 < 0.15

    ratios = []
    for a1 in (0.1, 0.25, 0.45):
        _, _, rep = solve_geometry(mat, KernelSpec.dlvp(mat, (a1, 0.0)), c)
        assert rep.converged
        e_eff, _, _ = error_metrics(rep.strain, ref_field, c, EPS0, ref_eff)
        ratios.append(e_eff / e_eff_flat)
    assert min(ratios) <= 1.2, ratios


def test_sweep_outputs_are_byte_identical(tmp_path):
    text = """\
[pattern]
matrix = 8 0 0 8
[kernel]
kind = dirichlet
[geometry]
type = hashin
[load]
eps0 = 1 0 0
[sweep]
alpha1 = 0 0.25
alpha2 = 0 0.25
"""
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", str(path), "--out", str(out1)]) == 0
    assert main(["sweep", str(path), "--out", str(out2)]) == 0
    first = (out1 / "sweep.csv").read_bytes()
    assert first == (out2 / "sweep.csv").read_bytes()
    assert first.startswith(b"alpha1,alpha2,iterations,converged,e_eff,e_l2\n")
