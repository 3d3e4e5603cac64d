import tracemalloc

import numpy as np
import pytest

from lathom.bench import (
    HashinGeometry,
    LaminateGeometry,
    error_metrics,
    laminate_effective_oracle,
    rasterize_hashin,
    restrict_field,
    rotation_matrix,
    stiffness_field,
)
from lathom.cli import nearest_point_grid, write_phase_csv, write_phase_pgm
from lathom.errors import (
    InvalidGeometry,
    NonElliptic,
    PatternMismatch,
    ShapeMismatch,
    ValidationError,
)
from lathom import lattice
from lathom.lattice import pattern_points
from lathom.tensor import IDENTITY_VECTOR, isotropic_stiffness, lame_parameters

from oracles import random_spd_mandel

QUARTER = np.array([[0, -1], [1, 0]], dtype=np.int64)


def iso_from_lame(lam, mu):
    iv = IDENTITY_VECTOR
    return lam * np.outer(iv, iv) + 2.0 * mu * np.eye(3)


def traced_peak(fn, *args):
    """tracemalloc peak of a warm call of fn, whose Smith form is cached
    by the first call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def torus_dist2(x, y):
    delta = np.asarray(y) - np.asarray(x)
    delta = delta - np.rint(delta)
    return np.sum(delta * delta, axis=-1)


def test_rotation_matrix_values():
    assert np.array_equal(rotation_matrix(0.0), np.eye(2))
    assert np.array_equal(rotation_matrix(90.0), QUARTER)
    assert np.array_equal(rotation_matrix(180.0), -np.eye(2))
    assert np.array_equal(rotation_matrix(-90.0), QUARTER.T)
    r = rotation_matrix(30.0)
    assert abs(r[0, 0] - np.sqrt(3) / 2) < 1e-15
    assert abs(r[1, 0] - 0.5) < 1e-15
    # quarter turns factor out exactly
    assert np.array_equal(rotation_matrix(120.0), QUARTER.astype(float) @ rotation_matrix(30.0))


def test_hashin_phase_trivia():
    geom = HashinGeometry()
    # cell centre is inside the core, the far corner is matrix
    assert geom.phase_of([[0.0, 0.0]])[0] == 0
    assert geom.phase_of([[0.49, 0.49]])[0] == 2
    unrotated = HashinGeometry(rotation_degrees=0.0)
    assert unrotated.phase_of([[0.0, 0.3]])[0] == 0
    assert unrotated.phase_of([[0.2, 0.0]])[0] == 1
    # the coating boundary itself is coating (inclusive inequality)
    edge = np.sqrt(unrotated.c1**2 + unrotated.rho_outer)
    assert unrotated.phase_of([[edge, 0.0]])[0] == 1
    assert unrotated.phase_of([[np.nextafter(edge, 1.0), 0.0]])[0] == 2


def test_hashin_defaults():
    geom = HashinGeometry()
    assert (geom.c1, geom.c2, geom.rho_outer) == (0.05, 0.35, 0.09)
    assert geom.rotation_degrees == 60.0
    np.testing.assert_allclose(geom.matrix_material, isotropic_stiffness(5.0, 0.3))
    stack = geom.stiffness_by_phase()
    np.testing.assert_allclose(stack[0], isotropic_stiffness(1.0, 0.3))
    np.testing.assert_allclose(stack[1], isotropic_stiffness(10.0, 0.3))
    # each geometry gets its own default matrices
    assert HashinGeometry().core_material is not geom.core_material


def test_hashin_invalid_geometry():
    # each error names the arguments at fault, which the manifest reader
    # turns into the line of a given key
    with pytest.raises(InvalidGeometry) as info:
        HashinGeometry(c1=0.4)  # c1 >= c2
    assert info.value.parameter == ("c1", "c2")
    with pytest.raises(InvalidGeometry):
        HashinGeometry(c1=0.0)
    with pytest.raises(InvalidGeometry) as info:
        HashinGeometry(rho_outer=0.0)
    assert info.value.parameter == "rho_outer"
    # the phases are Mandel matrices, (young, poisson) pairs are not
    with pytest.raises(ShapeMismatch):
        HashinGeometry(core_material=(-1.0, 0.3))
    with pytest.raises(ShapeMismatch):
        HashinGeometry(coating_material=np.eye(2))
    with pytest.raises(ShapeMismatch):
        HashinGeometry(matrix_material=np.eye(6))
    with pytest.raises(ShapeMismatch):
        HashinGeometry(matrix_material=np.ones(4))


def test_hashin_rasterize_shapes():
    geom = HashinGeometry()
    c, phases = rasterize_hashin([[8, 0], [0, 8]], geom)
    assert c.shape == (64, 3, 3)
    assert phases.shape == (64,)
    assert phases.dtype == np.int8
    stack = geom.stiffness_by_phase()
    np.testing.assert_array_equal(c, stack[phases])
    # rasterize_hashin expands stiffness_field, whose codes are phases_at
    # of the pattern's exact rationals
    field = stiffness_field([[8, 0], [0, 8]], geom)
    np.testing.assert_array_equal(field.phases, phases)
    np.testing.assert_array_equal(field.stiffness, stack)
    pat = pattern_points([[8, 0], [0, 8]])
    np.testing.assert_array_equal(geom.phases_at(pat.numerators, pat.denominator), phases)


def test_hashin_fractions_against_monte_carlo():
    # independent area estimate: classify uniform samples with formulas
    # written out by hand here, then compare per-phase fractions
    geom = HashinGeometry()
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.5, 0.5, size=(1_000_000, 2))
    t = np.radians(60.0)
    x1 = np.cos(t) * pts[:, 0] + np.sin(t) * pts[:, 1]
    x2 = -np.sin(t) * pts[:, 0] + np.cos(t) * pts[:, 1]
    q_core = (x1 / 0.05) ** 2 + (x2 / 0.35) ** 2
    q_out = x1**2 / (0.05**2 + 0.09) + x2**2 / (0.35**2 + 0.09)
    mc = np.array(
        [
            np.mean(q_core <= 1.0),
            np.mean((q_core > 1.0) & (q_out <= 1.0)),
            np.mean(q_out > 1.0),
        ]
    )
    phases = stiffness_field([[256, 0], [0, 256]], geom).phases
    grid = np.bincount(phases, minlength=3) / phases.size
    assert np.all(np.abs(mc - grid) < 0.01)
    # sanity: all three phases are present and matrix dominates
    assert np.all(grid > 0.0) and grid[2] > 0.5


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("base", [0.0, 60.0])
def test_hashin_quarter_turn_permutes_phases(n, base):
    # rotating the ellipses by 90 degrees relabels the sampled phases by
    # the quarter-turn permutation of the pattern, with no float slack
    m_mat = [[n, 0], [0, n]]
    pat = pattern_points(m_mat)
    phases = stiffness_field(m_mat, HashinGeometry(rotation_degrees=base)).phases
    rotated = stiffness_field(m_mat, HashinGeometry(rotation_degrees=base + 90.0)).phases
    np.testing.assert_array_equal(rotated[pat.index(pat.z @ QUARTER.T)], phases)


@pytest.mark.parametrize("kind", ["hashin", "oblique laminate"])
def test_stiffness_field_memory_is_its_codes_and_one_block(kind):
    # the pattern is sampled a block of points at a time: the tracemalloc
    # peak of stiffness_field is its int8 codes, one byte per point, plus
    # the temporaries of one block (about 96 bytes per block point), at
    # two sizes of the pattern; the whole Pattern (z, numerators and
    # points with their temporaries, about 96 bytes per point) would not fit
    c1, c2 = isotropic_stiffness(1.0, 0.3), isotropic_stiffness(4.0, 0.3)
    geom = HashinGeometry() if kind == "hashin" else LaminateGeometry(c1, c2, normal=(2, 1))
    for n in (256, 512):
        peak = traced_peak(stiffness_field, [[n, 0], [n // 2, n]], geom)
        assert peak <= n * n + 128 * lattice._POINT_BLOCK


def test_laminate_invalid_geometry():
    c = isotropic_stiffness(1.0, 0.3)
    with pytest.raises(InvalidGeometry) as info:
        LaminateGeometry(c, c, volume_fraction=0.0)
    assert info.value.parameter == "volume_fraction"
    with pytest.raises(InvalidGeometry):
        LaminateGeometry(c, c, volume_fraction=1.2)
    with pytest.raises(InvalidGeometry) as info:
        LaminateGeometry(c, c, normal=(0, 0))
    assert info.value.parameter == "normal"
    with pytest.raises(InvalidGeometry):
        LaminateGeometry(c, c, normal=(0.5, 1.0))
    with pytest.raises(InvalidGeometry):
        LaminateGeometry(c, c, normal=(1, 0, 0))
    with pytest.raises(ShapeMismatch):
        LaminateGeometry(c, np.eye(6))
    with pytest.raises(ShapeMismatch):
        LaminateGeometry(np.eye(4), np.eye(4))


def test_laminate_split_counts():
    c1 = isotropic_stiffness(1.0, 0.3)
    c2 = isotropic_stiffness(10.0, 0.3)
    geom = LaminateGeometry(c1, c2, normal=(1, 0), volume_fraction=0.5)
    m_mat = [[4, 0], [0, 4]]
    pat = pattern_points(m_mat)
    phases = geom.phases_at(pat.numerators, pat.denominator)
    assert phases.dtype == np.int8
    assert np.bincount(phases, minlength=2).tolist() == [8, 8]
    # phase 1 is exactly the half-open left slab
    np.testing.assert_array_equal(phases == 0, pat.points[:, 0] < 0.0)
    field = stiffness_field(m_mat, geom)
    np.testing.assert_array_equal(field.phases, phases)
    c = field.gather(field.stiffness)
    np.testing.assert_array_equal(c[phases == 0], np.broadcast_to(c1, (8, 3, 3)))
    np.testing.assert_array_equal(c[phases == 1], np.broadcast_to(c2, (8, 3, 3)))


def test_laminate_full_fraction_is_homogeneous():
    c1 = isotropic_stiffness(2.0, 0.2)
    c2 = isotropic_stiffness(7.0, 0.3)
    geom = LaminateGeometry(c1, c2, volume_fraction=1.0)
    field = stiffness_field([[5, 0], [0, 3]], geom)
    np.testing.assert_array_equal(field.gather(field.stiffness), np.broadcast_to(c1, (15, 3, 3)))
    np.testing.assert_array_equal(field.phases, np.zeros(15))


def test_laminate_fraction_bound():
    c = isotropic_stiffness(1.0, 0.3)
    pat = pattern_points([[8, 0], [0, 8]])
    for f1 in np.linspace(0.05, 0.95, 19):
        geom = LaminateGeometry(c, c, normal=(1, 0), volume_fraction=float(f1))
        count = int(np.sum(geom.phases_at(pat.numerators, pat.denominator) == 0))
        # 8 distinct layers along the normal
        assert abs(count / 64.0 - f1) <= 1.0 / 8.0 + 1e-12


def test_laminate_normal_directions():
    c1 = isotropic_stiffness(1.0, 0.3)
    c2 = isotropic_stiffness(10.0, 0.3)
    m_mat = [[8, 0], [0, 8]]
    pat = pattern_points(m_mat)
    geom = LaminateGeometry(c1, c2, normal=(0, 1), volume_fraction=0.5)
    phases = geom.phases_at(pat.numerators, pat.denominator)
    np.testing.assert_array_equal(phases == 0, pat.points[:, 1] < 0.0)
    # oblique normal still splits the measure evenly
    geom = LaminateGeometry(c1, c2, normal=(1, 1), volume_fraction=0.5)
    assert int(np.sum(geom.phases_at(pat.numerators, pat.denominator) == 0)) == 32


def test_laminate_oracle_identical_phases():
    c = isotropic_stiffness(2.0, 0.25)
    geom = LaminateGeometry(c, c, volume_fraction=0.37)
    np.testing.assert_allclose(laminate_effective_oracle(geom), c, atol=1e-14)


def test_laminate_oracle_single_phase_limit():
    c1 = isotropic_stiffness(2.0, 0.25)
    c2 = isotropic_stiffness(9.0, 0.1)
    geom = LaminateGeometry(c1, c2, volume_fraction=1.0)
    np.testing.assert_allclose(laminate_effective_oracle(geom), c1, atol=1e-14)


def test_laminate_oracle_between_bounds():
    c1 = isotropic_stiffness(1.0, 0.3)
    c2 = isotropic_stiffness(10.0, 0.3)
    f1 = 0.4
    geom = LaminateGeometry(c1, c2, normal=(1, 0), volume_fraction=f1)
    ceff = laminate_effective_oracle(geom)
    voigt = f1 * c1 + (1 - f1) * c2
    reuss = np.linalg.inv(f1 * np.linalg.inv(c1) + (1 - f1) * np.linalg.inv(c2))
    rng = np.random.default_rng(3)
    for _ in range(20):
        e = rng.normal(size=3)
        lower = e @ reuss @ e
        upper = e @ voigt @ e
        val = e @ ceff @ e
        assert lower - 1e-10 <= val <= upper + 1e-10
    # equal Poisson ratios make the phases proportional, so the normal
    # column degenerates to the harmonic mean; 2222 pinches strictly
    np.testing.assert_allclose(ceff[0, 0], reuss[0, 0], rtol=1e-12)
    lam1, mu1 = lame_parameters(1.0, 0.3)
    lam2, mu2 = lame_parameters(10.0, 0.3)
    shear_harmonic = 1.0 / (f1 / (2 * mu1) + (1 - f1) / (2 * mu2))
    np.testing.assert_allclose(ceff[2, 2], shear_harmonic, rtol=1e-12)
    assert reuss[1, 1] + 1e-3 < ceff[1, 1] < voigt[1, 1] - 1e-3


def test_laminate_oracle_shear_is_arithmetic_mean():
    # equal shear moduli: a transverse shear loading produces no strain
    # jump, so that column of the tensor is the plain volume average
    mu = 0.9
    c1 = iso_from_lame(1.2, mu)
    c2 = iso_from_lame(3.4, mu)
    f1 = 0.3
    geom = LaminateGeometry(c1, c2, normal=(1, 0), volume_fraction=f1)
    ceff = laminate_effective_oracle(geom)
    voigt = f1 * c1 + (1 - f1) * c2
    np.testing.assert_allclose(ceff[:, 2], voigt[:, 2], atol=1e-12)
    np.testing.assert_allclose(ceff[2, :], voigt[2, :], atol=1e-12)


def test_laminate_oracle_normal_scaling_and_swap():
    c1 = isotropic_stiffness(1.0, 0.3)
    c2 = isotropic_stiffness(6.0, 0.2)
    base = laminate_effective_oracle(
        LaminateGeometry(c1, c2, normal=(1, 0), volume_fraction=0.4)
    )
    scaled = laminate_effective_oracle(
        LaminateGeometry(c1, c2, normal=(3, 0), volume_fraction=0.4)
    )
    np.testing.assert_allclose(scaled, base, atol=1e-12)
    # for isotropic phases the (0,1) laminate is the axis swap of (1,0)
    swapped = laminate_effective_oracle(
        LaminateGeometry(c1, c2, normal=(0, 1), volume_fraction=0.4)
    )
    perm = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    np.testing.assert_allclose(swapped, perm @ base @ perm.T, atol=1e-12)


def test_laminate_oracle_anisotropic_phases():
    rng = np.random.default_rng(11)
    for _ in range(5):
        c1 = random_spd_mandel(rng, 3)
        c2 = random_spd_mandel(rng, 3)
        f1 = float(rng.uniform(0.2, 0.8))
        geom = LaminateGeometry(c1, c2, normal=(2, 1), volume_fraction=f1)
        ceff = laminate_effective_oracle(geom)
        np.testing.assert_allclose(ceff, ceff.T, atol=1e-12)
        assert np.linalg.eigvalsh(ceff)[0] > 0.0
        voigt = f1 * c1 + (1 - f1) * c2
        reuss = np.linalg.inv(f1 * np.linalg.inv(c1) + (1 - f1) * np.linalg.inv(c2))
        for _ in range(5):
            e = rng.normal(size=3)
            assert e @ reuss @ e - 1e-9 <= e @ ceff @ e <= e @ voigt @ e + 1e-9


def test_laminate_oracle_rejects_non_elliptic():
    c1 = isotropic_stiffness(1.0, 0.3)
    geom = LaminateGeometry(c1, -np.eye(3), volume_fraction=0.5)
    with pytest.raises(NonElliptic, match="phase 2 stiffness is not positive definite"):
        laminate_effective_oracle(geom)


def test_laminate_oracle_refuses_what_the_solver_refuses():
    # a NaN phase has no eigenvalues (NonElliptic, not numpy's LinAlgError),
    # and an asymmetric phase would otherwise come back symmetrised
    from lathom.green import periodised_green_table
    from lathom.kernels import KernelSpec, coefficient_table
    from lathom.solver import basic_scheme

    c = isotropic_stiffness(1.0, 0.3)
    nan = c.copy()
    nan[1, 2] = np.nan
    asymmetric = c.copy()
    asymmetric[0, 1] += 1.0
    mat = [[4, 0], [0, 4]]
    table = periodised_green_table(c, coefficient_table(KernelSpec.dirichlet(mat)))
    for bad in (nan, asymmetric):
        for geom in (LaminateGeometry(bad, c), LaminateGeometry(c, bad)):
            with pytest.raises(NonElliptic):
                laminate_effective_oracle(geom)
            field = stiffness_field(mat, geom)
            for c_field in (field, field.gather(field.stiffness)):
                with pytest.raises(NonElliptic):
                    basic_scheme(c_field, np.ones(3), table)


def test_laminate_oracle_names_the_refused_phase():
    # the non-finite and asymmetry refusals name the phase as well
    c = isotropic_stiffness(1.0, 0.3)
    nan = c.copy()
    nan[1, 2] = np.nan
    asymmetric = c.copy()
    asymmetric[0, 1] += 1.0
    with pytest.raises(NonElliptic, match="^phase 2 stiffness has a non-finite entry$"):
        laminate_effective_oracle(LaminateGeometry(c, nan))
    with pytest.raises(NonElliptic, match="^phase 1 stiffness is not symmetric"):
        laminate_effective_oracle(LaminateGeometry(asymmetric, c))


def test_error_metrics_identical_fields():
    rng = np.random.default_rng(5)
    sol = rng.normal(size=(12, 3))
    eps0 = np.array([1.0, 0.0, 0.0])
    c = isotropic_stiffness(2.0, 0.3)
    ref_eff = np.array([2.0, 1.0, 0.5])
    from lathom.solver import effective_action

    act = effective_action(c, sol, eps0)
    e_eff, e_l2, e_log = error_metrics(sol, sol, c, eps0, act)
    assert e_eff == 0.0 and e_l2 == 0.0
    np.testing.assert_array_equal(e_log, np.zeros(12))
    # nonzero against a different reference tensor
    e_eff, _, _ = error_metrics(sol, sol, c, eps0, ref_eff)
    assert e_eff == pytest.approx(np.linalg.norm(act - ref_eff) / np.linalg.norm(ref_eff))


def test_error_metrics_values():
    m = 8
    sol = np.zeros((m, 3))
    ref = np.zeros((m, 3))
    ref[3, 0] = np.e - 1.0
    eps0 = np.array([0.0, 1.0, 0.0])
    c = isotropic_stiffness(1.0, 0.0)
    ref_eff = np.array([0.0, 1.0, 0.0])
    e_eff, e_l2, e_log = error_metrics(sol, ref, c, eps0, ref_eff)
    expected_l2 = np.linalg.norm(sol - ref) / np.linalg.norm(ref + eps0)
    assert e_l2 == pytest.approx(expected_l2, rel=1e-14)
    assert e_log[3] == pytest.approx(1.0, abs=1e-15)
    assert np.all(e_log[np.arange(m) != 3] == 0.0)
    # identity stiffness, zero fluctuation: mean stress equals eps0 exactly
    assert e_eff == 0.0


def test_error_metrics_summed_action_mode():
    rng = np.random.default_rng(9)
    m = 6
    sol = rng.normal(size=(m, 3))
    ref = rng.normal(size=(m, 3))
    eps0 = np.array([1.0, 0.0, 0.0])
    c = isotropic_stiffness(3.0, 0.25)
    summed_ref = np.sum(ref @ c.T, axis=0)
    e_eff, _, _ = error_metrics(sol, ref, c, eps0, summed_ref, mode="summed_action")
    summed_sol = np.sum(sol @ c.T, axis=0)
    expected = np.linalg.norm(summed_sol - summed_ref) / np.linalg.norm(summed_ref)
    assert e_eff == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValidationError):
        error_metrics(sol, ref, c, eps0, summed_ref, mode="bogus")


def test_error_metrics_mismatches():
    c = isotropic_stiffness(1.0, 0.3)
    eps0 = np.zeros(3)
    with pytest.raises(PatternMismatch):
        error_metrics(np.zeros((4, 3)), np.zeros((5, 3)), c, eps0, np.zeros(3))
    with pytest.raises(ShapeMismatch):
        error_metrics(np.zeros(4), np.zeros(4), c, eps0, np.zeros(3))


def test_restrict_field_exact_subsampling():
    fine = [[8, 0], [0, 8]]
    coarse = [[4, 0], [0, 4]]
    fpat = pattern_points(fine)
    cpat = pattern_points(coarse)
    field = np.column_stack(
        [fpat.points @ [2.0, 3.0], fpat.points[:, 0] * fpat.points[:, 1]]
    )
    expected = np.column_stack(
        [cpat.points @ [2.0, 3.0], cpat.points[:, 0] * cpat.points[:, 1]]
    )
    np.testing.assert_array_equal(restrict_field(field, fine, coarse), expected)
    # trailing dims survive
    tensor_field = np.broadcast_to(np.eye(3), (64, 3, 3)).copy()
    assert restrict_field(tensor_field, fine, coarse).shape == (16, 3, 3)


def test_restrict_field_non_diagonal():
    fine = [[8, 2], [0, 8]]
    coarse = [[4, 1], [0, 4]]
    fpat = pattern_points(fine)
    field = np.arange(len(fpat), dtype=float)
    out = restrict_field(field, fine, coarse)
    assert out.shape == (16,)
    # every selected fine point coincides with its coarse point
    cpat = pattern_points(coarse)
    sel = fpat.points[out.astype(int)]
    np.testing.assert_allclose(torus_dist2(sel, cpat.points), 0.0, atol=1e-30)


def test_restrict_field_rejects_non_refining():
    with pytest.raises(PatternMismatch):
        restrict_field(np.zeros((36, 3)), [[6, 0], [0, 6]], [[4, 0], [0, 4]])
    with pytest.raises(ShapeMismatch):
        restrict_field(np.zeros((10, 3)), [[8, 0], [0, 8]], [[4, 0], [0, 4]])


def test_restrict_field_memory_is_the_coarse_pattern():
    # restricting 2M to M on a nontrivial Smith form indexes the fine
    # pattern through its Smith form: the tracemalloc peak is the returned
    # field (6 bytes per fine point here) and the coarse coordinates z with
    # their temporaries, about 24 bytes per fine point in all; building the
    # fine Pattern as well would take 96
    for n in (128, 256):
        field = np.zeros((4 * n * n, 3))
        peak = traced_peak(restrict_field, field, [[2 * n, 0], [n, 2 * n]], [[n, 0], [n // 2, n]])
        assert peak <= 32 * len(field)


def test_restrict_matches_coarse_rasterization():
    geom = HashinGeometry()
    fine = [[32, 0], [0, 32]]
    coarse = [[16, 0], [0, 16]]
    fine_phases = stiffness_field(fine, geom).phases
    coarse_phases = stiffness_field(coarse, geom).phases
    np.testing.assert_array_equal(
        restrict_field(fine_phases, fine, coarse), coarse_phases
    )


def test_nearest_point_grid_diagonal_identity():
    m_mat = [[4, 0], [0, 4]]
    pat = pattern_points(m_mat)
    grid = nearest_point_grid(m_mat)
    assert grid.shape == (4, 4)
    assert sorted(grid.ravel().tolist()) == list(range(16))
    # every pixel sits exactly on its own pattern point
    for r in range(4):
        for c in range(4):
            x = np.array([c / 4.0 - 0.5, 0.5 - (r + 1) / 4.0])
            np.testing.assert_array_equal(pat.points[grid[r, c]], x)


def test_nearest_point_grid_picks_nearest():
    m_mat = [[3, 0], [0, 3]]
    pat = pattern_points(m_mat)
    grid = nearest_point_grid(m_mat, shape=(8, 8))
    for r in range(8):
        for c in range(8):
            x = np.array([c / 8.0 - 0.5, 0.5 - (r + 1) / 8.0])
            dists = torus_dist2(x, pat.points)
            assert dists[grid[r, c]] <= dists.min() + 1e-12


def test_nearest_point_grid_default_shapes():
    grid = nearest_point_grid([[4, 2], [0, 6]])
    assert grid.size == 24
    again = nearest_point_grid([[4, 2], [0, 6]])
    np.testing.assert_array_equal(grid, again)
    assert grid.min() >= 0 and grid.max() < 24
    custom = nearest_point_grid([[4, 0], [0, 4]], shape=(5, 7))
    assert custom.shape == (5, 7)
    with pytest.raises(ShapeMismatch):
        nearest_point_grid([[4, 0], [0, 4]], shape=(0, 7))


def test_phase_csv_roundtrip(tmp_path):
    m_mat = [[4, 0], [0, 4]]
    geom = HashinGeometry()
    phases = stiffness_field(m_mat, geom).phases
    path = tmp_path / "phases.csv"
    write_phase_csv(path, m_mat, phases)
    lines = path.read_text().splitlines()
    assert lines[0] == "y1,y2,phase"
    assert len(lines) == 17
    pat = pattern_points(m_mat)
    for i, line in enumerate(lines[1:]):
        y1, y2, code = line.split(",")
        np.testing.assert_array_equal(
            [float(y1), float(y2)], pat.points[i]
        )
        assert int(code) == phases[i]
    first = path.read_bytes()
    write_phase_csv(path, m_mat, phases)
    assert path.read_bytes() == first


def test_phase_pgm_image(tmp_path):
    m_mat = [[4, 0], [0, 4]]
    pat = pattern_points(m_mat)
    target = 5
    phases = np.zeros(16, dtype=np.int8)
    phases[target] = 1
    path = tmp_path / "phases.pgm"
    write_phase_pgm(path, m_mat, phases)
    data = path.read_bytes()
    header = b"P5\n4 4\n255\n"
    assert data.startswith(header)
    img = np.frombuffer(data[len(header) :], dtype=np.uint8).reshape(4, 4)
    # exactly the raster cell of the flagged point is black
    assert int(np.sum(img == 0)) == 1
    y = pat.points[target]
    col = round((y[0] + 0.5) * 4)
    row = round((0.5 - y[1]) * 4 - 1)
    assert img[row, col] == 0
    assert np.all(img[img != 0] == 255)


def test_phase_pgm_memory_is_its_raster(tmp_path):
    # the raster indexes the pattern through its Smith form: the tracemalloc
    # peak is the (height, width) int64 index raster and the temporaries of
    # one raster row (a 5 x 5 stencil of candidates per pixel, about 1.7 KB
    # per column); the whole Pattern would add 96 bytes per point
    for n in (128, 256):
        m_mat = [[n, 0], [n // 2, n]]
        height, width = nearest_point_grid(m_mat).shape  # the Smith grid
        phases = (np.arange(n * n) % 3).astype(np.int8)
        peak = traced_peak(write_phase_pgm, tmp_path / "phases.pgm", m_mat, phases)
        assert peak <= 8 * height * width + 2560 * width


def test_phase_pgm_three_levels_and_shape(tmp_path):
    m_mat = [[8, 0], [0, 8]]
    phases = stiffness_field(m_mat, HashinGeometry()).phases
    path = tmp_path / "map.pgm"
    write_phase_pgm(path, m_mat, phases, shape=(16, 16))
    data = path.read_bytes()
    assert data.startswith(b"P5\n16 16\n255\n")
    img = np.frombuffer(data[13:], dtype=np.uint8)
    assert img.size == 256
    assert set(np.unique(img)).issubset({0, 127, 255})
    first = data
    write_phase_pgm(path, m_mat, phases, shape=(16, 16))
    assert path.read_bytes() == first


def test_phase_writer_guards(tmp_path):
    with pytest.raises(ShapeMismatch):
        write_phase_csv(tmp_path / "x.csv", [[4, 0], [0, 4]], np.zeros(9, dtype=int))
    with pytest.raises(ShapeMismatch):
        write_phase_pgm(tmp_path / "x.pgm", [[4, 0], [0, 4]], np.zeros(16))
    with pytest.raises(ShapeMismatch):
        write_phase_pgm(
            tmp_path / "x.pgm", [[4, 0], [0, 4]], np.full(16, -1, dtype=int)
        )


def test_laminate_solver_matches_oracle():
    # end to end: transform-based solve against the interface-condition
    # tensor on a modest grid
    from lathom.green import periodised_green_table
    from lathom.kernels import KernelSpec, coefficient_table, orthonormalize
    from lathom.solver import default_reference, effective_tensor

    c1 = isotropic_stiffness(1.0, 0.3)
    c2 = isotropic_stiffness(10.0, 0.3)
    geom = LaminateGeometry(c1, c2, normal=(1, 0), volume_fraction=0.5)
    m_mat = [[32, 0], [0, 32]]
    c = stiffness_field(m_mat, geom)
    c0 = default_reference(c)
    table = periodised_green_table(
        c0, orthonormalize(coefficient_table(KernelSpec.dirichlet(m_mat)))
    )
    ceff, asym = effective_tensor(c, table, tol=1e-10)
    oracle = laminate_effective_oracle(geom)
    assert asym < 1e-8
    np.testing.assert_allclose(ceff, oracle, rtol=2e-3, atol=2e-3)
