import itertools
import os
import tracemalloc

import numpy as np
import pytest

from lathom.errors import (
    Diverged,
    NonElliptic,
    NotConverged,
    ShapeMismatch,
    ValidationError,
)
from lathom.green import apply_green, periodised_green_table
from lathom.kernels import KernelSpec, coefficient_table, orthonormalize, three_direction_set
from lathom.bench import HashinGeometry, stiffness_field
from lathom.cli import (
    _texts,
    _write_atomic,
    _write_csv,
    report_summary,
    write_phase_csv,
    write_strain_csv,
)
from lathom.lattice import pattern_points
from lathom import lattice, solver
from lathom.solver import (
    StiffnessField,
    _as_stiffness_field,
    _entry_rows,
    _exact_mean,
    basic_scheme,
    default_reference,
    effective_action,
    effective_tensor,
    residual_ls,
)
from lathom.tensor import (
    apply_symmetric,
    ellipticity_bounds,
    isotropic_stiffness,
    lame_parameters,
    lame_stiffness,
)

from oracles import (
    classical_basic_scheme,
    periodised_basic_scheme,
    random_spd_mandel,
    residual_variational,
    stiffness_product,
)


def green_table(m_mat, c0, kind="dirichlet", alpha=None):
    if kind == "dirichlet":
        spec = KernelSpec.dirichlet(m_mat)
    else:
        spec = KernelSpec.dlvp(m_mat, alpha)
    return periodised_green_table(c0, orthonormalize(coefficient_table(spec)))


def two_phase_field(m_mat, c_left, c_right):
    """Half-space laminate: phase decided by the sign of y1."""
    points = pattern_points(m_mat).points
    field = np.where((points[:, 0] < 0)[:, None, None], c_left, c_right)
    return field


def test_homogeneous_material_converges_in_one_iteration():
    c0 = isotropic_stiffness(1.0, 0.0)  # identity in Mandel notation
    table = green_table([[4, 0], [0, 4]], c0)
    eps0 = np.array([1.0, 0.25, -0.5])
    report = basic_scheme(np.broadcast_to(c0, (16, 3, 3)), eps0, table)
    assert report.converged
    assert report.iterations == 1
    assert np.array_equal(report.strain, np.zeros((16, 3)))
    # identity stiffness, zero fluctuation: the action is exactly eps0
    assert np.array_equal(report.effective_action, eps0)
    assert report.residual_history == [0.0]


def test_zero_loading_gives_zero_strain():
    c0 = isotropic_stiffness(2.0, 0.3)
    table = green_table([[4, 0], [0, 4]], c0)
    c = two_phase_field([[4, 0], [0, 4]], isotropic_stiffness(1.0, 0.3), isotropic_stiffness(5.0, 0.3))
    report = basic_scheme(c, np.zeros(3), table)
    assert report.iterations == 1
    assert np.all(report.strain == 0.0)


def test_non_elliptic_field_rejected():
    c0 = isotropic_stiffness(1.0, 0.3)
    table = green_table([[4, 0], [0, 4]], c0)
    c = np.broadcast_to(c0, (16, 3, 3)).copy()
    c[3] = 0.0
    with pytest.raises(NonElliptic):
        basic_scheme(c, np.array([1.0, 0.0, 0.0]), table)
    # a non-finite entry has no eigenvalues: NonElliptic, not numpy's LinAlgError
    c = np.broadcast_to(c0, (16, 3, 3)).copy()
    c[3, 0, 1] = np.nan
    with pytest.raises(NonElliptic):
        basic_scheme(c, np.array([1.0, 0.0, 0.0]), table)
    # eigvalsh reads one triangle: a non-symmetric field must not pass
    c = np.broadcast_to(c0, (16, 3, 3)).copy()
    c[3, 0, 1] += 0.1
    with pytest.raises(NonElliptic, match="not symmetric"):
        basic_scheme(c, np.array([1.0, 0.0, 0.0]), table)


def test_non_elliptic_message_carries_the_eigvalsh_bound():
    c0 = isotropic_stiffness(1.0, 0.3)
    table = green_table([[4, 0], [0, 4]], c0)
    c = np.broadcast_to(c0, (16, 3, 3)).copy()
    c[5] = -0.25 * c0
    lower, _ = ellipticity_bounds(c)
    assert lower < 0.0
    with pytest.raises(NonElliptic, match=f"lower bound {lower:.3e}"):
        basic_scheme(c, np.array([1.0, 0.0, 0.0]), table)


def test_validation_guards():
    c0 = isotropic_stiffness(1.0, 0.3)
    table = green_table([[4, 0], [0, 4]], c0)
    c = np.broadcast_to(c0, (16, 3, 3))
    with pytest.raises(ValidationError):
        basic_scheme(c, np.zeros(3), table, tol=0.0)
    with pytest.raises(ShapeMismatch):
        basic_scheme(c, np.zeros(4), table)
    # the manifest schema checks these for the command line; library
    # callers get the same guard instead of a run that ignores them
    for max_iter in (0, -1, 2.5):
        with pytest.raises(ValidationError, match="max_iter"):
            basic_scheme(c, np.zeros(3), table, max_iter=max_iter)
    for tol in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="tolerance"):
            basic_scheme(c, np.zeros(3), table, tol=tol)
    with pytest.raises(ValidationError, match="finite"):
        basic_scheme(c, np.array([1.0, np.nan, 0.0]), table)


def test_solution_satisfies_fixed_point_residual():
    mat = [[8, 0], [0, 8]]
    c1, c2 = isotropic_stiffness(1.0, 0.3), isotropic_stiffness(10.0, 0.3)
    c = two_phase_field(mat, c1, c2)
    c0 = default_reference(c)
    table = green_table(mat, c0)
    eps0 = np.array([1.0, 0.0, 0.0])
    report = basic_scheme(c, eps0, table, tol=1e-10)
    assert report.converged
    res = residual_ls(report.strain, c, c0, eps0, table)
    assert res <= 1e-8 * np.linalg.norm(eps0)


def test_residual_trivia():
    mat = [[4, 0], [0, 4]]
    c0 = isotropic_stiffness(1.0, 0.3)
    table = green_table(mat, c0)
    m = table.matrix.m
    eps0 = np.array([1.0, 0.0, 0.0])
    zero = np.zeros((m, 3))
    homog = np.broadcast_to(c0, (m, 3, 3))
    assert residual_ls(zero, homog, c0, eps0, table) == 0.0
    hetero = two_phase_field(mat, isotropic_stiffness(1.0, 0.3), isotropic_stiffness(3.0, 0.3))
    assert residual_ls(zero, hetero, c0, eps0, table) > 1e-3
    # constant total strain passes through the zeroed mean class
    assert residual_variational(zero, homog, c0, eps0, table) <= 1e-14
    with pytest.raises(ShapeMismatch):
        residual_ls(np.zeros((m, 4)), hetero, c0, eps0, table)
    with pytest.raises(ShapeMismatch):
        residual_variational(np.zeros((m + 1, 3)), hetero, c0, eps0, table)


def test_residual_ls_validates_as_the_solver_does():
    # a broadcast eps0 or a foreign reference would be the residual of
    # another equation
    mat = [[4, 0], [0, 4]]
    c0 = isotropic_stiffness(1.0, 0.3)
    table = green_table(mat, c0)
    m = table.matrix.m
    zero = np.zeros((m, 3))
    c = two_phase_field(mat, isotropic_stiffness(1.0, 0.3), isotropic_stiffness(3.0, 0.3))
    for eps0 in (np.ones(1), np.ones((1, 3)), np.ones((m, 3))):
        with pytest.raises(ShapeMismatch):
            residual_ls(zero, c, c0, eps0, table)
        with pytest.raises(ShapeMismatch):
            basic_scheme(c, eps0, table)
    with pytest.raises(ValidationError, match="finite"):
        residual_ls(zero, c, c0, np.array([1.0, np.inf, 0.0]), table)
    with pytest.raises(ValidationError, match="reference"):
        residual_ls(zero, c, isotropic_stiffness(2.0, 0.3), np.ones(3), table)


def test_mean_stress_and_ls_residual_multiply_by_the_solvers_rows():
    # exactly symmetric anisotropic phases, on which the per-point einsum
    # sums in another order: the mean stress is the exact mean of the
    # solver's own six-entry product bit for bit, real and complex, and it
    # and the LS residual agree with the einsum oracle to 1e-14 relative
    rng = np.random.default_rng(11)
    mat = [[4, 0], [0, 4]]
    stiffness = np.stack([random_spd_mandel(rng, 3) for _ in range(3)])
    assert np.array_equal(stiffness, np.swapaxes(stiffness, -1, -2))
    field = StiffnessField(stiffness, rng.integers(0, 3, 16))
    dense = field.gather(stiffness)
    c0 = random_spd_mandel(rng, 3)
    even = green_table(mat, c0, kind="dlvp", alpha=(0.25, 0.25))
    uneven = green_table(mat, c0)
    assert even.even_table and not uneven.even_table
    real = rng.normal(size=(16, 3))
    for strain, table in ((real, even), (real + 1j * rng.normal(size=(16, 3)), uneven)):
        eps0 = rng.normal(size=3)
        total = np.ascontiguousarray(strain.T) + eps0[:, None]
        rows = field.gather(_entry_rows(stiffness), axis=1)
        stress = apply_symmetric(rows, total, np.empty_like(total), total[0].copy())
        action = effective_action(field, strain, eps0)
        assert np.array_equal(action, _exact_mean(stress))
        expected = stiffness_product(dense, strain + eps0).mean(axis=0)
        assert np.linalg.norm(action - expected) <= 1e-14 * np.linalg.norm(expected)
        tau = stiffness_product(dense - c0, strain + eps0)
        expected = np.linalg.norm(strain + apply_green(table, tau))
        residual = residual_ls(strain, field, c0, eps0, table)
        assert abs(residual - expected) <= 1e-14 * expected


def test_variational_residual_distinguishes_kernels():
    # needs genuinely two-dimensional heterogeneity: for 1-d laminates with
    # equal Poisson ratio the total stress is constant, both formulations
    # coincide, and the residual vanishes for every kernel
    mat = [[9, 0], [0, 9]]
    rng = np.random.default_rng(17)
    young = rng.uniform(1.0, 4.0, size=81)
    c = np.stack([isotropic_stiffness(e, 0.3) for e in young])
    c0 = default_reference(c)
    eps0 = np.array([1.0, 0.0, 0.0])
    dirich = green_table(mat, c0)
    rep = basic_scheme(c, eps0, dirich, tol=1e-12)
    assert residual_variational(rep.strain, c, c0, eps0, dirich) <= 1e-8
    trap = green_table(mat, c0, kind="dlvp", alpha=(0.25, 0.25))
    rep2 = basic_scheme(c, eps0, trap, tol=1e-12)
    assert residual_ls(rep2.strain, c, c0, eps0, trap) <= 1e-9
    assert residual_variational(rep2.strain, c, c0, eps0, trap) > 1e-4


def test_matches_classical_scheme_on_tensor_grids():
    # independently coded plain-FFT Basic Scheme, including the honest
    # complex leakage of the half-open truncation on even grids
    rng = np.random.default_rng(42)
    n1, n2 = 4, 6
    lam_lo, mu_lo = lame_parameters(1.0, 0.3)
    lam_hi, mu_hi = lame_parameters(2.5, 0.3)
    lam0, mu0 = 0.5 * (lam_lo + lam_hi), 0.5 * (mu_lo + mu_hi)
    young = rng.uniform(1.0, 2.5, size=(n1, n2))
    c_grid = np.zeros((n1, n2, 3, 3))
    for i in range(n1):
        for j in range(n2):
            c_grid[i, j] = isotropic_stiffness(young[i, j], 0.3)
    eps0 = np.array([1.0, -0.3, 0.7])
    classical_strain, classical_iters = classical_basic_scheme(c_grid, lam0, mu0, eps0, tol=1e-11)

    mat = [[n1, 0], [0, n2]]
    pattern = pattern_points(mat)
    idx = pattern.index(np.stack(np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij"), axis=-1))
    c_field = np.zeros((n1 * n2, 3, 3))
    c_field[idx.reshape(-1)] = c_grid.reshape(-1, 3, 3)
    iv = np.array([1.0, 1.0, 0.0])
    c0 = lam0 * np.outer(iv, iv) + 2.0 * mu0 * np.eye(3)
    table = green_table(mat, c0)
    assert not table.even_table  # even axes present
    # the same iteration on the library's Green table takes the same steps
    basic_strain, basic_iters = periodised_basic_scheme(c_field, c0, eps0, table, tol=1e-11)
    assert np.allclose(basic_strain[idx], classical_strain, atol=1e-10)
    assert abs(basic_iters - classical_iters) <= 1
    report = basic_scheme(c_field, eps0, table, tol=1e-11)
    mine_on_grid = report.strain[idx]
    assert np.iscomplexobj(mine_on_grid)
    assert np.allclose(mine_on_grid, classical_strain, atol=1e-10)
    assert report.imag_fraction > 1e-8  # genuine leakage on the even grid


def test_translation_equivariance():
    mat = [[4, 1], [0, 4]]
    pattern = pattern_points(mat)
    rng = np.random.default_rng(9)
    young = rng.uniform(1.0, 4.0, size=len(pattern))
    c = np.stack([isotropic_stiffness(e, 0.3) for e in young])
    c0 = default_reference(c)
    table = green_table(mat, c0)
    eps0 = np.array([0.3, 1.0, 0.2])
    base = basic_scheme(c, eps0, table, tol=1e-12)
    shift = pattern.z[7]
    idx = pattern.index(pattern.z - shift)
    shifted = basic_scheme(c[idx], eps0, table, tol=1e-12)
    scale = np.linalg.norm(base.strain)
    assert np.linalg.norm(shifted.strain - base.strain[idx]) <= 1e-10 * scale


def test_effective_tensor_homogeneous_and_symmetry():
    c0 = isotropic_stiffness(2.0, 0.25)
    mat = [[4, 0], [0, 4]]
    table = green_table(mat, c0)
    c = np.broadcast_to(c0, (16, 3, 3))
    eff, asym = effective_tensor(c, table)
    assert np.allclose(eff, c0, atol=1e-12)
    assert asym <= 1e-12
    hetero = two_phase_field(mat, isotropic_stiffness(1.0, 0.3), isotropic_stiffness(4.0, 0.3))
    c0h = default_reference(hetero)
    table_h = green_table(mat, c0h)
    eff_h, asym_h = effective_tensor(hetero, table_h, tol=1e-10)
    assert asym_h <= 1e-6
    assert np.allclose(eff_h, eff_h.T)
    columns = [
        effective_action(hetero, periodised_basic_scheme(hetero, c0h, eps0, table_h)[0], eps0)
        for eps0 in np.eye(3)
    ]
    eff_basic = np.real(np.stack(columns, axis=1))
    assert np.linalg.norm(eff_basic - eff_h) <= 1e-9 * np.linalg.norm(eff_h)


def test_effective_action_shapes_and_values():
    c = np.broadcast_to(np.eye(3), (8, 3, 3))
    zero = np.zeros((8, 3))
    assert np.array_equal(effective_action(c, zero, np.zeros(3)), np.zeros(3))
    with pytest.raises(ShapeMismatch):
        effective_action(c, np.zeros((8, 3)), np.zeros(4))
    with pytest.raises(ShapeMismatch):
        effective_action(c, np.zeros(8), np.zeros(3))


def test_effective_action_refuses_a_non_finite_load():
    # one load check for the solver and the mean stress: a nan or inf eps0
    # is refused, as basic_scheme and residual_ls refuse it, instead of
    # returning a mean stress of nan and inf
    c = np.broadcast_to(np.eye(3), (8, 3, 3))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="finite"):
            effective_action(c, np.zeros((8, 3)), [bad, 0.0, 0.0])


def test_default_reference_is_midpoint_of_lame_ranges():
    lam1, mu1 = lame_parameters(1.0, 0.3)
    lam2, mu2 = lame_parameters(10.0, 0.2)
    c = np.stack([isotropic_stiffness(1.0, 0.3)] * 3 + [isotropic_stiffness(10.0, 0.2)] * 5)
    ref = default_reference(c)
    lam0 = 0.5 * (min(lam1, lam2) + max(lam1, lam2))
    mu0 = 0.5 * (min(mu1, mu2) + max(mu1, mu2))
    iv = np.array([1.0, 1.0, 0.0])
    expected = lam0 * np.outer(iv, iv) + 2.0 * mu0 * np.eye(3)
    assert np.allclose(ref, expected, atol=1e-14)


def test_stiffness_field_forms():
    # a dense (m, 3, 3) field is one phase per point, codes arange(m), its
    # array the phase table; a (3, 3) stiffness is one phase at every point
    c = random_field(16, seed=3)
    field = _as_stiffness_field(c, 16)
    assert field.stiffness is c and np.array_equal(field.phases, np.arange(16))
    assert field.present() is c
    assert np.array_equal(field.gather(field.stiffness), c)
    one = _as_stiffness_field(c[0], 16)
    assert one.phases.shape == (16,) and not one.phases.any()
    assert np.array_equal(one.gather(one.stiffness), np.broadcast_to(c[0], (16, 3, 3)))
    assert _as_stiffness_field(c[0]).m == 1
    # gathered rows are C-contiguous, whatever the axis
    rows = StiffnessField(c[:2], [1, 0, 1]).gather(np.arange(12.0).reshape(6, 2), axis=1)
    assert rows.flags.c_contiguous and np.array_equal(rows[0], [1.0, 0.0, 1.0])
    with pytest.raises(ShapeMismatch):
        _as_stiffness_field(c, 15)
    with pytest.raises(ShapeMismatch):
        _as_stiffness_field(np.eye(4), 16)
    with pytest.raises(ShapeMismatch):
        StiffnessField(c[:2], [0.0, 1.0])
    for codes in ([0, 2], [-1, 0]):
        with pytest.raises(ValidationError, match="range"):
            StiffnessField(c[:2], codes)


def test_a_phase_no_point_samples_changes_nothing():
    # the thin coating of this Hashin cell holds no point of 16 I: whatever
    # its stiffness, even one that is not positive definite, the reference
    # and the solve are those of the core and the matrix alone
    mat = [[16, 0], [0, 16]]
    geom = HashinGeometry(
        rho_outer=0.0005, rotation_degrees=45.0, coating_material=isotropic_stiffness(1e3, 0.3)
    )
    field = stiffness_field(mat, geom)
    assert np.array_equal(np.bincount(field.phases, minlength=3) > 0, [True, False, True])
    alone = StiffnessField(field.stiffness[[0, 2]], field.phases // 2)
    c0 = default_reference(field)
    assert np.array_equal(c0, default_reference(alone))
    assert not np.allclose(c0, default_reference(field.stiffness))  # had the coating counted
    table = green_table(mat, c0, kind="dlvp", alpha=(0.25, 0.25))
    eps0 = np.array([0.6, -0.7, 0.3])
    expected = basic_scheme(alone, eps0, table)
    for coating in (isotropic_stiffness(1e3, 0.3), -np.eye(3), np.full((3, 3), np.nan)):
        stiffness = field.stiffness.copy()
        stiffness[1] = coating
        got = basic_scheme(StiffnessField(stiffness, field.phases), eps0, table)
        assert got.residual_history == expected.residual_history
        assert np.array_equal(got.strain, expected.strain)
        assert np.array_equal(got.effective_action, expected.effective_action)


def test_report_summary_mentions_key_fields():
    c0 = isotropic_stiffness(1.0, 0.0)
    table = green_table([[2, 0], [0, 2]], c0)
    c = np.broadcast_to(c0, (4, 3, 3))
    report = basic_scheme(c, np.array([1.0, 0.0, 0.0]), table)
    text = report_summary(report)
    assert "iterations" in text
    assert "effective action" in text
    assert "wall time" in text
    assert "ls residual     0.0" in text


def test_strain_csv_roundtrip_and_determinism(tmp_path):
    mat = [[4, 0], [0, 4]]
    rng = np.random.default_rng(3)
    strain = rng.normal(size=(16, 3))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_strain_csv(p1, mat, strain)
    write_strain_csv(p2, mat, strain)
    assert p1.read_bytes() == p2.read_bytes()
    rows = p1.read_text().strip().split("\n")
    assert rows[0] == "y1,y2,eps_11,eps_22,eps_12"
    assert len(rows) == 17
    back = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    assert np.array_equal(back[:, 2:], strain)  # %.17g is lossless
    # complex fields get explicit imaginary columns
    p3 = tmp_path / "c.csv"
    write_strain_csv(p3, mat, strain + 1e-3j * rng.normal(size=(16, 3)))
    header = p3.read_text().split("\n", 1)[0]
    assert header.endswith("imag_11,imag_22,imag_12")
    with pytest.raises(ShapeMismatch):
        write_strain_csv(tmp_path / "d.csv", mat, strain[:5])


def reference_strain_csv(m_mat, strain):
    """write_strain_csv's bytes from per-value f-string formatting."""
    complex_field = np.iscomplexobj(strain) and np.max(np.abs(strain.imag)) > 0.0
    header = ["y1", "y2", "eps_11", "eps_22", "eps_12"]
    if complex_field:
        header += ["imag_11", "imag_22", "imag_12"]
    rows = [",".join(header)]
    for point, value in zip(pattern_points(m_mat).points, strain):
        cells = [f"{x:.17g}" for x in point]
        cells += [f"{x:.17g}" for x in value.real]
        if complex_field:
            cells += [f"{x:.17g}" for x in value.imag]
        rows.append(",".join(cells))
    return ("\n".join(rows) + "\n").encode("ascii")


def test_strain_csv_matches_per_value_formatting(tmp_path):
    # m = 6400 spans two formatting blocks; signed zeros, subnormals and
    # huge magnitudes are where number formatting goes wrong
    mat = [[80, 3], [0, 80]]
    rng = np.random.default_rng(4)
    strain = rng.normal(size=(6400, 3)) * 10.0 ** rng.uniform(-20, 4, size=(6400, 3))
    specials = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0, -1.0 / 3.0]
    strain.flat[: len(specials)] = specials
    strain.flat[-len(specials) :] = specials
    for field in (strain, strain + 1j * strain[::-1]):
        path = tmp_path / "strain.csv"
        write_strain_csv(path, mat, field)
        assert path.read_bytes() == reference_strain_csv(mat, field)


def test_write_atomic_leaves_nothing_behind_on_failure(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"kept\n")
    with pytest.raises(TypeError):
        _write_atomic(str(path), [b"first\n", "not bytes"])
    assert os.listdir(tmp_path) == ["out.csv"]
    assert path.read_bytes() == b"kept\n"


def test_write_atomic_streams_and_leaves_nothing_when_the_chunks_fail(tmp_path):
    path = tmp_path / "out.csv"

    def chunks():
        yield b"first\n"
        # the first chunk is consumed before the second is produced
        assert os.listdir(tmp_path) == [f"out.csv.tmp.{os.getpid()}"]
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        _write_atomic(str(path), chunks())
    assert os.listdir(tmp_path) == []


def test_texts_match_per_value_formatting():
    # signed zeros are told apart, repeated and distinct values alike, and
    # a value that an earlier block formatted is not formatted again
    known = {}
    for column in (np.tile([0.5, -0.0, 0.0, 1 / 3, 5e-324], 3), np.arange(8) / 7.0):
        text = _texts(column, known)
        assert text.dtype == object
        assert text.tolist() == [f"{x:.17g}" for x in column]
    assert len(known) == 5 + 8 - 1  # 0.0 is in both columns
    known[np.float64(0.5).view(np.int64).item()] = "half"
    assert _texts(np.array([0.5]), known).tolist() == ["half"]


def test_strain_csv_memory_does_not_grow_with_the_pattern(tmp_path):
    # the points are computed a block of rows at a time and their texts
    # indexed per block, so the write's tracemalloc peak grows by at most
    # 4 bytes per point from 128^2 to 256^2: the whole Pattern (z,
    # numerators and points, 48 bytes per point) or one object array of
    # coordinate texts per column (8 each) would not fit
    def peak(n):
        strain = np.random.default_rng(n).normal(size=(n * n, 3))
        tracemalloc.start()
        try:
            write_strain_csv(tmp_path / f"{n}.csv", [[n, 0], [n // 2, n]], strain)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(128), peak(256)
    assert large - small <= 4 * (256**2 - 128**2)
    assert large <= 24 * 256**2


def test_write_csv_matches_fstring_rows(tmp_path):
    # the CLI's sweep, effective and metrics rows used to be f-strings:
    # floats as {x:.17g}, iteration counts and flags as plain integers
    row = (0.25, -0.0, 5e-324, 89, True, float("inf"), -float("inf"), float("nan"), 2.0, -1e300)
    header = [f"c{i}" for i in range(len(row))]
    path = tmp_path / "row.csv"
    _write_csv(path, header, [[row]])
    fields = (f"{v:.17g}" if isinstance(v, float) else f"{int(v)}" for v in row)
    assert path.read_bytes() == f"{','.join(header)}\n{','.join(fields)}\n".encode("ascii")


def test_box_solve_returns_real_strain():
    mat = [[8, 2], [0, 8]]
    c = two_phase_field(mat, isotropic_stiffness(1.0, 0.3), isotropic_stiffness(10.0, 0.3))
    c0 = default_reference(c)
    spec = KernelSpec.box_spline(mat, three_direction_set(2, 2, 0), radius=4)
    table = periodised_green_table(c0, orthonormalize(coefficient_table(spec)))
    report = basic_scheme(c, np.array([1.0, 0.0, 0.0]), table)
    assert report.converged
    assert np.isrealobj(report.strain) and report.imag_fraction == 0.0


def test_divergence_stops_at_first_non_finite_norm():
    # CG converges for every valid input, so only overflow can make a norm
    # non-finite: |eps0|^2 exceeds the float range at 1e155
    mat = [[8, 0], [0, 8]]
    c = two_phase_field(mat, isotropic_stiffness(1.0, 0.3), isotropic_stiffness(10.0, 0.3))
    c0 = default_reference(c)
    with pytest.raises(Diverged) as caught:
        basic_scheme(c, np.array([1e155, 0.0, 0.0]), green_table(mat, c0))
    report = caught.value.report
    assert caught.value.iterations == 1 and report.iterations == 0
    assert report.residual_history == [] and not report.converged
    assert np.all(np.isfinite(report.strain)) and np.all(np.isfinite(report.effective_action))


def random_field(m, seed, contrast=10.0):
    young = np.random.default_rng(seed).uniform(1.0, contrast, size=m)
    return np.stack([isotropic_stiffness(e, 0.3) for e in young])


CG_TABLES = {
    # 16 I: the half-open box pairs faces unevenly, so the field is complex
    "dirichlet_16": ([[16, 0], [0, 16]], KernelSpec.dirichlet),
    "dirichlet_15": ([[15, 0], [0, 15]], KernelSpec.dirichlet),
    "dlvp_sheared": ([[16, 0], [8, 16]], lambda mat: KernelSpec.dlvp(mat, (0.25, 0.1))),
    "box_radius_4": (
        [[12, 0], [0, 12]],
        lambda mat: KernelSpec.box_spline(mat, three_direction_set(2, 2, 0), radius=4),
    ),
}


@pytest.mark.parametrize("name", sorted(CG_TABLES))
def test_cg_reaches_the_basic_scheme_fixed_point(name):
    mat, spec = CG_TABLES[name]
    m = abs(round(np.linalg.det(mat)))
    c = random_field(m, seed=m)
    c0 = default_reference(c)
    table = periodised_green_table(c0, orthonormalize(coefficient_table(spec(mat))))
    eps0 = np.array([1.0, -0.3, 0.5])
    tol = 1e-10
    cg = basic_scheme(c, eps0, table, tol=tol)
    basic_strain, basic_iters = periodised_basic_scheme(c, c0, eps0, table, tol=tol)
    assert np.iscomplexobj(cg.strain) == (not table.even_table)
    assert np.linalg.norm(cg.strain - basic_strain) <= 1e-8 * np.linalg.norm(basic_strain)
    basic_action = effective_action(c, basic_strain, eps0)
    action_gap = np.linalg.norm(cg.effective_action - basic_action)
    assert action_gap <= 1e-9 * np.linalg.norm(basic_action)
    # the recorded residual is the relative LS residual of the returned strain
    ls = residual_ls(cg.strain, c, c0, eps0, table) / np.linalg.norm(cg.strain + eps0)
    assert cg.residual_history[-1] <= tol and ls <= 10 * tol
    assert cg.iterations < basic_iters


def test_first_residual_is_relative_to_the_total_strain():
    # at E = 0 the history divides |Green_p (C - C0) eps0| by |E + eps0|,
    # which is sqrt(m) |eps0| for the field, not |eps0| for the 3-vector
    mat = [[16, 0], [8, 16]]
    c = random_field(256, seed=3)
    c0 = default_reference(c)
    table = green_table(mat, c0, kind="dlvp", alpha=(0.25, 0.25))
    eps0 = np.array([1.0, -0.3, 0.5])
    zero = np.zeros((256, 3))
    first = residual_ls(zero, c, c0, eps0, table) / np.linalg.norm(zero + eps0)
    report = basic_scheme(c, eps0, table)
    assert abs(report.residual_history[0] - first) <= 1e-12 * first
    # an initial residual within the tolerance ends the run before a step
    report = basic_scheme(c, eps0, table, tol=2.0 * first)
    assert report.converged and report.iterations == 1
    assert np.array_equal(report.strain, zero)


def test_cg_not_converged_carries_partial_report():
    mat = [[8, 0], [0, 8]]
    c = random_field(64, seed=2)
    c0 = default_reference(c)
    table = green_table(mat, c0)
    with pytest.raises(NotConverged) as err:
        basic_scheme(c, np.array([1.0, 0.0, 0.0]), table, max_iter=3)
    report = err.value.report
    assert err.value.iterations == report.iterations == len(report.residual_history) == 3
    assert not report.converged
    assert report.residual_history[-1] > 1e-10 and np.all(np.isfinite(report.strain))
    assert report.effective_action is not None


@pytest.mark.parametrize("name", ["dirichlet_16", "dlvp_sheared"])
def test_a_partial_report_keeps_the_iterate_of_its_last_residual(name):
    # after 1, 2 and 3 iterations the strain that NotConverged carries is
    # the iterate whose relative LS residual ends the history: q lends its
    # memory to each Green application's spectrum and then swaps with x,
    # and an x clobbered by either would not reproduce the residual
    mat, spec = CG_TABLES[name]
    m = abs(round(np.linalg.det(mat)))
    c = random_field(m, seed=4, contrast=100.0)
    table = periodised_green_table(default_reference(c), coefficient_table(spec(mat)))
    assert table.even_table == (name != "dirichlet_16")
    eps0 = np.array([0.4, -1.0, 0.7])
    for max_iter in (1, 2, 3):
        with pytest.raises(NotConverged) as err:
            basic_scheme(c, eps0, table, max_iter=max_iter)
        report = err.value.report
        assert report.iterations == max_iter
        strain = report.strain
        ls = residual_ls(strain, c, table.c0, eps0, table) / np.linalg.norm(strain + eps0)
        assert abs(ls - report.residual_history[-1]) <= 1e-12 * ls


def _sheared_outputs(directory):
    """(phase codes, strain.csv, phases.csv) of a dlVP Hashin solve on a
    sheared pattern of 100 points, no multiple of 7, as bytes."""
    mat = [[10, 0], [4, 10]]
    c = stiffness_field(mat, HashinGeometry(c1=0.1))
    table = green_table(mat, default_reference(c), kind="dlvp", alpha=(0.25, 0.25))
    report = basic_scheme(c, np.array([1.0, -0.5, 0.25]), table)
    directory.mkdir()
    write_strain_csv(directory / "strain.csv", mat, report.strain)
    write_phase_csv(directory / "phases.csv", mat, c.phases)
    csvs = (directory.joinpath(name).read_bytes() for name in ("strain.csv", "phases.csv"))
    return c.phases.tobytes(), *csvs


@pytest.mark.parametrize("block", [7, 1 << 14])
def test_blocked_product_by_phase_is_the_dense_product(monkeypatch, tmp_path, block):
    # m = 50 is no multiple of 7: the product gathered by phase a block at
    # a time equals the product by the (6, m) rows gathered at every
    # point bit for bit, real and complex, on isotropic phases (zero rows
    # broadcast, the equal (0, 0) and (1, 1) rows gathered once, a lambda
    # that all phases share broadcast too) and on anisotropic ones, two of
    # whose rows agree at one phase only
    monkeypatch.setattr(lattice, "_POINT_BLOCK", block)
    rng = np.random.default_rng(12)
    m = 50
    isotropic = np.stack([isotropic_stiffness(e, 0.3) for e in (1.0, 7.0, 2.5)])
    shared_lambda = np.stack([lame_stiffness(1.5, mu) for mu in (0.5, 2.0, 4.0)])
    anisotropic = np.stack([random_spd_mandel(rng, 3) for _ in range(3)])
    # rows (0, 0) and (1, 1) equal at the first phase only
    touching = anisotropic.copy()
    touching[0, 1, 1] = touching[0, 0, 0]
    c0 = isotropic_stiffness(3.0, 0.25)
    # a lambda that the first and the last phase share, the middle one not
    ends = np.stack([lame_stiffness(lam, mu) for lam, mu in ((1.5, 0.5), (2.5, 2.0), (1.5, 4.0))])
    cases = ((isotropic, 3), (shared_lambda, 2), (ends, 3), (anisotropic, 6), (touching, 6))
    for (stiffness, gathered), c0_or_none in itertools.product(cases, (None, c0)):
        phases = rng.integers(0, 3, m).astype(np.int8)
        rows = solver._entry_rows(stiffness, c0_or_none)
        dense = np.take(rows, phases, axis=1)
        for dtype in (np.float64, np.complex128):
            e = rng.normal(size=(3, m)).astype(dtype)
            if dtype is np.complex128:
                e += 1j * rng.normal(size=(3, m))
            product = solver._PhaseProduct(rows, phases, dtype)
            assert len(product._gathered_rows) == gathered
            for field in (e, e[::-1] * 3.0):  # a block's rows may be kept between calls
                out = product.apply(field, np.full((3, m), np.nan, dtype))
                expected = np.empty((3, m), dtype)
                apply_symmetric(dense, field, expected, np.empty(m, dtype))
                assert out.tobytes() == expected.tobytes()
    # every blocked loop takes its slices from lattice._blocks, which cover
    # range(n) in order, once each, below, at and at a multiple of the size
    for n in (block - 1, block, 3 * block):
        slices = list(lattice._blocks(n))
        assert [i for rows in slices for i in range(n)[rows]] == list(range(n))
        assert all(0 < rows.stop - rows.start <= block for rows in slices)
    # the sampled phases, the solve and both CSVs read the same bytes as
    # at the default block size
    blocked = _sheared_outputs(tmp_path / "blocked")
    monkeypatch.undo()
    assert lattice._POINT_BLOCK == 1 << 14
    assert _sheared_outputs(tmp_path / "default") == blocked


def _cg_peak(monkeypatch, solve):
    """Peak traced memory over solve's CG span, above the level at its
    entry, in bytes."""
    peaks = []

    def traced(*args):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return cg_iteration(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    cg_iteration = solver._cg_iteration
    monkeypatch.setattr(solver, "_cg_iteration", traced)
    tracemalloc.start()
    try:
        solve()
    except NotConverged:
        pass
    finally:
        tracemalloc.stop()
        monkeypatch.setattr(solver, "_cg_iteration", cg_iteration)
    (peak,) = peaks
    return peak


def _green_transient(table, dtype):
    """Peak traced memory of one Green application whose buffers are all
    given: the transforms' own temporaries."""
    field, out = np.ones((2, 3, table.matrix.m), dtype)
    work, spectrum = table.workspace(), np.empty((3,) + table.entries.shape[1:], complex)
    for _ in range(2):  # the first call caches the transforms' plans
        tracemalloc.start()
        try:
            apply_green(table, field.T, out=out.T, work=work, spectrum=spectrum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


def _assert_named_buffers(monkeypatch, table, m, seed):
    """The CG of a solve on table allocates its named buffers, and no
    iteration allocates more than the one before."""
    block = 1 << 10  # several blocks, so that block scratch is told apart from (m,) arrays
    monkeypatch.setattr(lattice, "_POINT_BLOCK", block)
    c = random_field(m, seed=seed)  # one isotropic phase per point
    eps0 = np.array([1.0, -0.3, 0.5])
    basic_scheme(c, eps0, table)  # the FFT plans are cached from here on
    dtype = np.dtype(np.float64 if table.even_table else np.complex128)
    field = 3 * m * dtype.itemsize
    # six fields, x and q at spectrum size (they lend it to the Green
    # application), the Green workspace (product and one plane, which
    # also serves the inner products) and the block scratch of the
    # product: codes as intp, three gathered rows (the (0, 0) and (1, 1)
    # entries of isotropic phases are equal, the (0, 2) and (1, 2) zero)
    # and one plane
    spectrum = 3 * table.entries[0].size * 16
    workspace = table.workspace().nbytes
    scratch = block * (8 + 3 * 8 + dtype.itemsize)
    named = 4 * field + 2 * spectrum + workspace + scratch
    short = _cg_peak(monkeypatch, lambda: basic_scheme(c, eps0, table, max_iter=5))
    full = _cg_peak(monkeypatch, lambda: basic_scheme(c, eps0, table))
    assert short >= named
    # margin: the transforms' own temporaries, about one (m,) plane here,
    # and 24 KB of small objects, less than an (m,) plane: neither the
    # (6, m) rows of C - C0 nor an own scratch plane would fit
    assert 24 * 1024 < m * 8
    assert full <= named + _green_transient(table, dtype) + 24 * 1024
    # the residual history and a few cached tuples add some hundred bytes
    # per iteration (~0.09 field over 25 iterations here), far below any
    # array of field size
    assert abs(full - short) <= 0.25 * field


def test_solver_memory_is_its_named_buffers(monkeypatch):
    # tracemalloc sees numpy's buffers.  The module docstring names them:
    # six fields, two of them at spectrum size, the Green workspace and the
    # product's block scratch; nothing else of field size may stay alive
    # inside CG, and no iteration may allocate more than the one before
    n = 64
    mat = [[n, 0], [0, n]]
    c0 = default_reference(random_field(n * n, seed=5))
    table = green_table(mat, c0, kind="dlvp", alpha=(0.25, 0.25))
    assert table.even_table
    _assert_named_buffers(monkeypatch, table, n * n, seed=5)


def test_complex_solver_memory_is_its_named_buffers(monkeypatch):
    # a Dirichlet table on 64 I is not even: the solve is complex
    # and every Green application takes the full spectrum, written through
    # the same workspace, so it too allocates only its named buffers
    n = 64
    mat = [[n, 0], [0, n]]
    c0 = default_reference(random_field(n * n, seed=6))
    table = green_table(mat, c0)
    assert not table.even_table
    _assert_named_buffers(monkeypatch, table, n * n, seed=6)
