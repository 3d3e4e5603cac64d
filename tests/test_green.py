import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from lathom.errors import KernelNotOrthonormal, NonElliptic, ShapeMismatch
from lathom.green import apply_green, green_multiplier, periodised_green_table, strain_basis
from lathom.kernels import (
    KernelSpec,
    coeff,
    coefficient_table,
    orthonormalize,
    shift_set,
    three_direction_set,
)
from lathom.lattice import PatternMatrix, generating_set
from lathom.pattern_fft import half_grid
from lathom.tensor import (
    apply as tensor_apply,
    ellipticity_bounds,
    isotropic_stiffness,
)

from oracles import (
    class_matrices,
    every_class_table,
    from_mandel_operator,
    grad_sym_multiplier,
    green_index_form,
    isotropic_green_closed_form,
    mandel_operator_2d,
    periodised_green_index_form,
    random_spd_mandel,
    to_mandel,
)


def dirichlet_green(m_mat, c0m):
    table = orthonormalize(coefficient_table(KernelSpec.dirichlet(m_mat)))
    return periodised_green_table(c0m, table)


def dlvp_green(m_mat, alpha, c0m):
    table = orthonormalize(coefficient_table(KernelSpec.dlvp(m_mat, alpha)))
    return periodised_green_table(c0m, table)


def box_green(m_mat, c0m, radius=4):
    spec = KernelSpec.box_spline(m_mat, three_direction_set(2, 2, 1), radius=radius)
    return periodised_green_table(c0m, orthonormalize(coefficient_table(spec)))


def test_grad_sym_multiplier_values():
    assert np.array_equal(grad_sym_multiplier([0, 0], [3.0, 4.0]), np.zeros((2, 2)))
    got = grad_sym_multiplier([1, 0], [1.0, 0.0])
    assert np.allclose(got, 1j * np.array([[1.0, 0.0], [0.0, 0.0]]))
    got = grad_sym_multiplier([1, 2], [0.0, 1.0])
    assert np.allclose(got, 1j * np.array([[0.0, 0.5], [0.5, 2.0]]))
    # always symmetric
    rng = np.random.default_rng(0)
    k = rng.integers(-5, 6, size=2)
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    g = grad_sym_multiplier(k, u)
    assert np.allclose(g, g.T)


def test_strain_basis_matches_outer_product():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = rng.integers(-6, 7, size=2)
        u = rng.normal(size=2)
        w = strain_basis(k)
        direct = to_mandel(0.5 * (np.outer(k, u) + np.outer(u, k)))
        assert np.allclose(w @ u, direct, atol=1e-14)


def test_green_multiplier_zero_frequency():
    c0 = isotropic_stiffness(1.0, 0.3)
    assert np.array_equal(green_multiplier(c0, [0, 0]), np.zeros((3, 3)))


def test_green_multiplier_isotropic_closed_form():
    for lam, mu in [(1.0, 1.0), (2.3, 0.7)]:
        lame_c0 = lam * np.outer([1, 1, 0], [1, 1, 0]) + 2 * mu * np.eye(3)
        for k in [[1, 0], [0, 1], [1, 1], [3, -2], [-7, 5]]:
            expected = mandel_operator_2d(isotropic_green_closed_form(lam, mu, k))
            got = green_multiplier(lame_c0, np.array(k))
            assert np.allclose(got, expected, atol=1e-12), (lam, mu, k)


def test_green_multiplier_matches_index_form_for_anisotropic_c0():
    rng = np.random.default_rng(2)
    for _ in range(10):
        c0m = random_spd_mandel(rng, 3)
        c0_full = from_mandel_operator(c0m)
        k = rng.integers(-8, 9, size=2)
        if not k.any():
            continue
        expected = mandel_operator_2d(green_index_form(c0_full, k))
        assert np.allclose(green_multiplier(c0m, k), expected, atol=1e-12)
        # the stiffness is a Mandel matrix; the full index form is rejected
        with pytest.raises(ShapeMismatch):
            green_multiplier(c0_full, k)


def test_green_multiplier_degree_zero_homogeneity():
    c0 = isotropic_stiffness(3.0, 0.25)
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = rng.integers(-9, 10, size=2)
        if not k.any():
            continue
        g1 = green_multiplier(c0, k)
        assert np.allclose(green_multiplier(c0, 2 * k), g1, atol=1e-14)
        assert np.allclose(green_multiplier(c0, 7 * k), g1, atol=1e-14)


def test_reference_not_positive_definite_guard():
    indefinite = np.diag([1.0, -1.0, 1.0])
    # positive definite lower triangle, but not symmetric
    skewed = isotropic_stiffness(1.0, 0.3)
    skewed[0, 1] += 0.1
    for c0 in (np.zeros((3, 3)), indefinite, np.full((3, 3), np.nan), skewed):
        with pytest.raises(NonElliptic):
            green_multiplier(c0, [1, 0])
        with pytest.raises(NonElliptic):
            dirichlet_green([[3, 0], [0, 3]], c0)


def test_per_frequency_projection():
    c0 = isotropic_stiffness(2.0, 0.3)
    rng = np.random.default_rng(4)
    for _ in range(25):
        k = rng.integers(-10, 11, size=2)
        if not k.any():
            continue
        g = green_multiplier(c0, k)
        gc = g @ c0
        assert np.allclose(gc @ gc, gc, atol=1e-12)


def test_dirichlet_table_is_plain_green():
    c0 = isotropic_stiffness(1.0, 0.3)
    table = dirichlet_green([[4, 1], [0, 5]], c0)
    gen = generating_set(table.matrix)
    values = class_matrices(table)
    for i, h in enumerate(gen.freqs):
        expected = green_multiplier(c0, h)
        assert np.allclose(values[i], expected, atol=1e-14)
    assert np.array_equal(values[gen.index(np.array([0, 0]))], np.zeros((3, 3)))


def test_dlvp_table_matches_direct_summation():
    c0 = isotropic_stiffness(2.0, 0.2)
    spec = KernelSpec.dlvp([[6, 0], [2, 6]], (0.1, 0.1))
    kern = orthonormalize(coefficient_table(spec))
    values = class_matrices(periodised_green_table(c0, kern))
    pm = spec.matrix
    gen = generating_set(pm)
    rng = np.random.default_rng(5)
    for i in rng.choice(pm.m, size=8, replace=False):
        h = gen.freqs[i]
        if not h.any():
            continue
        # direct summation over the trapezoid support, coefficients
        # recomputed from scratch and renormalised by the bracket
        total = np.zeros((3, 3))
        weight_sum = 0.0
        for z in shift_set(spec):
            k = h + z @ pm.entries
            c2 = float(coeff(spec, k)) ** 2
            if c2 == 0.0:
                continue
            total += c2 * green_multiplier(c0, k)
            weight_sum += c2
        assert np.allclose(values[i], total / weight_sum, atol=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        KernelSpec.dlvp([[6, 0], [2, 6]], (0.1, 0.3)),
        KernelSpec.box_spline([[6, 2], [0, 6]], three_direction_set(2, 2, 1), radius=3),
    ],
    ids=["dlvp", "box"],
)
def test_periodised_tables_match_index_form_oracle(spec):
    # the acoustic-tensor route in index form, on every class with weights
    # from kernels.coeff over the same retained frequencies; the table
    # holds the half grid, and class_matrices mirrors it to the rest
    kern = orthonormalize(coefficient_table(spec))
    for c0m in (isotropic_stiffness(2.0, 0.2), random_spd_mandel(np.random.default_rng(13), 3)):
        table = periodised_green_table(c0m, kern)
        expected = periodised_green_index_form(c0m, spec)
        assert np.max(np.abs(class_matrices(table) - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_green_operator_is_two_dimensional():
    # patterns are 2 x 2 matrices and frequencies pairs; nothing else enters
    for entries in ([[3]], np.diag([3, 3, 3]), [[1, 0, 0], [0, 1, 0]], [1, 2, 3, 4]):
        with pytest.raises(ValueError):
            PatternMatrix(entries)
    with pytest.raises(ShapeMismatch):
        green_multiplier(np.eye(3), [1, 0, 0])


def test_single_frequency_class_support():
    # if each class retains exactly one frequency k0, the periodised
    # multiplier is the plain multiplier at k0; one shift per class is not
    # an even spectrum, so the synthetic table holds every class
    c0 = isotropic_stiffness(1.0, 0.25)
    spec = KernelSpec.dlvp([[4, 0], [0, 4]], (0.25, 0.25))
    kern = every_class_table(spec)
    pm = spec.matrix
    pick = 5  # shift slot to keep
    coeffs = np.zeros_like(kern.coeffs)
    coeffs[:, pick] = 1.0 / math.sqrt(pm.m)
    synthetic = dataclasses.replace(
        kern,
        coeffs=coeffs,
        bracket=np.einsum("mt,mt->m", coeffs, coeffs),
        orthonormal=True,
    )
    values = class_matrices(periodised_green_table(c0, synthetic))
    gen = generating_set(pm)
    zero_idx = gen.index(np.array([0, 0]))
    for i, h in enumerate(gen.freqs):
        k0 = h + kern.shifts[pick] @ pm.entries
        expected = np.zeros((3, 3)) if i == zero_idx else green_multiplier(c0, k0)
        assert np.allclose(values[i], expected, atol=1e-14)


def test_setup_memory_grows_by_the_half_table():
    # box (2, 2, 0), radius 16: the setup's tracemalloc peak from 16^2 to
    # 32^2 grows by less than 0.6 x the all-class (m, t) table's growth.
    # The half table holds 9/16 and 17/32 of the classes; block buffers
    # (the Green build's 2.6 MB of planes, more than the 16^2 table itself)
    # are the same at both sizes and cancel
    c0 = isotropic_stiffness(1.0, 0.3)

    def peak_and_all_class_bytes(side):
        spec = KernelSpec.box_spline(np.diag([side, side]), three_direction_set(2, 2, 0), radius=16)
        tracemalloc.start()
        try:
            periodised_green_table(c0, orthonormalize(coefficient_table(spec)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, spec.matrix.m * len(shift_set(spec)) * 8

    small, small_all = peak_and_all_class_bytes(16)
    large, large_all = peak_and_all_class_bytes(32)
    assert large - small < 0.6 * (large_all - small_all)


def test_periodisation_requires_orthonormal_table():
    c0 = isotropic_stiffness(1.0, 0.3)
    raw = coefficient_table(KernelSpec.dlvp([[4, 0], [0, 4]], 0.25))
    with pytest.raises(KernelNotOrthonormal):
        periodised_green_table(c0, raw)
    forged = dataclasses.replace(raw, orthonormal=True)
    with pytest.raises(KernelNotOrthonormal):
        periodised_green_table(c0, forged)


def test_table_values_are_symmetric():
    c0m = random_spd_mandel(np.random.default_rng(6), 3)
    table = dlvp_green([[5, 1], [0, 4]], (0.3, 0.2), c0m)
    # one layout: the six unique entries of each stored class, so the
    # class matrices are symmetric by construction
    assert table.entries.shape == (6,) + half_grid(table.matrix)
    assert np.all(np.isfinite(table.entries))
    values = class_matrices(table)
    assert np.array_equal(values, np.swapaxes(values, 1, 2))


def test_apply_green_trivia_and_shapes():
    c0 = isotropic_stiffness(1.0, 0.3)
    table = dlvp_green([[4, 0], [0, 4]], (0.25, 0.25), c0)
    m = table.matrix.m
    assert np.array_equal(apply_green(table, np.zeros((m, 3))), np.zeros((m, 3)))
    constant = np.tile([1.0, 2.0, 3.0], (m, 1))
    assert np.allclose(apply_green(table, constant), 0.0, atol=1e-13)
    with pytest.raises(ShapeMismatch):
        apply_green(table, np.zeros((m, 4)))
    with pytest.raises(ShapeMismatch):
        apply_green(table, np.zeros((m + 1, 3)))


def test_even_tables_keep_real_fields_real():
    c0 = isotropic_stiffness(1.0, 0.3)
    rng = np.random.default_rng(7)
    # even window: always even table
    table = dlvp_green([[4, 0], [0, 4]], (0.25, 0.25), c0)
    assert table.even_table
    out = apply_green(table, rng.normal(size=(16, 3)))
    assert out.dtype.kind == "f"
    # odd pattern: the strict box has no two-torsion boundary classes
    table_odd = dirichlet_green([[5, 0], [0, 5]], c0)
    assert table_odd.even_table
    out = apply_green(table_odd, rng.normal(size=(25, 3)))
    assert out.dtype.kind == "f"


def test_box_tables_are_even_on_even_divisors():
    # truncating at |M^{-T} k|_inf <= radius retains, for a boundary class,
    # the negatives of its partner's frequencies
    c0 = isotropic_stiffness(1.0, 0.3)
    rng = np.random.default_rng(14)
    for m_mat in ([[8, 0], [0, 8]], [[4, 2], [0, 6]], [[6, 2], [0, 6]]):
        table = box_green(m_mat, c0)
        assert table.even_table
        out = apply_green(table, rng.normal(size=(table.matrix.m, 3)))
        assert out.dtype.kind == "f"


def test_dirichlet_even_pattern_is_honestly_complex():
    # the half-open box pairs boundary classes (-n/2, j) and (-n/2, -j)
    # with multipliers taken at non-parallel frequencies, so the table is
    # not even and real fields acquire genuine imaginary content
    c0 = isotropic_stiffness(1.0, 0.3)
    table = dirichlet_green([[4, 0], [0, 4]], c0)
    assert not table.even_table
    rng = np.random.default_rng(8)
    out = apply_green(table, rng.normal(size=(16, 3)))
    assert out.dtype.kind == "c"
    assert np.max(np.abs(out.imag)) > 1e-6


def test_apply_green_on_transposed_component_major_buffers():
    # the solver keeps (3, m) buffers and applies the operator to their
    # transposes, reading and writing through the (m, 3) views
    c0 = isotropic_stiffness(1.0, 0.3)
    rng = np.random.default_rng(21)
    even = dlvp_green([[12, 0], [6, 12]], (0.25, 0.1), c0)
    odd = dirichlet_green([[8, 0], [0, 8]], c0)
    assert even.even_table and not odd.even_table
    for table in (even, odd):
        m = table.matrix.m
        field = rng.normal(size=(m, 3))
        dtype = np.float64 if table.even_table else np.complex128
        reference = apply_green(table, field)
        source = np.ascontiguousarray(field.T)
        target = np.full((3, m), np.nan, dtype)
        view = target.T
        assert apply_green(table, source.T, out=view, work=table.workspace()) is view
        if table.even_table:
            assert np.array_equal(target.T, reference)
        else:
            gap = np.linalg.norm(target.T - reference)
            assert gap <= 1e-15 * np.linalg.norm(reference)


def green_of_c0(table, c0m, field):
    return apply_green(table, tensor_apply(c0m, field))


def test_projection_iff_dirichlet():
    c0 = isotropic_stiffness(1.0, 0.3)
    rng = np.random.default_rng(9)
    for m_mat in ([[5, 0], [0, 5]], [[4, 0], [0, 4]], [[4, 2], [0, 6]]):
        table = dirichlet_green(m_mat, c0)
        gamma = rng.normal(size=(table.matrix.m, 3))
        once = green_of_c0(table, table.c0, gamma)
        twice = green_of_c0(table, table.c0, once)
        defect = np.linalg.norm(twice - once) / np.linalg.norm(gamma)
        assert defect <= 1e-10
    # trapezoid weights break idempotence
    table = dlvp_green([[8, 0], [0, 8]], (0.25, 0.25), c0)
    gamma = rng.normal(size=(64, 3))
    once = green_of_c0(table, table.c0, gamma)
    twice = green_of_c0(table, table.c0, once)
    defect = np.linalg.norm(twice - once) / np.linalg.norm(gamma)
    assert defect > 1e-3


def test_adjointness_of_periodised_operator():
    rng = np.random.default_rng(10)
    c0m = random_spd_mandel(rng, 3)
    for make in (
        lambda: dlvp_green([[6, 0], [0, 6]], (0.2, 0.4), c0m),
        lambda: dirichlet_green([[4, 0], [0, 4]], c0m),
    ):
        table = make()
        m = table.matrix.m
        for _ in range(20):
            gamma = rng.normal(size=(m, 3))
            delta = rng.normal(size=(m, 3))
            left = np.vdot(green_of_c0(table, c0m, gamma), delta)
            right = np.vdot(gamma, apply_green(table, delta) @ c0m.T)
            assert abs(left - right) <= 1e-10 * (1 + abs(left))


def test_boundedness_by_ellipticity_ratio():
    rng = np.random.default_rng(11)
    c0 = isotropic_stiffness(5.0, 0.3)
    lower, upper = ellipticity_bounds(c0)
    ratio = upper / lower
    for make in (
        lambda: dlvp_green([[6, 2], [0, 6]], (0.3, 0.1), c0),
        lambda: dirichlet_green([[5, 1], [0, 5]], c0),
    ):
        table = make()
        m = table.matrix.m
        for _ in range(20):
            gamma = rng.normal(size=(m, 3))
            image = green_of_c0(table, c0, gamma)
            assert np.linalg.norm(image) <= ratio * np.linalg.norm(gamma) * (1 + 1e-12)


def test_image_lies_in_symmetrised_gradient_range():
    # per retained frequency, the periodised image coefficient is a
    # multiple of G(k) (C gamma)_h, which must be W(k) u for some u
    c0 = isotropic_stiffness(1.0, 0.3)
    spec = KernelSpec.dlvp([[4, 0], [0, 4]], (0.25, 0.25))
    kern = orthonormalize(coefficient_table(spec))
    pm = spec.matrix
    rng = np.random.default_rng(12)
    gamma_hat = rng.normal(size=3) + 1j * rng.normal(size=3)
    gen = generating_set(pm)
    for i in [1, 3, 7, 12]:
        h = gen.freqs[i]
        for z in shift_set(spec):
            k = h + z @ pm.entries
            if float(coeff(spec, k)) == 0.0 or not k.any():
                continue
            target = green_multiplier(c0, k) @ (c0 @ gamma_hat)
            w = strain_basis(k).astype(complex)
            u, *_ = np.linalg.lstsq(w, target, rcond=None)
            assert np.linalg.norm(w @ u - target) <= 1e-10 * (1 + np.linalg.norm(target))
