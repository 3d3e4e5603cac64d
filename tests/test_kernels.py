import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from lathom.errors import DegenerateClass, InvalidSpec, LengthMismatch, NoInterpolant
from lathom.kernels import (
    KernelSpec,
    coeff,
    coefficient_table,
    interpolant_coeffs,
    orthonormalize,
    shift_set,
    synthesize,
    three_direction_set,
)
from lathom.lattice import frac_coordinates, generating_set, pattern_points

from oracles import (
    bracket_sum,
    discrete_coeffs,
    dlvp_window,
    every_class_table,
    pattern_samples,
    random_regular,
)


def full_coefficient_set(table):
    """Flatten a table to explicit (k, c) pairs over every retained shift."""
    m_arr = table.matrix.entries
    ks = (table.freqs[:, None, :] + table.shifts[None, :, :] @ m_arr).reshape(-1, 2)
    cs = table.coeffs.reshape(-1)
    keep = np.abs(cs) > 0
    return ks[keep], cs[keep]


def test_dirichlet_support_is_exactly_the_generating_set():
    spec = KernelSpec.dirichlet([[4, 4], [-4, 4]])
    table = coefficient_table(spec)
    m = spec.matrix.m
    assert table.shifts.shape == (1, 2)
    assert np.allclose(table.coeffs, 1.0 / math.sqrt(m))
    # any nonzero lattice shift leaves the half-open box
    shifted = table.freqs + np.array([1, 0]) @ spec.matrix.entries
    assert np.all(coeff(spec, shifted) == 0.0)


def test_dirichlet_box_is_half_open():
    spec = KernelSpec.dirichlet([[4, 0], [0, 4]])
    root_m = math.sqrt(16.0)
    assert coeff(spec, [-2, 0]) == pytest.approx(1.0 / root_m)
    assert coeff(spec, [2, 0]) == 0.0
    assert coeff(spec, [0, -2]) == pytest.approx(1.0 / root_m)
    assert coeff(spec, [0, 2]) == 0.0


def test_dlvp_window_values():
    # plateau, ramp midpoint, outer edge, outside
    assert dlvp_window([0.25], [[0.3]]) == pytest.approx([1.0])
    assert dlvp_window([0.25], [[0.5]]) == pytest.approx([0.5])
    assert dlvp_window([0.25], [[0.625]]) == pytest.approx([0.0])
    assert dlvp_window([0.25], [[0.7]]) == pytest.approx([0.0])
    # zero slope: indicator with half weight exactly on the faces
    assert dlvp_window([0.0], [[0.4999]]) == pytest.approx([1.0])
    assert dlvp_window([0.0], [[0.5]]) == pytest.approx([0.5])
    assert dlvp_window([0.0], [[-0.5]]) == pytest.approx([0.5])
    assert dlvp_window([0.0], [[0.5001]]) == pytest.approx([0.0])
    # tensor product
    assert dlvp_window([0.25, 0.0], [[0.5, 0.3]]) == pytest.approx([0.5])


def test_dlvp_window_partition_of_unity():
    rng = np.random.default_rng(7)
    t = rng.uniform(-0.5, 0.5, size=(64, 2))
    for alpha in [(0.1, 0.1), (0.25, 0.45), (0.5, 0.5)]:
        total = np.zeros(len(t))
        for z1 in (-1, 0, 1):
            for z2 in (-1, 0, 1):
                total += dlvp_window(alpha, t + np.array([z1, z2]))
        assert np.allclose(total, 1.0, atol=1e-12)


def test_dlvp_coeff_matches_window():
    spec = KernelSpec.dlvp([[4, 1], [0, 5]], (0.25, 0.4))
    pm = spec.matrix
    gen = generating_set(pm)
    t = (gen.freqs @ np.linalg.inv(pm.mt).T).astype(float)
    expected = dlvp_window(spec.alpha, t) / math.sqrt(pm.m)
    assert np.allclose(coeff(spec, gen.freqs), expected, atol=1e-12)


def test_dlvp_class_sums_are_flat():
    # the trapezoid overlap makes the signed class sums exactly 1/sqrt(m),
    # the frequency-side face of the partition of unity; slopes far below
    # the 1/m spacing of the coordinates keep the half weight on the faces
    for alpha in [(0.0, 0.0), (0.25, 0.25), (0.1, 0.45), (1e-300, 1e-20)]:
        spec = KernelSpec.dlvp([[6, 0], [0, 6]], alpha)
        table = coefficient_table(spec)
        assert np.allclose(table.class_sums(), 1.0 / 6.0, atol=1e-12)
    # steep ramps on a fine pattern: the ramp must not lose eps / alpha
    for alpha in [(1e-5, 1e-5), (1e-3, 1e-3)]:
        table = coefficient_table(KernelSpec.dlvp([[512, 0], [0, 512]], alpha))
        assert np.max(np.abs(512.0 * table.class_sums() - 1.0)) <= 1e-14


def test_modified_dirichlet_splits_boundary_weight():
    m_mat = [[4, 0], [0, 4]]
    plain = coefficient_table(KernelSpec.dirichlet(m_mat))
    modified = coefficient_table(KernelSpec.dlvp(m_mat, 0.0))
    gen = generating_set(m_mat)
    scale = 1.0 / 4.0
    i_boundary = gen.index(np.array([-2, 0]))
    i_interior = gen.index(np.array([1, 1]))
    assert plain.bracket[i_interior] == pytest.approx(scale**2)
    assert plain.bracket[i_boundary] == pytest.approx(scale**2)
    # two half-weights on opposite faces; the dlVP table holds the half
    # grid, which contains this face class
    assert modified.half and not plain.half
    stored = {tuple(h): i for i, h in enumerate(modified.freqs.tolist())}
    assert modified.bracket[stored[(-2, 0)]] == pytest.approx(2 * (0.5 * scale) ** 2)
    row = modified.coeffs[stored[(-2, 0)]]
    assert sorted(np.abs(row[np.abs(row) > 0])) == pytest.approx([0.5 * scale, 0.5 * scale])


def test_box_coeff_reference_value():
    spec = KernelSpec.box_spline([[4, 0], [0, 4]], three_direction_set(1, 1, 0))
    # sinc(1/4) = sin(pi/4) / (pi/4)
    expected = math.sin(math.pi / 4) / (math.pi / 4)
    assert coeff(spec, [1, 0]) == pytest.approx(expected, abs=1e-15)
    assert coeff(spec, [0, 0]) == 1.0
    assert coeff(spec, [4, 0]) == pytest.approx(0.0, abs=1e-15)


def test_box_bracket_approaches_sinc_square_sum():
    # sum_z sinc^2(t + z) = 1, so tensor-hat brackets tend to 1 as the
    # truncation radius grows (tail is O(1/R) per axis)
    def worst(radius):
        spec = KernelSpec.box_spline(
            [[4, 0], [0, 4]], three_direction_set(1, 1, 0), radius=radius
        )
        return np.max(np.abs(coefficient_table(spec).bracket - 1.0))

    dev30, dev60 = worst(30), worst(60)
    assert dev60 < 0.008
    assert dev60 < 0.6 * dev30


def test_box_truncation_is_symmetric():
    # a box coefficient is kept exactly when |M^{-T} k|_inf <= radius, so
    # the retained set is closed under k -> -k, boundary classes included
    radius = 2
    for m_mat in ([[4, 0], [0, 4]], [[4, 2], [0, 6]]):
        spec = KernelSpec.box_spline(m_mat, three_direction_set(1, 1, 1), radius=radius)
        table = coefficient_table(spec)
        ks = table.freqs[:, None, :] + table.shifts[None, :, :] @ spec.matrix.entries
        w, n = frac_coordinates(spec.matrix.mt, ks)
        inside = np.all(np.abs(w) <= radius * n, axis=-1)
        # kept means the untruncated value, which a wider radius gives; that
        # value is itself exactly 0 where xi.t is a nonzero integer
        wide = KernelSpec.box_spline(m_mat, three_direction_set(1, 1, 1), radius=4 * radius)
        assert np.array_equal(table.coeffs, np.where(inside, coeff(wide, ks), 0.0))
        # the half table's classes and their negatives carry equal
        # coefficients, and the spectrum over every class is even
        assert table.half and np.array_equal(coeff(spec, -ks), table.coeffs)
        kept = {tuple(k): c for k, c in zip(*full_coefficient_set(every_class_table(spec)))}
        assert all(kept.get(tuple(-x for x in k)) == c for k, c in kept.items())


def test_shift_sets():
    assert shift_set(KernelSpec.dirichlet([[3, 0], [0, 3]])).shape == (1, 2)
    assert shift_set(KernelSpec.dlvp([[3, 0], [0, 3]], 0.25)).shape == (9, 2)
    box = KernelSpec.box_spline([[3, 0], [0, 3]], three_direction_set(1, 1, 1), radius=2)
    assert shift_set(box).shape == (25, 2)
    assert shift_set(KernelSpec.box_spline([[3, 0], [0, 3]], three_direction_set(1, 1, 1))).shape == (33**2, 2)


def test_orthonormalize_normalises_every_class():
    rng = np.random.default_rng(5)
    specs = []
    for _ in range(6):
        pm = random_regular(rng, span=5, max_m=60)
        specs.append(KernelSpec.dirichlet(pm))
        specs.append(KernelSpec.dlvp(pm, tuple(rng.uniform(0.0, 0.5, size=2))))
    specs.append(KernelSpec.box_spline([[6, 2], [0, 6]], three_direction_set(1, 1, 1), radius=12))
    for spec in specs:
        table = orthonormalize(coefficient_table(spec))
        assert np.allclose(spec.matrix.m * table.bracket, 1.0, atol=1e-10)


def test_orthonormal_translates_have_identity_gram():
    # independent route: assemble the Gram matrix of the translates from
    # the explicit Fourier series, <T(y)f, T(y')f> = sum |c_k|^2 e^{2 pi i k(y-y')}
    for spec in [
        KernelSpec.dlvp([[2, 1], [0, 3]], (0.25, 0.25)),
        KernelSpec.dlvp([[4, 0], [0, 2]], (0.0, 0.45)),
        KernelSpec.dirichlet([[3, 1], [1, 3]]),
    ]:
        table = orthonormalize(every_class_table(spec))
        ks, cs = full_coefficient_set(table)
        y = pattern_points(spec.matrix).points
        phase = np.exp(2j * np.pi * (y @ ks.T))  # (m, terms)
        gram = (phase * cs**2) @ phase.conj().T
        assert np.allclose(gram, np.eye(spec.matrix.m), atol=1e-12)


def test_degenerate_class_detected():
    table = coefficient_table(KernelSpec.dlvp([[4, 0], [0, 4]], 0.25))
    coeffs = table.coeffs.copy()
    coeffs[3] = 0.0
    broken = dataclasses.replace(table, coeffs=coeffs)
    before = coeffs.copy()
    with pytest.raises(DegenerateClass):
        orthonormalize(broken)
    # raised before anything was written
    assert broken.coeffs is coeffs and np.array_equal(coeffs, before)


def test_orthonormalize_keeps_one_table():
    # the largest table of setup is scaled where it is: no second (m, t) copy
    spec = KernelSpec.box_spline([[16, 0], [0, 16]], three_direction_set(2, 2, 0), radius=16)
    table = coefficient_table(spec)
    expected = table.coeffs / np.sqrt(spec.matrix.m * table.bracket)[:, None]
    coeffs = table.coeffs
    tracemalloc.start()
    try:
        result = orthonormalize(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < coeffs.nbytes / 2
    assert result is table and result.coeffs is coeffs
    assert np.allclose(result.coeffs, expected, rtol=1e-15, atol=0)
    assert np.allclose(spec.matrix.m * result.bracket, 1.0, atol=1e-12)


def test_bracket_sum_matches_table_and_rejects_unreduced():
    spec = KernelSpec.dlvp([[4, 1], [0, 3]], (0.3, 0.2))
    table = coefficient_table(spec)
    for h, bracket in zip(table.freqs, table.bracket):
        assert bracket_sum(spec, h) == pytest.approx(bracket, abs=1e-14)
    with pytest.raises(ValueError):
        bracket_sum(spec, table.freqs[0] + np.array([4, 0]) @ spec.matrix.entries)
    with pytest.raises(LengthMismatch):
        bracket_sum(spec, np.array([1, 2, 3]))


def test_bracket_sum_with_weight():
    spec = KernelSpec.dlvp([[4, 0], [0, 4]], (0.25, 0.25))
    h = np.array([1, -1])
    norm2 = bracket_sum(spec, h, weight=lambda k: float(k @ k))
    plain = bracket_sum(spec, h)
    manual = 0.0
    for z in shift_set(spec):
        k = h + z @ spec.matrix.entries
        manual += float(k @ k) * float(coeff(spec, k)) ** 2
    assert norm2 == pytest.approx(manual, rel=1e-14)
    assert norm2 > plain  # weight >= 1 on every retained frequency here


def test_synthesize_agrees_with_pattern_route():
    # two routes to the generator samples f(2 pi y): direct exponential
    # sums over all retained frequencies vs the class-sum inverse transform
    for spec in [
        KernelSpec.dlvp([[4, 2], [0, 6]], (0.25, 0.1)),
        KernelSpec.dirichlet([[5, 1], [0, 3]]),
    ]:
        ks, cs = full_coefficient_set(every_class_table(spec))
        x = 2 * np.pi * pattern_points(spec.matrix).points
        direct = synthesize(ks, cs, x)
        via_fft = pattern_samples(spec)
        assert np.allclose(direct, via_fft, atol=1e-12)


def test_synthesize_realness_follows_symmetry():
    even = every_class_table(KernelSpec.dlvp([[4, 0], [0, 4]], (0.25, 0.25)))
    ks, cs = full_coefficient_set(even)
    x = np.array([[0.3, -1.2], [2.0, 0.1]])
    vals = synthesize(ks, cs, x)
    assert vals.dtype.kind == "f"
    # strict half-open Dirichlet box on an even grid has unpaired faces
    dirich = coefficient_table(KernelSpec.dirichlet([[4, 0], [0, 4]]))
    ks2, cs2 = full_coefficient_set(dirich)
    vals2 = synthesize(ks2, cs2, x)
    assert vals2.dtype.kind == "c"
    assert np.max(np.abs(vals2.imag)) > 1e-3


def test_fundamental_interpolant_is_a_pattern_delta():
    for spec in [
        KernelSpec.dlvp([[3, 1], [0, 4]], (0.2, 0.35)),
        KernelSpec.box_spline([[3, 0], [1, 3]], three_direction_set(1, 1, 1), radius=20),
    ]:
        m = spec.matrix.m
        a_hat = interpolant_coeffs(np.full(m, 1.0 / m), every_class_table(spec))
        # per stored class, the half table's coefficients are these
        table = coefficient_table(spec)
        stored = generating_set(spec.matrix).index(table.freqs)
        half_hat = interpolant_coeffs(np.full(len(stored), 1.0 / m), table)
        assert np.array_equal(half_hat, a_hat[stored])
        samples = pattern_samples(spec, a_hat)
        delta = np.zeros(m)
        delta[0] = 1.0
        assert np.allclose(samples, delta, atol=1e-12)


def test_interpolant_requires_nonvanishing_class_sums():
    table = coefficient_table(KernelSpec.dlvp([[4, 0], [0, 4]], 0.25))
    sums_killed = table.coeffs.copy()
    sums_killed[2] = 0.0
    broken = dataclasses.replace(table, coeffs=sums_killed)
    with pytest.raises(NoInterpolant):
        interpolant_coeffs(np.full(len(table.freqs), 1 / 16), broken)
    with pytest.raises(LengthMismatch):
        interpolant_coeffs(np.full(7, 1.0), table)


def test_aliased_coeffs_of_generator_samples_are_class_sums():
    spec = KernelSpec.dlvp([[4, 1], [2, 6]], (0.3, 0.3))
    table = coefficient_table(spec)
    got = discrete_coeffs(spec.matrix, pattern_samples(spec))
    stored = generating_set(spec.matrix).index(table.freqs)
    assert np.allclose(got[stored], table.class_sums(), atol=1e-12)


def test_discrete_coeffs_rejects_bad_length():
    with pytest.raises(LengthMismatch):
        discrete_coeffs([[4, 0], [0, 4]], np.ones(9))


def test_invalid_specs_rejected():
    m_mat = [[4, 0], [0, 4]]
    with pytest.raises(InvalidSpec):
        KernelSpec(m_mat, "fejer")
    with pytest.raises(InvalidSpec):
        KernelSpec.dlvp(m_mat, 0.7)
    with pytest.raises(InvalidSpec):
        KernelSpec.dlvp(m_mat, (-0.1, 0.2))
    with pytest.raises(InvalidSpec):
        KernelSpec.dlvp(m_mat, (0.1, 0.2, 0.3))
    with pytest.raises(InvalidSpec):
        KernelSpec.dlvp(m_mat, None)
    with pytest.raises(InvalidSpec):
        KernelSpec.box_spline(m_mat, None)
    with pytest.raises(InvalidSpec):
        KernelSpec.box_spline(m_mat, np.ones((3, 3)))
    with pytest.raises(InvalidSpec):
        # all columns along one direction: dependent translates
        KernelSpec.box_spline(m_mat, three_direction_set(2, 0, 0))
    with pytest.raises(InvalidSpec):
        KernelSpec.box_spline(m_mat, np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(InvalidSpec):
        # spanning, but xi . z is not an integer
        KernelSpec.box_spline(m_mat, [[1, 0.5], [0, 1]])
    with pytest.raises(InvalidSpec):
        KernelSpec.box_spline(m_mat, [[1, 0, np.nan], [0, 1, 1]])
    with pytest.raises(InvalidSpec):
        KernelSpec.box_spline(m_mat, three_direction_set(1, 1, 0), radius=0)
    with pytest.raises(InvalidSpec):
        KernelSpec(m_mat, "dirichlet", alpha=0.25)
    with pytest.raises(InvalidSpec):
        three_direction_set(0, 0, 0)
    for counts in ((-5, 2, 2), (2, -1, 2), (2, 2, -1)):
        # [(1, 0)] * -5 is an empty list: unchecked, (-5, 2, 2) would
        # quietly build the (0, 2, 2) box spline
        with pytest.raises(InvalidSpec, match="must not be negative"):
            three_direction_set(*counts)


def test_table_is_frozen_and_its_bracket_derived():
    table = coefficient_table(KernelSpec.dlvp([[4, 1], [0, 3]], (0.3, 0.2)))
    assert "bracket" not in {field.name for field in dataclasses.fields(table)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.coeffs = table.coeffs.copy()
    # the bracket follows the coefficients, also after they are scaled in place
    table.coeffs[1] *= 2.0
    assert table.bracket[1] == pytest.approx(4 * bracket_sum(table.spec, table.freqs[1]))
    orthonormalize(table)
    assert np.allclose(table.spec.matrix.m * table.bracket, 1.0, rtol=0, atol=1e-14)


def test_fractional_or_non_finite_box_radius_rejected():
    m_mat = [[4, 0], [0, 4]]
    xi = three_direction_set(1, 1, 0)
    for radius in (2.5, (2, 2.5), np.inf, np.nan, (2, 2, 2)):
        with pytest.raises(InvalidSpec):
            KernelSpec.box_spline(m_mat, xi, radius=radius)
    # integral values of any type are kept exactly
    assert KernelSpec.box_spline(m_mat, xi, radius=2.0).radius == (2, 2)
    assert KernelSpec.box_spline(m_mat, xi, radius=np.array([3, 5])).radius == (3, 5)
