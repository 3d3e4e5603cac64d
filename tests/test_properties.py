"""Property tests: lattice algebra, the fast transform, the kernel and
Green tables, Green boundedness, the Green table layout and both Green
paths, the solver's positivity check and its fixed point, a stiffness
field by phase against its dense expansion, and the effective tensor
under the axis swap and the quarter turn.

Patterns, kernels and reference stiffnesses are drawn by hypothesis (see
conftest.py for the profile); each property is exact or holds to a stated
floating-point tolerance.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lathom.errors import NonElliptic
from lathom.green import apply_green, periodised_green_table
from lathom.kernels import KernelSpec, coeff, coefficient_table, orthonormalize, three_direction_set
from lathom.lattice import (
    PatternMatrix,
    frac_coordinates,
    generating_set,
    pattern_points,
    reduce_mod,
)
from lathom.pattern_fft import half_grid, pattern_dft, pattern_fft, smith_normal_form
from lathom.solver import (
    StiffnessField,
    basic_scheme,
    default_reference,
    effective_action,
    effective_tensor,
    residual_ls,
)
from lathom.tensor import ellipticity_bounds, isotropic_stiffness, require_elliptic

from oracles import (
    box_coeff_sinc,
    class_matrices,
    every_class_table,
    full_spectrum_green,
    in_symmetric_box,
    is_even,
    periodised_basic_scheme,
    periodised_green_index_form,
    regular_pattern,
)


def patterns(span=6, max_m=400):
    """Regular 2 x 2 integer pattern matrices with entries in [-span, span]."""
    entries = hnp.arrays(np.int64, (2, 2), elements=st.integers(-span, span))
    return entries.map(lambda a: regular_pattern(a, max_m)).filter(lambda pm: pm is not None)


def two_d_patterns(max_m):
    """Diagonal and general (sheared) 2 x 2 patterns with |det| <= max_m."""
    sides = st.integers(1, max_m)
    diagonal = st.tuples(sides, sides).map(lambda d: regular_pattern(np.diag(d), max_m))
    return st.one_of(diagonal.filter(lambda pm: pm is not None), patterns(max_m=max_m))


def kernel_specs(pm, kinds=("dirichlet", "dlvp", "box")):
    """Dirichlet, dlVP and box-spline (radius <= 4) kernels on pattern pm,
    of the given kinds.

    Half of the slope draws lie in [0, 1/m], where a ramp is no wider than
    the spacing of the coordinates (capped at 1/2 for m = 1).
    """
    slopes = st.one_of(st.floats(0.0, 0.5), st.floats(0.0, min(0.5, 1.0 / pm.m)))
    by_kind = {
        "dirichlet": st.just(KernelSpec.dirichlet(pm)),
        "dlvp": st.tuples(slopes, slopes).map(lambda alpha: KernelSpec.dlvp(pm, alpha)),
        "box": st.builds(
            lambda pqr, radius: KernelSpec.box_spline(pm, three_direction_set(*pqr), radius),
            st.sampled_from([(1, 1, 0), (1, 1, 1), (2, 2, 0), (2, 2, 1), (2, 1, 1)]),
            st.integers(1, 4),
        ),
    }
    return st.one_of(*(by_kind[kind] for kind in kinds))


def spd_mandel():
    """Symmetric positive definite 3 x 3 Mandel stiffness A A^T + I/2."""
    return hnp.arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0)).map(
        lambda a: a @ a.T + 0.5 * np.eye(3)
    )


@given(pm=patterns(span=8, max_m=3000))
def test_smith_form_invariants(pm):
    sd = smith_normal_form(pm)
    assert np.array_equal(sd.s @ np.diag(sd.d) @ sd.t, pm.entries)
    # S and T are unimodular: exact integer determinant +-1
    assert PatternMatrix(sd.s).m == 1
    assert PatternMatrix(sd.t).m == 1
    assert all(a > 0 and b % a == 0 for a, b in zip(sd.d[:-1], sd.d[1:]))
    assert int(np.prod(sd.d)) == pm.m


@given(pm=patterns(), data=st.data())
def test_reduce_mod_is_exact(pm, data):
    k = data.draw(
        hnp.arrays(np.int64, (8, 2), elements=st.integers(-(10**6), 10**6)), label="k"
    )
    h = reduce_mod(pm, k)
    assert np.array_equal(reduce_mod(pm, h), h)  # idempotent
    w, n = frac_coordinates(pm.mt, k - h)
    assert np.all(w % n == 0)  # h - k lies in M^T Z^d
    assert np.all(in_symmetric_box(pm.mt, h))


@given(pm=patterns(max_m=300), seed=st.integers(0, 2**32 - 1))
def test_pattern_fft_matches_dft(pm, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=pm.m) + 1j * rng.normal(size=pm.m)
    fast, direct = pattern_fft(pm, a), pattern_dft(pm, a)
    assert np.linalg.norm(fast - direct) <= 1e-12 * np.linalg.norm(direct)


@given(data=st.data())
def test_coefficient_table_is_coeff_at_the_shifted_frequencies(data):
    pm = data.draw(two_d_patterns(max_m=64), label="pattern")
    spec = data.draw(kernel_specs(pm), label="kernel")
    table = coefficient_table(spec)
    ks = table.freqs[:, None, :] + table.shifts @ pm.entries
    for j in range(len(table.shifts)):
        assert np.array_equal(table.coeffs[:, j], coeff(spec, ks[:, j]))
    if spec.kind == "box":
        # the closed-form sinc against np.sinc, and its exact zeros
        assert np.max(np.abs(table.coeffs - box_coeff_sinc(spec, ks))) <= 1e-15
        w, n = frac_coordinates(pm.mt, ks)
        dots = w @ spec.xi.astype(np.int64)
        on_zero = np.any((dots % n == 0) & (dots != 0), axis=-1)
        assert np.all(table.coeffs[on_zero] == 0.0)


@given(data=st.data(), c0=spd_mandel())
def test_green_table_matches_the_index_form_sum(data, c0):
    pm = data.draw(two_d_patterns(max_m=64), label="pattern")
    spec = data.draw(kernel_specs(pm), label="kernel")
    table = periodised_green_table(c0, orthonormalize(coefficient_table(spec)))
    expected = periodised_green_index_form(c0, spec)
    assert np.max(np.abs(class_matrices(table) - expected)) <= 1e-13 * np.max(np.abs(expected))


# the half grid is the whole Smith grid when d2 is 1 or 2: m = 1, (1, 2)
# (diagonal and sheared) and (2, 2)
WHOLE_HALF_GRIDS = st.sampled_from(
    [[[1, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 1], [-1, 1]], [[2, 0], [0, 2]]]
).map(PatternMatrix)


@given(data=st.data(), c0=spd_mandel())
def test_coefficient_table_is_the_oracle_rows(data, c0):
    # dlVP and box tables hold the half-grid classes, Dirichlet tables too
    # when their classes pair evenly and all of them otherwise, and either
    # way the rows are those of the every-class oracle bit for bit; the
    # Green table matches the oracle's index-form build on every class,
    # and the oracle measures the evenness that the half flag decides
    pm = data.draw(st.one_of(WHOLE_HALF_GRIDS, patterns(max_m=64)), label="pattern")
    spec = data.draw(kernel_specs(pm), label="kernel")
    table = coefficient_table(spec)
    oracle = every_class_table(spec)
    assert table.half or spec.kind == "dirichlet"
    rows = np.arange(pm.m).reshape(smith_normal_form(pm).grid)
    stored = rows[:, : half_grid(pm)[1]].ravel() if table.half else rows.ravel()
    assert np.array_equal(table.freqs, oracle.freqs[stored])
    assert np.array_equal(table.shifts, oracle.shifts)
    assert np.array_equal(table.coeffs, oracle.coeffs[stored])
    assert np.array_equal(table.bracket, oracle.bracket[stored])
    green = periodised_green_table(c0, orthonormalize(table))
    expected = periodised_green_index_form(c0, spec)
    assert np.max(np.abs(class_matrices(green) - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert table.half == green.even_table == is_even(pm, expected)


@given(data=st.data(), c0=spd_mandel())
def test_green_classes_are_bounded_by_one(data, c0):
    # every class of C0^1/2 Gp C0^1/2 is a convex combination of orthogonal
    # projections, so its spectrum lies in [0, 1]; Dirichlet classes are
    # projections themselves
    pm = data.draw(patterns(max_m=64), label="pattern")
    spec = data.draw(kernel_specs(pm), label="kernel")
    table = periodised_green_table(c0, orthonormalize(coefficient_table(spec)))
    w, v = np.linalg.eigh(c0)
    root = (v * np.sqrt(w)) @ v.T
    vals = np.linalg.eigvalsh(root @ class_matrices(table) @ root)
    assert vals.min() >= -1e-12
    assert vals.max() <= 1.0 + 1e-12
    if spec.kind == "dirichlet":
        assert np.all(np.minimum(np.abs(vals), np.abs(vals - 1.0)) <= 1e-12)


# Smith grids (1, 7), (1, 18), (5, 5), (3, 9) and (2, 12): d1 = 1 and odd or
# even last divisors; None draws the pattern
SMITH_CASES = [
    [[1, 0], [0, 7]],
    [[3, 1], [0, 6]],
    [[5, 0], [0, 5]],
    [[3, 0], [3, 9]],
    [[4, 2], [0, 6]],
    None,
]


@pytest.mark.parametrize("entries", SMITH_CASES)
@settings(max_examples=25)
@given(data=st.data(), c0=spd_mandel())
def test_real_green_path_matches_the_full_spectrum(entries, data, c0):
    # even tables (dlVP, box, Dirichlet whose classes pair evenly) take
    # the real half-spectrum path; the others stay honestly complex
    if entries is None:
        pm = data.draw(patterns(max_m=400), label="pattern")
    else:
        pm = PatternMatrix(entries)
    spec = data.draw(kernel_specs(pm), label="kernel")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    field = np.random.default_rng(seed).normal(size=(pm.m, 3))
    table = periodised_green_table(c0, orthonormalize(coefficient_table(spec)))
    reference = full_spectrum_green(table, field)
    out = apply_green(table, field)
    if table.even_table:
        assert out.dtype == np.float64
        assert np.linalg.norm(out - reference) <= 1e-12 * np.linalg.norm(reference)
        again = np.empty_like(out)
        assert apply_green(table, field, out=again, work=table.workspace()) is again
        assert np.array_equal(again, out)
    else:
        assert spec.kind == "dirichlet"
        assert np.array_equal(out, reference)
        assert np.linalg.norm(out.imag) > 1e-6 * np.linalg.norm(out)


@pytest.mark.parametrize("entries", SMITH_CASES)
@settings(max_examples=25)
@given(data=st.data(), c0=spd_mandel())
def test_green_table_layout_and_complex_fields(entries, data, c0):
    # one layout: six entries on the half spectrum of an even table and on
    # the whole Smith grid otherwise; apply_green matches the full-spectrum
    # oracle on class matrices summed in index form, independent of the
    # table's storage, for real and complex fields on both
    if entries is None:
        pm = data.draw(patterns(max_m=400), label="pattern")
    else:
        pm = PatternMatrix(entries)
    spec = data.draw(kernel_specs(pm), label="kernel")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    real, imag = rng.normal(size=(2, pm.m, 3))
    table = periodised_green_table(c0, orthonormalize(coefficient_table(spec)))
    grid = half_grid(pm) if table.even_table else smith_normal_form(pm).grid
    assert table.entries.shape == (6,) + grid
    assert table.workspace().shape == (4,) + grid
    matrices = periodised_green_index_form(c0, spec)
    for field in (real, real + 1j * imag):
        out = apply_green(table, field)
        reference = full_spectrum_green(table, field, matrices)
        assert out.dtype == reference.dtype
        assert np.linalg.norm(out - reference) <= 1e-12 * np.linalg.norm(reference)
    if table.even_table:
        # G(a + ib) = Ga + iGb, both through the real path
        parts = apply_green(table, real) + 1j * apply_green(table, imag)
        assert np.array_equal(out, parts)


@given(data=st.data())
def test_cg_solves_the_basic_scheme_fixed_point(data):
    # Green_p is bounded for every kernel, so CG reaches the Basic Scheme's
    # fixed point for Dirichlet, dlVP and box tables alike
    pm = data.draw(patterns(max_m=64), label="pattern")
    spec = data.draw(kernel_specs(pm), label="kernel")
    contrast = data.draw(st.floats(1.0, 10.0), label="contrast")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    young = rng.uniform(1.0, contrast, size=pm.m)
    eps0 = rng.normal(size=3)
    c = np.stack([isotropic_stiffness(e, 0.3) for e in young])
    c0 = default_reference(c)
    table = periodised_green_table(c0, orthonormalize(coefficient_table(spec)))
    tol = 1e-10
    strain = basic_scheme(c, eps0, table, tol=tol).strain
    total = np.linalg.norm(strain + eps0)
    assert residual_ls(strain, c, c0, eps0, table) <= 10 * tol * total
    basic_strain, _ = periodised_basic_scheme(c, c0, eps0, table, tol=tol)
    assert np.linalg.norm(strain - basic_strain) <= 1e-8 * total


# Dirichlet patterns whose classes pair unevenly: the complex path
UNEVEN_DIRICHLET = [[[8, 0], [0, 8]], [[6, 2], [0, 5]], [[2, 0], [0, 6]]]


@pytest.mark.parametrize("kind", ["dirichlet", "dirichlet-uneven", "dlvp", "box"])
@settings(max_examples=15)
@given(data=st.data())
def test_phase_field_is_its_dense_expansion(kind, data):
    # a field by phase and its (m, 3, 3) expansion pose one problem: the
    # default reference, the solve, its action and the LS residual agree
    # bit for bit, on even tables and on the complex path alike
    if kind == "dirichlet-uneven":
        pm = PatternMatrix(data.draw(st.sampled_from(UNEVEN_DIRICHLET), label="pattern"))
    else:
        pm = data.draw(two_d_patterns(max_m=64), label="pattern")
    spec = data.draw(kernel_specs(pm, [kind.split("-")[0]]), label="kernel")
    p = data.draw(st.integers(1, 4), label="phases")
    stiffness = np.stack(data.draw(st.lists(spd_mandel(), min_size=p, max_size=p), label="table"))
    codes = data.draw(hnp.arrays(np.int8, pm.m, elements=st.integers(0, p - 1)), label="codes")
    eps0 = data.draw(hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)), label="eps0")
    field = StiffnessField(stiffness, codes)
    dense = field.gather(stiffness)
    c0 = default_reference(field)
    assert np.array_equal(c0, default_reference(dense))
    table = periodised_green_table(c0, coefficient_table(spec))
    if kind == "dirichlet-uneven":
        assert not table.even_table
    by_phase = basic_scheme(field, eps0, table)
    expanded = basic_scheme(dense, eps0, table)
    assert by_phase.residual_history == expanded.residual_history
    assert np.array_equal(by_phase.strain, expanded.strain)
    assert np.array_equal(by_phase.effective_action, expanded.effective_action)
    strain = by_phase.strain
    assert np.array_equal(effective_action(field, strain, eps0), effective_action(dense, strain, eps0))
    assert residual_ls(strain, field, c0, eps0, table) == residual_ls(strain, dense, c0, eps0, table)


# the axis swap y -> P y, and Q, which swaps e11 and e22 in the Mandel layout
AXIS_SWAP = np.array([[0, 1], [1, 0]], dtype=np.int64)
MANDEL_SWAP = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def swapped_spec(spec):
    """The kernel of spec on P M P: dlVP slopes and box radii swap, and box
    directions e1, e2, e1 + e2 become e2, e1, e1 + e2."""
    pm = AXIS_SWAP @ spec.matrix.entries @ AXIS_SWAP
    if spec.kind == "dlvp":
        return KernelSpec.dlvp(pm, spec.alpha[::-1])
    if spec.kind == "box":
        return KernelSpec.box_spline(pm, AXIS_SWAP @ spec.xi, spec.radius[::-1])
    return KernelSpec.dirichlet(pm)


@pytest.mark.parametrize("kind", ["dirichlet", "dirichlet-uneven", "dlvp", "box"])
@settings(max_examples=8)
@given(data=st.data())
def test_effective_tensor_commutes_with_the_axis_swap(kind, data):
    # the discretisation maps to itself under y -> P y: the pattern becomes
    # P M P, each point's stiffness moves to the point P z by exact integer
    # indices as Q C Q, and the effective tensor becomes Q C_eff Q
    if kind == "dirichlet-uneven":
        pm = PatternMatrix(data.draw(st.sampled_from(UNEVEN_DIRICHLET), label="pattern"))
    else:
        pm = data.draw(two_d_patterns(max_m=64), label="pattern")
    if kind == "box":
        multiplicities = [(1, 1, 0), (1, 1, 1), (2, 2, 0), (2, 1, 1), (1, 2, 0)]
        pqr = data.draw(st.sampled_from(multiplicities), label="directions")
        radius = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 4)), label="radius")
        spec = KernelSpec.box_spline(pm, three_direction_set(*pqr), radius)
    else:
        spec = data.draw(kernel_specs(pm, [kind.split("-")[0]]), label="kernel")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(pm.m, 3, 3))
    c = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(3)
    swapped = PatternMatrix(AXIS_SWAP @ pm.entries @ AXIS_SWAP)
    pat = pattern_points(pm)
    rows = pattern_points(swapped).index(pat.z @ AXIS_SWAP.T)
    assert sorted(rows.tolist()) == list(range(pm.m))
    c_swapped = np.empty_like(c)
    c_swapped[rows] = MANDEL_SWAP @ c @ MANDEL_SWAP
    c0 = default_reference(c)
    assert np.array_equal(MANDEL_SWAP @ c0 @ MANDEL_SWAP, c0)  # isotropic
    tables = [
        periodised_green_table(c0, coefficient_table(s)) for s in (spec, swapped_spec(spec))
    ]
    if kind == "dirichlet-uneven":
        assert not tables[0].even_table
    eff, _ = effective_tensor(c, tables[0], tol=1e-13)
    eff_swapped, _ = effective_tensor(c_swapped, tables[1], tol=1e-13)
    error = np.linalg.norm(MANDEL_SWAP @ eff @ MANDEL_SWAP - eff_swapped)
    assert error <= 1e-11 * np.linalg.norm(eff)


QUARTER_TURN = np.array([[0, -1], [1, 0]], dtype=np.int64)
# strains turn as R e R^T: e11 and e22 swap and e12 changes sign
MANDEL_TURN = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])


def dirichlet_turns(pm):
    """Whether the Dirichlet box of pm keeps no class with t_i = -1/2
    beside a nonzero t_j on one of the two faces, t = M^{-T} h.

    The turn maps t to (-t2, t1), so a class on the face t2 = -1/2 lands
    on t1 = +1/2, which the half-open box wraps to another line.  On every
    regular matrix with entries in [-3, 3] the effective tensor commutes
    with the turn to 2.4e-16 when one face is free of such classes, and
    misses by 3e-3 or more when both carry them.  That is neither evenness
    nor its failure: [[0, 2], [2, 2]] is even and misses (its corner class
    t = (-1/2, -1/2) sits on both faces), [[6, 2], [0, 5]] is not and holds.
    """
    w, n = frac_coordinates(pm.mt, generating_set(pm).freqs)
    on_face = (2 * w == -n) & (w[:, ::-1] != 0)
    return not on_face.any(axis=0).all()


@pytest.mark.parametrize("kind", ["dirichlet", "dirichlet-both-faces", "dlvp", "box"])
@settings(max_examples=8)
@given(data=st.data())
def test_effective_tensor_commutes_with_the_quarter_turn(kind, data):
    # y -> R y maps the pattern to R M R^T and each point's stiffness to
    # the point R z as Q C Q^T.  The kernels that the turn maps to
    # themselves: dlVP with equal slopes, box (2, 2, 0) with equal radii
    # (its directions turn into their negatives, and sinc is even) and
    # Dirichlet unless its box wraps classes on both faces (see
    # dirichlet_turns), where the turn is shown to break
    if kind == "dirichlet-both-faces":
        # on 2 M the corner class t = (-1/2, -1/2) sits on both faces
        pm = PatternMatrix(2 * data.draw(two_d_patterns(max_m=16), label="pattern").entries)
        assert not dirichlet_turns(pm)
    else:
        pm = data.draw(two_d_patterns(max_m=64), label="pattern")
    turned = PatternMatrix(QUARTER_TURN @ pm.entries @ QUARTER_TURN.T)
    if kind == "dlvp":
        alpha = data.draw(st.floats(0.0, 0.5), label="slope")
        specs = [KernelSpec.dlvp(m, alpha) for m in (pm, turned)]
    elif kind == "box":
        radius = data.draw(st.integers(1, 4), label="radius")
        xi = three_direction_set(2, 2, 0)
        specs = [KernelSpec.box_spline(m, xi, radius) for m in (pm, turned)]
    else:
        assume(kind != "dirichlet" or dirichlet_turns(pm))
        specs = [KernelSpec.dirichlet(m) for m in (pm, turned)]
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(pm.m, 3, 3))
    c = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(3)
    pat = pattern_points(pm)
    rows = pattern_points(turned).index(pat.z @ QUARTER_TURN.T)
    assert sorted(rows.tolist()) == list(range(pm.m))
    c_turned = np.empty_like(c)
    c_turned[rows] = MANDEL_TURN @ c @ MANDEL_TURN.T
    c0 = default_reference(c)
    assert np.array_equal(MANDEL_TURN @ c0 @ MANDEL_TURN.T, c0)  # isotropic
    tables = [periodised_green_table(c0, coefficient_table(spec)) for spec in specs]
    eff, _ = effective_tensor(c, tables[0], tol=1e-13)
    eff_turned, _ = effective_tensor(c_turned, tables[1], tol=1e-13)
    error = np.linalg.norm(MANDEL_TURN @ eff @ MANDEL_TURN.T - eff_turned)
    if kind == "dirichlet-both-faces":
        assert error > 1e-6 * np.linalg.norm(eff)
    else:
        assert error <= 1e-11 * np.linalg.norm(eff)


def stiffness_batch(kind, n, scale, rng):
    """n Mandel matrices Q diag(lambda) Q^T, eigenvalues in [0.1, 1] scale,
    made exactly symmetric; kind then spoils them (see the test)."""
    q, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    lam = rng.uniform(0.1, 1.0, size=(n, 3)) * scale
    point = rng.integers(n)
    if kind == "indefinite":
        lam[point, 0] = -rng.uniform(0.1, 1.0) * scale
    elif kind in ("near_singular_positive", "near_singular_negative"):
        lam[point, 0] = (1e-6 if kind.endswith("positive") else -1e-6) * scale
    c = np.einsum("nab,nb,ncb->nac", q, lam, q)
    c = 0.5 * (c + np.swapaxes(c, 1, 2))
    if kind == "nan":
        c[point, rng.integers(3), rng.integers(3)] = np.nan
    elif kind.startswith("asymmetric"):
        # eigvalsh reads the lower triangle, so spoiling the upper one keeps
        # the eigenvalues that ellipticity_bounds measures against
        vals = np.linalg.eigvalsh(c)
        bound = 1e-12 * max(abs(vals[:, 0].min()), abs(vals[:, -1].max()))
        c[point, 0, 1] += (0.99 if kind.endswith("below") else 1.01) * bound
    return c


@given(
    kind=st.sampled_from(
        [
            "spd",
            "indefinite",
            "near_singular_positive",
            "near_singular_negative",
            "nan",
            "asymmetric_below",
            "asymmetric_above",
        ]
    ),
    n=st.integers(1, 8),
    exponent=st.integers(-3, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_positivity_decision_agrees_with_eigvalsh(kind, n, exponent, seed):
    # require_elliptic decides through ellipticity_bounds, so its decision
    # and message must be eigvalsh's
    c = stiffness_batch(kind, n, 10.0**exponent, np.random.default_rng(seed))
    try:
        lower, _ = ellipticity_bounds(c)
    except NonElliptic:
        expected, lower = False, None
    else:
        expected = lower > 0.0
    try:
        require_elliptic(c, "stiffness field")
        accepted = True
    except NonElliptic as err:
        accepted = False
        if lower is not None:
            assert f"lower bound {lower:.3e}" in str(err)
    assert accepted == expected
    if kind in ("spd", "near_singular_positive", "asymmetric_below"):
        assert accepted
    else:
        assert not accepted
