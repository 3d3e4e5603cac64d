"""Lattice algebra: exact counts, canonical representatives, congruence maps."""

import itertools
import math

import numpy as np
import pytest

from lathom.errors import PatternMismatch, ZeroDeterminant
from lathom.kernels import KernelSpec, coefficient_table
from lathom.lattice import (
    PatternMatrix,
    _require_exact_reductions,
    as_pattern_matrix,
    frac_coordinates,
    generating_set,
    pattern_points,
    reduce_mod,
    reduce_point,
    refinement,
)

from oracles import in_symmetric_box, random_regular


def test_det_abs_reference_values():
    assert as_pattern_matrix([[128, 0], [0, 128]]).m == 16384
    assert as_pattern_matrix([[64, 64], [-64, 64]]).m == 8192
    assert as_pattern_matrix(np.eye(2)).m == 1
    assert as_pattern_matrix([[4, -2], [4, 14]]).m == 64  # 64, despite any folklore count


def test_singular_matrix_rejected():
    with pytest.raises(ZeroDeterminant):
        PatternMatrix([[2, 4], [1, 2]])
    with pytest.raises(ValueError):
        PatternMatrix([[1.5, 0], [0, 1]])
    with pytest.raises(ValueError):
        PatternMatrix([1, 2, 3])


def test_non_finite_or_oversized_entries_rejected():
    for bad in (np.inf, -np.inf, np.nan, 1e20, 2.0**63, 2**63, -(2**63) - 1, 0.5):
        with pytest.raises(ValueError):
            PatternMatrix([[bad, 0], [0, 1]])
    # the int64 range itself is accepted exactly, also from floats, as long
    # as |det| stays below 2**62
    assert PatternMatrix([[-(2**63), 2**62 + 1], [-2, 1]]).entries[0, 0] == -(2**63)
    assert PatternMatrix([[2.0**62, 2.0**61], [3.0, 1.0]]).m == 2**61


def test_determinant_at_or_above_2_62_rejected():
    # m = 2**64 used to be accepted and reduce_mod then raised a bare OverflowError
    for entries in ([[2**62, 0], [0, 4]], [[2**62, 0], [0, 1]], [[-(2**63), 0], [0, 1]]):
        with pytest.raises(ValueError, match="2\\*\\*62"):
            PatternMatrix(entries)
    assert PatternMatrix([[2**62 - 1, 0], [0, -1]]).m == 2**62 - 1


def test_reduction_rejects_int64_overflow():
    # k @ adj(M^T)^T wrapped silently here and returned h1 = 6148914324732641280
    pm = PatternMatrix([[2**40, 0], [0, 3]])
    with pytest.raises(ValueError, match="overflow"):
        reduce_mod(pm, [2**62, 1])
    with pytest.raises(ValueError, match="overflow"):
        frac_coordinates(pm.mt, [[0, 0], [1, -(2**61)]])
    # the largest safe vectors still reduce exactly: M^{-T} (k - h) is integer
    # and M^{-T} h lies in the symmetric box
    for k in ([2**20, 1], [2**22 - 2, -(2**22 - 2)], [-(2**21) - 3, 5]):
        h = reduce_mod(pm, k)
        assert (k[0] - int(h[0])) % 2**40 == 0 and (k[1] - int(h[1])) % 3 == 0
        assert np.all(in_symmetric_box(pm.mt, h))


def test_pattern_numerators_are_exact_for_large_entries():
    # adj(M) z is far below the int64 bound that frac_coordinates checks for
    # arbitrary vectors, so the pattern takes its numerators from the
    # reduction; M (numerators / n) = z holds in exact integers
    mat = [[3, 2**40], [0, 5]]
    pat = pattern_points(mat)
    n = pat.denominator
    assert len(pat) == 15 and n == 15
    for z, num in zip(pat.z.tolist(), pat.numerators.tolist()):
        assert [mat[0][0] * num[0] + mat[0][1] * num[1], mat[1][1] * num[1]] == [n * z[0], n * z[1]]
        assert all(-n <= 2 * v < n for v in num)


def test_exact_reduction_check_admits_only_what_builds():
    # decided in O(1) from the Smith-grid corners and the canonical box:
    # what it admits builds both canonical sets and the frequencies' exact
    # coordinates, and it refuses the matrices whose reductions overflow
    admitted = ([[2**15 + 1, 2**15], [2**15, 2**15 - 1]], [[3, 2**20], [0, 5]], [[64, 0], [32, 64]])
    for mat in admitted:
        _require_exact_reductions(mat)
        pattern_points(mat)
        freqs = generating_set(mat).freqs
        frac_coordinates(np.asarray(mat).T, freqs)
        assert len(coefficient_table(KernelSpec.dlvp(mat, 0.25)).freqs) > 0
    refused = (([[3, 2**40], [0, 5]], generating_set), ([[3, 0], [2**40, 5]], pattern_points))
    for mat, fails in refused:
        with pytest.raises(ValueError, match="too large for exact int64 reductions"):
            _require_exact_reductions(mat)
        with pytest.raises(ValueError, match="overflow"):
            fails(mat)


def test_pattern_identity_and_diag2():
    pat = pattern_points(np.eye(2, dtype=int))
    assert len(pat) == 1
    assert np.array_equal(pat.points, [[0.0, 0.0]])

    pat2 = pattern_points([[2, 0], [0, 2]])
    got = {tuple(p) for p in pat2.points}
    assert got == {(-0.5, -0.5), (-0.5, 0.0), (0.0, -0.5), (0.0, 0.0)}


def test_pattern_points_nontrivial_enumeration_oracle():
    # Brute force: reduce M^{-1} z mod 1 over a covering set of z and dedupe.
    m_mat = np.array([[2, 1], [0, 2]])
    pat = pattern_points(m_mat)
    inv = np.linalg.inv(m_mat)
    seen = set()
    for z in itertools.product(range(-4, 8), repeat=2):
        y = inv @ z
        y = y - np.floor(y + 0.5)  # reduce into [-1/2, 1/2)
        seen.add((round(y[0], 12), round(y[1], 12)))
    assert len(seen) == 4
    got = {(round(p[0], 12), round(p[1], 12)) for p in pat.points}
    assert got == seen


def test_points_are_exact_rationals_in_box():
    for m_mat in ([[2, 1], [0, 2]], [[4, -2], [4, 14]]):
        pat = pattern_points(m_mat)
        num, den = pat.numerators, pat.denominator
        assert np.all(2 * num >= -den) and np.all(2 * num < den)
        # M y must be integer and must reproduce the stored z
        my = pat.points @ np.array(m_mat).T
        assert np.allclose(my, pat.z, atol=1e-9)
        assert np.allclose(pat.points, num / den)


def test_generating_set_small_cases():
    gen = generating_set(np.eye(2, dtype=int))
    assert np.array_equal(gen.freqs, [[0, 0]])

    gen2 = generating_set([[2, 0], [0, 2]])
    got = {tuple(h) for h in gen2.freqs}
    assert got == {(-1, -1), (-1, 0), (0, -1), (0, 0)}


def test_generating_set_large_distinct():
    pm = PatternMatrix([[64, 64], [-64, 64]])
    gen = generating_set(pm)
    assert len(gen) == 8192
    assert np.array_equal(reduce_mod(pm, gen.freqs), gen.freqs)
    # bijective indexing: every canonical frequency maps to a unique slot
    idx = gen.index(gen.freqs)
    assert np.array_equal(np.sort(idx), np.arange(8192))


def test_reduce_mod_examples():
    pm = PatternMatrix([[2, 0], [0, 2]])
    assert np.array_equal(reduce_mod(pm, [3, 0]), [-1, 0])
    gen = generating_set(pm)
    for h in gen.freqs:
        assert np.array_equal(reduce_mod(pm, h), h)


def test_reduce_mod_brute_force_oracle():
    pm = PatternMatrix([[2, 1], [0, 2]])
    gen = generating_set(pm)
    k = np.array([5, 5])
    h = reduce_mod(pm, k)
    # the unique representative with M^{-T} (k - h) integer
    hits = []
    for cand in gen.freqs:
        diff = np.linalg.solve(pm.mt, k - cand)
        if np.allclose(diff, np.round(diff), atol=1e-12):
            hits.append(tuple(cand))
    assert hits == [tuple(h)]


def test_reduce_mod_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        pm = random_regular(rng)
        k = rng.integers(-50, 50, size=(40, 2))
        z = rng.integers(-5, 5, size=(40, 2))
        h = reduce_mod(pm, k)
        assert np.array_equal(reduce_mod(pm, h), h)  # idempotent
        assert np.array_equal(reduce_mod(pm, k + z @ pm.entries), h)  # shift invariance
        assert np.all(in_symmetric_box(pm.mt, h))
        # counts agree
        assert len(pattern_points(pm)) == len(generating_set(pm)) == pm.m


def test_index_maps_are_bijections():
    rng = np.random.default_rng(11)
    for _ in range(10):
        pm = random_regular(rng, span=5, max_m=150)
        pat, gen = pattern_points(pm), generating_set(pm)
        assert np.array_equal(np.sort(pat.index(pat.z)), np.arange(pm.m))
        assert np.array_equal(np.sort(gen.index(gen.freqs)), np.arange(pm.m))
        # arbitrary representatives hit the same slots
        shift = rng.integers(-3, 4, size=(pm.m, 2))
        assert np.array_equal(gen.index(gen.freqs + shift @ pm.entries), gen.index(gen.freqs))
        assert np.array_equal(pat.index(pat.z + shift @ pm.entries.T), pat.index(pat.z))


def test_reduce_point_and_frac_coordinates():
    pm = PatternMatrix([[4, -2], [4, 14]])
    pat = pattern_points(pm)
    assert np.array_equal(reduce_point(pm, pat.z), pat.z)
    w, n = frac_coordinates(pm.entries, pat.z)
    assert n == 64
    assert np.array_equal(w / n, pat.points)



def test_refinement_is_exact_and_integer():
    rng = np.random.default_rng(8)
    for _ in range(20):
        coarse = random_regular(rng, span=6, max_m=60).entries
        factor = random_regular(rng, span=3, max_m=9).entries
        assert np.array_equal(refinement(factor @ coarse, coarse), factor)
    # 12 I is 3/2 times 8 I, and 8 I has no shear of 4
    for fine in ([[12, 0], [0, 12]], [[16, 4], [0, 16]]):
        with pytest.raises(PatternMismatch, match="does not refine"):
            refinement(fine, [[8, 0], [0, 8]])
    assert np.array_equal(refinement([[16, 8], [0, 16]], [[8, 0], [0, 8]]), [[2, 1], [0, 2]])
