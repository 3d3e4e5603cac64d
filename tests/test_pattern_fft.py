"""Pattern transforms: Smith decomposition oracle, DFT oracle, unitarity."""

import itertools
import math

import numpy as np
import pytest

from lathom.errors import LengthMismatch, ZeroDeterminant
from lathom.lattice import PatternMatrix, _smith_ints, generating_set, pattern_points
from lathom.pattern_fft import (
    half_grid,
    pattern_dft,
    pattern_fft,
    pattern_ifft,
    pattern_irfft,
    pattern_rfft,
    smith_normal_form,
)

from oracles import random_regular, smith_elimination


def int_det(a):
    return int(a[0][0]) * int(a[1][1]) - int(a[0][1]) * int(a[1][0])


def determinantal_divisors(mat):
    """The classical Smith form oracle for 2 x 2: d1 is the gcd of the
    entries and d1 d2 = |det|."""
    d1 = math.gcd(*(int(x) for x in np.ravel(mat)))
    return [d1, abs(int_det(mat)) // d1]


def test_smith_reference_cases():
    sd = smith_normal_form([[2, 0], [0, 4]])
    assert sd.grid == (2, 4)
    sd2 = smith_normal_form([[64, 64], [-64, 64]])
    assert sd2.grid == (64, 128)
    sd3 = smith_normal_form([[2, 1], [0, 2]])
    assert sd3.grid == (1, 4)


def test_smith_structure_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        pm = random_regular(rng, span=8, max_m=3000)
        sd = smith_normal_form(pm)
        assert np.array_equal(sd.s @ np.diag(sd.d) @ sd.t, pm.entries)
        assert abs(int_det(sd.s)) == 1
        assert abs(int_det(sd.t)) == 1
        for a, b in zip(sd.d[:-1], sd.d[1:]):
            assert b % a == 0 and a > 0
        assert list(sd.d) == determinantal_divisors(pm.entries)


def test_smith_form_matches_the_elimination_on_every_small_matrix():
    # the canonical orderings, and so the row order of strain.csv, follow S
    # and T: the 2 x 2 Smith form must return what the general elimination
    # does, on all 27,248 regular matrices with entries in [-6, 6]
    count = 0
    for entries in itertools.product(range(-6, 7), repeat=4):
        mat = (entries[:2], entries[2:])
        if int_det(mat):
            assert _smith_ints(mat) == smith_elimination(mat), mat
            count += 1
    assert count == 27248


def test_dft_trivial_cases():
    assert np.allclose(pattern_dft(np.eye(2, dtype=int), [3.5 + 1j]), [3.5 + 1j])

    pm = PatternMatrix([[2, 0], [0, 2]])
    gen = generating_set(pm)
    ahat = pattern_dft(pm, np.ones(4))
    zero_idx = int(gen.index(np.zeros(2, dtype=int)))
    expect = np.zeros(4, dtype=complex)
    expect[zero_idx] = 2.0
    assert np.allclose(ahat, expect, atol=1e-14)

    pat = pattern_points(pm)
    delta = np.zeros(4)
    origin = int(pat.index(np.zeros(2, dtype=int)))
    delta[origin] = 1.0
    assert np.allclose(pattern_dft(pm, delta), 0.5 * np.ones(4), atol=1e-14)


def test_fft_matches_dft_corpus():
    rng = np.random.default_rng(5)
    mats = [
        [[4, 4], [-4, 4]],
        [[16, 0], [0, 16]],
        [[8, 3], [0, 8]],
        [[2, 1], [0, 2]],
        [[1, 0], [0, 1]],
    ]
    for entries in mats:
        pm = PatternMatrix(entries)
        a = rng.standard_normal(pm.m) + 1j * rng.standard_normal(pm.m)
        ref = pattern_dft(pm, a)
        got = pattern_fft(pm, a)
        assert np.linalg.norm(got - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)


def test_fft_roundtrip_parseval_unitarity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        pm = random_regular(rng, span=6, max_m=300)
        a = rng.standard_normal(pm.m) + 1j * rng.standard_normal(pm.m)
        b = rng.standard_normal(pm.m) + 1j * rng.standard_normal(pm.m)
        ahat, bhat = pattern_fft(pm, a), pattern_fft(pm, b)
        assert np.allclose(pattern_ifft(pm, ahat), a, atol=1e-12)
        assert abs(np.vdot(a, b) - np.vdot(ahat, bhat)) <= 1e-12 * abs(np.vdot(a, b))
        assert math.isclose(np.linalg.norm(ahat), np.linalg.norm(a), rel_tol=1e-12)


def test_real_field_roundtrip_stays_real():
    rng = np.random.default_rng(8)
    pm = PatternMatrix([[6, 1], [0, 6]])
    a = rng.standard_normal(pm.m)
    back = pattern_ifft(pm, pattern_fft(pm, a))
    assert np.max(np.abs(back.imag)) < 1e-12
    assert np.allclose(back.real, a, atol=1e-12)
    # single-precision input is transformed in double precision
    single = a.astype(np.float32)
    assert np.array_equal(pattern_fft(pm, single), pattern_fft(pm, single.astype(np.float64)))
    assert np.array_equal(pattern_ifft(pm, single.astype(np.complex64)), pattern_ifft(pm, single.astype(complex)))


def test_half_spectrum_is_the_full_spectrum_cut_and_inverts():
    rng = np.random.default_rng(10)
    # Smith grids (1, 7), (1, 18), (5, 5), (2, 12)
    cases = [[[1, 0], [0, 7]], [[3, 1], [0, 6]], [[5, 0], [0, 5]], [[4, 2], [0, 6]]]
    for pm in [PatternMatrix(c) for c in cases]:
        a = rng.standard_normal((pm.m, 3))
        grid = tuple(int(x) for x in smith_normal_form(pm).d)
        half = pattern_rfft(pm, a)
        assert half.shape == (3,) + half_grid(pm)
        full = np.moveaxis(pattern_fft(pm, a).reshape(grid + (3,)), -1, 0)
        assert np.allclose(half, full[..., : grid[-1] // 2 + 1], atol=1e-12)
        out = np.empty_like(a)
        assert pattern_irfft(pm, half, out=out) is out
        assert np.allclose(out, a, atol=1e-12)
        # the solver's layout: the transpose of a component-major buffer
        transposed = np.empty((3, pm.m)).T
        assert pattern_irfft(pm, pattern_rfft(pm, a), out=transposed) is transposed
        assert np.array_equal(transposed, out)
        # an out that cannot receive the result
        for bad in (np.empty((pm.m, 2)), np.empty((pm.m, 3), np.float32)):
            with pytest.raises(ValueError):
                pattern_irfft(pm, pattern_rfft(pm, a), out=bad)
        # the full transforms take the same out, in the same layouts
        z = a + 1j * rng.standard_normal((pm.m, 3))
        for transform in (pattern_fft, pattern_ifft):
            expected = transform(pm, z)
            for buffer in (np.empty((pm.m, 3), complex), np.empty((3, pm.m), complex).T):
                assert transform(pm, z, out=buffer) is buffer
                assert np.array_equal(buffer, expected)
            readonly = np.empty((pm.m, 3), complex)
            readonly.setflags(write=False)
            for bad in (np.empty((pm.m, 2), complex), np.empty((pm.m, 3)), readonly):
                with pytest.raises(ValueError):
                    transform(pm, z, out=bad)


def test_batched_axes():
    rng = np.random.default_rng(9)
    pm = PatternMatrix([[4, -2], [4, 14]])
    a = rng.standard_normal((pm.m, 3))
    ahat = pattern_fft(pm, a)
    for c in range(3):
        assert np.allclose(ahat[:, c], pattern_fft(pm, a[:, c]))


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        pattern_fft([[2, 0], [0, 2]], np.ones(5))
    with pytest.raises(LengthMismatch):
        pattern_dft([[2, 0], [0, 2]], np.ones(3))
