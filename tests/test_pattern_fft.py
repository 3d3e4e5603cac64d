"""Pattern transforms: Smith decomposition oracle, DFT oracle, unitarity."""

import itertools
import math

import numpy as np
import pytest

from lathom.errors import LengthMismatch, ZeroDeterminant
from lathom.lattice import PatternMatrix, generating_set, pattern_points
from lathom.pattern_fft import pattern_dft, pattern_fft, pattern_ifft, smith_normal_form

from test_lattice import random_regular


def int_det(rows):
    rows = [list(map(int, r)) for r in rows]
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * int_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(n)
    )


def determinantal_divisors(mat):
    """d_k = gcd(k-minors)/gcd((k-1)-minors), the classical SNF oracle."""
    mat = np.asarray(mat)
    n = mat.shape[0]
    prev = 1
    out = []
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                g = math.gcd(g, abs(int_det(mat[np.ix_(rows, cols)])))
        out.append(g // prev)
        prev = g
    return out


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
        d = int(rng.integers(2, 4))
        pm = random_regular(rng, d, span=8, max_m=3000)
        sd = smith_normal_form(pm)
        assert np.array_equal(sd.s @ np.diag(sd.d) @ sd.t, pm.entries)
        assert abs(int_det(sd.s)) == 1
        assert abs(int_det(sd.t)) == 1
        for a, b in zip(sd.d[:-1], sd.d[1:]):
            assert b % a == 0 and a > 0
        assert list(sd.d) == determinantal_divisors(pm.entries)


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
        [[3, 1, 0], [0, 3, 1], [1, 0, 3]],
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
        pm = random_regular(rng, int(rng.integers(2, 4)), span=6, max_m=300)
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
