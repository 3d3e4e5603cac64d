"""Mandel algebra: isometry, isotropic laws, index-notation oracles."""

import itertools

import numpy as np
import pytest

from lathom.errors import InvalidMaterial, ShapeMismatch
from lathom.green import strain_basis
from lathom.tensor import (
    IDENTITY_VECTOR,
    apply,
    as_mandel_stiffness,
    ellipticity_bounds,
    isotropic_parts,
    isotropic_stiffness,
    lame_parameters,
    lame_stiffness,
    symmetric_entries,
    symmetric_matrices,
)

from oracles import from_mandel, from_mandel_operator, mandel_operator_2d, to_mandel


def isotropic_index_form(lam, mu, d):
    """Independent construction of C_ijkl from the Kronecker formula."""
    c4 = np.zeros((d, d, d, d))
    for i, j, k, l in itertools.product(range(d), repeat=4):
        c4[i, j, k, l] = lam * (i == j) * (k == l) + mu * ((i == k) * (j == l) + (i == l) * (j == k))
    return c4


def random_sym(rng, d):
    a = rng.standard_normal((d, d))
    return 0.5 * (a + a.T)


def test_isotropic_reference_values():
    c = isotropic_stiffness(1.0, 0.0)
    assert np.allclose(c, np.eye(3))  # lam = 0, 2 mu = 1

    assert np.allclose(isotropic_stiffness(10.0, 0.3), 10.0 * isotropic_stiffness(1.0, 0.3))

    lam, mu = lame_parameters(1.0, 0.3)
    assert np.isclose(mu, 1.0 / 2.6)
    assert np.isclose(lam, 0.3 / (1.3 * 0.4))


def test_material_validation():
    with pytest.raises(InvalidMaterial):
        lame_parameters(-1.0, 0.3)
    with pytest.raises(InvalidMaterial):
        lame_parameters(1.0, 0.5)
    with pytest.raises(InvalidMaterial):
        lame_parameters(1.0, -1.0)


def test_isotropic_eigenvalues():
    lam, mu = lame_parameters(3.0, 0.25)
    c = mandel_operator_2d(isotropic_index_form(lam, mu, 2))
    vals = np.sort(np.linalg.eigvalsh(c))
    expect = np.sort([2.0 * mu] * 2 + [2.0 * lam + 2.0 * mu])
    assert np.allclose(vals, expect, atol=1e-12)
    lo, hi = ellipticity_bounds(c)
    assert np.isclose(lo, min(expect)) and np.isclose(hi, max(expect))


def test_ellipticity_trivia():
    assert ellipticity_bounds(np.eye(3)) == (1.0, 1.0)
    assert ellipticity_bounds(np.zeros((3, 3))) == (0.0, 0.0)


def test_mandel_isometry_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = random_sym(rng, 2), random_sym(rng, 2)
        assert abs(np.sum(a * b) - np.vdot(to_mandel(a), to_mandel(b))) < 1e-14


def test_apply_matches_index_notation_oracle():
    rng = np.random.default_rng(1)
    lam, mu = lame_parameters(2.0, 0.2)
    c4 = isotropic_index_form(lam, mu, 2)
    cm = mandel_operator_2d(c4)
    assert np.allclose(cm, lame_stiffness(lam, mu), atol=1e-14)
    for _ in range(20):
        e = random_sym(rng, 2)
        sigma_index = np.einsum("ijkl,kl->ij", c4, e)
        sigma = from_mandel(apply(cm, to_mandel(e)))
        assert np.allclose(sigma, sigma_index, atol=1e-14)


def test_apply_is_self_adjoint_for_symmetric_c():
    rng = np.random.default_rng(2)
    c = isotropic_stiffness(5.0, 0.3)
    for _ in range(20):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert np.isclose(np.vdot(apply(c, a), b), np.vdot(a, apply(c, b)), atol=1e-12)


def test_roundtrips_and_identity():
    rng = np.random.default_rng(3)
    e = random_sym(rng, 2)
    assert np.allclose(from_mandel(to_mandel(e)), e)
    c4 = rng.standard_normal((2,) * 4)
    c4 = 0.25 * (c4 + c4.transpose(1, 0, 2, 3) + c4.transpose(0, 1, 3, 2) + c4.transpose(1, 0, 3, 2))
    assert np.allclose(from_mandel_operator(mandel_operator_2d(c4)), c4, atol=1e-14)
    assert np.allclose(from_mandel(IDENTITY_VECTOR), np.eye(2))
    assert np.allclose(apply(np.eye(3), to_mandel(e)), to_mandel(e))


def test_isotropic_parts_recovers_lame():
    lam, mu = lame_parameters(7.0, 0.3)
    got_lam, got_mu = isotropic_parts(lame_stiffness(lam, mu))
    assert np.isclose(got_lam, lam, atol=1e-12)
    assert np.isclose(got_mu, mu, atol=1e-12)


def test_dimension_mismatch_raised():
    with pytest.raises(ShapeMismatch):
        apply(np.eye(3), np.ones(6))
    # stiffnesses are 3 x 3 Mandel matrices: no 3-d or full index input
    for bad in (np.eye(6), np.ones((2, 2, 2, 2))):
        with pytest.raises(ShapeMismatch):
            as_mandel_stiffness(bad)
    with pytest.raises(ShapeMismatch):
        isotropic_parts(np.eye(6))


def test_pair_order_and_weights():
    # the layout is (a11, a22, sqrt(2) a12)
    assert np.array_equal(IDENTITY_VECTOR, [1.0, 1.0, 0.0])
    assert not IDENTITY_VECTOR.flags.writeable
    assert np.allclose(to_mandel([[1.0, 2.0], [2.0, 3.0]]), [1.0, 3.0, 2.0 * np.sqrt(2.0)])
    # sym(e1 (x) e2) has a12 = 1/2
    assert np.allclose(strain_basis([1, 0]) @ [0.0, 1.0], [0.0, 0.0, np.sqrt(0.5)])
    # orthonormal components: 2 mu Id is the shear response on every slot
    assert np.array_equal(lame_stiffness(0.0, 0.5), np.eye(3))


def test_six_entry_layout_round_trips():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 5, 3, 3))
    sym = a + np.swapaxes(a, -1, -2)
    entries = symmetric_entries(sym)
    assert entries.shape == (6, 4, 5)
    assert np.array_equal(entries[:, 1, 2], sym[1, 2][[0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]])
    back = symmetric_matrices(entries)
    assert back.shape == sym.shape and back.flags.c_contiguous
    assert np.array_equal(back, sym)
