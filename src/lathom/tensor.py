"""Symmetric tensor algebra of the plane in Mandel (orthonormal) notation.

The layout is fixed for the whole package: a symmetric 2 x 2 matrix a is
the vector (a11, a22, sqrt(2) a12), so the Frobenius inner product of
matrices is the plain dot product of component vectors.  A fourth-order
tensor with minor symmetries (a stiffness) is the 3 x 3 matrix acting on
those vectors.

A symmetric 3 x 3 field is also stored by its six unique entries,
component-major: symmetric_entries gives shape (6,) + batch in the order
SYMMETRIC_PAIRS = (00, 11, 22, 01, 02, 12), symmetric_matrices unpacks it,
and apply_symmetric multiplies such a field by a component-major vector
field (3,) + batch in three fused rows.  The Green operator's table and
the solver's stiffness rows, of C and of C - C0, both use it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidMaterial, NonElliptic, ShapeMismatch

__all__ = [
    "IDENTITY_VECTOR",
    "as_mandel_stiffness",
    "lame_stiffness",
    "isotropic_stiffness",
    "isotropic_parts",
    "lame_parameters",
    "ellipticity_bounds",
    "require_elliptic",
    "SYMMETRIC_PAIRS",
    "symmetric_entries",
    "symmetric_matrices",
    "apply_symmetric",
]

IDENTITY_VECTOR = np.array([1.0, 1.0, 0.0])  # the 2 x 2 identity matrix
IDENTITY_VECTOR.setflags(write=False)

# the unique entries of a symmetric 3 x 3 matrix, in the order of symmetric_entries
SYMMETRIC_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# row a of the matrix as positions in SYMMETRIC_PAIRS
_ROWS = ((0, 3, 4), (3, 1, 5), (4, 5, 2))
# relative asymmetry a stiffness may carry, against its largest |eigenvalue|
_SYMMETRY_RTOL = 1e-12


def as_mandel_stiffness(c):
    """Stiffness as a float (3, 3) Mandel matrix; ShapeMismatch otherwise."""
    c = np.asarray(c, dtype=float)
    if c.shape != (3, 3):
        raise ShapeMismatch(f"stiffness must be a (3, 3) Mandel matrix, got {c.shape}")
    return c


def lame_parameters(young, poisson):
    """(lambda, mu) from engineering constants; validates the physical range."""
    if not (young > 0.0):
        raise InvalidMaterial(f"Young modulus must be positive, got {young}")
    if not (-1.0 < poisson < 0.5):
        raise InvalidMaterial(f"Poisson ratio must lie in (-1, 1/2), got {poisson}")
    lam = young * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
    mu = young / (2.0 * (1.0 + poisson))
    return lam, mu


def lame_stiffness(lam, mu):
    """Isotropic stiffness C_ijkl = lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk).

    Returned as the Mandel matrix lam * i (x) i + 2 mu * Id.
    """
    return lam * np.outer(IDENTITY_VECTOR, IDENTITY_VECTOR) + 2.0 * mu * np.eye(3)


def isotropic_stiffness(young, poisson):
    """Isotropic Mandel stiffness from engineering constants (see lame_stiffness)."""
    return lame_stiffness(*lame_parameters(young, poisson))


def isotropic_parts(cm):
    """Closest isotropic (lambda, mu) of Mandel stiffness matrices (..., 3, 3).

    Orthogonal projection onto span{J, K}: the hydrostatic response
    2 lambda + 2 mu and the deviatoric response 2 mu are the J- and
    K-components; exact for isotropic inputs.
    """
    cm = np.asarray(cm)
    if cm.shape[-2:] != (3, 3):
        raise ShapeMismatch(f"stiffness must be (..., 3, 3) Mandel, got {cm.shape}")
    iv = IDENTITY_VECTOR
    hydro = np.einsum("a,...ab,b->...", iv, cm, iv) / 2  # = 2 lam + 2 mu
    dev = (np.trace(cm, axis1=-2, axis2=-1) - hydro) / 2  # = 2 mu
    mu = dev / 2.0
    lam = (hydro - dev) / 2
    return lam, mu


def _asymmetry(cm):
    """max |c_ij - c_ji| over the batch (..., 3, 3); NaN for a non-finite entry."""
    pairs = ((0, 1), (0, 2), (1, 2))
    return float(np.max([np.max(np.abs(cm[..., i, j] - cm[..., j, i])) for i, j in pairs]))


def ellipticity_bounds(cm, name="stiffness"):
    """(smallest, largest) eigenvalue of the Mandel matrix; elliptic iff l > 0.

    cm is (3, 3) or batched (..., 3, 3).  Raises NonElliptic, naming
    `name`, for a non-finite entry, which has no eigenvalues, and for a
    matrix that is not symmetric, max |c_ij - c_ji| > 1e-12 max
    |eigenvalue| over the batch: eigvalsh reads one triangle only, and the
    solvers need symmetric stiffnesses.
    """
    cm = np.asarray(cm)
    if not np.all(np.isfinite(cm)):
        raise NonElliptic(f"{name} has a non-finite entry")
    vals = np.linalg.eigvalsh(cm)
    lower, upper = float(vals[..., 0].min()), float(vals[..., -1].max())
    scale = max(abs(lower), abs(upper))
    asymmetry = _asymmetry(cm)
    if asymmetry > _SYMMETRY_RTOL * scale:
        raise NonElliptic(f"{name} is not symmetric (|c - c^T| = {asymmetry:.3e})")
    return lower, upper


def require_elliptic(cm, name):
    """NonElliptic unless the Mandel matrices cm (..., 3, 3) are symmetric positive definite.

    The package's one positivity check: ellipticity_bounds decides, and
    every error names `name`, a positivity error the smallest eigenvalue
    too.
    """
    bound, _ = ellipticity_bounds(cm, name)
    if not bound > 0.0:
        raise NonElliptic(f"{name} is not positive definite (lower bound {bound:.3e})")


def symmetric_entries(cm):
    """The six unique entries of symmetric matrices cm (..., 3, 3), shape (6, ...).

    Ordered (00, 11, 22, 01, 02, 12), read from the upper triangle.
    """
    cm = np.asarray(cm)
    return np.stack([cm[..., a, b] for a, b in SYMMETRIC_PAIRS])


def symmetric_matrices(entries):
    """The symmetric matrices (..., 3, 3) whose six entries (6, ...) are given."""
    entries = np.asarray(entries)
    full = entries[np.ravel(_ROWS)]
    return np.ascontiguousarray(np.moveaxis(full, 0, -1)).reshape(entries.shape[1:] + (3, 3))


def apply_symmetric(entries, e, out, scratch):
    """out[a] = sum_b C_ab e[b] for C stored as symmetric_entries, component-major.

    entries is (6, ...), e and out are (3, n, ...) (a row of out must be an
    array, so one vector is (3, 1)) and scratch is one plane of out's dtype,
    all broadcasting against each other.  Each row is one product and two
    multiply-adds through scratch, so nothing is allocated.  Returns out.
    """
    for a, row in enumerate(_ROWS):
        np.multiply(entries[row[0]], e[0], out=out[a])
        for b in (1, 2):
            np.multiply(entries[row[b]], e[b], out=scratch)
            out[a] += scratch
    return out
