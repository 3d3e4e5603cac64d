"""Symmetric tensor algebra of the plane in Mandel (orthonormal) notation.

The layout is fixed for the whole package: a symmetric 2 x 2 matrix a is
the vector (a11, a22, sqrt(2) a12), so the Frobenius inner product of
matrices is the plain dot product of component vectors.  A fourth-order
tensor with minor symmetries (a stiffness) is the 3 x 3 matrix acting on
those vectors.
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
    "apply",
]

IDENTITY_VECTOR = np.array([1.0, 1.0, 0.0])  # the 2 x 2 identity matrix
IDENTITY_VECTOR.setflags(write=False)


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


def ellipticity_bounds(cm):
    """(smallest, largest) eigenvalue of the Mandel matrix; elliptic iff l > 0.

    cm is (3, 3) or batched (..., 3, 3).  Raises NonElliptic for a
    non-finite entry, which has no eigenvalues, and for a matrix that is
    not symmetric, max |c_ij - c_ji| > 1e-12 max |eigenvalue| over the
    batch: eigvalsh reads one triangle only, and the solvers need
    symmetric stiffnesses.
    """
    cm = np.asarray(cm)
    if not np.all(np.isfinite(cm)):
        raise NonElliptic("stiffness has a non-finite entry")
    vals = np.linalg.eigvalsh(cm)
    lower, upper = float(vals[..., 0].min()), float(vals[..., -1].max())
    scale = max(abs(lower), abs(upper))
    asymmetry = max(
        float(np.max(np.abs(cm[..., i, j] - cm[..., j, i]))) for i, j in ((0, 1), (0, 2), (1, 2))
    )
    if asymmetry > 1e-12 * scale:
        raise NonElliptic(f"stiffness is not symmetric (|c - c^T| = {asymmetry:.3e})")
    return lower, upper


def apply(cm, e, out=None):
    """C : e in Mandel coordinates; cm (3, 3) or batched (..., 3, 3).

    out, if given, receives the result (einsum's out).
    """
    cm = np.asarray(cm)
    e = np.asarray(e)
    if cm.shape[-1] != e.shape[-1]:
        raise ShapeMismatch(f"operator {cm.shape} vs vector {e.shape}")
    return np.einsum("...ab,...b->...a", cm, e, out=out)
