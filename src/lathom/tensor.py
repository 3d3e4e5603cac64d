"""Symmetric tensor algebra in Mandel (orthonormal) vector notation.

Symmetric d x d matrices are stored as vectors of length n_s = d(d+1)/2
with sqrt(2) on the off-diagonal slots, so the Frobenius inner product of
matrices is the plain dot product of component vectors.  Fourth-order
tensors with minor symmetries become n_s x n_s matrices acting on those
vectors.  Pair ordering: diagonal entries first, then off-diagonals in the
usual reversed-cyclic order ((1,2),(0,2),(0,1) for d = 3).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InvalidMaterial, ShapeMismatch

__all__ = [
    "n_sym",
    "mandel_pairs",
    "mandel_weights",
    "to_mandel",
    "to_mandel_operator",
    "as_mandel_stiffness",
    "identity_vector",
    "lame_stiffness",
    "isotropic_stiffness",
    "isotropic_parts",
    "lame_parameters",
    "ellipticity_bounds",
    "apply",
]

_SQRT2 = math.sqrt(2.0)


def n_sym(d):
    """Dimension of the space of symmetric d x d matrices."""
    return d * (d + 1) // 2


def mandel_pairs(d):
    """Index pairs (i, j), i <= j, in the canonical component order."""
    diag = [(i, i) for i in range(d)]
    off = [(i, j) for i in range(d) for j in range(i + 1, d)]
    off.sort(key=lambda p: (-(p[0] + p[1]), p))  # (1,2),(0,2),(0,1) for d=3
    return diag + off


def mandel_weights(d):
    """Component weights: 1 on diagonal slots, sqrt(2) off-diagonal."""
    return np.array([1.0 if i == j else _SQRT2 for i, j in mandel_pairs(d)])


def _dim_from_ns(ns):
    d = int((math.isqrt(8 * ns + 1) - 1) // 2)
    if n_sym(d) != ns:
        raise DimensionMismatch(f"{ns} is not a symmetric-space dimension")
    return d


def to_mandel(sym):
    """Vectorise symmetric matrices (..., d, d) -> (..., n_s)."""
    sym = np.asarray(sym)
    d = sym.shape[-1]
    if sym.shape[-2] != d:
        raise DimensionMismatch("expected trailing (d, d) axes")
    pairs = mandel_pairs(d)
    w = mandel_weights(d)
    comps = [w[a] * sym[..., i, j] for a, (i, j) in enumerate(pairs)]
    return np.stack(comps, axis=-1)


def to_mandel_operator(c4):
    """Fourth-order tensor (..., d,d,d,d) with minor symmetries -> (..., n_s,n_s)."""
    c4 = np.asarray(c4)
    d = c4.shape[-1]
    pairs = mandel_pairs(d)
    w = mandel_weights(d)
    ns = len(pairs)
    out = np.empty(c4.shape[:-4] + (ns, ns), dtype=c4.dtype)
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            out[..., a, b] = w[a] * w[b] * c4[..., i, j, k, l]
    return out


def as_mandel_stiffness(c, n_s=None):
    """Stiffness as a float Mandel matrix; full rank-4 input is converted.

    Raises ShapeMismatch unless the result is square, and (n_s, n_s) when
    n_s is given.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim == 4:
        c = to_mandel_operator(c)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or n_s not in (None, c.shape[0]):
        expected = "(n_s, n_s)" if n_s is None else str((n_s, n_s))
        raise ShapeMismatch(f"stiffness must be {expected} or rank 4, got {c.shape}")
    return c


def identity_vector(d):
    """Mandel vector of the d x d identity matrix."""
    return to_mandel(np.eye(d))


def lame_parameters(young, poisson):
    """(lambda, mu) from engineering constants; validates the physical range."""
    if not (young > 0.0):
        raise InvalidMaterial(f"Young modulus must be positive, got {young}")
    if not (-1.0 < poisson < 0.5):
        raise InvalidMaterial(f"Poisson ratio must lie in (-1, 1/2), got {poisson}")
    lam = young * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
    mu = young / (2.0 * (1.0 + poisson))
    return lam, mu


def lame_stiffness(lam, mu, d=2):
    """Isotropic stiffness C_ijkl = lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk).

    Returned as the Mandel matrix lam * i (x) i + 2 mu * Id.
    """
    iv = identity_vector(d)
    return lam * np.outer(iv, iv) + 2.0 * mu * np.eye(n_sym(d))


def isotropic_stiffness(young, poisson):
    """Isotropic 2-d Mandel stiffness from engineering constants (see lame_stiffness)."""
    return lame_stiffness(*lame_parameters(young, poisson))


def isotropic_parts(cm):
    """Closest isotropic (lambda, mu) of a Mandel stiffness matrix.

    Orthogonal projection onto span{J, K}: the hydrostatic response
    d*lambda + 2*mu and the deviatoric response 2*mu are the J- and
    K-components; exact for isotropic inputs.
    """
    cm = np.asarray(cm)
    ns = cm.shape[-1]
    d = _dim_from_ns(ns)
    iv = identity_vector(d)
    hydro = np.einsum("a,...ab,b->...", iv, cm, iv) / d  # = d lam + 2 mu
    dev = (np.trace(cm, axis1=-2, axis2=-1) - hydro) / (ns - 1)  # = 2 mu
    mu = dev / 2.0
    lam = (hydro - dev) / d
    return lam, mu


def ellipticity_bounds(cm):
    """(smallest, largest) eigenvalue of the Mandel matrix; elliptic iff l > 0."""
    vals = np.linalg.eigvalsh(np.asarray(cm))
    return float(vals[..., 0].min()), float(vals[..., -1].max())


def apply(cm, e):
    """C : e in Mandel coordinates; cm (n_s, n_s) or batched (..., n_s, n_s)."""
    cm = np.asarray(cm)
    e = np.asarray(e)
    if cm.shape[-1] != e.shape[-1]:
        raise DimensionMismatch(f"operator {cm.shape} vs vector {e.shape}")
    return np.einsum("...ab,...b->...a", cm, e)
