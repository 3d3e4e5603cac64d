"""Kernel spaces: translate-generating functions and their Fourier tables.

Three families generate the ansatz spaces on a pattern P(M):

* Dirichlet: spectrum is the flat indicator of the generating set, taken
  on the half-open symmetric box (so the support is exactly G(M^T)).
  Reproduces trigonometric collocation.
* de la Vallee Poussin means: spectrum (1/sqrt(m)) g_alpha(M^{-T} k) for a
  tensor-product trapezoid window with per-axis slopes alpha_i in [0, 1/2].
  alpha_i = 0 degenerates to the modified Dirichlet kernel (boundary weight
  1/2 on both faces), alpha_i = 1/2 to a Fejer-type window.
* periodised Box splines: unnormalised coefficient prod_xi sinc(pi xi.t)
  with t = M^{-T} k; the absolute scale is irrelevant because every
  downstream use passes through orthonormalisation.

A CoefficientTable stores, per frequency class h, the coefficients at the
retained lattice shifts h + M^T z.  For Dirichlet and dlVP windows the
shift sets are exact ({0} and {-1,0,1}^d); Box-spline tables truncate at a
per-axis radius (default 16, i.e. 33^2 retained terms in d = 2).

Boundary classifications (is M^{-T}k inside the box, on a face, outside)
are made in exact integer arithmetic, so no coefficient can be
misclassified by rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateClass, InvalidSpec, LengthMismatch, NoInterpolant
from .lattice import as_pattern_matrix, frac_coordinates, generating_set, in_symmetric_box

__all__ = [
    "KernelSpec",
    "CoefficientTable",
    "three_direction_set",
    "coeff",
    "shift_set",
    "coefficient_table",
    "orthonormalize",
    "interpolant_coeffs",
    "synthesize",
]

_DEGENERACY_FLOOR = 1e-14


def three_direction_set(p, q, r):
    """Direction matrix with e1 repeated p times, e2 q times, e1+e2 r times."""
    cols = [(1, 0)] * p + [(0, 1)] * q + [(1, 1)] * r
    if not cols:
        raise InvalidSpec("empty direction set")
    return np.array(cols, dtype=float).T


def _three_direction_counts(xi):
    """(p, q, r) if xi is a two-dimensional three-direction set, else None."""
    if xi.shape[0] != 2:
        return None
    counts = {(1, 0): 0, (0, 1): 0, (1, 1): 0}
    for col in xi.T:
        key = tuple(int(round(x)) for x in col)
        if key not in counts or not np.allclose(col, key):
            return None
        counts[key] += 1
    return counts[(1, 0)], counts[(0, 1)], counts[(1, 1)]


class KernelSpec:
    """Which generator f is used on which pattern, plus truncation data."""

    __slots__ = ("matrix", "kind", "alpha", "xi", "radius")

    def __init__(self, m_mat, kind, alpha=None, xi=None, radius=None):
        self.matrix = as_pattern_matrix(m_mat)
        d = self.matrix.dim
        if kind not in ("dirichlet", "dlvp", "box"):
            raise InvalidSpec(f"unknown kernel kind {kind!r}")
        self.kind = kind
        self.alpha = None
        self.xi = None
        self.radius = None
        if kind == "dlvp":
            if alpha is None:
                raise InvalidSpec("dlvp kernel needs slopes alpha")
            alpha = tuple(float(a) for a in np.atleast_1d(alpha))
            if len(alpha) == 1:
                alpha = alpha * d
            if len(alpha) != d:
                raise InvalidSpec(f"need {d} slopes, got {len(alpha)}")
            if any(not (0.0 <= a <= 0.5) for a in alpha):
                raise InvalidSpec(f"slopes must lie in [0, 1/2], got {alpha}")
            self.alpha = alpha
        elif kind == "box":
            if xi is None:
                raise InvalidSpec("box kernel needs a direction matrix xi")
            xi = np.atleast_2d(np.asarray(xi, dtype=float))
            if xi.shape[0] != d:
                raise InvalidSpec(f"direction matrix must have {d} rows, got {xi.shape[0]}")
            counts = _three_direction_counts(xi)
            if counts is not None and sum(1 for c in counts if c > 0) < 2:
                # single-direction families generate dependent translates
                raise InvalidSpec(f"three-direction set {counts} is degenerate")
            if xi.shape[1] < d or np.linalg.matrix_rank(xi) < d:
                raise InvalidSpec("directions must span the space")
            xi = xi.copy()
            xi.setflags(write=False)
            self.xi = xi
            radius = 16 if radius is None else radius
            rad = tuple(int(r) for r in np.atleast_1d(radius))
            if len(rad) == 1:
                rad = rad * d
            if len(rad) != d or any(r < 1 for r in rad):
                raise InvalidSpec(f"bad truncation radius {radius}")
            self.radius = rad
        elif alpha is not None or xi is not None or radius is not None:
            raise InvalidSpec("dirichlet kernel takes no parameters")

    @classmethod
    def dirichlet(cls, m_mat):
        return cls(m_mat, "dirichlet")

    @classmethod
    def dlvp(cls, m_mat, alpha):
        return cls(m_mat, "dlvp", alpha=alpha)

    @classmethod
    def box_spline(cls, m_mat, xi, radius=None):
        return cls(m_mat, "box", xi=xi, radius=radius)

    def __repr__(self):
        if self.kind == "dlvp":
            return f"KernelSpec(dlvp, alpha={self.alpha})"
        if self.kind == "box":
            return f"KernelSpec(box, s={self.xi.shape[1]}, radius={self.radius})"
        return "KernelSpec(dirichlet)"


def _dlvp_axis_exact(alpha_i, w, n):
    """One trapezoid factor at the exact rational coordinate w/n."""
    if alpha_i == 0.0:
        aw = np.abs(w)
        return np.where(2 * aw < n, 1.0, np.where(2 * aw == n, 0.5, 0.0))
    t = np.abs(w) / n
    return np.clip((0.5 * (1.0 + alpha_i) - t) / alpha_i, 0.0, 1.0)


def coeff(spec, k):
    """Fourier coefficient c_k(f) of the generator, vectorised over k (..., d)."""
    pm = spec.matrix
    k = np.asarray(k, dtype=np.int64)
    scale = 1.0 / math.sqrt(pm.m)
    if spec.kind == "dirichlet":
        return scale * in_symmetric_box(pm.mt, k).astype(float)
    if spec.kind == "dlvp":
        w, n = frac_coordinates(pm.mt, k)
        out = np.full(k.shape[:-1], scale)
        for i, a in enumerate(spec.alpha):
            out = out * _dlvp_axis_exact(a, w[..., i], n)
        return out
    w, n = frac_coordinates(pm.mt, k)
    t = w / float(n)
    dots = t @ spec.xi
    return np.prod(np.sinc(dots), axis=-1)


def shift_set(spec):
    """Retained lattice shifts z for bracket sums, shape (t, d).

    Exact for dirichlet ({0}) and dlvp ({-1,0,1}^d covers the window
    support); truncated at the spec radius for box splines.
    """
    d = spec.matrix.dim
    if spec.kind == "dirichlet":
        ranges = [(0,)] * d
    elif spec.kind == "dlvp":
        ranges = [(-1, 0, 1)] * d
    else:
        ranges = [tuple(range(-r, r + 1)) for r in spec.radius]
    return np.array(list(itertools.product(*ranges)), dtype=np.int64)


@dataclass(frozen=True)
class CoefficientTable:
    """Per-class kernel coefficients c_{h + M^T z} over the retained shifts.

    coeffs[i, j] belongs to frequency freqs[i] + M^T shifts[j]; bracket is
    the per-class sum of squares [|c|^2]_h over the retained shifts.
    """

    spec: KernelSpec
    freqs: np.ndarray  # (m, d) canonical representatives
    shifts: np.ndarray  # (t, d)
    coeffs: np.ndarray  # (m, t) real
    bracket: np.ndarray  # (m,)
    orthonormal: bool = False

    @property
    def matrix(self):
        return self.spec.matrix

    def class_sums(self):
        """Signed bracket sums [c(f)]_h (plain sums, not squared)."""
        return self.coeffs.sum(axis=1)


def coefficient_table(spec):
    """Evaluate the kernel coefficients on every class and retained shift."""
    pm = spec.matrix
    freqs = generating_set(pm).freqs
    shifts = shift_set(spec)
    coeffs = np.empty((pm.m, len(shifts)))
    for j, z in enumerate(shifts):
        coeffs[:, j] = coeff(spec, freqs + z @ pm.entries)
    bracket = np.einsum("mt,mt->m", coeffs, coeffs)
    return CoefficientTable(spec=spec, freqs=freqs, shifts=shifts, coeffs=coeffs, bracket=bracket)


def orthonormalize(table):
    """Rescale per class so that m [|c|^2]_h = 1; raises on degenerate classes."""
    bad = np.nonzero(table.bracket <= _DEGENERACY_FLOOR)[0]
    if bad.size:
        raise DegenerateClass(table.freqs[bad[0]])
    scale = 1.0 / np.sqrt(table.matrix.m * table.bracket)
    coeffs = table.coeffs * scale[:, None]
    bracket = np.einsum("mt,mt->m", coeffs, coeffs)
    return replace(table, coeffs=coeffs, bracket=bracket, orthonormal=True)


def interpolant_coeffs(target_class_sums, table):
    """Expansion coefficients a_hat with [c(g)]_h = a_hat_h [c(f)]_h.

    Passing target_class_sums = 1/m for every class yields the fundamental
    interpolant of the space.
    """
    sums = table.class_sums()
    target = np.asarray(target_class_sums)
    if target.shape != sums.shape:
        raise LengthMismatch(f"expected {sums.shape}, got {target.shape}")
    bad = np.nonzero(np.abs(sums) <= _DEGENERACY_FLOOR)[0]
    if bad.size:
        raise NoInterpolant(table.freqs[bad[0]])
    return target / sums


def synthesize(freqs, coeffs, x):
    """Evaluate sum_k c_k e^{i k.x} at points x (..., d).

    Periodic in 2 pi; pattern points correspond to x = 2 pi y.  The result
    is returned real exactly when the coefficient set is conjugate-symmetric
    (real-valued kernels), complex otherwise.
    """
    freqs = np.asarray(freqs)
    coeffs = np.asarray(coeffs)
    x = np.asarray(x, dtype=float)
    phases = np.tensordot(x, freqs, axes=([-1], [-1]))  # (..., n)
    values = np.exp(1j * phases) @ coeffs.astype(complex)
    return values.real if _conj_symmetric(freqs, coeffs) else values


def _conj_symmetric(freqs, coeffs):
    lookup = {
        tuple(map(int, k)): c for k, c in zip(freqs, coeffs) if abs(c) > 1e-15
    }
    for k, c in lookup.items():
        partner = lookup.get(tuple(-x for x in k))
        if partner is None or not np.isclose(np.conj(c), partner, atol=1e-13):
            return False
    return True
