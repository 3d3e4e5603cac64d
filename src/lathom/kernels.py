"""Kernel spaces: translate-generating functions and their Fourier tables.

Three families generate the ansatz spaces on a pattern P(M):

* Dirichlet: spectrum is the flat indicator of the generating set, taken
  on the half-open symmetric box (so the support is exactly G(M^T)).
  Reproduces trigonometric collocation.
* de la Vallee Poussin means: spectrum (1/sqrt(m)) g_alpha(M^{-T} k) for a
  tensor-product trapezoid window with per-axis slopes alpha_i in [0, 1/2].
  alpha_i = 0 degenerates to the modified Dirichlet kernel (boundary weight
  1/2 on both faces), alpha_i = 1/2 to a Fejer-type window.
* periodised Box splines: unnormalised coefficient prod_xi sinc(xi.t)
  (sinc(x) = sin(pi x) / (pi x)) with t = M^{-T} k, truncated to
  |t_i| <= r_i for a per-axis radius r (default 16); the absolute scale is
  irrelevant because the Green build weights each shifted frequency by
  its share |c|^2 / [|c|^2]_h of its class.  The directions xi are
  integer vectors, so with t = w / n exact, xi.t = num / n for an
  integer num, and the sinc is taken in closed form: num = q n + r with
  q the nearest integer gives sinc = (-1)^q sin(pi r / n) / (pi num / n),
  exactly 1 at num = 0 and exactly 0 at the other multiples of n.

A CoefficientTable stores, per frequency class h, the coefficients at the
retained lattice shifts h + M^T z.  For Dirichlet and dlVP windows the
shift sets are exact ({0} and {-1, 0, 1}^2).  For box splines the shifts
z_i in [-r_i, r_i] cover the truncated support, i.e. up to 33^2 terms at
the default radius.  Truncating in t rather than in z keeps the
retained frequencies of every class the negatives of those of its
partner -h, also on boundary classes where t_i = -1/2.  The table is
frozen, and its bracket [|c|^2]_h is derived from coeffs on access.

dlVP and box spectra are thus even, c_{-k} = c_k (the trapezoid factors
depend on |w_i|, sinc is even), so every per-class quantity of -h
(bracket, class sum, periodised Green matrix) equals that of h, and their
tables hold only the d1 x (d2 // 2 + 1) classes of the half grid: Smith
grid indices (i, j) with j <= d2 // 2 in C-order, the layout of an even
GreenTable.  Every class is one of these or the negative of one.  The
half-open Dirichlet box is not even on patterns with two-torsion, so a
Dirichlet table holds all m classes.

Every coefficient is scale x a product of factors, each a function of
one integer: the numerator w_i on axis i (Dirichlet box, dlVP ramp, box
truncation) or xi.w for a direction column (box sinc).  A shift moves the
numerators of its class by n z, so coefficient_table evaluates each factor
once per class on the few distinct offsets z_i or xi.z, in row blocks, and
multiplies the factor tables into the shift grid through broadcast and
strided views; coeff evaluates the same factors at single frequencies,
and the two agree bit for bit.

Boundary classifications (is M^{-T}k inside the box, on a face, outside)
are made in exact integer arithmetic, so no coefficient can be
misclassified by rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClass, InvalidSpec, LengthMismatch, NoInterpolant
from .lattice import as_pattern_matrix, frac_coordinates, generating_set
from .pattern_fft import half_grid

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
    if min(p, q, r) < 0:  # a negative list repetition is silently empty
        raise InvalidSpec(f"direction multiplicities must not be negative, got {(p, q, r)}")
    cols = [(1, 0)] * p + [(0, 1)] * q + [(1, 1)] * r
    if not cols:
        raise InvalidSpec("empty direction set")
    return np.array(cols, dtype=float).T


def _three_direction_counts(xi):
    """(p, q, r) if the direction matrix xi (2, s) is a three-direction set, else None."""
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
                alpha = alpha * 2
            if len(alpha) != 2:
                raise InvalidSpec(f"need 2 slopes, got {len(alpha)}")
            if any(not (0.0 <= a <= 0.5) for a in alpha):
                raise InvalidSpec(f"slopes must lie in [0, 1/2], got {alpha}")
            self.alpha = alpha
        elif kind == "box":
            if xi is None:
                raise InvalidSpec("box kernel needs a direction matrix xi")
            xi = np.atleast_2d(np.asarray(xi, dtype=float))
            if xi.shape[0] != 2:
                raise InvalidSpec(f"direction matrix must have 2 rows, got {xi.shape[0]}")
            if not np.all(np.isfinite(xi) & (xi == np.round(xi))):
                # xi . z must be an integer: the closed-form sinc and the
                # evenness of the truncated spectrum both rest on it
                raise InvalidSpec("box directions must be integer vectors")
            counts = _three_direction_counts(xi)
            if counts is not None and sum(1 for c in counts if c > 0) < 2:
                # single-direction families generate dependent translates
                raise InvalidSpec(f"three-direction set {counts} is degenerate")
            if xi.shape[1] < 2 or np.linalg.matrix_rank(xi) < 2:
                raise InvalidSpec("directions must span the space")
            xi = xi.copy()
            xi.setflags(write=False)
            self.xi = xi
            rad = np.atleast_1d(16 if radius is None else radius)
            if rad.shape == (1,):
                rad = np.repeat(rad, 2)
            whole = np.isfinite(rad) & (rad == np.round(rad))
            if rad.shape != (2,) or not np.all(whole & (rad >= 1)):
                # a fractional radius would be truncated to a smaller one
                raise InvalidSpec(f"bad truncation radius {radius}")
            self.radius = tuple(int(r) for r in rad)
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
    """One trapezoid factor at the exact rational coordinate w/n.

    A ramp no wider than 1/n holds no multiple of 1/n except the face
    |w/n| = 1/2, where every window is 1/2, so such a factor is the exact
    alpha = 0 one; the ramp formula would lose the face to rounding.
    """
    if alpha_i * n <= 1.0:
        aw = np.abs(w)
        return np.where(2 * aw < n, 1.0, np.where(2 * aw == n, 0.5, 0.0))
    # 0.5 + (n - 2|w|) / (2 n alpha) with n - 2|w| an exact integer: the
    # offset form (0.5(1 + alpha) - |w|/n) / alpha would lose eps / alpha.
    # In place, because each fresh (m,) temporary costs page faults at setup.
    ramp = np.abs(w)
    ramp *= -2
    ramp += n
    ramp = ramp / (2.0 * n * alpha_i)
    ramp += 0.5
    return np.clip(ramp, 0.0, 1.0)


def _sinc_factor(base, offsets, n):
    """sinc(num / n) at the integer numerators num = base + n * offsets, shape (b, u).

    With num = q n + r and q the nearest integer to num / n,
    sin(pi num / n) = (-1)^q sin(pi r / n), and r does not depend on the
    offset: one sine per class, exact zeros at nonzero multiples of n, and
    exactly 1 at num = 0.
    """
    q = (2 * base + n) // (2 * n)
    sine = np.sin(np.pi * (base - q * n) / n)[:, None]
    q = q[:, None] + offsets
    num = base[:, None] + n * offsets
    out = np.ones(num.shape)
    np.divide(np.where(q & 1, -sine, sine), num * (np.pi / n), out=out, where=num != 0)
    return out


def _coeff_block(spec, radii, w, n, out):
    """Coefficients at the numerators w + n z of classes w (b, 2) for the
    shifts z on the grid prod_i [-radii_i, radii_i], written to out of
    shape (b,) + grid.

    Each factor is evaluated per class on its distinct integer offsets,
    z_i for an axis factor and xi_c . z for a direction column, and read
    on the grid through a view: broadcast along the other axes, or strided
    by xi_c, because xi_c . z is affine in the grid index.  So the block
    allocates nothing of its own size.
    """
    out[...] = 1.0 if spec.kind == "box" else 1.0 / math.sqrt(spec.matrix.m)
    outside = []
    for i, radius in enumerate(radii):
        num = w[:, i, None] + n * np.arange(-radius, radius + 1)
        num = num[:, :, None] if i == 0 else num[:, None, :]
        if spec.kind == "dirichlet":
            out *= (2 * num >= -n) & (2 * num < n)
        elif spec.kind == "dlvp":
            out *= _dlvp_axis_exact(spec.alpha[i], num, n)
        else:
            outside.append(np.abs(num) > spec.radius[i] * n)
    if spec.kind == "box":
        cols, powers = np.unique(spec.xi.T.astype(np.int64), axis=0, return_counts=True)
        for col, power in zip(cols, powers):
            reach = int(np.abs(col) @ radii)
            table = _sinc_factor(w @ col, np.arange(-reach, reach + 1), n) ** power
            # grid index g holds the offset xi_c . (g - radii), which sits
            # at column start + xi_c . g of the table
            start = reach - int(col @ radii)
            out *= np.lib.stride_tricks.as_strided(
                table[:, start:],
                shape=out.shape,
                strides=(table.strides[0],) + tuple(int(c) * table.itemsize for c in col),
                writeable=False,
            )
        for mask in outside:
            np.copyto(out, 0.0, where=mask)
    return out


def coeff(spec, k):
    """Fourier coefficient c_k(f) of the generator, vectorised over k (..., 2).

    A product of factors of the exact fractional coordinates w / n of k:
    the Dirichlet box indicator or the dlVP ramps per axis, or for box
    splines one closed-form sinc per direction column, kept where
    |w_i| <= r_i n.  coefficient_table evaluates the same factors, so its
    entries equal coeff at the shifted frequencies bit for bit.
    """
    pm = spec.matrix
    w, n = frac_coordinates(pm.mt, k)
    flat = w.reshape(-1, 2)
    out = _coeff_block(spec, (0, 0), flat, n, np.empty((len(flat), 1, 1)))
    return out.reshape(w.shape[:-1])[()]


def _shift_radii(spec):
    """Per-axis reach of the retained shifts: z_i in [-radii_i, radii_i]."""
    if spec.kind == "dirichlet":
        return (0, 0)
    if spec.kind == "dlvp":
        return (1, 1)
    return spec.radius


def shift_set(spec):
    """Retained lattice shifts z for bracket sums, shape (t, 2).

    Exact for dirichlet ({0}) and dlvp ({-1, 0, 1}^2 covers the window
    support); for box splines [-r1, r1] x [-r2, r2] covers |t_i| <= r_i
    with t = M^{-T} k.  The shifts run over that grid in C order.
    """
    ranges = [range(-r, r + 1) for r in _shift_radii(spec)]
    return np.array(list(itertools.product(*ranges)), dtype=np.int64)


@dataclass(frozen=True)
class CoefficientTable:
    """Per-class kernel coefficients c_{h + M^T z} over the retained shifts.

    The table holds n classes in Smith-grid C-order: the half grid's
    d1 x (d2 // 2 + 1) when half is set (dlVP and box splines, see the
    module docstring), all m otherwise (Dirichlet).  coeffs[i, j] belongs
    to frequency freqs[i] + M^T shifts[j].  The table is frozen, and what
    follows from coeffs is derived on access, never stored: bracket and
    class_sums.  orthonormalize scales coeffs in place rather than copying
    them.
    """

    spec: KernelSpec
    freqs: np.ndarray  # (n, 2) canonical representatives
    shifts: np.ndarray  # (t, 2)
    coeffs: np.ndarray  # (n, t) real
    half: bool  # only the half-grid classes are stored

    @property
    def matrix(self):
        return self.spec.matrix

    @property
    def bracket(self):
        """Per-class sums of squares [|c|^2]_h over the retained shifts, (n,)."""
        return np.einsum("mt,mt->m", self.coeffs, self.coeffs)

    def checked_bracket(self):
        """bracket; DegenerateClass if a class's is at or below the floor."""
        bracket = self.bracket
        bad = np.nonzero(bracket <= _DEGENERACY_FLOOR)[0]
        if bad.size:
            raise DegenerateClass(self.freqs[bad[0]])
        return bracket

    def class_sums(self):
        """Signed bracket sums [c(f)]_h (plain sums, not squared), one per
        stored class."""
        return self.coeffs.sum(axis=1)


# coefficients per row block of coefficient_table: the block's passes run in
# cache, and its factor tables stay small
_BLOCK_ELEMENTS = 1 << 16


def coefficient_table(spec):
    """Evaluate the kernel coefficients on the stored classes and every
    retained shift: the half-grid classes for dlVP and box splines, all m
    for Dirichlet (see CoefficientTable)."""
    pm = spec.matrix
    half = spec.kind != "dirichlet"
    freqs = generating_set(pm).freqs
    if half:
        d1, last = half_grid(pm)
        freqs = freqs.reshape(d1, -1, 2)[:, :last].reshape(-1, 2)
    radii = _shift_radii(spec)
    shifts = shift_set(spec)
    w, n = frac_coordinates(pm.mt, freqs)
    coeffs = np.empty((len(freqs), len(shifts)))
    grid = coeffs.reshape((len(freqs),) + tuple(2 * r + 1 for r in radii))
    step = max(1, _BLOCK_ELEMENTS // len(shifts))
    for start in range(0, len(freqs), step):
        rows = slice(start, start + step)
        _coeff_block(spec, radii, w[rows], n, grid[rows])
    return CoefficientTable(spec=spec, freqs=freqs, shifts=shifts, coeffs=coeffs, half=half)


def orthonormalize(table):
    """Rescale each class in place so that m [|c|^2]_h = 1 and return the table.

    The coefficients are scaled where they are, not copied: a box table is
    the largest array of setup.  A degenerate class raises DegenerateClass
    before anything is written.  periodised_green_table normalises the
    class weights itself, so setup does not need this step.
    """
    bracket = table.checked_bracket()
    coeffs = table.coeffs  # the table is frozen; its array is not
    coeffs *= (1.0 / np.sqrt(table.matrix.m * bracket))[:, None]
    return table


def interpolant_coeffs(target_class_sums, table):
    """Expansion coefficients a_hat with [c(g)]_h = a_hat_h [c(f)]_h, one
    per stored class of the table, as are the targets.

    Passing target_class_sums = 1/m for every stored class yields the
    fundamental interpolant of the space; on a half table the classes not
    stored take the value of their negatives.
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
    """Evaluate sum_k c_k e^{i k.x} at points x (..., 2).

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
