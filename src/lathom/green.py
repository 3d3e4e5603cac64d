"""Green operator of linear elasticity as a Fourier multiplier.

For a homogeneous reference stiffness C0 the operator maps a polarisation
stress to a compatible zero-mean strain, frequency by frequency.  The
operator is two-dimensional: strains are Mandel vectors (e11, e22,
sqrt(2) e12) and C0 is a positive definite 3 x 3 Mandel matrix (NonElliptic
otherwise).  At an integer frequency k != 0 the compatible strains
sym(k (x) u) are exactly the Mandel vectors orthogonal to

    v(k) = (k2^2, k1^2, -sqrt(2) k1 k2),

so with the compliance S = C0^{-1} the multiplier is the rank-one update

    G(k) = S - (S v)(S v)^T / (v^T S v),

and G(k) C0 is the C0-orthogonal projection onto the compatible strains.
v^T S v > 0 for every k != 0, so no acoustic tensor is inverted.  The zero
frequency is mapped to zero, which pins the mean of the output.

On a kernel space the operator is periodised: each frequency class h of
the generating set receives the convex combination

    Gp_h = sum_z |c_{h + M^T z}|^2 G(h + M^T z) / [|c|^2]_h

over the retained lattice shifts of the kernel's coefficient table, each
shift weighted by its share of the bracket [|c|^2]_h = sum_z |c|^2, so
scaling a class (orthonormalising it, say) leaves Gp_h as it is.  For the
Dirichlet kernel only the canonical representative survives, so
Gp_h = G(h).  With c = |c_k|^2 / [|c|^2]_h the sum is

    Gp_h = (sum c) S - sum (c / q) u u^T,   u = S v(k), q = v^T S v,

accumulated for blocks of classes over all their shifts at once, as
planes, for the six unique entries only; green_multiplier is the same sum
with one term of weight one.  Each block takes its coefficients from the
kernel table into one of those planes (kernels.CoefficientTable.block),
evaluated there from the closed forms unless the table already holds
them, so setup holds no (classes, shifts) array of its own.

The per-class matrices are real and symmetric, and G(k) depends on the
line through k only.  The whole table is even under h -> -h when the
retained frequencies of each class are the negatives of those of its
partner or parallel to them: always for dlVP windows and box splines,
and for the Dirichlet box by an exact integer rule (see kernels).  Such a
coefficient table holds the half-grid classes only
(kernels.CoefficientTable.half), and the Green table is built on exactly
the classes the coefficient table holds, so it is even exactly when that
is half.  Application to a real field returns a real field exactly when
the table is even and an honestly complex one otherwise.

The table has one layout: the six unique entries of each class matrix,
component-major in the order of tensor.symmetric_entries (the layout of
the solver's stiffness contrast too), on the Smith grid.  An even table
keeps only the half spectrum, shape (6, d1, d2 // 2 + 1): the other
classes are the negatives of these and carry the same matrices.  A table
that is not even keeps every class, shape (6, d1, d2).  apply_green
multiplies by the three fused rows of tensor.apply_symmetric either way,
and the table decides the transforms:

- Even table, real field: pattern_rfft, the rows on the half spectrum,
  pattern_irfft.  The spectrum of a real field is conjugate symmetric and
  an even table keeps it so, so half of it determines the result.  A
  complex field runs as G(a + ib) = Ga + iGb, twice through the same path.
- Table that is not even: pattern_fft, the rows on the full spectrum,
  pattern_ifft, with a complex result.

Fields are (m, 3) at this interface.  The solver keeps its fields
component-major, (3, m), and passes their transposes: such an (m, 3) view
is a contiguous (3, d1, d2) array on the Smith grid, so the transforms
read and write it without strides.  Both paths write through `out`.  The
field's spectrum, (3,) + the table's grid, goes into `spectrum`, which the
caller may lend from a buffer whose contents are dead during the
application (the solver lends its next iterate's), and the product and
one plane of products into GreenTable.workspace(), (4,) + that grid: the
inverse transform consumes the product in place.  So a solver that
allocates its buffers once allocates nothing per application.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeMismatch
from .lattice import PatternMatrix
from .pattern_fft import half_grid, pattern_fft, pattern_ifft, pattern_irfft, pattern_rfft
from .tensor import (
    SYMMETRIC_PAIRS,
    apply_symmetric,
    as_mandel_stiffness,
    require_elliptic,
    symmetric_matrices,
)

__all__ = [
    "GreenTable",
    "strain_basis",
    "green_multiplier",
    "periodised_green_table",
    "apply_green",
]


def strain_basis(k):
    """Mandel matrix W with W @ u = mandel(sym(k (x) u)), batched over k.

    k has shape (..., 2); the result has shape (..., 3, 2):

        W(k) = [[k1, 0], [0, k2], [k2 / sqrt(2), k1 / sqrt(2)]].
    """
    k = np.asarray(k, dtype=float)
    if k.shape[-1:] != (2,):
        raise ShapeMismatch(f"frequencies must have shape (..., 2), got {k.shape}")
    w = np.zeros(k.shape[:-1] + (3, 2))
    w[..., 0, 0] = k[..., 0]
    w[..., 1, 1] = k[..., 1]
    w[..., 2, :] = 0.5 * np.sqrt(2.0) * k[..., ::-1]
    return w


def _green_sums(s, k1, k2, c, out, work):
    """Six entries of sum_t c G(k) per row: (sum c) S - sum (c / q) u u^T,
    with u = S v(k) and q = v^T S v.

    k1, k2 and the weights c are (b, t) planes, out receives the (6, b)
    result in the order of tensor.SYMMETRIC_PAIRS, and work is
    (_SUM_PLANES, b, t) scratch, so a caller that keeps its planes
    allocates nothing of their size.  A row that holds k = 0 divides by
    q = 0 and comes back non-finite, so its caller overwrites it.
    """
    v, u, ratio = work[:3], work[3:6], work[6]
    np.multiply(k2, k2, out=v[0])
    np.multiply(k1, k1, out=v[1])
    np.multiply(k1, -np.sqrt(2.0), out=v[2])
    v[2] *= k2
    np.matmul(s, v.reshape(3, -1), out=u.reshape(3, -1))
    with np.errstate(invalid="ignore", divide="ignore"):  # q = 0 at k = 0
        np.einsum("a...,a...->...", v, u, out=ratio)
        np.divide(c, ratio, out=ratio)
        scaled = np.multiply(ratio, u, out=v)  # v is spent
        total = c.sum(axis=1)
        for row, (a, b) in zip(out, SYMMETRIC_PAIRS):
            np.einsum("bt,bt->b", scaled[a], u[b], out=row)
            np.subtract(total * s[a, b], row, out=row)
    return out


def green_multiplier(c0, k):
    """Mandel multiplier G(k) of the Green operator for reference stiffness c0.

    c0 is a (3, 3) Mandel matrix (ShapeMismatch otherwise) and k a single
    integer vector of length 2.  k = 0 returns the zero matrix.  Raises
    NonElliptic unless c0 is positive definite.
    """
    k = np.asarray(k, dtype=np.int64)
    if k.shape != (2,):
        raise ShapeMismatch(f"frequency must have shape (2,), got {k.shape}")
    c0 = as_mandel_stiffness(c0)
    require_elliptic(c0, "reference stiffness")
    s = np.linalg.inv(c0)
    if not k.any():
        return np.zeros((3, 3))
    k1, k2 = k.astype(float).reshape(2, 1, 1)
    sums = _green_sums(s, k1, k2, np.ones((1, 1)), np.empty((6, 1)), np.empty((_SUM_PLANES, 1, 1)))
    return symmetric_matrices(sums[:, 0])


@dataclass(frozen=True)
class GreenTable:
    """Per-class multipliers of the periodised Green operator.

    c0 and the kernel fix the operator, so the solver takes its reference
    from here.  entries holds the six unique entries
    (tensor.symmetric_entries) of the class matrix of each frequency class
    on the Smith grid: (6,) + half_grid(matrix) when even_table,
    (6, d1, d2) otherwise (see the module docstring).  The zero class is
    the zero matrix.
    """

    matrix: PatternMatrix
    c0: np.ndarray  # (3, 3) Mandel reference stiffness
    entries: np.ndarray  # (6,) + half or full Smith grid, real

    @cached_property  # apply_green reads it on every call
    def even_table(self):
        """Whether the classes are even under h -> -h: the entries hold the half grid."""
        return self.entries.shape[1:] == half_grid(self.matrix)

    def workspace(self):
        """Complex scratch for apply_green, reused across applications: the
        product (3 planes) and one plane of products."""
        return np.empty((_WORK_PLANES,) + self.entries.shape[1:], dtype=np.complex128)


# product (3) and one plane of products; the spectrum is the caller's
_WORK_PLANES = 4
# v(k) and then the scaled u (3), u (3) and q, then c / q
_SUM_PLANES = 7
# classes x shifts per block of periodised_green_table: its ten planes
# (2.5 MB together) run in cache and keep the build's transient memory small
_BLOCK_ELEMENTS = 1 << 15


def periodised_green_table(c0, kernel):
    """Assemble Gp_h = sum_z |c_{h+M^T z}|^2 G(h+M^T z) / [|c|^2]_h per class.

    kernel is any CoefficientTable.  Row blocks of the classes it holds
    take all their shifts as (classes, shifts) planes: the table writes the
    block's coefficients into the weights plane (kernels.CoefficientTable
    .block), so no (classes, shifts) table is built unless the kernel
    already holds one, and each class becomes (sum c) S - sum (c / q)
    u u^T for its six unique entries (see the module docstring), so a
    half kernel table gives the half spectrum of an even table.  The zero
    class, whose k = 0 term is 0/0, is forced to the zero matrix.  Raises
    ShapeMismatch unless c0 is a (3, 3) Mandel matrix, NonElliptic unless
    it is positive definite and DegenerateClass for the first class with a
    vanishing bracket.
    """
    pm = kernel.matrix
    c0m = as_mandel_stiffness(c0)
    require_elliptic(c0m, "reference stiffness")
    s = np.linalg.inv(c0m)
    offsets = kernel.shifts @ pm.entries
    classes = len(kernel.freqs)
    entries = np.empty((6, classes))
    step = max(1, _BLOCK_ELEMENTS // len(offsets))
    # allocated once: fresh block-sized temporaries would fault their pages
    # in again on every block whenever the allocator hands them back
    planes = np.empty((3 + _SUM_PLANES, min(step, classes), len(offsets)))
    for start in range(0, classes, step):
        rows = slice(start, start + step)
        freqs = kernel.freqs[rows]
        block = planes[:, : len(freqs)]
        k1, k2, weights = block[:3]
        np.add(freqs[:, 0, None], offsets[:, 0], out=k1)
        np.add(freqs[:, 1, None], offsets[:, 1], out=k2)
        bracket = kernel.block(rows, weights)
        np.square(weights, out=weights)
        weights *= (1.0 / bracket)[:, None]  # c^2 times this is the share of its class
        _green_sums(s, k1, k2, weights, entries[:, rows], block[3:])
    entries[:, 0] = 0.0  # the zero class sits at Smith grid index (0, 0)
    entries = entries.reshape(6, half_grid(pm)[0], -1)
    return GreenTable(matrix=pm, c0=c0m.copy(), entries=entries)


def apply_green(table, field, out=None, work=None, spectrum=None):
    """Apply the periodised Green operator to a field sampled on the pattern.

    field has shape (m, 3).  On an even table a real field comes back
    real, and a complex field as G(Re) + i G(Im).  A table that is not
    even gives the honest complex result (its imaginary part is genuine,
    not roundoff).  out, if given, is an (m, 3) array of the result type
    in any memory layout (the solver passes transposes of its (3, m)
    buffers) and receives the result.  work is scratch from
    table.workspace() and spectrum a C-contiguous complex128 array of
    shape (3,) + table.entries.shape[1:], both reused across calls and
    overwritten (fresh ones are allocated when they are None); neither may
    share memory with field or out.
    """
    pm = table.matrix
    field = np.asarray(field)
    if field.shape != (pm.m, 3):
        raise ShapeMismatch(f"expected field of shape {(pm.m, 3)}, got {field.shape}")
    if work is None:
        work = table.workspace()
    if spectrum is None:
        spectrum = np.empty((3,) + table.entries.shape[1:], dtype=np.complex128)
    product, scratch = work[:3], work[3]
    if np.iscomplexobj(field) or not table.even_table:
        if out is None:
            out = np.empty((pm.m, 3), dtype=np.complex128)
        if table.even_table:  # G(a + ib) = Ga + iGb, on the real path
            apply_green(table, field.real, out=out.real, work=work, spectrum=spectrum)
            apply_green(table, field.imag, out=out.imag, work=work, spectrum=spectrum)
            return out
        pattern_fft(pm, field, out=spectrum.reshape(3, -1).T)
        apply_symmetric(table.entries, spectrum, product, scratch)
        return pattern_ifft(pm, product.reshape(3, -1).T, out=out)
    pattern_rfft(pm, field, out=spectrum)
    apply_symmetric(table.entries, spectrum, product, scratch)
    return pattern_irfft(pm, product, out=out)
