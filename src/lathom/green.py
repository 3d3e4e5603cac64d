"""Green operator of linear elasticity as a Fourier multiplier.

For a homogeneous reference stiffness C0 the operator maps a polarisation
stress to a compatible zero-mean strain, frequency by frequency.  At an
integer frequency k != 0 the multiplier in Mandel notation is

    G(k) = W(k) A(k)^{-1} W(k)^T,   A(k) = W(k)^T C0 W(k),

where W(k) u is the Mandel vector of sym(k (x) u); A is the acoustic
tensor A_pq = sum_jl C0_pjql k_j k_l.  The zero frequency is mapped to
zero, which pins the mean of the output.

On a kernel space the operator is periodised: each frequency class h of
the generating set receives the convex combination

    Gp_h = m sum_z |c_{h + M^T z}|^2 G(h + M^T z)

over the retained lattice shifts of an orthonormalised coefficient table
(the weights sum to one per class).  For the Dirichlet kernel only the
canonical representative survives, so Gp_h = G(h).

The per-class matrices are real and symmetric.  Whether the whole table
is even under h -> -h depends on the kernel: windows that are even
functions (dlVP, box splines) give even tables, while the half-open
Dirichlet box on patterns with two-torsion pairs some boundary classes
with their negatives asymmetrically.  The table records this; application
to a real field returns a real field exactly when the table is even and
an honestly complex one otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    KernelNotOrthonormal,
    NonElliptic,
    ShapeMismatch,
    SingularAcousticTensor,
)
from .kernels import CoefficientTable
from .lattice import generating_set
from .pattern_fft import pattern_fft, pattern_ifft
from .tensor import (
    as_mandel_stiffness,
    ellipticity_bounds,
    mandel_pairs,
    mandel_weights,
    n_sym,
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

    k has shape (..., d); the result has shape (..., n_s, d).
    """
    k = np.asarray(k, dtype=float)
    d = k.shape[-1]
    pairs = mandel_pairs(d)
    weights = mandel_weights(d)
    w = np.zeros(k.shape[:-1] + (len(pairs), d))
    for a, ((i, j), wa) in enumerate(zip(pairs, weights)):
        w[..., a, i] += 0.5 * wa * k[..., j]
        w[..., a, j] += 0.5 * wa * k[..., i]
    return w


def _green_values(c0m, ks):
    """Multipliers G(k) for a batch of integer frequencies, zeros at k = 0."""
    ks = np.asarray(ks, dtype=float)
    w = strain_basis(ks)  # (n, n_s, d)
    acoustic = np.einsum("nap,ab,nbq->npq", w, c0m, w)
    nonzero = np.any(ks != 0.0, axis=-1)
    n_s = c0m.shape[0]
    out = np.zeros(ks.shape[:-1] + (n_s, n_s))
    if not np.any(nonzero):
        return out
    try:
        inv = np.linalg.inv(acoustic[nonzero])
    except np.linalg.LinAlgError as exc:
        raise SingularAcousticTensor(str(exc)) from None
    if not np.all(np.isfinite(inv)):
        raise SingularAcousticTensor("acoustic tensor is numerically singular")
    wn = w[nonzero]
    out[nonzero] = np.einsum("nap,npq,nbq->nab", wn, inv, wn)
    return out


def green_multiplier(c0, k):
    """Mandel multiplier G(k) of the Green operator for reference stiffness c0.

    Accepts the stiffness in Mandel (n_s, n_s) or full index (d, d, d, d)
    form; k is a single integer vector.  k = 0 returns the zero matrix.
    """
    c0m = as_mandel_stiffness(c0)
    k = np.asarray(k, dtype=np.int64)
    return _green_values(c0m, k[None, :])[0]


@dataclass(frozen=True)
class GreenTable:
    """Per-class multipliers of the periodised Green operator.

    values[i] acts on frequency class freqs[i] of the generating set; the
    zero class is the zero matrix.  even_table records whether the values
    are even under h -> -h (class-wise), which decides whether real
    fields stay real under application.
    """

    kernel: CoefficientTable
    c0: np.ndarray  # (n_s, n_s) Mandel reference stiffness
    values: np.ndarray  # (m, n_s, n_s) real symmetric
    even_table: bool

    @property
    def matrix(self):
        return self.kernel.matrix


def periodised_green_table(c0, kernel):
    """Assemble Gp_h = m sum_z |c_{h+M^T z}|^2 G(h+M^T z) per class.

    The kernel table must be orthonormalised so the weights m |c|^2 sum to
    one within each class; the zero class is forced to the zero matrix.
    Raises NonElliptic unless c0 is positive definite.
    """
    if not kernel.orthonormal:
        raise KernelNotOrthonormal("periodisation needs an orthonormalised table")
    pm = kernel.matrix
    if np.max(np.abs(pm.m * kernel.bracket - 1.0)) > 1e-8:
        raise KernelNotOrthonormal("bracket sums are not normalised to 1/m")
    c0m = as_mandel_stiffness(c0)
    n_s = c0m.shape[0]
    if n_s != n_sym(pm.dim):
        raise ShapeMismatch(f"stiffness dimension {n_s} does not fit d = {pm.dim}")
    lower, _ = ellipticity_bounds(c0m)
    if lower <= 0.0:
        raise NonElliptic(
            f"reference stiffness is not positive definite (lower bound {lower:.3e})"
        )
    gen = generating_set(pm)
    values = np.zeros((pm.m, n_s, n_s))
    for j in range(len(kernel.shifts)):
        weights = pm.m * kernel.coeffs[:, j] ** 2
        rows = np.nonzero(weights)[0]
        if rows.size == 0:
            continue
        ks = kernel.freqs[rows] + kernel.shifts[j] @ pm.entries
        values[rows] += weights[rows, None, None] * _green_values(c0m, ks)
    values[gen.index(np.zeros(pm.dim, dtype=np.int64))] = 0.0
    neg = gen.index(-gen.freqs)
    scale = np.max(np.abs(values)) or 1.0
    even = bool(np.max(np.abs(values[neg] - values)) <= 1e-13 * scale)
    return GreenTable(kernel=kernel, c0=c0m.copy(), values=values, even_table=even)


def apply_green(table, field):
    """Apply the periodised Green operator to a field sampled on the pattern.

    field has shape (m, n_s).  Real input comes back real whenever the
    table is even under h -> -h; otherwise the honest complex result is
    returned (its imaginary part is genuine, not roundoff).
    """
    pm = table.matrix
    field = np.asarray(field)
    n_s = table.values.shape[-1]
    if field.shape != (pm.m, n_s):
        raise ShapeMismatch(f"expected field of shape {(pm.m, n_s)}, got {field.shape}")
    spectrum = pattern_fft(pm, field)
    out_hat = np.einsum("mab,mb->ma", table.values, spectrum)
    out = pattern_ifft(pm, out_hat)
    if np.isrealobj(field) and table.even_table:
        return out.real
    return out
