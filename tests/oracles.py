"""Independently coded references used by the test suite.

The closed-form references come first: they are written directly from the
formulas, avoiding the library's own abstractions, so that agreement is a
genuine cross-check and not a tautology.  The cross-checks after them
reach a library quantity by a second route (one class at a time, through
point samples, in full index form or in the weak form of the cell
problem), so tests can compare the two routes.
"""

import math

import numpy as np

from lathom.errors import LengthMismatch, ShapeMismatch, ZeroDeterminant
from lathom.kernels import CoefficientTable, coeff, shift_set
from lathom.lattice import (
    PatternMatrix,
    as_pattern_matrix,
    frac_coordinates,
    generating_set,
    reduce_mod,
)
from lathom.pattern_fft import pattern_fft, pattern_ifft, smith_normal_form

# the 2-d Mandel layout (a11, a22, sqrt(2) a12), written out independently
MANDEL_PAIRS = ((0, 0), (1, 1), (0, 1))
MANDEL_WEIGHTS = (1.0, 1.0, math.sqrt(2.0))


def isotropic_green_closed_form(lam, mu, k):
    """Full-index Green tensor of an isotropic medium at frequency k != 0."""
    k = np.asarray(k, dtype=float)
    xi = k / np.linalg.norm(k)
    d = len(xi)
    eye = np.eye(d)
    g = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(d):
            for p in range(d):
                for q in range(d):
                    g[i, j, p, q] = (
                        eye[i, p] * xi[j] * xi[q]
                        + eye[j, p] * xi[i] * xi[q]
                        + eye[i, q] * xi[j] * xi[p]
                        + eye[j, q] * xi[i] * xi[p]
                    ) / (4.0 * mu)
                    g[i, j, p, q] -= (
                        (lam + mu) / (mu * (lam + 2.0 * mu)) * xi[i] * xi[j] * xi[p] * xi[q]
                    )
    return g


def green_index_form(c0_full, k):
    """Acoustic-tensor route written out index by index, batched over k (..., d)."""
    k = np.asarray(k, dtype=float)
    acoustic = np.einsum("pjql,...j,...l->...pq", c0_full, k, k)
    n = np.linalg.inv(acoustic)
    return 0.25 * (
        np.einsum("...ip,...j,...q->...ijpq", n, k, k)
        + np.einsum("...jp,...i,...q->...ijpq", n, k, k)
        + np.einsum("...iq,...j,...p->...ijpq", n, k, k)
        + np.einsum("...jq,...i,...p->...ijpq", n, k, k)
    )


def box_coeff_sinc(spec, k):
    """Box-spline coefficient prod_xi sinc(xi . t) at t = M^{-T} k (..., d),
    through np.sinc of the float coordinates, kept where |t_i| <= r_i."""
    w, n = frac_coordinates(spec.matrix.mt, k)
    inside = np.all(np.abs(w) <= np.array(spec.radius) * n, axis=-1)
    return np.where(inside, np.prod(np.sinc((w / float(n)) @ spec.xi), axis=-1), 0.0)


def random_spd_mandel(rng, n_s, shift=0.5):
    """Random symmetric positive definite matrix in Mandel notation."""
    a = rng.normal(size=(n_s, n_s))
    return a @ a.T + shift * np.eye(n_s)


def regular_pattern(entries, max_m=400, min_m=1):
    """PatternMatrix of entries when min_m <= |det| <= max_m, else None."""
    try:
        pm = PatternMatrix(entries)
    except ZeroDeterminant:
        return None
    return pm if min_m <= pm.m <= max_m else None


def random_regular(rng, span=6, max_m=400, min_m=1):
    """Random regular 2 x 2 pattern matrix with min_m <= |det| <= max_m.

    Draws rng.integers(-span, span + 1, size=(2, 2)) until one fits, so a
    seeded rng always yields the same sequence of matrices.
    """
    while True:
        pm = regular_pattern(rng.integers(-span, span + 1, size=(2, 2)), max_m, min_m)
        if pm is not None:
            return pm


def in_symmetric_box(a, k):
    """Exact test whether A^{-1} k lies in [-1/2, 1/2)^2 (vectorised)."""
    w, n = frac_coordinates(a, k)
    return np.all((2 * w >= -n) & (2 * w < n), axis=-1)


def smith_elimination(mat):
    """Smith normal form of a regular d x d matrix by general elimination.

    Returns (S, diag, T) as lists of python ints with mat = S @ diag(d) @ T,
    S and T unimodular and 0 < d1 | d2 | ... | dd.  Each stage moves the
    nonzero entry of least magnitude in the remaining block (first in
    row-major order) to the pivot, reduces its row and column by floor
    quotients and repeats while remainders appear or an entry of the block
    is not divisible by the pivot (whose row is then added to the pivot
    row).  The library's 2 x 2 Smith form follows the same pivot rules, so
    the two must agree exactly: the canonical orderings rest on S and T.
    """
    a = [[int(x) for x in row] for row in mat]
    d = len(a)
    s = [[int(i == j) for j in range(d)] for i in range(d)]
    t = [[int(i == j) for j in range(d)] for i in range(d)]

    # Elementary operations on `a`, each compensated on s or t so that
    # s @ a @ t stays equal to the input matrix.
    def row_axpy(i, j, q):  # a[i] -= q * a[j]
        for c in range(d):
            a[i][c] -= q * a[j][c]
        for r in range(d):
            s[r][j] += q * s[r][i]

    def col_axpy(i, j, q):  # a[:,i] -= q * a[:,j]
        for r in range(d):
            a[r][i] -= q * a[r][j]
        for c in range(d):
            t[j][c] += q * t[i][c]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in range(d):
            s[r][i], s[r][j] = s[r][j], s[r][i]

    def col_swap(i, j):
        for r in range(d):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        t[i], t[j] = t[j], t[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        for r in range(d):
            s[r][i] = -s[r][i]

    for p in range(d):
        while True:
            pivot = None
            for i in range(p, d):
                for j in range(p, d):
                    if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break  # remaining block is zero
            if pivot != (p, p):
                if pivot[0] != p:
                    row_swap(p, pivot[0])
                if pivot[1] != p:
                    col_swap(p, pivot[1])
            for i in range(p + 1, d):
                q = a[i][p] // a[p][p]
                if q:
                    row_axpy(i, p, q)
            for j in range(p + 1, d):
                q = a[p][j] // a[p][p]
                if q:
                    col_axpy(j, p, q)
            if any(a[i][p] for i in range(p + 1, d)) or any(a[p][j] for j in range(p + 1, d)):
                continue  # smaller remainders appeared; repeat with new pivot
            offender = None
            for i in range(p + 1, d):
                for j in range(p + 1, d):
                    if a[i][j] % a[p][p] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_axpy(p, offender, -1)  # pull the offending row up, re-reduce
        if a[p][p] < 0:
            row_negate(p)

    diag = [a[i][i] for i in range(d)]
    return s, diag, t


def to_mandel(sym):
    """Mandel vectors (..., 3) of symmetric 2 x 2 matrices (..., 2, 2)."""
    sym = np.asarray(sym)
    comps = [w * sym[..., i, j] for (i, j), w in zip(MANDEL_PAIRS, MANDEL_WEIGHTS)]
    return np.stack(comps, axis=-1)


def mandel_operator_2d(full):
    """Hand-coded 2-d Mandel matrices (..., 3, 3) of minor-symmetric 4-tensors."""
    full = np.asarray(full)
    out = np.zeros(full.shape[:-4] + (3, 3))
    for a, ((i, j), wa) in enumerate(zip(MANDEL_PAIRS, MANDEL_WEIGHTS)):
        for b, ((p, q), wb) in enumerate(zip(MANDEL_PAIRS, MANDEL_WEIGHTS)):
            out[..., a, b] = wa * wb * full[..., i, j, p, q]
    return out


def classical_basic_scheme(c_grid, lam0, mu0, eps0, tol=1e-10, max_iter=5000):
    """Plain truncated-Fourier Basic Scheme on an n1 x n2 tensor grid.

    c_grid holds the Mandel stiffness at grid node x = (j1/n1, j2/n2) in
    plain C-order; the spectral truncation keeps the standard fftfreq
    frequencies (Nyquist representative -n/2 on even axes).  Returns
    (strain_grid, iterations); the strain is complex whenever the grid is
    even, matching the half-open truncation exactly.
    """
    n1, n2, _, _ = c_grid.shape
    k1 = np.rint(np.fft.fftfreq(n1, d=1.0 / n1)).astype(int)
    k2 = np.rint(np.fft.fftfreq(n2, d=1.0 / n2)).astype(int)
    green = np.zeros((n1, n2, 3, 3))
    for i, a in enumerate(k1):
        for j, b in enumerate(k2):
            if a == 0 and b == 0:
                continue
            green[i, j] = mandel_operator_2d(
                isotropic_green_closed_form(lam0, mu0, [a, b])
            )
    iv = np.array([1.0, 1.0, 0.0])
    c0 = lam0 * np.outer(iv, iv) + 2.0 * mu0 * np.eye(3)
    eps0 = np.asarray(eps0, dtype=float)
    strain = np.zeros((n1, n2, 3))
    for iterations in range(1, max_iter + 1):
        tau = np.einsum("xyab,xyb->xya", c_grid - c0, strain + eps0)
        tau_hat = np.fft.fft2(tau, axes=(0, 1))
        new_hat = -np.einsum("xyab,xyb->xya", green, tau_hat)
        new = np.fft.ifft2(new_hat, axes=(0, 1))
        num = np.linalg.norm(new - strain)
        den = np.linalg.norm(new + eps0)
        strain = new
        if num == 0.0 or (den > 0.0 and num / den <= tol):
            return strain, iterations
    raise AssertionError("classical scheme did not converge")


# cross-checks: a second route to a library quantity


def class_matrices(table):
    """The (m, 3, 3) class matrices of a library Green table, unpacked by
    hand from its six entries (00, 11, 22, 01, 02, 12) on the Smith grid.

    An even table stores the half spectrum, last grid index j <= d2 // 2;
    the class at grid index (i, j) beyond it is the negative of the class
    at (-i mod d1, -j mod d2) and carries the same matrix.
    """
    d1, d2 = smith_normal_form(table.matrix).grid
    stored = table.entries
    kept = stored.shape[-1]
    full = np.empty((6, d1, d2))
    full[:, :, :kept] = stored
    i, j = np.meshgrid(np.arange(d1), np.arange(kept, d2), indexing="ij")
    full[:, i, j] = stored[:, -i % d1, -j % d2]
    rows = ((0, 3, 4), (3, 1, 5), (4, 5, 2))
    return np.stack([np.stack([full[e].ravel() for e in row], axis=-1) for row in rows], axis=-2)


def full_spectrum_green(table, field, matrices=None):
    """Green application on the full complex spectrum of a library table:
    pattern_fft, the 3 x 3 class matrices, pattern_ifft.  matrices (m, 3, 3)
    defaults to class_matrices(table); periodised_green_index_form gives
    them without reading the table.  The real part is returned for a real
    field on an even table, where the imaginary part is roundoff; otherwise
    the complex result.
    """
    if matrices is None:
        matrices = class_matrices(table)
    out = pattern_ifft(
        table.matrix, np.einsum("mab,mb->ma", matrices, pattern_fft(table.matrix, field))
    )
    return out.real if np.isrealobj(field) and table.even_table else out


def periodised_basic_scheme(c, c0, eps0, table, tol=1e-10, max_iter=5000):
    """The paper's Basic Scheme E <- -Green_p (C - C0):(E + eps0) on a library
    Green table, applied by full_spectrum_green, from E = 0, stopped on the
    relative Cauchy criterion |E_new - E| / |E_new + eps0| <= tol.  Returns
    (strain, iterations).
    """
    m = table.matrix.m
    dc = np.broadcast_to(np.asarray(c, dtype=float), (m, 3, 3)) - np.asarray(c0)
    eps0 = np.asarray(eps0, dtype=float)
    strain = np.zeros((m, 3))
    for iterations in range(1, max_iter + 1):
        new = -full_spectrum_green(table, np.einsum("mab,mb->ma", dc, strain + eps0))
        num, den = np.linalg.norm(new - strain), np.linalg.norm(new + eps0)
        strain = new
        if num == 0.0 or (den > 0.0 and num / den <= tol):
            return strain, iterations
    raise AssertionError("periodised Basic Scheme did not converge")


def grad_sym_multiplier(k, u):
    """Symmetrised gradient on one Fourier mode: (i/2)(k u^T + u k^T)."""
    k = np.asarray(k, dtype=float)
    u = np.asarray(u)
    return 0.5j * (np.outer(k, u) + np.outer(u, k))


def from_mandel(vec):
    """Inverse of to_mandel: (..., 3) -> (..., 2, 2)."""
    vec = np.asarray(vec)
    out = np.zeros(vec.shape[:-1] + (2, 2), dtype=vec.dtype)
    for a, ((i, j), w) in enumerate(zip(MANDEL_PAIRS, MANDEL_WEIGHTS)):
        val = vec[..., a] / w
        out[..., i, j] = val
        out[..., j, i] = val
    return out


def from_mandel_operator(cm):
    """Inverse of mandel_operator_2d: (..., 3, 3) -> (..., 2, 2, 2, 2)."""
    cm = np.asarray(cm)
    out = np.zeros(cm.shape[:-2] + (2, 2, 2, 2), dtype=cm.dtype)
    for a, ((i, j), wa) in enumerate(zip(MANDEL_PAIRS, MANDEL_WEIGHTS)):
        for b, ((k, l), wb) in enumerate(zip(MANDEL_PAIRS, MANDEL_WEIGHTS)):
            val = cm[..., a, b] / (wa * wb)
            out[..., i, j, k, l] = val
            out[..., j, i, k, l] = val
            out[..., i, j, l, k] = val
            out[..., j, i, l, k] = val
    return out


def dlvp_window(alpha, t):
    """Trapezoid window g_alpha at float points t (..., d).

    Plateau 1 on |t_i| <= (1-a)/2, linear ramp to 0 at (1+a)/2; for a = 0
    the indicator of the closed box with weight 1/2 exactly on the faces.
    """
    t = np.atleast_2d(np.asarray(t, dtype=float))
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    out = np.ones(t.shape[:-1])
    for i, a in enumerate(alpha):
        x = np.abs(t[..., i])
        if a == 0.0:
            axis = np.where(x < 0.5, 1.0, np.where(x == 0.5, 0.5, 0.0))
        else:
            axis = np.clip((0.5 * (1.0 + a) - x) / a, 0.0, 1.0)
        out = out * axis
    return out


def bracket_sum(spec, h, weight=None):
    """[weight . |c|^2]_h over the retained shifts of a single class h."""
    pm = spec.matrix
    h = np.asarray(h, dtype=np.int64)
    if h.shape != (2,):
        raise LengthMismatch("expected a single frequency of length 2")
    if not np.array_equal(reduce_mod(pm, h), h):
        raise ValueError(f"{h.tolist()} is not a canonical representative")
    total = None
    for z in shift_set(spec):
        k = h + z @ pm.entries
        c2 = float(coeff(spec, k)) ** 2
        if c2 == 0.0:
            continue
        term = c2 if weight is None else np.asarray(weight(k)) * c2
        total = term if total is None else total + term
    if total is None:
        total = 0.0 if weight is None else np.asarray(weight(h)) * 0.0
    return total


def every_class_table(spec):
    """Raw coefficient table over all m classes of the generating set, in
    its order, and every retained shift, each entry evaluated by
    kernels.coeff at h + M^T z; not orthonormalised.  Its half flag, read
    from the row count, holds only where the half grid is the whole grid.
    """
    pm = spec.matrix
    freqs = generating_set(pm).freqs
    shifts = shift_set(spec)
    coeffs = coeff(spec, freqs[:, None, :] + shifts @ pm.entries).reshape(pm.m, len(shifts))
    return CoefficientTable(spec, freqs, shifts, coeffs)


def periodised_green_index_form(c0m, spec):
    """Gp_h = sum_z |c_{h + M^T z}|^2 G(h + M^T z) / [|c|^2]_h on every
    class of every_class_table(spec), each term through green_index_form;
    the zero class stays the zero matrix.  Returns (m, 3, 3).
    """
    table = every_class_table(spec)
    ks = table.freqs[:, None, :] + table.shifts @ spec.matrix.entries
    weights = table.coeffs**2 / table.bracket[:, None]
    keep = (weights != 0.0) & table.freqs.any(axis=1)[:, None]
    terms = mandel_operator_2d(green_index_form(from_mandel_operator(c0m), ks[keep]))
    out = np.zeros((spec.matrix.m, 3, 3))
    np.add.at(out, np.nonzero(keep)[0], weights[keep][:, None, None] * terms)
    return out


def is_even(m_mat, matrices, rtol=1e-13):
    """Whether per-class matrices (m, ...) in generating-set order equal
    those of the negated classes, to rtol of their largest entry."""
    gen = generating_set(m_mat)
    scale = np.max(np.abs(matrices)) or 1.0
    return bool(np.max(np.abs(matrices[gen.index(-gen.freqs)] - matrices)) <= rtol * scale)


def pattern_samples(spec, class_weights=1.0):
    """Generator values f(2 pi y) on the pattern via the class sums of
    every_class_table(spec), each class scaled by class_weights (m,).

    Shifting k by M^T z leaves e^{2 pi i k.y} untouched on the pattern, so
    the sample values only see the signed bracket sums.
    """
    pm = spec.matrix
    sums = (class_weights * every_class_table(spec).class_sums()).astype(complex)
    return pattern_ifft(pm, sums) * math.sqrt(pm.m)


def discrete_coeffs(m_mat, samples):
    """Interpolatory coefficients c^M_h = (1/m) sum_y f(2 pi y) e^{-2 pi i h.y}.

    pattern_fft rejects samples of the wrong length with LengthMismatch.
    """
    pm = as_pattern_matrix(m_mat)
    return pattern_fft(pm, np.asarray(samples)) / math.sqrt(pm.m)


def residual_variational(strain, c, c0, eps0, table):
    """l2 norm of C0 Green_p C:(E + eps0), the weak-form discretisation.

    c is a stiffness field (m, 3, 3) or one constant stiffness.
    """
    m = table.matrix.m
    strain = np.asarray(strain)
    if strain.shape != (m, 3):
        raise ShapeMismatch(f"expected {(m, 3)}, got {strain.shape}")
    c = np.broadcast_to(np.asarray(c, dtype=float), (m, 3, 3))
    total = np.einsum("mab,mb->ma", c, strain + np.asarray(eps0))
    return float(np.linalg.norm(full_spectrum_green(table, total) @ np.asarray(c0).T))
