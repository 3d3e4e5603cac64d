"""Integer lattice algebra for anisotropic sampling patterns.

A regular integer matrix M defines the sampling lattice M^{-1} Z^d.  The
pattern P(M) collects the m = |det M| residues of that lattice modulo 1,
kept in the symmetric unit cube [-1/2, 1/2)^d.  Its Fourier companion is
the generating set G(M^T), the m integer frequency vectors that are
pairwise distinct modulo M^T Z^d, again with representatives chosen so
that M^{-T} h lies in the symmetric cube.

All congruence arithmetic is exact.  Reductions run on int64 vectors via
the adjugate (h = k - A u with u = floor((2 adj(A) k + n) / (2n))), so no
point can be misclassified near a cube boundary.  Floats appear only when
a caller asks for the rational pattern points as floating vectors.

Orderings of both sets are canonical: they follow the Smith coordinates
of M (see pattern_fft), which makes the index maps pure integer formulas
and lets the fast transform operate by plain reshaping.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ZeroDeterminant

__all__ = [
    "PatternMatrix",
    "Pattern",
    "GeneratingSet",
    "as_pattern_matrix",
    "pattern_points",
    "generating_set",
    "reduce_mod",
    "reduce_point",
    "frac_coordinates",
    "in_symmetric_box",
]


def _int_det(rows):
    """Exact determinant of a small square matrix of python ints."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    det = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        det += (-1) ** j * rows[0][j] * _int_det(minor)
    return det


def _adjugate(rows):
    """Exact adjugate: adj(A)[i][j] = cofactor(A)[j][i]."""
    n = len(rows)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j]
            adj[i][j] = (-1) ** (i + j) * _int_det(minor)
    return adj


class PatternMatrix:
    """Regular d x d integer matrix defining pattern and frequency sets.

    Immutable and hashable; derived data (pattern, generating set, Smith
    decomposition) is cached per instance through the module functions.
    """

    __slots__ = ("entries", "dim", "det", "m")

    def __init__(self, entries):
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("pattern matrix must be square")
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.rint(arr)
            if not np.array_equal(arr, rounded):
                raise ValueError("pattern matrix entries must be integers")
            arr = rounded
        arr = arr.astype(np.int64).copy()
        arr.setflags(write=False)
        self.entries = arr
        self.dim = int(arr.shape[0])
        self.det = int(_int_det([[int(x) for x in row] for row in arr]))
        if self.det == 0:
            raise ZeroDeterminant(f"singular pattern matrix {arr.tolist()}")
        self.m = abs(self.det)

    @property
    def mt(self):
        """Transpose, used throughout on the frequency side."""
        return self.entries.T

    def __eq__(self, other):
        return (
            isinstance(other, PatternMatrix)
            and self.dim == other.dim
            and np.array_equal(self.entries, other.entries)
        )

    def __hash__(self):
        return hash((self.dim, self.entries.tobytes()))

    def __repr__(self):
        return f"PatternMatrix({self.entries.tolist()})"


def as_pattern_matrix(m_mat):
    """Coerce an array-like (or pass a PatternMatrix through)."""
    if isinstance(m_mat, PatternMatrix):
        return m_mat
    return PatternMatrix(m_mat)


@functools.lru_cache(maxsize=None)
def _reduction_data(key):
    """Sign-normalised (adjugate, |det|) for the int matrix behind key."""
    rows = [list(map(int, row)) for row in key]
    n = _int_det(rows)
    adj = _adjugate(rows)
    if n < 0:
        n = -n
        adj = [[-x for x in row] for row in adj]
    return np.array(adj, dtype=np.int64), n


def _matrix_key(a):
    return tuple(tuple(int(x) for x in row) for row in a)


def frac_coordinates(a, k):
    """Exact fractional coordinates A^{-1} k as (numerators, denominator).

    k may have any leading shape (..., d).  Returns int64 numerators w and
    a positive int n with A^{-1} k = w / n elementwise.
    """
    adj, n = _reduction_data(_matrix_key(np.asarray(a)))
    k = np.asarray(k, dtype=np.int64)
    return k @ adj.T, n


def _reduce(a, k):
    """Reduce k modulo A Z^d so that A^{-1} h lies in [-1/2, 1/2)^d."""
    a = np.asarray(a, dtype=np.int64)
    w, n = frac_coordinates(a, k)
    u = (2 * w + n) // (2 * n)
    return np.asarray(k, dtype=np.int64) - u @ a.T


def reduce_mod(m_mat, k):
    """Canonical representative of k modulo M^T Z^d (frequency side).

    Vectorised over leading axes of k; idempotent; exact.
    """
    pm = as_pattern_matrix(m_mat)
    return _reduce(pm.mt, k)


def reduce_point(m_mat, z):
    """Canonical representative of z = M y modulo M Z^d (point side)."""
    pm = as_pattern_matrix(m_mat)
    return _reduce(pm.entries, z)


def in_symmetric_box(a, k):
    """Exact test whether A^{-1} k lies in [-1/2, 1/2)^d (vectorised)."""
    w, n = frac_coordinates(a, k)
    return np.all((2 * w >= -n) & (2 * w < n), axis=-1)


# ---------------------------------------------------------------------------
# Smith normal form.  Kept here (not in pattern_fft) because the canonical
# orderings of Pattern and GeneratingSet are defined through it; pattern_fft
# re-exports the public wrapper type.

def _smith_ints(mat):
    """Smith normal form with transforms over python ints.

    Returns (S, diag, T) with mat = S @ diag(d) @ T, S and T unimodular and
    the elementary divisors positive with d1 | d2 | ... | dd.
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


@functools.lru_cache(maxsize=None)
def _smith_grid(pm):
    """(S, diag, T, S^{-1}, T^{-1}) for the canonical orderings."""
    s, diag, t = _smith_ints(pm.entries)
    if any(x == 0 for x in diag):
        raise ZeroDeterminant(f"singular pattern matrix {pm.entries.tolist()}")
    s_arr = np.array(s, dtype=np.int64)
    t_arr = np.array(t, dtype=np.int64)
    d_arr = np.array(diag, dtype=np.int64)
    # Invariants are cheap for the small d used here; verify unconditionally.
    assert np.array_equal(s_arr @ np.diag(d_arr) @ t_arr, pm.entries)
    assert abs(_int_det(s)) == 1 and abs(_int_det(t)) == 1
    for i in range(len(diag) - 1):
        assert diag[i + 1] % diag[i] == 0
    s_inv = np.array(_adjugate(s), dtype=np.int64) * _int_det(s)  # det is +-1
    t_inv = np.array(_adjugate(t), dtype=np.int64) * _int_det(t)
    for arr in (s_arr, t_arr, d_arr, s_inv, t_inv):
        arr.setflags(write=False)
    return s_arr, d_arr, t_arr, s_inv, t_inv


def _box_enumeration(diag):
    """All integer tuples in prod range(d_i), C-order, as an (m, d) array."""
    grids = np.meshgrid(*[np.arange(int(x), dtype=np.int64) for x in diag], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


class Pattern:
    """Ordered pattern P(M): points y with M y integer, reduced into the cube.

    Attributes
    ----------
    matrix : PatternMatrix
    z : (m, d) int64, canonical integer coordinates z = M y
    points : (m, d) float64, the points y themselves
    numerators, denominator : exact rationals, y = numerators / denominator
    """

    def __init__(self, pm):
        self.matrix = pm
        s_arr, diag, t_arr, s_inv, t_inv = _smith_grid(pm)
        self._diag = diag
        self._s_inv = s_inv
        j = _box_enumeration(diag)
        z = reduce_point(pm, j @ s_arr.T)
        adj, n = _reduction_data(_matrix_key(pm.entries))
        num = z @ adj.T
        self.z = z
        self.numerators = num
        self.denominator = n
        self.points = num / float(n)
        for arr in (self.z, self.numerators):
            arr.setflags(write=False)
        self.points.setflags(write=False)

    def __len__(self):
        return self.matrix.m

    def index(self, z):
        """Indices of integer coordinates z (any representatives), vectorised."""
        z = np.asarray(z, dtype=np.int64)
        coords = np.mod(z @ self._s_inv.T, self._diag)
        return np.ravel_multi_index(tuple(np.moveaxis(coords, -1, 0)), tuple(self._diag))


class GeneratingSet:
    """Ordered generating set G(M^T): canonical integer frequencies."""

    def __init__(self, pm):
        self.matrix = pm
        s_arr, diag, t_arr, s_inv, t_inv = _smith_grid(pm)
        self._diag = diag
        self._t_inv = t_inv
        i = _box_enumeration(diag)
        self.freqs = reduce_mod(pm, i @ t_arr)
        self.freqs.setflags(write=False)

    def __len__(self):
        return self.matrix.m

    def index(self, k):
        """Indices of frequencies k (any representatives mod M^T), vectorised."""
        k = np.asarray(k, dtype=np.int64)
        coords = np.mod(k @ self._t_inv, self._diag)
        return np.ravel_multi_index(tuple(np.moveaxis(coords, -1, 0)), tuple(self._diag))


@functools.lru_cache(maxsize=None)
def _pattern_cached(pm):
    return Pattern(pm)


@functools.lru_cache(maxsize=None)
def _generating_set_cached(pm):
    return GeneratingSet(pm)


def pattern_points(m_mat):
    """The pattern P(M) in its canonical (Smith coordinate) ordering."""
    return _pattern_cached(as_pattern_matrix(m_mat))


def generating_set(m_mat):
    """The generating set G(M^T) in its canonical ordering."""
    return _generating_set_cached(as_pattern_matrix(m_mat))
