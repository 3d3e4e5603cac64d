"""Integer lattice algebra for anisotropic sampling patterns.

A regular 2 x 2 integer matrix M defines the sampling lattice M^{-1} Z^2.
The pattern P(M) collects the m = |det M| residues of that lattice modulo
1, kept in the symmetric unit square [-1/2, 1/2)^2.  Its Fourier companion
is the generating set G(M^T), the m integer frequency vectors that are
pairwise distinct modulo M^T Z^2, again with representatives chosen so
that M^{-T} h lies in the symmetric square.

All congruence arithmetic is exact.  Reductions run on int64 vectors via
the adjugate (h = k - A u with u = floor((2 adj(A) k + n) / (2n))), so no
point can be misclassified near a square boundary.  Floats appear only when
a caller asks for the rational pattern points as floating vectors.

Orderings of both sets are canonical: they follow the Smith coordinates
of M (see pattern_fft), which makes the index maps pure integer formulas
and lets the fast transform operate by plain reshaping.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import PatternMismatch, ZeroDeterminant

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
    "refinement",
]


def _int_det(a):
    """Exact determinant of a 2 x 2 matrix of python ints."""
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def _adjugate(a):
    """Exact adjugate of a 2 x 2 matrix of python ints: A adj(A) = det(A) I."""
    return [[a[1][1], -a[0][1]], [-a[1][0], a[0][0]]]


def _int_entry(x):
    """x as a python int in the int64 range; ValueError otherwise."""
    try:
        value = int(x)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or value != x or not -(2**63) <= value < 2**63:
        raise ValueError(f"pattern matrix entries must be int64 integers, got {x!r}")
    return value


class PatternMatrix:
    """Regular 2 x 2 integer matrix defining pattern and frequency sets.

    Immutable and hashable; its Smith decomposition is cached per instance
    through the module functions.
    """

    __slots__ = ("entries", "det", "m")

    def __init__(self, entries):
        arr = np.asarray(entries)
        if arr.shape != (2, 2):
            raise ValueError(f"pattern matrix must be 2 x 2, got shape {arr.shape}")
        rows = [[_int_entry(x) for x in row] for row in arr.tolist()]
        arr = np.array(rows, dtype=np.int64)
        arr.setflags(write=False)
        self.entries = arr
        self.det = _int_det(rows)
        if self.det == 0:
            raise ZeroDeterminant(f"singular pattern matrix {rows}")
        self.m = abs(self.det)
        if self.m >= 2**62:  # the reductions compute 2 w + m in int64
            raise ValueError(f"pattern matrix determinant {self.det} is not below 2**62")

    @property
    def mt(self):
        """Transpose, used throughout on the frequency side."""
        return self.entries.T

    def __eq__(self, other):
        return isinstance(other, PatternMatrix) and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash(self.entries.tobytes())

    def __repr__(self):
        return f"PatternMatrix({self.entries.tolist()})"


def as_pattern_matrix(m_mat):
    """Coerce an array-like (or pass a PatternMatrix through)."""
    if isinstance(m_mat, PatternMatrix):
        return m_mat
    return PatternMatrix(m_mat)


def _inverse_parts(a):
    """(adj, n) over python ints with A^{-1} = adj / n and n > 0."""
    rows = np.asarray(a, dtype=np.int64).tolist()
    n = _int_det(rows)
    sign = -1 if n < 0 else 1
    return [[sign * x for x in row] for row in _adjugate(rows)], n * sign


def _reduces_in_int64(adj, n, top):
    """Whether vectors with entries up to top have numerators w = adj k,
    and the 2 w + n of the reductions, inside int64."""
    return 2 * top * max(sum(map(abs, row)) for row in adj) + n < 2**63


def frac_coordinates(a, k):
    """Exact fractional coordinates A^{-1} k as (numerators, denominator).

    k may have any leading shape (..., 2).  Returns int64 numerators w and
    a positive int n with A^{-1} k = w / n elementwise.  |w| is at most
    max|k| times the largest absolute row sum of adj(A); ValueError when
    that bound lets w, or the 2 w + n of the reductions, leave int64.
    """
    adj, n = _inverse_parts(a)
    k = np.asarray(k, dtype=np.int64)
    if k.size:
        top = max(-int(k.min()), int(k.max()))
        if not _reduces_in_int64(adj, n, top):
            rows = np.asarray(a, dtype=np.int64).tolist()
            raise ValueError(f"vectors with entries up to {top} overflow int64 modulo {rows}")
    return k @ np.array(adj, dtype=np.int64).T, n


def _reduce(a, k):
    """Reduce k modulo A Z^2 so that A^{-1} h lies in [-1/2, 1/2)^2."""
    a = np.asarray(a, dtype=np.int64)
    w, n = frac_coordinates(a, k)
    u = (2 * w + n) // (2 * n)
    return np.asarray(k, dtype=np.int64) - u @ a.T


def reduce_mod(m_mat, k):
    """Canonical representative of k modulo M^T Z^2 (frequency side).

    Vectorised over leading axes of k; idempotent; exact.
    """
    pm = as_pattern_matrix(m_mat)
    return _reduce(pm.mt, k)


def reduce_point(m_mat, z):
    """Canonical representative of z = M y modulo M Z^2 (point side)."""
    pm = as_pattern_matrix(m_mat)
    return _reduce(pm.entries, z)


def refinement(fine_mat, coarse_mat):
    """Integer L with M_fine = L M_coarse, so that P(M_coarse) lies in P(M_fine).

    The rows of L are M_coarse^{-T} applied to the rows of M_fine, taken
    exactly by frac_coordinates; PatternMismatch unless they are integer.
    """
    fm = as_pattern_matrix(fine_mat)
    cm = as_pattern_matrix(coarse_mat)
    w, n = frac_coordinates(cm.mt, fm.entries)
    if np.any(w % n):
        raise PatternMismatch(f"{fm.entries.tolist()} does not refine {cm.entries.tolist()}")
    return w // n


# ---------------------------------------------------------------------------
# Smith normal form.  Kept here (not in pattern_fft) because the canonical
# orderings of Pattern and GeneratingSet are defined through it; pattern_fft
# re-exports the public wrapper type.

def _smith_ints(mat):
    """Smith normal form of a regular 2 x 2 matrix over python ints.

    Returns (S, diag, T) with mat = S @ diag(d1, d2) @ T, S and T
    unimodular and 0 < d1 | d2.  The pivot is the nonzero entry of least
    magnitude, the first in row-major order; it is swapped to (0, 0), and
    row 1 and column 1 are reduced by its floor quotients.  A remainder
    starts the next round; so does a11 not divisible by the pivot, after
    row 1 is added to row 0.  Every operation on the matrix is compensated
    on S (rows of the matrix, columns of S) or T (columns, rows of T), so
    S @ a @ T stays equal to mat.
    """
    a = [[int(x) for x in row] for row in mat]
    s = [[1, 0], [0, 1]]
    t = [[1, 0], [0, 1]]
    while True:
        _, i, j = min((abs(a[i][j]), i, j) for i in (0, 1) for j in (0, 1) if a[i][j])
        if i:
            a.reverse()
            s = [row[::-1] for row in s]
        if j:
            a = [row[::-1] for row in a]
            t.reverse()
        pivot = a[0][0]
        q = a[1][0] // pivot  # row 1 -= q row 0
        a[1] = [a[1][0] - q * a[0][0], a[1][1] - q * a[0][1]]
        s = [[r0 + q * r1, r1] for r0, r1 in s]
        q = a[0][1] // pivot  # column 1 -= q column 0
        a = [[r0, r1 - q * r0] for r0, r1 in a]
        t[0] = [c0 + q * c1 for c0, c1 in zip(*t)]
        if a[1][0] or a[0][1]:
            continue
        if a[1][1] % pivot == 0:
            break
        a[0] = [a[0][0] + a[1][0], a[0][1] + a[1][1]]  # row 0 += row 1
        s = [[r0, r1 - r0] for r0, r1 in s]
    for p in (0, 1):
        if a[p][p] < 0:  # negate row p
            for row in s:
                row[p] = -row[p]
    return s, [abs(a[0][0]), abs(a[1][1])], t


@functools.lru_cache(maxsize=None)
def _smith_grid(pm):
    """(S, diag, T, S^{-1}, T^{-1}) for the canonical orderings."""
    s, diag, t = _smith_ints(pm.entries)
    s_arr = np.array(s, dtype=np.int64)
    t_arr = np.array(t, dtype=np.int64)
    d_arr = np.array(diag, dtype=np.int64)
    # Invariants are cheap for a 2 x 2 matrix; verify unconditionally.
    assert np.array_equal(s_arr @ np.diag(d_arr) @ t_arr, pm.entries)
    assert abs(_int_det(s)) == 1 and abs(_int_det(t)) == 1
    assert diag[0] > 0 and diag[1] % diag[0] == 0
    s_inv = np.array(_adjugate(s), dtype=np.int64) * _int_det(s)  # det is +-1
    t_inv = np.array(_adjugate(t), dtype=np.int64) * _int_det(t)
    for arr in (s_arr, t_arr, d_arr, s_inv, t_inv):
        arr.setflags(write=False)
    return s_arr, d_arr, t_arr, s_inv, t_inv


def _box_enumeration(diag):
    """All integer pairs in range(d1) x range(d2), C-order, as an (m, 2) array."""
    return np.indices(tuple(int(x) for x in diag), dtype=np.int64).reshape(2, -1).T


def _canonical_points(pm, start, stop):
    """(z, numerators, points) of the points of P(M) whose canonical
    indices lie in range(start, stop), as Pattern holds them.

    The canonical order enumerates the Smith grid in C order: index i is
    grid point j = (i // d2, i % d2), and z = M y reduces S j.  So a block
    of the pattern is computed without the rest of it.
    """
    s_arr, diag = _smith_grid(pm)[:2]
    j = np.empty((stop - start, 2), dtype=np.int64)
    np.divmod(np.arange(start, stop, dtype=np.int64), diag[1], out=(j[:, 0], j[:, 1]))
    z = reduce_point(pm, j @ s_arr.T)
    # M^{-1} z = adj(M) z / det(M), with |adj(M) z| <= m / 2 for a reduced
    # z: exact in int64, where frac_coordinates' bound for any vector
    # can refuse large entries
    adj = np.array(_adjugate(pm.entries.tolist()), dtype=np.int64)
    num = z @ (adj.T if pm.det > 0 else -adj.T)
    return z, num, num / float(pm.m)


class Pattern:
    """Ordered pattern P(M): points y with M y integer, reduced into the square.

    Attributes
    ----------
    matrix : PatternMatrix
    z : (m, 2) int64, canonical integer coordinates z = M y
    points : (m, 2) float64, the points y themselves
    numerators, denominator : exact rationals, y = numerators / denominator
    """

    def __init__(self, pm):
        self.matrix = pm
        _, diag, _, s_inv, _ = _smith_grid(pm)
        self._diag = diag
        self._strides = np.array([diag[1], 1])  # C-order index on the Smith grid
        self._s_inv = s_inv
        self.z, self.numerators, self.points = _canonical_points(pm, 0, pm.m)
        self.denominator = pm.m
        for arr in (self.z, self.numerators, self.points):
            arr.setflags(write=False)

    def __len__(self):
        return self.matrix.m

    def index(self, z):
        """Indices of integer coordinates z (any representatives), vectorised."""
        z = np.asarray(z, dtype=np.int64)
        return np.mod(z @ self._s_inv.T, self._diag) @ self._strides


class GeneratingSet:
    """Ordered generating set G(M^T): canonical integer frequencies."""

    def __init__(self, pm):
        self.matrix = pm
        s_arr, diag, t_arr, s_inv, t_inv = _smith_grid(pm)
        self._diag = diag
        self._strides = np.array([diag[1], 1])  # C-order index on the Smith grid
        self._t_inv = t_inv
        i = _box_enumeration(diag)
        self.freqs = reduce_mod(pm, i @ t_arr)
        self.freqs.setflags(write=False)

    def __len__(self):
        return self.matrix.m

    def index(self, k):
        """Indices of frequencies k (any representatives mod M^T), vectorised."""
        k = np.asarray(k, dtype=np.int64)
        return np.mod(k @ self._t_inv, self._diag) @ self._strides


def _require_exact_reductions(m_mat):
    """ValueError unless the reductions behind the canonical sets of M stay
    in int64, decided in O(1) before any set of size m is built.

    Pattern and GeneratingSet reduce the Smith-grid vectors j S^T and i T
    through frac_coordinates, and the canonical vectors (entries at most
    half an absolute row sum of M or M^T) are reduced again downstream; the
    largest entry of a Smith-grid vector sits at a corner of the grid.
    """
    pm = as_pattern_matrix(m_mat)
    s_arr, diag, t_arr, _, _ = _smith_grid(pm)
    last = [int(d) - 1 for d in diag]
    for a, basis in ((pm.entries, s_arr.T.tolist()), (pm.mt, t_arr.tolist())):
        corner = max(sum(i * abs(row[c]) for i, row in zip(last, basis)) for c in (0, 1))
        canonical = max(sum(map(abs, row)) for row in a.tolist()) // 2
        if not _reduces_in_int64(*_inverse_parts(a), max(corner, canonical)):
            raise ValueError(
                f"pattern matrix {pm.entries.tolist()} has entries too large for exact "
                "int64 reductions"
            )


def pattern_points(m_mat):
    """The pattern P(M) in its canonical (Smith coordinate) ordering.

    Built on every call and cached nowhere, so a pattern lives only as
    long as its caller holds it.
    """
    return Pattern(as_pattern_matrix(m_mat))


def generating_set(m_mat):
    """The generating set G(M^T) in its canonical ordering, built on every
    call like pattern_points."""
    return GeneratingSet(as_pattern_matrix(m_mat))
