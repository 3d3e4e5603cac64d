"""Discrete Fourier transforms between a pattern P(M) and its spectrum G(M^T).

Spectra are plain complex arrays of length m in generating-set order; no
wrapper type is needed because every downstream consumer does vectorised
arithmetic on them.

The forward transform is a_hat[h] = m^{-1/2} sum_y a[y] exp(-2 pi i h.y),
which is unitary (Parseval).  The fast path exploits the canonical Smith
orderings of lattice.py: with M = S D T, pattern index j and frequency
index i satisfy h.y = i_1 j_1 / d1 + i_2 j_2 / d2 modulo 1, so the
transform is a plain two-dimensional FFT on the cyclic d1 x d2 grid,
reached by reshaping.  pattern_dft is the O(m^2) reference oracle built
directly from the exponential sum with exact rational phases.

A real field needs only half of its spectrum: pattern_rfft returns the
classes whose second Smith grid index is at most d2 // 2 (the others are
their complex conjugates), component-major, and pattern_irfft maps such a
half spectrum back to a real field.  All four transforms write through
`out`, so a loop that owns its buffers allocates nothing per transform
(pattern_fft of a complex field).  Fields are (m, ...) at this interface;
the transpose of a component-major (3, m) buffer is such a field, and on
the Smith grid it is a contiguous (3, d1, d2) array, so the transforms
then run without strides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch
from .lattice import (
    PatternMatrix,
    _smith_grid,
    as_pattern_matrix,
    generating_set,
    pattern_points,
)

__all__ = [
    "SmithDecomposition",
    "smith_normal_form",
    "pattern_dft",
    "pattern_fft",
    "pattern_ifft",
    "half_grid",
    "pattern_rfft",
    "pattern_irfft",
]


@dataclass(frozen=True)
class SmithDecomposition:
    """M = S @ diag(d1, d2) @ T with unimodular S, T and d1 | d2."""

    matrix: PatternMatrix
    s: np.ndarray
    d: np.ndarray
    t: np.ndarray

    @property
    def grid(self):
        """Cyclic grid shape used by the fast transform."""
        return tuple(int(x) for x in self.d)


def smith_normal_form(m_mat):
    """Smith decomposition of a regular integer matrix."""
    pm = as_pattern_matrix(m_mat)
    s_arr, diag, t_arr, _, _ = _smith_grid(pm)
    return SmithDecomposition(matrix=pm, s=s_arr, d=diag, t=t_arr)


def _check_length(pm, a):
    a = np.asarray(a)
    if a.shape[0] != pm.m:
        raise LengthMismatch(f"expected leading axis {pm.m}, got {a.shape[0]}")
    return a


def pattern_dft(m_mat, a):
    """O(m^2) reference transform from the literal exponential sum.

    Phases h.y are assembled from exact integer numerators, so the oracle
    is trustworthy near square boundaries.  Intended for m up to a few
    thousand; use pattern_fft for production work.
    """
    pm = as_pattern_matrix(m_mat)
    a = _check_length(pm, a)
    pat = pattern_points(pm)
    gen = generating_set(pm)
    phase_num = gen.freqs @ pat.numerators.T  # (m, m) exact int64
    f_mat = np.exp((-2j * np.pi / pat.denominator) * phase_num)
    out = np.tensordot(f_mat, np.asarray(a, dtype=np.complex128), axes=(1, 0))
    out /= np.sqrt(pm.m)
    return out


def _grid(pm):
    """Cyclic Smith grid diag(D) of a pattern matrix (cached in lattice)."""
    return tuple(int(x) for x in _smith_grid(pm)[1])


def _smith_transform(fftn, m_mat, a, out):
    """Unitary fftn or ifftn on the cyclic Smith grid, trailing axes kept.

    The transform runs in double precision whatever a's dtype (numpy's fft
    follows its input's precision); for a complex128 a the cast is a view.
    out, if given, is a complex128 array of a's shape in any memory layout
    (splitting its leading axis onto the grid is always a view) and
    receives the result; ValueError otherwise.
    """
    pm = as_pattern_matrix(m_mat)
    a = np.asarray(_check_length(pm, a), dtype=np.complex128)
    grid = _grid(pm)
    if out is None:
        out = np.empty(a.shape, dtype=np.complex128)
    elif out.shape != a.shape or out.dtype != np.complex128 or not out.flags.writeable:
        raise ValueError(f"expected a writeable complex128 {a.shape} array for out")
    shape = grid + a.shape[1:]
    fftn(a.reshape(shape), axes=(0, 1), norm="ortho", out=out.reshape(shape))
    return out


def pattern_fft(m_mat, a, out=None):
    """Fast forward transform; accepts trailing component axes on a.

    out, if given, receives the result (see _smith_transform): for a
    complex field the transform then allocates nothing.
    """
    return _smith_transform(np.fft.fftn, m_mat, a, out)


def pattern_ifft(m_mat, a_hat, out=None):
    """Inverse of pattern_fft, with the same out."""
    return _smith_transform(np.fft.ifftn, m_mat, a_hat, out)


def half_grid(m_mat):
    """Shape of a half spectrum: the Smith grid with d2 cut to d2 // 2 + 1."""
    d1, d2 = _grid(as_pattern_matrix(m_mat))
    return d1, d2 // 2 + 1


def _component_grid(pm, a):
    """View of a field a (m, ...) as (...,) + Smith grid, grid axes last."""
    a = _check_length(pm, a)
    return np.moveaxis(a.reshape(_grid(pm) + a.shape[1:]), (0, 1), (-2, -1))


def pattern_rfft(m_mat, a, out=None):
    """Half spectrum of a real field a (m, ...), shape a.shape[1:] + half_grid.

    The unitary rfftn of each component on the Smith grid: entry [..., i]
    is pattern_fft's class with grid index i (C-order), for the indices
    whose second entry is at most d2 // 2.  out, if given, is a complex128
    array of that shape and receives the result.
    """
    pm = as_pattern_matrix(m_mat)
    grid_view = _component_grid(pm, np.asarray(a))
    return np.fft.rfftn(grid_view, axes=(-2, -1), norm="ortho", out=out)


def pattern_irfft(m_mat, a_hat, out=None):
    """Real field (m, ...) of a half spectrum; inverse of pattern_rfft.

    a_hat is overwritten: the transform along the first grid axis runs in
    place, and the one along the second writes the field into out.  out,
    if given, is a writeable float64 array of shape (m,) + a_hat's
    component axes in any memory layout (splitting its leading axis onto
    the grid is always a view); ValueError otherwise.
    """
    pm = as_pattern_matrix(m_mat)
    shape = (pm.m,) + a_hat.shape[:-2]
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.writeable:
        raise ValueError(f"pattern_irfft writes into a writeable float64 {shape} array only")
    np.fft.ifft(a_hat, axis=-2, norm="ortho", out=a_hat)
    np.fft.irfft(a_hat, n=_grid(pm)[1], axis=-1, norm="ortho", out=_component_grid(pm, out))
    return out
