"""Discrete Fourier transforms between a pattern P(M) and its spectrum G(M^T).

Spectra are plain complex arrays of length m in generating-set order; no
wrapper type is needed because every downstream consumer does vectorised
arithmetic on them.

The forward transform is a_hat[h] = m^{-1/2} sum_y a[y] exp(-2 pi i h.y),
which is unitary (Parseval).  The fast path exploits the canonical Smith
orderings of lattice.py: with M = S D T, pattern index j and frequency
index i satisfy h.y = sum_l i_l j_l / d_l modulo 1, so the transform is a
plain multidimensional FFT on the cyclic grid of shape diag(D), reached by
reshaping.  pattern_dft is the O(m^2) reference oracle built directly from
the exponential sum with exact rational phases.
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

__all__ = ["SmithDecomposition", "smith_normal_form", "pattern_dft", "pattern_fft", "pattern_ifft"]


@dataclass(frozen=True)
class SmithDecomposition:
    """M = S @ diag(d) @ T with unimodular S, T and d1 | d2 | ... | dd."""

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
    is trustworthy near cube boundaries.  Intended for m up to a few
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


def pattern_fft(m_mat, a):
    """Fast forward transform; accepts trailing component axes on a."""
    pm = as_pattern_matrix(m_mat)
    a = _check_length(pm, a)
    _, diag, _, _, _ = _smith_grid(pm)
    grid = tuple(int(x) for x in diag)
    d = len(grid)
    work = np.asarray(a, dtype=np.complex128).reshape(grid + a.shape[1:])
    out = np.fft.fftn(work, axes=tuple(range(d)))
    out = out.reshape((pm.m,) + a.shape[1:])
    out /= np.sqrt(pm.m)
    return out


def pattern_ifft(m_mat, a_hat):
    """Inverse of pattern_fft."""
    pm = as_pattern_matrix(m_mat)
    a_hat = _check_length(pm, a_hat)
    _, diag, _, _, _ = _smith_grid(pm)
    grid = tuple(int(x) for x in diag)
    d = len(grid)
    work = np.asarray(a_hat, dtype=np.complex128).reshape(grid + a_hat.shape[1:])
    out = np.fft.ifftn(work, axes=tuple(range(d)))
    out = out.reshape((pm.m,) + a_hat.shape[1:])
    out *= np.sqrt(pm.m)
    return out
