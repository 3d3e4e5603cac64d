"""Solvers for the discretised Lippmann-Schwinger equation.

Fields live on the pattern as Mandel vectors per point: strain-like
quantities have shape (m, 3), stiffness fields (m, 3, 3).  The
coefficients are those of fundamental-interpolant translates, which equal
the point values at 2 pi y, so no basis change happens anywhere.

The strain fluctuation E solves

    E + Green_p (C - C0) : (E + eps0) = 0,

and `basic_scheme` solves it by conjugate gradients on
(Green_p^{-1} + C - C0) E = -(C - C0) eps0 over the range of Green_p,
preconditioned by Green_p.  Each class of C0^1/2 Green_p C0^1/2 has its
spectrum in [0, 1] for every kernel, so on that range Green_p^{-1} >= C0
and the operator is at least C: symmetric positive definite for any
symmetric positive definite C and C0.  Green_p^{-1} is never formed;
w = Green_p^{-1} p follows the recurrence w <- r + beta w.  The
preconditioned residual z = Green_p r is exactly minus the left-hand side
above, so the run stops when the relative LS residual
|z| / |E + eps0| <= tol, and that is what the residual history records.
Each iteration costs one Green application and one stiffness product.  The
run stops at the first iteration whose residual norms are not finite,
which for validated input means the arithmetic overflowed, and keeps the
last finite iterate.

On patterns whose Green table is not even under h -> -h (strict Dirichlet
box with two-torsion, see green.py) the fixed point is genuinely complex;
the iteration then runs in complex arithmetic and the report carries the
size of the imaginary part.  Everything downstream treats that honestly
instead of discarding imaginary parts midway.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import Diverged, NonElliptic, NotConverged, ShapeMismatch, ValidationError
from .green import apply_green
from .lattice import pattern_points
from .tensor import (
    apply,
    as_mandel_stiffness,
    ellipticity_bounds,
    isotropic_parts,
    lame_stiffness,
)

__all__ = [
    "SolveReport",
    "basic_scheme",
    "residual_ls",
    "effective_action",
    "effective_tensor",
    "default_reference",
    "report_summary",
    "write_strain_csv",
]


@dataclass
class SolveReport:
    """Everything a solver run produced."""

    strain: np.ndarray  # (m, 3) fluctuation coefficients E_y
    iterations: int
    residual_history: list = dataclass_field(default_factory=list)
    effective_action: np.ndarray | None = None
    wall_time: float = 0.0
    converged: bool = False
    imag_fraction: float = 0.0  # |Im E| / |E|, zero on even tables


def _as_stiffness_field(c, m):
    c = np.asarray(c, dtype=float)
    if c.shape == (3, 3):
        c = np.broadcast_to(c, (m, 3, 3))
    if c.shape != (m, 3, 3):
        raise ShapeMismatch(f"stiffness field must be {(m, 3, 3)}, got {c.shape}")
    return c


def _field_norm(a):
    return float(np.linalg.norm(a))


def _relative(num, den):
    """num / den for residual norms: 0 when num is 0, inf when only den is;
    None when either norm is not finite."""
    if not (math.isfinite(num) and math.isfinite(den)):
        return None
    if num == 0.0:
        return 0.0
    return math.inf if den == 0.0 else num / den


def _cg_iteration(dc, eps0, table, tol, max_iter):
    """CG preconditioned by Green_p: (strain, LS residual history, stop reason).

    r is the residual of (Green_p^{-1} + C - C0) x = -(C - C0) eps0, z =
    Green_p r, p the search direction and w = Green_p^{-1} p.  Each entry
    of the history costs one Green application.  r, p and w are updated in
    place; x is replaced only by a finite iterate.
    """
    r = -apply(dc, eps0)
    z = apply_green(table, r)
    # a table that is not even makes z complex: then all of them are
    x = np.zeros_like(z)
    r = r.astype(z.dtype, copy=False)
    p, w = z, r.copy()
    rz = np.vdot(r, z).real
    history = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rel = _relative(_field_norm(z), _field_norm(eps0))
        while rel is not None:
            history.append(rel)
            if rel <= tol:
                return x, history, "converged"
            if len(history) == max_iter:
                return x, history, "max_iter"
            q = apply(dc, p)
            q += w
            alpha = rz / np.vdot(p, q).real
            q *= alpha
            r -= q
            del q, z  # not alive during the next Green application
            z = apply_green(table, r)
            x_next = alpha * p  # p != 0 here, so a non-finite alpha shows in x_next
            x_next += x
            rel = _relative(_field_norm(z), _field_norm(x_next + eps0))
            if rel is None:
                break
            x = x_next
            rz, rz_old = np.vdot(r, z).real, rz
            beta = rz / rz_old
            p *= beta
            p += z
            w *= beta
            w += r
    return x, history, "diverged"


def basic_scheme(c, c0, eps0, table, tol=1e-10, max_iter=5000):
    """Solve the cell problem by Green-preconditioned conjugate gradients.

    c is the pointwise stiffness (m, 3, 3), c0 the reference the table
    was built with, eps0 the macroscopic strain as a Mandel vector.  The
    run stops when the relative LS residual is at most tol (see the module
    docstring).  The name is the paper's for its fixed-point method; it
    stays because perfbench times every solve by the span
    `solver:basic_scheme`, so a rename belongs with a change to the
    benchmark.  Raises ValidationError unless tol is finite and positive,
    max_iter an integer >= 1 and eps0 finite; NonElliptic if the stiffness
    field is not symmetric and uniformly positive; Diverged(iterations,
    report) at the first non-finite residual norm and
    NotConverged(iterations, report) when max_iter runs out.
    """
    start = time.perf_counter()
    pm = table.matrix
    c = _as_stiffness_field(c, pm.m)
    c0 = as_mandel_stiffness(c0)
    if not np.allclose(c0, table.c0, rtol=1e-12, atol=1e-12):
        raise ValidationError("reference stiffness differs from the table's")
    eps0 = np.asarray(eps0, dtype=float)
    if eps0.shape != (3,):
        raise ShapeMismatch(f"macroscopic strain must be (3,), got {eps0.shape}")
    if not np.all(np.isfinite(eps0)):
        raise ValidationError("macroscopic strain must be finite")
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError("tolerance must be finite and positive")
    if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValidationError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    lower, _ = ellipticity_bounds(c)
    if lower <= 0.0:
        raise NonElliptic(f"stiffness field has lower bound {lower:.3e}")
    strain, history, stop = _cg_iteration(c - c0, eps0, table, tol, max_iter)
    scale = _field_norm(strain)
    imag = 0.0
    if np.iscomplexobj(strain) and scale > 0.0:
        imag = _field_norm(strain.imag) / scale
    report = SolveReport(
        strain=strain,
        iterations=len(history),  # a diverging step is not kept
        residual_history=history,
        effective_action=effective_action(c, strain, eps0),
        wall_time=time.perf_counter() - start,
        converged=stop == "converged",
        imag_fraction=imag,
    )
    if stop == "diverged":
        iterations = len(history) + 1
        raise Diverged(
            iterations, report, f"diverged: non-finite residual at iteration {iterations}"
        )
    if stop == "max_iter":
        raise NotConverged(len(history), report)
    return report


def residual_ls(strain, c, c0, eps0, table):
    """l2 residual of the fixed-point form, E + Green_p (C - C0):(E + eps0)."""
    pm = table.matrix
    strain = np.asarray(strain)
    if strain.shape != (pm.m, 3):
        raise ShapeMismatch(f"expected {(pm.m, 3)}, got {strain.shape}")
    c = _as_stiffness_field(c, pm.m)
    c0 = as_mandel_stiffness(c0)
    eps0 = np.asarray(eps0)
    tau = apply(c - c0, strain + eps0)
    return _field_norm(strain + apply_green(table, tau))


def _exact_mean(values):
    """Column means via compensated summation (exact for constant columns)."""
    values = np.asarray(values)
    m = values.shape[0]
    if np.iscomplexobj(values):
        return np.array(
            [
                complex(math.fsum(col.real), math.fsum(col.imag)) / m
                for col in values.T
            ]
        )
    return np.array([math.fsum(col) / m for col in values.T])


def effective_action(c, strain, eps0):
    """Discrete mean stress (1/m) sum_y C(y):(E_y + eps0), Mandel vector."""
    strain = np.asarray(strain)
    if strain.ndim != 2 or strain.shape[1] != 3:
        raise ShapeMismatch(f"strain field must be (m, 3), got shape {strain.shape}")
    c = _as_stiffness_field(c, strain.shape[0])
    eps0 = np.asarray(eps0)
    if eps0.shape != (3,):
        raise ShapeMismatch(f"macroscopic strain must be (3,), got {eps0.shape}")
    return _exact_mean(apply(c, strain + eps0))


def effective_tensor(c, c0, table, tol=1e-10, max_iter=5000):
    """Column-by-column effective stiffness: one solve per Mandel basis strain.

    Returns (tensor, asymmetry) where the tensor is the symmetrised real
    matrix of effective actions and asymmetry = |A - A^T| / |A| before
    symmetrisation.  The imaginary residue of the actions is transform
    noise (each solve reports its own imag fraction) and is dropped.
    """
    columns = [
        basic_scheme(c, c0, eps0, table, tol, max_iter).effective_action
        for eps0 in np.eye(3)
    ]
    raw = np.real(np.stack(columns, axis=1))
    asymmetry = float(np.linalg.norm(raw - raw.T) / max(np.linalg.norm(raw), 1e-300))
    return 0.5 * (raw + raw.T), asymmetry


def default_reference(c):
    """Isotropic reference from the midpoint of the pointwise Lame ranges.

    Projects each point onto its isotropic part and takes lambda0, mu0 as
    the arithmetic mean of the pointwise min and max.  Conjugate gradients
    converge for any symmetric positive definite reference, so it sets
    only the conditioning; no contraction is needed.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim == 2:
        c = c[None, :, :]
    lams, mus = isotropic_parts(c)
    lam0 = 0.5 * (float(np.min(lams)) + float(np.max(lams)))
    mu0 = 0.5 * (float(np.min(mus)) + float(np.max(mus)))
    return lame_stiffness(lam0, mu0)


def report_summary(report):
    """Small fixed-format text block for logs and the command line."""
    lines = [
        f"iterations      {report.iterations}",
        f"converged       {str(report.converged).lower()}",
        f"ls residual     {report.residual_history[-1]:.6e}"
        if report.residual_history
        else "ls residual     n/a",
        f"imag fraction   {report.imag_fraction:.3e}",
        f"wall time [s]   {report.wall_time:.3f}",
    ]
    if report.effective_action is not None:
        action = ", ".join(f"{x:.12g}" for x in np.real(report.effective_action))
        lines.append(f"effective action {action}")
    return "\n".join(lines) + "\n"


def _write_atomic(path, *chunks):
    """Write byte chunks to path via a temporary sibling and an atomic rename."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.writelines(chunks)
    os.replace(tmp, path)


# rows per formatting template in _write_csv: bounds the temporary strings
_CSV_BLOCK_ROWS = 4096


def _write_csv(path, header, columns):
    """CSV of %.17g numbers under a header line, written atomically.

    The columns are stacked into one float array, and each block of rows is
    formatted by one template: the same bytes as formatting every value on
    its own, in less than half the time.
    """
    data = np.column_stack(columns)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    blocks = [f"{','.join(header)}\n".encode("ascii")]
    for start in range(0, len(data), _CSV_BLOCK_ROWS):
        part = data[start : start + _CSV_BLOCK_ROWS]
        blocks.append(((row * len(part)) % tuple(part.ravel().tolist())).encode("ascii"))
    _write_atomic(path, *blocks)


def write_strain_csv(path, m_mat, strain):
    """Per-point CSV: y1, y2, eps_11, eps_22, eps_12 (Mandel component).

    Values are printed with %.17g so rewriting the same field is
    byte-identical, and the file is written atomically.  Complex strain
    appends imag_11, imag_22, imag_12.
    """
    pattern = pattern_points(m_mat)
    strain = np.asarray(strain)
    if strain.shape[0] != len(pattern):
        raise ShapeMismatch(f"{strain.shape[0]} rows for {len(pattern)} points")
    header = ["y1", "y2", "eps_11", "eps_22", "eps_12"]
    columns = [pattern.points, strain.real]
    if np.iscomplexobj(strain) and np.max(np.abs(strain.imag)) > 0.0:
        header += ["imag_11", "imag_22", "imag_12"]
        columns.append(strain.imag)
    _write_csv(path, header, columns)
