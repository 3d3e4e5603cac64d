"""Fixed-point solver for the discretised Lippmann-Schwinger equation.

Fields live on the pattern as Mandel vectors per point: strain-like
quantities have shape (m, n_s), stiffness fields (m, n_s, n_s).  The
coefficients are those of fundamental-interpolant translates, which equal
the point values at 2 pi y, so no basis change happens anywhere.

The Basic Scheme iterates

    E^{n+1} = -Green_p (C - C0) : (E^n + eps0),   E^0 = 0,

and stops on the relative Cauchy criterion
|E^{n+1} - E^n| / |E^{n+1} + eps0| <= tol.  With the reference stiffness
between the pointwise ellipticity bounds this is a contraction, and the
recorded residual history is observed to decrease monotonically (the
report stores the fact rather than enforcing it).  A reference that is
too soft makes the iteration diverge; it stops at the first iteration
whose residual norms are not finite, keeping the last finite iterate.

On patterns whose Green table is not even under h -> -h (strict Dirichlet
box with two-torsion, see green.py) the fixed point is genuinely complex;
the iteration then runs in complex arithmetic and the report carries the
size of the imaginary part.  Everything downstream treats that honestly
instead of discarding imaginary parts midway.
"""

from __future__ import annotations

import math
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
    n_sym,
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
    """Everything a Basic-Scheme run produced."""

    strain: np.ndarray  # (m, n_s) fluctuation coefficients E_y
    iterations: int
    residual_history: list = dataclass_field(default_factory=list)
    effective_action: np.ndarray | None = None
    wall_time: float = 0.0
    converged: bool = False
    monotone: bool = True
    imag_fraction: float = 0.0  # |Im E| / |E|, zero on even tables


def _as_stiffness_field(c, m, n_s):
    c = np.asarray(c, dtype=float)
    if c.shape == (n_s, n_s):
        c = np.broadcast_to(c, (m, n_s, n_s))
    if c.shape != (m, n_s, n_s):
        raise ShapeMismatch(f"stiffness field must be {(m, n_s, n_s)}, got {c.shape}")
    return c


def _field_norm(a):
    return float(np.linalg.norm(a))


def basic_scheme(c, c0, eps0, table, tol=1e-10, max_iter=5000):
    """Run the fixed-point iteration until the Cauchy criterion holds.

    c is the pointwise stiffness (m, n_s, n_s), c0 the reference the table
    was built with, eps0 the macroscopic strain as a Mandel vector.
    Raises NonElliptic if the stiffness field is not uniformly positive,
    Diverged(iterations, report) at the first non-finite residual norm and
    NotConverged(iterations, report) when max_iter runs out.
    """
    start = time.perf_counter()
    pm = table.matrix
    n_s = n_sym(pm.dim)
    c = _as_stiffness_field(c, pm.m, n_s)
    c0 = as_mandel_stiffness(c0, n_s)
    if not np.allclose(c0, table.c0, rtol=1e-12, atol=1e-12):
        raise ValidationError("reference stiffness differs from the table's")
    eps0 = np.asarray(eps0, dtype=float)
    if eps0.shape != (n_s,):
        raise ShapeMismatch(f"macroscopic strain must be ({n_s},), got {eps0.shape}")
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    lower, _ = ellipticity_bounds(c)
    if lower <= 0.0:
        raise NonElliptic(f"stiffness field has lower bound {lower:.3e}")
    dc = c - c0
    strain = np.zeros((pm.m, n_s))
    history = []
    converged = False
    diverged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        tau = apply(dc, strain + eps0)
        new_strain = -apply_green(table, tau)
        with np.errstate(over="ignore", invalid="ignore"):
            num = _field_norm(new_strain - strain)
            den = _field_norm(new_strain + eps0)
        if not (math.isfinite(num) and math.isfinite(den)):
            diverged = True  # keep the previous, finite iterate
            break
        if num == 0.0:
            rel = 0.0
        elif den == 0.0:
            rel = math.inf
        else:
            rel = num / den
        history.append(rel)
        strain = new_strain
        if rel <= tol:
            converged = True
            break
    monotone = all(
        later <= earlier * (1.0 + 1e-12)
        for earlier, later in zip(history[1:], history[2:])
    )
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
        converged=converged,
        monotone=monotone,
        imag_fraction=imag,
    )
    if diverged:
        raise Diverged(
            iterations, report, f"diverged: non-finite residual at iteration {iterations}"
        )
    if not converged:
        raise NotConverged(iterations, report)
    return report


def residual_ls(strain, c, c0, eps0, table):
    """l2 residual of the fixed-point form, E + Green_p (C - C0):(E + eps0)."""
    pm = table.matrix
    n_s = n_sym(pm.dim)
    strain = np.asarray(strain)
    if strain.shape != (pm.m, n_s):
        raise ShapeMismatch(f"expected {(pm.m, n_s)}, got {strain.shape}")
    c = _as_stiffness_field(c, pm.m, n_s)
    c0 = as_mandel_stiffness(c0, n_s)
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
    if strain.ndim != 2:
        raise ShapeMismatch(f"strain field must be 2-d, got shape {strain.shape}")
    m, n_s = strain.shape
    c = _as_stiffness_field(c, m, n_s)
    eps0 = np.asarray(eps0)
    if eps0.shape != (n_s,):
        raise ShapeMismatch(f"macroscopic strain must be ({n_s},), got {eps0.shape}")
    return _exact_mean(apply(c, strain + eps0))


def effective_tensor(c, c0, table, tol=1e-10, max_iter=5000):
    """Column-by-column effective stiffness: one solve per Mandel basis strain.

    Returns (tensor, asymmetry) where the tensor is the symmetrised real
    matrix of effective actions and asymmetry = |A - A^T| / |A| before
    symmetrisation.  The imaginary residue of the actions is transform
    noise (each solve reports its own imag fraction) and is dropped.
    """
    n_s = n_sym(table.matrix.dim)
    columns = []
    for a in range(n_s):
        eps0 = np.zeros(n_s)
        eps0[a] = 1.0
        report = basic_scheme(c, c0, eps0, table, tol=tol, max_iter=max_iter)
        columns.append(report.effective_action)
    raw = np.real(np.stack(columns, axis=1))
    asymmetry = float(np.linalg.norm(raw - raw.T) / max(np.linalg.norm(raw), 1e-300))
    return 0.5 * (raw + raw.T), asymmetry


def default_reference(c):
    """Isotropic reference from the midpoint of the pointwise Lame ranges.

    Projects each point onto its isotropic part and takes lambda0, mu0 as
    the arithmetic mean of the pointwise min and max.  Standard Basic
    Scheme practice; keeps the contraction factor below one for elliptic
    fields.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim == 2:
        c = c[None, :, :]
    lams, mus = isotropic_parts(c)
    lam0 = 0.5 * (float(np.min(lams)) + float(np.max(lams)))
    mu0 = 0.5 * (float(np.min(mus)) + float(np.max(mus)))
    return lame_stiffness(lam0, mu0, d={3: 2, 6: 3}[c.shape[-1]])


def report_summary(report):
    """Small fixed-format text block for logs and the command line."""
    lines = [
        f"iterations      {report.iterations}",
        f"converged       {str(report.converged).lower()}",
        f"cauchy residual {report.residual_history[-1]:.6e}"
        if report.residual_history
        else "cauchy residual n/a",
        f"monotone        {str(report.monotone).lower()}",
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
