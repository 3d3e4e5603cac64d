"""Solvers for the discretised Lippmann-Schwinger equation.

Fields live on the pattern as Mandel vectors per point: at this API
strain-like quantities have shape (m, 3).  A stiffness field is a
StiffnessField, phase codes (m,) and a (p, 3, 3) table of the phases'
Mandel matrices; a plain (m, 3, 3) array is the field with one phase per
point (p = m), taken without a copy, and a single (3, 3) matrix one phase
everywhere.  The coefficients are those of fundamental-interpolant
translates, which equal the point values at 2 pi y, so no basis change
happens anywhere.

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
|z| / |E + eps0| <= tol, and that is what the residual history records
from its first entry on (at E = 0 the denominator is the norm of the
constant field eps0, sqrt(m) |eps0|).
Each iteration costs one Green application and one stiffness product.
Inside the solver the fields are component-major: the seven fields of the
iteration (x, its successor, r, z, p, w and the product q) are C-contiguous
(3, m) buffers, and apply_green receives their (m, 3) transposes, which
the transforms read and write without strides.  C - C0 is stored by its
six unique entries, (6, m) (tensor.symmetric_entries, read from the lower
triangle that the positivity check examines), and multiplied in three
fused rows (tensor.apply_symmetric) through one (m,) scratch plane; its
rows are the phase table's entries gathered by phase, C-contiguous.
These buffers and the Green application's spectral scratch are allocated
once per solve, and every step writes into them: an iteration allocates
no array, on either kind of Green table.  The strain is transposed to
(m, 3) once, at exit.  The CG coefficients come from inner products by
pairwise summation, and |E + eps0| from |E|, sum_y E and |eps0| without
forming the sum.
The run stops at the first iteration whose residual norms are not finite,
which for validated input means the arithmetic overflowed, and keeps the
last finite iterate.

C0 is table.c0, which the table's construction checked, so (C, eps0,
table) poses the problem.  tensor.require_elliptic decides positivity of
C by the batched eigvalsh of ellipticity_bounds over the phases that some
point carries, O(p); a phase no point samples poses nothing and is not
examined, here or by default_reference.

On patterns whose Green table is not even under h -> -h (a Dirichlet box
whose face classes pair unevenly, see kernels.py) the fixed point is complex;
the iteration then runs in complex arithmetic and the report carries the
size of the imaginary part.  Everything downstream treats that honestly
instead of discarding imaginary parts midway.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import Diverged, NotConverged, ShapeMismatch, ValidationError
from .green import apply_green
from .lattice import pattern_points
from .tensor import (
    apply,
    apply_symmetric,
    as_mandel_stiffness,
    isotropic_parts,
    lame_stiffness,
    require_elliptic,
    symmetric_entries,
)

__all__ = [
    "StiffnessField",
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


@dataclass(eq=False)
class StiffnessField:
    """A stiffness field by phase: C(y_i) = stiffness[phases[i]].

    stiffness is the (p, 3, 3) Mandel matrices of the phases and phases the
    integer code (m,) of each point.  phases None is one phase per point,
    p = m: a dense (m, 3, 3) field, held as given.  ShapeMismatch for a
    wrong shape, ValidationError for a code outside range(p).
    """

    stiffness: np.ndarray
    phases: np.ndarray | None = None

    def __post_init__(self):
        self.stiffness = np.asarray(self.stiffness, dtype=float)
        if self.stiffness.ndim != 3 or self.stiffness.shape[1:] != (3, 3):
            raise ShapeMismatch(f"phase stiffnesses must be (p, 3, 3), got {self.stiffness.shape}")
        if self.phases is None:
            return
        self.phases = np.asarray(self.phases)
        if self.phases.ndim != 1 or not np.issubdtype(self.phases.dtype, np.integer):
            raise ShapeMismatch(
                f"phase codes must be (m,) integers, got {self.phases.dtype} {self.phases.shape}"
            )
        if len(self.phases) and not 0 <= self.phases.min() <= self.phases.max() < len(self.stiffness):
            raise ValidationError(f"phase codes must lie in range({len(self.stiffness)})")

    @property
    def m(self):
        """The number of points."""
        return len(self.stiffness if self.phases is None else self.phases)

    def gather(self, per_phase, axis=0):
        """Per-phase values (phase along axis) taken at every point, C-contiguous."""
        return per_phase if self.phases is None else np.take(per_phase, self.phases, axis=axis)

    def dense(self):
        """C(y) at every point, (m, 3, 3)."""
        return self.gather(self.stiffness)

    def present(self):
        """The stiffnesses of the phases that some point carries, (q, 3, 3)."""
        if self.phases is None:
            return self.stiffness
        carried = np.bincount(self.phases, minlength=len(self.stiffness)) > 0
        return self.stiffness if carried.all() else self.stiffness[carried]


def _as_stiffness_field(c, m=None):
    """c as a StiffnessField, of m points unless m is None.

    A StiffnessField passes as it is, an (m, 3, 3) array is one phase per
    point and a (3, 3) matrix one phase at every point (at one point when m
    is None).  ShapeMismatch for any other shape or number of points.
    """
    if not isinstance(c, StiffnessField):
        c = np.asarray(c, dtype=float)
        if c.shape == (3, 3):
            c = StiffnessField(c[None], None if m is None else np.zeros(m, np.int8))
        elif c.ndim == 3:
            c = StiffnessField(c)
        else:
            raise ShapeMismatch(f"stiffness field must be (m, 3, 3) or (3, 3), got {c.shape}")
    if m is not None and c.m != m:
        raise ShapeMismatch(f"stiffness field must have {m} points, got {c.m}")
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


def _total_norm(e, eps0):
    """|e + eps0| of a (3, m) field e, without forming the sum.

    eps0 is real, so |e + eps0|^2 = |e|^2 + 2 eps0 . Re(sum_y e) + m |eps0|^2.
    """
    cross = float(eps0 @ e.sum(axis=1).real)
    square = np.vdot(e, e).real + 2.0 * cross + e.shape[1] * float(eps0 @ eps0)
    return math.sqrt(max(square, 0.0))


def _inner(a, b, scratch):
    """Re <a, b> of two (3, m) fields by numpy's pairwise summation.

    scratch is a float64 plane as long as a row of a.view(float64).  The
    CG coefficients come from these sums; BLAS dot products of the same
    fields are an order of magnitude less accurate, enough to show at the
    rounding floor of exactly solved cells.
    """
    total = np.float64(0.0)  # numpy scalars: x / 0 is inf, as the solver expects
    for ak, bk in zip(a.view(np.float64), b.view(np.float64)):
        np.multiply(ak, bk, out=scratch)
        total += scratch.sum()
    return total


def _cg_iteration(dc, eps0, table, tol, max_iter):
    """CG preconditioned by Green_p: (strain (3, m), LS residual history, stop reason).

    dc holds the six unique entries of C - C0, (6, m).  r is the residual
    of (Green_p^{-1} + C - C0) x = -(C - C0) eps0, z = Green_p r, p the
    search direction and w = Green_p^{-1} p.  Each entry of the history
    costs one Green application.  Every field lives in a buffer allocated
    here, before the first iteration; x is replaced only by a finite
    iterate.
    """
    m = table.matrix.m
    # a table that is not even makes z complex: then all of them are
    dtype = np.float64 if table.even_table else np.complex128
    x, x_next, r, z, p, w, q = (np.zeros((3, m), dtype) for _ in range(7))
    plane = np.empty(m, dtype)
    real_plane = plane.view(np.float64)
    work = table.workspace()
    history = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        apply_symmetric(dc, -eps0[:, None], r, plane)
        apply_green(table, r.T, out=z.T, work=work)
        np.copyto(p, z)
        np.copyto(w, r)
        rz = _inner(r, z, real_plane)
        rel = _relative(_field_norm(z), _total_norm(x, eps0))
        while rel is not None:
            history.append(rel)
            if rel <= tol:
                return x, history, "converged"
            if len(history) == max_iter:
                return x, history, "max_iter"
            apply_symmetric(dc, p, q, plane)
            q += w
            alpha = rz / _inner(p, q, real_plane)
            q *= alpha
            r -= q
            apply_green(table, r.T, out=z.T, work=work)
            np.multiply(alpha, p, out=x_next)  # p != 0 here, so a non-finite alpha shows in x_next
            x_next += x
            rel = _relative(_field_norm(z), _total_norm(x_next, eps0))
            if rel is None:
                break
            x, x_next = x_next, x
            rz, rz_old = _inner(r, z, real_plane), rz
            beta = rz / rz_old
            p *= beta
            p += z
            w *= beta
            w += r
    return x, history, "diverged"


def _solve_inputs(c, eps0, table):
    """(c, eps0) of one cell problem on table, as basic_scheme takes them.

    c becomes a StiffnessField of m points (see _as_stiffness_field).
    Raises ShapeMismatch for a wrong shape, ValidationError unless eps0 is
    finite.
    """
    c = _as_stiffness_field(c, table.matrix.m)
    eps0 = np.asarray(eps0, dtype=float)
    if eps0.shape != (3,):
        raise ShapeMismatch(f"macroscopic strain must be (3,), got {eps0.shape}")
    if not np.all(np.isfinite(eps0)):
        raise ValidationError("macroscopic strain must be finite")
    return c, eps0


def basic_scheme(c, eps0, table, tol=1e-10, max_iter=5000):
    """Solve the cell problem by Green-preconditioned conjugate gradients.

    c is the stiffness field, a StiffnessField or an (m, 3, 3) or (3, 3)
    array; eps0 the macroscopic strain as a Mandel vector and table the
    periodised Green operator, whose c0 is the reference.  Positivity is
    checked on the phases that some point carries, and C - C0 is formed
    per phase and gathered by phase code into the (6, m) rows that CG
    multiplies by.  The run stops when the relative LS residual is at
    most tol (see the module docstring).  The name is the paper's for its
    fixed-point method; it stays because perfbench times every solve by
    the span `solver:basic_scheme`, so a rename belongs with a change to
    the benchmark.  Raises ValidationError unless tol is finite and
    positive, max_iter an integer >= 1 and eps0 finite; NonElliptic if a
    phase that some point carries is not symmetric positive definite;
    Diverged(iterations, report) at the first non-finite residual norm and
    NotConverged(iterations, report) when max_iter runs out.
    """
    start = time.perf_counter()
    c, eps0 = _solve_inputs(c, eps0, table)
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError("tolerance must be finite and positive")
    if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValidationError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    require_elliptic(c.present(), "stiffness field")
    # the lower triangle: the solver applies the matrix that eigvalsh reads
    dc = symmetric_entries(np.swapaxes(c.stiffness, -1, -2))
    dc -= symmetric_entries(table.c0)[:, None]
    dc = c.gather(dc, axis=1)  # np.take: C-contiguous rows, unlike dc[:, phases]
    strain, history, stop = _cg_iteration(dc, eps0, table, tol, max_iter)
    del dc  # before effective_action gathers C(y)
    strain = strain.T.copy()
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
    """l2 residual of the fixed-point form, E + Green_p (C - C0):(E + eps0).

    The inputs are validated as basic_scheme validates them.  c0 must be
    table.c0 (ValidationError otherwise) and poses nothing; it stays only
    because perfbench's output check calls this with it.
    """
    pm = table.matrix
    strain = np.asarray(strain)
    if strain.shape != (pm.m, 3):
        raise ShapeMismatch(f"expected {(pm.m, 3)}, got {strain.shape}")
    if not np.allclose(as_mandel_stiffness(c0), table.c0, rtol=1e-12, atol=1e-12):
        raise ValidationError("reference stiffness differs from the table's")
    c, eps0 = _solve_inputs(c, eps0, table)
    tau = apply(c.gather(c.stiffness - table.c0), strain + eps0)
    return _field_norm(strain + apply_green(table, tau))


def _exact_mean(values):
    """Column means via compensated summation (exact for constant columns).

    math.fsum is correctly rounded, so the container it reads does not
    change the result: it reads each column as a list of Python floats,
    which is faster than iterating over a strided numpy column.
    """
    values = np.asarray(values)
    m = values.shape[0]
    if np.iscomplexobj(values):
        return np.array(
            [
                complex(math.fsum(col.real.tolist()), math.fsum(col.imag.tolist())) / m
                for col in values.T
            ]
        )
    return np.array([math.fsum(col.tolist()) / m for col in values.T])


def effective_action(c, strain, eps0):
    """Discrete mean stress (1/m) sum_y C(y):(E_y + eps0), Mandel vector.

    c is a stiffness field as basic_scheme takes it; C(y) is gathered at
    every point for the sum.
    """
    strain = np.asarray(strain)
    if strain.ndim != 2 or strain.shape[1] != 3:
        raise ShapeMismatch(f"strain field must be (m, 3), got shape {strain.shape}")
    c = _as_stiffness_field(c, strain.shape[0])
    eps0 = np.asarray(eps0)
    if eps0.shape != (3,):
        raise ShapeMismatch(f"macroscopic strain must be (3,), got {eps0.shape}")
    return _exact_mean(apply(c.dense(), strain + eps0))


def effective_tensor(c, table, tol=1e-10, max_iter=5000):
    """Column-by-column effective stiffness: one solve per Mandel basis strain.

    Returns (tensor, asymmetry) where the tensor is the symmetrised real
    matrix of effective actions and asymmetry = |A - A^T| / |A| before
    symmetrisation.  On an even table the actions are real.  On a table
    that is not even they carry a genuine imaginary part, which is
    dropped (each solve reports its own imag fraction).
    """
    columns = [basic_scheme(c, eps0, table, tol, max_iter).effective_action for eps0 in np.eye(3)]
    raw = np.real(np.stack(columns, axis=1))
    asymmetry = float(np.linalg.norm(raw - raw.T) / max(np.linalg.norm(raw), 1e-300))
    return 0.5 * (raw + raw.T), asymmetry


def default_reference(c):
    """Isotropic reference from the midpoint of the pointwise Lame ranges.

    c is a stiffness field as basic_scheme takes it.  Projects each phase
    that some point carries onto its isotropic part and takes lambda0, mu0
    as the arithmetic mean of the min and max.  Conjugate gradients
    converge for any symmetric positive definite reference, so it sets
    only the conditioning; no contraction is needed.
    """
    lams, mus = isotropic_parts(_as_stiffness_field(c).present())
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


def _write_atomic(path, chunks):
    """Write an iterable of byte chunks to path via a temporary sibling and an
    atomic rename.

    The chunks are consumed while the file is written, so a generator
    streams.  If producing or writing a chunk fails, the temporary is
    removed and path is left as it was.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# rows per formatting template in _write_csv: bounds the temporary strings
_CSV_BLOCK_ROWS = 4096


def _csv_blocks(header, columns):
    """Encoded CSV text, block by block: the header line, then rows."""
    row = []
    for col in columns:
        width = 1 if col.ndim == 1 else col.shape[1]
        row += ["%s" if col.dtype == object else "%.17g"] * width
    row = ",".join(row) + "\n"
    yield f"{','.join(header)}\n".encode("ascii")
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        part = np.column_stack([col[start : start + _CSV_BLOCK_ROWS] for col in columns])
        yield ((row * len(part)) % tuple(part.ravel().tolist())).encode("ascii")


def _write_csv(path, header, columns):
    """CSV of %.17g numbers under a header line, written atomically.

    The columns (each (n,) or (n, k)) are stacked block by block, and each
    block of rows is formatted by one template: the same bytes as
    formatting every value on its own, in less than half the time.  A
    column of dtype object holds its text already (see _formatted_once).
    The blocks are formatted as the file is written, one at a time.
    """
    _write_atomic(path, _csv_blocks(header, [np.asarray(col) for col in columns]))


def _formatted_once(column):
    """The %.17g text of a float column (n,) as an object array, each
    distinct value formatted once.

    A pattern coordinate column takes at most d_d values, the last Smith
    divisor (512 at 512²), since d_d y is an integer vector.
    Values are told apart by their bits, so -0.0 keeps its sign.
    """
    column = np.asarray(column, dtype=np.float64)
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse]


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
    columns = [*map(_formatted_once, pattern.points.T), strain.real]
    if np.iscomplexobj(strain) and np.max(np.abs(strain.imag)) > 0.0:
        header += ["imag_11", "imag_22", "imag_12"]
        columns.append(strain.imag)
    _write_csv(path, header, columns)
