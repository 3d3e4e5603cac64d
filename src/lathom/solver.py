"""Solvers for the discretised Lippmann-Schwinger equation.

Fields live on the pattern as Mandel vectors per point: at this API
strain-like quantities have shape (m, 3).  A stiffness field is a
StiffnessField, phase codes (m,) and a (p, 3, 3) table of the phases'
Mandel matrices; a plain (m, 3, 3) array is the field with one phase per
point, codes arange(m), and a single (3, 3) matrix one phase everywhere.
The coefficients are those of fundamental-interpolant translates, which
equal the point values at 2 pi y, so no basis change happens anywhere.

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
Inside the solver the fields are component-major: the six fields of the
iteration (x, r, z, p, w and the product q) are C-contiguous (3, m)
buffers, and apply_green receives their (m, 3) transposes, which the
transforms read and write without strides.  q is dead from the moment r
has taken it, so the Green application writes its spectrum into q's
memory, and q then receives the next iterate, which swaps with x; x and q
are therefore stored at spectrum size ((3,) + the table's grid, complex),
which exceeds a real (3, m) field by at most 48 d1 bytes on a half
spectrum.  The Green workspace holds the product's three planes and one
scratch plane, which between applications also serves the inner products.
C - C0 is stored by phase as the six unique entries of each phase's
matrix, (6, p) (tensor.symmetric_entries, read from the lower triangle
that the positivity check examines), and multiplied in three fused rows
(tensor.apply_symmetric) a block of points at a time: the rows are
gathered by phase code into block-sized scratch, a row that is one number
at every phase is broadcast, and rows equal at every phase are gathered
once (_PhaseProduct).  The mean stress and the LS residual multiply by
the same product, on rows of C and of C - C0.
These buffers are allocated once per solve, and every step writes into
them: an iteration allocates no array, on either kind of Green table.  At
512², real, they are 37.8 MB of fields, 8.4 MB of workspace and 0.7 MB of
block scratch.  The strain is transposed to (m, 3) once, at exit.  The CG
coefficients come from inner products by pairwise summation, and
|E + eps0| from |E|, sum_y E and |eps0| without forming the sum.
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
from .lattice import _canonical_points, as_pattern_matrix
from .tensor import (
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
    integer code (m,) of each point.  ShapeMismatch for a wrong shape,
    ValidationError for a code outside range(p).
    """

    stiffness: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        self.stiffness = np.asarray(self.stiffness, dtype=float)
        if self.stiffness.ndim != 3 or self.stiffness.shape[1:] != (3, 3):
            raise ShapeMismatch(f"phase stiffnesses must be (p, 3, 3), got {self.stiffness.shape}")
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
        return len(self.phases)

    def gather(self, per_phase, axis=0):
        """Per-phase values (phase along axis) taken at every point, C-contiguous."""
        return np.take(per_phase, self.phases, axis=axis)

    def present(self):
        """The stiffnesses of the phases that some point carries, (q, 3, 3)."""
        carried = np.bincount(self.phases, minlength=len(self.stiffness)) > 0
        return self.stiffness if carried.all() else self.stiffness[carried]


def _as_stiffness_field(c, m=None):
    """c as a StiffnessField, of m points unless m is None.

    A StiffnessField passes as it is, an (m, 3, 3) array takes the codes
    arange(m), one phase per point, and a (3, 3) matrix zero codes, one
    phase at every point (at one point when m is None).  ShapeMismatch for
    any other shape or number of points.
    """
    if not isinstance(c, StiffnessField):
        c = np.asarray(c, dtype=float)
        if c.shape == (3, 3):
            c = StiffnessField(c[None], np.zeros(1 if m is None else m, np.int8))
        elif c.ndim == 3:
            c = StiffnessField(c, np.arange(len(c)))
        else:
            raise ShapeMismatch(f"stiffness field must be (m, 3, 3) or (3, 3), got {c.shape}")
    if m is not None and c.m != m:
        raise ShapeMismatch(f"stiffness field must have {m} points, got {c.m}")
    return c


def _entry_rows(stiffness, c0=None):
    """The six unique entries (6, n) of Mandel matrices (n, 3, 3), or of them
    minus c0, read from the lower triangle that the positivity check reads."""
    rows = symmetric_entries(np.swapaxes(stiffness, -1, -2))
    if c0 is not None:
        rows -= symmetric_entries(c0)[:, None]
    return rows


# points per block of _PhaseProduct, whose gathered rows so stay block-sized
_POINT_BLOCK = 1 << 14


class _PhaseProduct:
    """The solver's one stiffness product: a field by phase times (3, m)
    fields, a block of points at a time.

    rows (6, p) are the six unique entries of the phases' matrices
    (_entry_rows) and phases the (m,) codes.  blocks() gathers the rows by
    phase code, one block of points at a time, into block-sized scratch
    allocated here, so a product holds no (6, m) array and allocates no
    array per call.  A row with the same bits at every phase (the (0, 2)
    and (1, 2) entries of isotropic phases are zero) is that number,
    broadcast; a row equal to an earlier one at every phase shares its
    gathered block.  The products are bit for bit those of the (6, m)
    rows gathered at every point.
    """

    def __init__(self, rows, phases, dtype):
        self._phases = phases
        self._rows = rows
        bits = rows.view(np.int64)
        # per entry: its number, broadcast, or the slot of its gathered row
        self._gathered_rows, self._plan = [], []
        for k, row in enumerate(bits):
            if (row == row[0]).all():
                self._plan.append(rows[k, :1])
                continue
            first = next((j for j in self._gathered_rows if (bits[j] == row).all()), k)
            if first == k:
                self._gathered_rows.append(k)
            self._plan.append(self._gathered_rows.index(first))
        size = min(_POINT_BLOCK, len(phases))
        self._index = np.empty(size, np.intp)
        self._gathered = np.empty((len(self._gathered_rows), size))
        self._scratch = np.empty(size, dtype)
        self._held = None  # the block whose rows _gathered holds

    def blocks(self):
        """(points, entries, scratch) of each block: a slice of the points,
        the six rows there as tensor.apply_symmetric takes them, and one
        scratch plane of the product's dtype."""
        size = len(self._index)
        for start in range(0, len(self._phases), size):
            points = slice(start, start + size)
            n = min(size, len(self._phases) - start)
            index, gathered = self._index[:n], self._gathered[:, :n]
            if start != self._held:  # a field of one block is gathered once
                # as intp: np.take would convert int8 codes into a fresh array
                np.copyto(index, self._phases[points])
                for row, source in zip(gathered, self._gathered_rows):
                    # the codes lie in range(p); mode="clip" writes into row unbuffered
                    np.take(self._rows[source], index, out=row, mode="clip")
                self._held = start
            entries = [gathered[e] if isinstance(e, int) else e for e in self._plan]
            yield points, entries, self._scratch[:n]

    def apply(self, e, out):
        """out = C e for a (3, m) field out and a (3, m) field or (3, 1)
        vector e; returns out."""
        for points, entries, scratch in self.blocks():
            apply_symmetric(entries, e[:, points] if e.shape[1] > 1 else e, out[:, points], scratch)
        return out


def _stress_rows(c, strain, eps0, c0=None):
    """C(y):(E_y + eps0), or (C(y) - c0):(E_y + eps0), component-major
    (3, m): the solver's product, a block of points at a time."""
    dtype = np.result_type(strain, eps0)
    out = np.empty((3, c.m), dtype)
    product = _PhaseProduct(_entry_rows(c.stiffness, c0), c.phases, dtype)
    for points, entries, scratch in product.blocks():
        total = np.add(strain[points].T, eps0[:, None], order="C")
        apply_symmetric(entries, total, out[:, points], scratch)
    return out


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


def _field_and_spectrum(table, dtype):
    """A zero (3, m) field of dtype and a spectrum for apply_green over the
    same memory: (3,) + the table's grid, complex128, never smaller than
    the field (a half spectrum has d2 // 2 + 1 >= d2 / 2 complex columns)."""
    spectrum = np.zeros((3,) + table.entries.shape[1:], np.complex128)
    return spectrum.reshape(-1).view(dtype)[: 3 * table.matrix.m].reshape(3, -1), spectrum


def _cg_iteration(rows, phases, eps0, table, tol, max_iter):
    """CG preconditioned by Green_p: (strain (3, m), LS residual history, stop reason).

    rows (6, p) hold the six unique entries of the phases' C - C0 and
    phases the (m,) codes.  r is the residual of
    (Green_p^{-1} + C - C0) x = -(C - C0) eps0, z = Green_p r, p the search
    direction and w = Green_p^{-1} p; q = (C - C0) p + w is dead once r
    has taken it, so it lends its memory to the Green application's
    spectrum and then receives the next iterate, which swaps with x.  Each
    entry of the history costs one Green application.  Every field lives
    in a buffer allocated here, before the first iteration, and x is
    replaced only by a finite iterate.
    """
    m = table.matrix.m
    # a table that is not even makes z complex: then all of them are
    dtype = np.float64 if table.even_table else np.complex128
    # x and q swap, so both are stored at spectrum size
    (x, x_spectrum), (q, q_spectrum) = (_field_and_spectrum(table, dtype) for _ in range(2))
    r, z, p, w = (np.zeros((3, m), dtype) for _ in range(4))
    product = _PhaseProduct(rows, phases, dtype)
    work = table.workspace()
    # the workspace's scratch plane is free between Green applications
    real_plane = work[3].reshape(-1).view(np.float64)[: r[0].view(np.float64).size]
    history = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        product.apply(-eps0[:, None], r)
        apply_green(table, r.T, out=z.T, work=work, spectrum=q_spectrum)
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
            product.apply(p, q)
            q += w
            alpha = rz / _inner(p, q, real_plane)
            q *= alpha
            r -= q
            apply_green(table, r.T, out=z.T, work=work, spectrum=q_spectrum)
            np.multiply(alpha, p, out=q)  # p != 0 here, so a non-finite alpha shows in q
            q += x
            rel = _relative(_field_norm(z), _total_norm(q, eps0))
            if rel is None:
                break
            x, x_spectrum, q, q_spectrum = q, q_spectrum, x, x_spectrum
            rz, rz_old = _inner(r, z, real_plane), rz
            beta = rz / rz_old
            p *= beta
            p += z
            w *= beta
            w += r
    return x, history, "diverged"


def _as_load(eps0):
    """eps0 as a float Mandel vector (3,), the one load check of the solver
    and the mean stress: ShapeMismatch for another shape, ValidationError
    unless it is finite."""
    eps0 = np.asarray(eps0, dtype=float)
    if eps0.shape != (3,):
        raise ShapeMismatch(f"macroscopic strain must be (3,), got {eps0.shape}")
    if not np.all(np.isfinite(eps0)):
        raise ValidationError("macroscopic strain must be finite")
    return eps0


def basic_scheme(c, eps0, table, tol=1e-10, max_iter=5000):
    """Solve the cell problem by Green-preconditioned conjugate gradients.

    c is the stiffness field, a StiffnessField or an (m, 3, 3) or (3, 3)
    array; eps0 the macroscopic strain as a Mandel vector and table the
    periodised Green operator, whose c0 is the reference.  Positivity is
    checked on the phases that some point carries, and C - C0 is formed
    per phase, (6, p), and gathered by phase code a block of points at a
    time as CG multiplies by it.  The run stops when the relative LS
    residual is at most tol (see the module docstring).  The name is the
    paper's for its fixed-point method; it stays because perfbench times
    every solve by the span `solver:basic_scheme`, so a rename belongs
    with a change to the benchmark.  Raises ValidationError unless tol is
    finite and positive, max_iter an integer >= 1 and eps0 finite;
    NonElliptic if a phase that some point carries is not symmetric
    positive definite; Diverged(iterations, report) at the first
    non-finite residual norm and NotConverged(iterations, report) when
    max_iter runs out.
    """
    start = time.perf_counter()
    c, eps0 = _as_stiffness_field(c, table.matrix.m), _as_load(eps0)
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError("tolerance must be finite and positive")
    if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValidationError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    require_elliptic(c.present(), "stiffness field")
    rows = _entry_rows(c.stiffness, table.c0)
    strain, history, stop = _cg_iteration(rows, c.phases, eps0, table, tol, max_iter)
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

    The shapes and eps0 are validated as basic_scheme validates them, but
    no stiffness is checked for positivity.  c0 must be table.c0
    (ValidationError otherwise) and poses nothing; it stays only because
    perfbench's output check calls this with it.
    """
    pm = table.matrix
    strain = np.asarray(strain)
    if strain.shape != (pm.m, 3):
        raise ShapeMismatch(f"expected {(pm.m, 3)}, got {strain.shape}")
    if not np.allclose(as_mandel_stiffness(c0), table.c0, rtol=1e-12, atol=1e-12):
        raise ValidationError("reference stiffness differs from the table's")
    c, eps0 = _as_stiffness_field(c, pm.m), _as_load(eps0)
    tau = _stress_rows(c, strain, eps0, table.c0)
    return _field_norm(strain + apply_green(table, tau.T))


def _exact_mean(rows):
    """Row means of a (3, m) field by compensated summation (exact for
    constant rows).

    math.fsum is correctly rounded, so the container it reads does not
    change the result: it reads each row as a list of Python floats.
    """
    m = rows.shape[1]
    if np.iscomplexobj(rows):
        parts = [(math.fsum(row.real.tolist()), math.fsum(row.imag.tolist())) for row in rows]
        return np.array([complex(re, im) / m for re, im in parts])
    return np.array([math.fsum(row.tolist()) / m for row in rows])


def effective_action(c, strain, eps0):
    """Discrete mean stress (1/m) sum_y C(y):(E_y + eps0), Mandel vector.

    c is a stiffness field as basic_scheme takes it, and C(y) multiplies by
    the solver's six-entry rows.  eps0 is checked as basic_scheme checks it
    (ValidationError unless finite).
    """
    strain = np.asarray(strain)
    if strain.ndim != 2 or strain.shape[1] != 3:
        raise ShapeMismatch(f"strain field must be (m, 3), got shape {strain.shape}")
    c = _as_stiffness_field(c, strain.shape[0])
    eps0 = _as_load(eps0)
    return _exact_mean(_stress_rows(c, strain, eps0))


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


def _csv_blocks(header, blocks):
    """Encoded CSV text: the header line, then each block of rows, given as
    its columns (each (n,) or (n, k))."""
    yield f"{','.join(header)}\n".encode("ascii")
    for columns in blocks:
        row = []
        for col in columns:
            width = 1 if col.ndim == 1 else col.shape[1]
            row += ["%s" if col.dtype == object else "%.17g"] * width
        part = np.column_stack(columns)
        yield ((",".join(row) + "\n") * len(part) % tuple(part.ravel().tolist())).encode("ascii")


def _write_csv(path, header, columns):
    """CSV of %.17g numbers under a header line, written atomically.

    The columns (each (n,) or (n, k)) are stacked block by block, and each
    block of rows is formatted by one template: the same bytes as
    formatting every value on its own, in less than half the time.  A
    column of dtype object holds its text already (see _texts).  The
    blocks are formatted as the file is written, one at a time.
    """
    columns = [np.asarray(col) for col in columns]
    blocks = (
        [col[start : start + _CSV_BLOCK_ROWS] for col in columns]
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS)
    )
    _write_atomic(path, _csv_blocks(header, blocks))


def _texts(column, known):
    """The %.17g text of a float column (n,) as an object array.

    known maps the bits of each value formatted so far to its text, and
    gains the column's new values, so a caller that passes the same dict
    block after block formats each distinct value once: a pattern
    coordinate takes at most d_d values, the last Smith divisor (512 at
    512²), since d_d y is an integer vector.  Values are told apart by
    their bits, so -0.0 keeps its sign.
    """
    column = np.asarray(column, dtype=np.float64)
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    keys = bits.tolist()
    for key, value in zip(keys, bits.view(np.float64).tolist()):
        if key not in known:
            known[key] = "%.17g" % value
    return np.array([known[key] for key in keys], dtype=object)[inverse]


def write_strain_csv(path, m_mat, strain):
    """Per-point CSV: y1, y2, eps_11, eps_22, eps_12 (Mandel component).

    Values are printed with %.17g so rewriting the same field is
    byte-identical, and the file is written atomically.  Complex strain
    appends imag_11, imag_22, imag_12.  The points are computed a block of
    rows at a time, so the write holds no pattern-sized array of its own.
    """
    pm = as_pattern_matrix(m_mat)
    strain = np.asarray(strain)
    if strain.shape[0] != pm.m:
        raise ShapeMismatch(f"{strain.shape[0]} rows for {pm.m} points")
    header = ["y1", "y2", "eps_11", "eps_22", "eps_12"]
    parts = [strain.real]
    if np.iscomplexobj(strain) and np.max(np.abs(strain.imag)) > 0.0:
        header += ["imag_11", "imag_22", "imag_12"]
        parts.append(strain.imag)
    known = {}

    def blocks():
        for start in range(0, pm.m, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, pm.m)
            points = _canonical_points(pm, start, stop)[2]
            yield [*(_texts(col, known) for col in points.T), *(part[start:stop] for part in parts)]

    _write_atomic(path, _csv_blocks(header, blocks()))
