"""Benchmark geometries, reference solutions and error metrics.

Two microstructure families are provided: a three-phase assembly of two
confocal ellipses in a matrix, and a two-phase layered medium (with one
phase, a homogeneous cell).  Both hold their phases as (3, 3) Mandel
stiffness matrices and are sampled pointwise on a pattern: each pattern
point gets the phase it falls in, with no voxel averaging.  Each geometry
names the phases of exact rational points (phases_at) and lists their
stiffnesses (stiffness_by_phase); stiffness_field samples any geometry on
P(M), a block of points at a time, as a StiffnessField, which the solvers
take as it is.  The layered medium has an exact effective tensor from the
interface conditions, which serves as the reference for convergence
studies.
"""

import dataclasses
import math

import numpy as np

from .errors import InvalidGeometry, PatternMismatch, ShapeMismatch, ValidationError
from .green import strain_basis
from .lattice import _blocks, _canonical_points, _smith_grid, as_pattern_matrix, refinement
from .solver import StiffnessField, effective_action
from .tensor import as_mandel_stiffness, isotropic_stiffness, require_elliptic

__all__ = [
    "DEFAULT_CORE_MATERIAL",
    "DEFAULT_COATING_MATERIAL",
    "DEFAULT_MATRIX_MATERIAL",
    "HashinGeometry",
    "LaminateGeometry",
    "rotation_matrix",
    "stiffness_field",
    "rasterize_hashin",
    "laminate_effective_oracle",
    "summed_action",
    "error_metrics",
    "restrict_field",
]

# (young, poisson) of the coated inclusion's phases by default: a soft core,
# a stiff coating and a mildly stiff matrix halfway between their moduli
DEFAULT_CORE_MATERIAL = (1.0, 0.3)
DEFAULT_COATING_MATERIAL = (10.0, 0.3)
DEFAULT_MATRIX_MATERIAL = (5.0, 0.3)


def _isotropic_default(pair):
    return dataclasses.field(default_factory=lambda: isotropic_stiffness(*pair))


def rotation_matrix(degrees):
    """Plane rotation by `degrees`, exact for multiples of 90.

    The quarter-turn part is split off as a signed permutation so that
    rotating a geometry by an extra 90 degrees permutes sampled phase maps
    without any floating point drift.
    """
    q, r = divmod(float(degrees), 90.0)
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    base = np.linalg.matrix_power(quarter, int(q) % 4)
    if r == 0.0:
        return base
    t = math.radians(r)
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return base @ rot


@dataclasses.dataclass(eq=False)
class HashinGeometry:
    """Two confocal ellipses (core plus coating) embedded in a matrix.

    The core has semi-axes (c1, c2); the coating boundary is the confocal
    ellipse with squared semi-axes (c1^2 + rho_outer, c2^2 + rho_outer).
    Both are rotated by `rotation_degrees` about the cell centre.  The
    three phases are (3, 3) Mandel stiffness matrices (ShapeMismatch
    otherwise), so anisotropic phases can be benchmarked; by default they
    are isotropic, from the (young, poisson) pairs DEFAULT_CORE_MATERIAL,
    DEFAULT_COATING_MATERIAL and DEFAULT_MATRIX_MATERIAL.  The outer
    ellipse should fit inside the unit cell (largest semi-axis below 1/2),
    otherwise the periodic images overlap.
    """

    c1: float = 0.05
    c2: float = 0.35
    rho_outer: float = 0.09
    rotation_degrees: float = 60.0
    core_material: np.ndarray = _isotropic_default(DEFAULT_CORE_MATERIAL)
    coating_material: np.ndarray = _isotropic_default(DEFAULT_COATING_MATERIAL)
    matrix_material: np.ndarray = _isotropic_default(DEFAULT_MATRIX_MATERIAL)

    def __post_init__(self):
        if not (0.0 < self.c1 < self.c2):
            raise InvalidGeometry(
                f"semi-axes must satisfy 0 < c1 < c2, got c1={self.c1}, c2={self.c2}",
                ("c1", "c2"),
            )
        if not (self.rho_outer > 0.0):
            raise InvalidGeometry(f"rho_outer must be positive, got {self.rho_outer}", "rho_outer")
        self.core_material = as_mandel_stiffness(self.core_material)
        self.coating_material = as_mandel_stiffness(self.coating_material)
        self.matrix_material = as_mandel_stiffness(self.matrix_material)

    def phase_of(self, points):
        """Phase index per point: 0 core, 1 coating, 2 matrix."""
        x = np.atleast_2d(np.asarray(points, dtype=float))
        x = x @ rotation_matrix(self.rotation_degrees)
        core = (x[:, 0] / self.c1) ** 2 + (x[:, 1] / self.c2) ** 2
        outer = x[:, 0] ** 2 / (self.c1**2 + self.rho_outer)
        outer = outer + x[:, 1] ** 2 / (self.c2**2 + self.rho_outer)
        return np.where(core <= 1.0, 0, np.where(outer <= 1.0, 1, 2)).astype(np.int8)

    def phases_at(self, numerators, denominator):
        """Phase codes of the points numerators / denominator, (n, 2) int."""
        return self.phase_of(numerators / float(denominator))

    def stiffness_by_phase(self):
        """(3, 3, 3) stack indexed by phase code."""
        return np.stack([self.core_material, self.coating_material, self.matrix_material])


@dataclasses.dataclass(eq=False)
class LaminateGeometry:
    """Two-phase layered medium, layers orthogonal to a lattice direction.

    `normal` is an integer direction; phase 1 occupies the slab where the
    layer coordinate (n . y wrapped into [-1/2, 1/2)) lies in
    [-1/2, -1/2 + f1).  volume_fraction = 1 keeps only phase 1, which is
    how a homogeneous cell is sampled.  Materials are (3, 3) Mandel
    stiffness matrices (ShapeMismatch otherwise); anisotropic layers are
    allowed, the effective tensor below handles them.
    """

    material_1: np.ndarray
    material_2: np.ndarray
    normal: tuple = (1, 0)
    volume_fraction: float = 0.5

    def __post_init__(self):
        self.material_1 = as_mandel_stiffness(self.material_1)
        self.material_2 = as_mandel_stiffness(self.material_2)
        normal = np.asarray(self.normal)
        if normal.shape != (2,) or not np.issubdtype(normal.dtype, np.integer):
            raise InvalidGeometry(f"normal must be 2 integers, got {self.normal!r}", "normal")
        if not normal.any():
            raise InvalidGeometry("normal must be nonzero", "normal")
        self.normal = tuple(int(v) for v in normal)
        if not (0.0 < self.volume_fraction <= 1.0):
            raise InvalidGeometry(
                f"volume fraction must lie in (0, 1], got {self.volume_fraction}",
                "volume_fraction",
            )

    def phases_at(self, numerators, denominator):
        """Phase codes of the points numerators / denominator, (n, 2) int:
        0 for phase 1, 1 for phase 2.

        The layer coordinate is evaluated in exact integer arithmetic, so the
        half-open slab boundary never flickers: with f1 = 1/2 and M = 4 I the
        normal e1 splits the 16 points exactly 8 / 8.
        """
        nvec = np.asarray(self.normal, dtype=np.int64)
        # n . y = t / den exactly; shift by 1/2 and wrap into [0, 1).
        t = numerators @ nvec
        den = int(denominator)
        u = np.mod(2 * t + den, 2 * den)
        return np.where(u < self.volume_fraction * (2 * den), 0, 1).astype(np.int8)

    def stiffness_by_phase(self):
        """(2, 3, 3) stack indexed by phase code."""
        return np.stack([self.material_1, self.material_2])


def stiffness_field(m_mat, geom):
    """A geometry sampled on P(M), as a StiffnessField.

    Its phase codes (m,) are geom.phases_at of the pattern points in
    canonical order, a block of points at a time, and its table
    geom.stiffness_by_phase(); a phase that no point samples stays in the
    table (a homogeneous cell carries phase 0 only).
    """
    pm = as_pattern_matrix(m_mat)
    phases = np.empty(pm.m, np.int8)
    for points in _blocks(pm.m):
        phases[points] = geom.phases_at(_canonical_points(pm, points.start, points.stop)[1], pm.m)
    return StiffnessField(geom.stiffness_by_phase(), phases)


def rasterize_hashin(m_mat, geom):
    """(c, phases) of stiffness_field: the phase table gathered at every
    point, a dense stiffness field (m, 3, 3), and the phase codes (m,).

    It stays because the benchmark's output checks (perfbench/checks.py)
    call it and perfbench/probes.py times it by name; the library and the
    command line call stiffness_field.
    """
    f = stiffness_field(m_mat, geom)
    return f.gather(f.stiffness), f.phases


def laminate_effective_oracle(geom):
    """Exact effective stiffness of the layered medium.

    Interface conditions (continuous traction, continuous tangential
    strain) force the strain jump across a layer interface to be of the
    form sym(a (x) n).  For each macroscopic strain this pins the per-phase
    strains down to one small linear solve; averaging the per-phase
    stresses column by column yields the tensor.  Independent of any
    transform-based machinery.
    """
    c1 = geom.material_1
    c2 = geom.material_2
    for name, c in (("phase 1 stiffness", c1), ("phase 2 stiffness", c2)):
        require_elliptic(c, name)
    f1 = geom.volume_fraction
    f2 = 1.0 - f1
    w = strain_basis(np.asarray(geom.normal, dtype=float))
    # Traction continuity: W^T [C1 (e + f2 W a) - C2 (e - f1 W a)] = 0,
    # one column per Mandel basis strain e.
    amix = w.T @ (f2 * c1 + f1 * c2) @ w
    a = np.linalg.solve(amix, w.T @ (c2 - c1))
    jump = w @ a
    e1 = np.eye(3) + f2 * jump
    e2 = np.eye(3) - f1 * jump
    ceff = f1 * c1 @ e1 + f2 * c2 @ e2
    return 0.5 * (ceff + ceff.T)


def _relative_norm(diff, ref):
    num = np.linalg.norm(np.asarray(diff).ravel())
    den = np.linalg.norm(np.asarray(ref).ravel())
    if num == 0.0:
        return 0.0
    if den == 0.0:
        return math.inf
    return float(num / den)


def summed_action(c, field):
    """Sum of C : E over the pattern (no mean, no loading); c is a stiffness
    field as solver.basic_scheme takes it."""
    return len(field) * effective_action(c, field, np.zeros(field.shape[1]))


def error_metrics(solution, reference, c, eps0, ref_effective, mode="mean_total"):
    """Compare a strain field against a reference on the same pattern.

    c is a stiffness field as solver.basic_scheme takes it.  Returns
    (e_eff, e_l2, e_log):

    - e_eff: relative distance of the effective (mean total) stress from
      `ref_effective`.  mode="summed_action" instead compares
      summed_action(c, solution); `ref_effective` must then be produced
      the same way.
    - e_l2: relative l2 distance of the total strain fields.
    - e_log: pointwise log(1 + |e11 - e11~|), returned as a field (m,).
    """
    solution = np.asarray(solution)
    reference = np.asarray(reference)
    if solution.shape != reference.shape:
        raise PatternMismatch(
            f"solution shape {solution.shape} vs reference shape {reference.shape}"
        )
    if solution.ndim != 2:
        raise ShapeMismatch(f"strain fields must be 2-d, got shape {solution.shape}")
    eps0 = np.asarray(eps0)
    ref_effective = np.asarray(ref_effective)
    if mode == "mean_total":
        act = effective_action(c, solution, eps0)
    elif mode == "summed_action":
        act = summed_action(c, solution)
    else:
        raise ValidationError(f"unknown metric mode {mode!r}")
    e_eff = _relative_norm(act - ref_effective, ref_effective)
    e_l2 = _relative_norm(solution - reference, reference + eps0)
    e_log = np.log1p(np.abs(reference[:, 0] - solution[:, 0]))
    return e_eff, e_l2, e_log


def restrict_field(field, fine_mat, coarse_mat):
    """Restrict a field on P(M_fine) to the sub-pattern P(M_coarse).

    Requires M_fine M_coarse^-1 to be integer (the coarse points are then a
    subset of the fine ones); raises PatternMismatch otherwise
    (lattice.refinement).  Works for any trailing field shape.
    """
    fm = as_pattern_matrix(fine_mat)
    cm = as_pattern_matrix(coarse_mat)
    l_int = refinement(fm, cm)
    field = np.asarray(field)
    if field.shape[0] != fm.m:
        raise ShapeMismatch(f"field has {field.shape[0]} rows, fine pattern has {fm.m} points")
    fine = _smith_grid(fm)
    return field[fine.index(_canonical_points(cm, 0, cm.m)[0] @ l_int.T, fine.s_inv.T)]
