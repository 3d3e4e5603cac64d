"""Coated-inclusion cell: solve, error metrics and raster output.

A rotated elliptic core with a confocal coating sits in an isotropic
matrix.  The script solves the cell problem on 32^2, measures errors
against a 64^2 flat-spectrum reference and writes the phase map plus a
strain heatmap next to this script (demo_out/).
"""

import os

import numpy as np

from lathom import (
    HashinGeometry,
    KernelSpec,
    basic_scheme,
    coefficient_table,
    default_reference,
    effective_action,
    error_metrics,
    nearest_point_grid,
    periodised_green_table,
    restrict_field,
    stiffness_field,
)
from lathom.bench import write_phase_csv, write_phase_pgm
from lathom.cli import emit_heatmap

geom = HashinGeometry()  # isotropic phases: E = 1, 10, 5 and nu = 0.3
eps0 = np.array([1.0, 0.0, 0.0])


def solve(n, spec_of):
    mat = [[n, 0], [0, n]]
    c = stiffness_field(mat, geom)
    c0 = default_reference(c)
    table = periodised_green_table(c0, coefficient_table(spec_of(mat)))
    report = basic_scheme(c, eps0, table)
    return mat, c, c.phases, report


mat_f, c_f, _, ref = solve(64, KernelSpec.dirichlet)
ref_eff = effective_action(c_f, ref.strain, eps0)
print(f"64^2 reference: {ref.iterations} iterations, mean stress {np.real(ref_eff).round(4)}")

mat, c, phases, report = solve(32, KernelSpec.dirichlet)
print(f"32^2 dirichlet: {report.iterations} iterations, wall {report.wall_time:.3f} s")
ref_field = restrict_field(ref.strain, mat_f, mat)
e_eff, e_l2, e_log = error_metrics(report.strain, ref_field, c, eps0, ref_eff)
print(f"e_eff = {e_eff:.4f}   e_l2 = {e_l2:.4f}")

# a trapezoid window on the same pattern: same order of accuracy, the
# fixed-point and weak forms no longer coincide
_, _, _, rep2 = solve(32, lambda m: KernelSpec.dlvp(m, (0.25, 0.0)))
e_eff2, e_l22, _ = error_metrics(rep2.strain, ref_field, c, eps0, ref_eff)
print(f"32^2 dlvp(0.25, 0): e_eff = {e_eff2:.4f}   e_l2 = {e_l22:.4f}")

out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "demo_out")
os.makedirs(out, exist_ok=True)
write_phase_csv(os.path.join(out, "phases.csv"), mat, phases)
write_phase_pgm(os.path.join(out, "phases.pgm"), mat, phases)
emit_heatmap(mat, np.real(report.strain[:, 0] + eps0[0]), "coolwarm",
             os.path.join(out, "eps11.ppm"))
grid = nearest_point_grid(mat)
print(f"wrote phases.csv/.pgm and eps11.ppm ({grid.shape[1]}x{grid.shape[0]}) to {out}")
