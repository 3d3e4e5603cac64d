"""The three shipped kernel families and their coefficient tables.

Each kernel is stored as Fourier coefficients on the generating set plus
a few lattice shifts per class.  Orthonormalisation rescales every class
so the translates become an orthonormal basis: m * [|c|^2]_h = 1 (the
Green build needs no such step; it weights each class by its share).  The
dlVP and box-spline spectra are even, so their tables hold one class of
each pair +-h (the half grid); the Dirichlet table holds all of them.
"""

import numpy as np

from lathom import (
    KernelSpec,
    coefficient_table,
    interpolant_coeffs,
    orthonormalize,
    synthesize,
    three_direction_set,
)
from lathom.kernels import coeff
from lathom.lattice import generating_set, pattern_points

mat = [[8, 0], [0, 8]]
specs = {
    "dirichlet": KernelSpec.dirichlet(mat),
    "dlvp(0.25, 0.25)": KernelSpec.dlvp(mat, (0.25, 0.25)),
    "box (2,2,0)": KernelSpec.box_spline(mat, three_direction_set(2, 2, 0), radius=16),
}

for name, spec in specs.items():
    table = coefficient_table(spec)
    sums = table.class_sums()  # of the raw table: orthonormalize scales it in place
    orthonormalize(table)
    print(f"{name:18s} shifts={len(table.shifts):4d}  "
          f"class sums flat: {np.ptp(sums):.2e}  "
          f"m*bracket-1: {np.max(np.abs(64 * table.bracket - 1)):.2e}")

# the fundamental interpolant is the cardinal function of the space: it
# is 1 at the origin and 0 at the other pattern points
spec = KernelSpec.dlvp(mat, (0.4, 0.1))
table = coefficient_table(spec)
lagrange = interpolant_coeffs(np.full(len(table.freqs), 1.0 / 64), table)
# the synthesis runs over every class: class -h takes the expansion
# coefficient of its stored partner h, and the coefficients come from coeff
gen = generating_set(mat)
stored = np.empty(64, dtype=int)
stored[gen.index(-table.freqs)] = stored[gen.index(table.freqs)] = np.arange(len(table.freqs))
points = pattern_points(mat).points
freqs = gen.freqs[:, None, :] + table.shifts @ np.array(mat)
full_coeffs = (lagrange[stored, None] * coeff(spec, freqs)).ravel()
values = synthesize(freqs.reshape(-1, 2), full_coeffs, 2.0 * np.pi * points)
print("interpolant at origin :", values[0])
print("worst off-origin value:", np.max(np.abs(values[1:])))

# trapezoid windows trade interpolation sharpness for smoothness; the
# alpha = 0 corner is exactly the flat indicator (dirichlet) spectrum,
# compared class by class on the classes the dlVP table holds
flat = coefficient_table(KernelSpec.dirichlet(mat))
corner = coefficient_table(KernelSpec.dlvp(mat, (0.0, 0.0)))
agree = np.max(np.abs(flat.class_sums()[gen.index(corner.freqs)] - corner.class_sums()))
print("alpha=0 window vs flat indicator class sums:", agree)
