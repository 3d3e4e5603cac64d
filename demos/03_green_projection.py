"""The periodised Green operator and when it is a projection.

The Green operator of a constant reference stiffness is a Fourier
multiplier, in closed form a rank-one update of the compliance C0^-1
(homogeneous of degree 0 in the frequency).  Folding it into a pattern
with the squared kernel coefficients gives the discrete operator of the
translate space.  With a flat (dirichlet) spectrum the folded operator
composed with C0 is an orthogonal projection; trapezoid weights break
idempotence by a measurable margin while keeping self-adjointness.
"""

import numpy as np

from lathom import (
    KernelSpec,
    apply_green,
    coefficient_table,
    green_multiplier,
    isotropic_stiffness,
    periodised_green_table,
)

c0 = isotropic_stiffness(2.0, 0.3)

# the multiplier depends on the direction of k only
print("G(1,2) vs G(2,4) :", np.max(np.abs(green_multiplier(c0, [1, 2]) - green_multiplier(c0, [2, 4]))))
print("G(0,0)           :", np.max(np.abs(green_multiplier(c0, [0, 0]))))

mat = [[16, 0], [0, 16]]
rng = np.random.default_rng(5)
g = rng.normal(size=(256, 3))

for name, spec in (
    ("dirichlet", KernelSpec.dirichlet(mat)),
    ("dlvp(0.25, 0.25)", KernelSpec.dlvp(mat, (0.25, 0.25))),
):
    table = periodised_green_table(c0, coefficient_table(spec))
    once = apply_green(table, g @ c0.T)
    twice = apply_green(table, once @ c0.T)
    defect = np.linalg.norm(twice - once) / np.linalg.norm(once)
    d = rng.normal(size=(256, 3))
    left = np.vdot(apply_green(table, g @ c0.T), d)
    right = np.vdot(g, apply_green(table, d) @ c0.T)
    print(f"{name:18s} idempotence defect {defect:.3e}   adjointness gap {abs(left - right):.3e}")

# the table stores the six unique entries of one symmetric matrix per
# frequency class: an even table on the half spectrum of the Smith grid,
# the Dirichlet table on these even divisors on the whole grid
for name, spec in (
    ("dirichlet", KernelSpec.dirichlet(mat)),
    ("dlvp(0.25, 0.25)", KernelSpec.dlvp(mat, (0.25, 0.25))),
):
    table = periodised_green_table(c0, coefficient_table(spec))
    print(f"{name:18s} even {str(table.even_table):5s}   table entries shape {table.entries.shape}")
