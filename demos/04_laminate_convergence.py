"""Two-phase laminate against the closed interface-condition answer.

An axis-aligned laminate has a one-dimensional exact solution: traction
continuity across the layers pins the strain jump, which gives the
effective stiffness in closed form.  The discrete solver reproduces it
at every resolution because the piecewise-constant solution already
lies in the trial space; the table below shows errors at the rounding
floor rather than a mesh-convergence slope.
"""

import numpy as np

from lathom import (
    KernelSpec,
    LaminateGeometry,
    coefficient_table,
    default_reference,
    effective_tensor,
    isotropic_stiffness,
    laminate_effective_oracle,
    periodised_green_table,
    rasterize_laminate,
)

geom = LaminateGeometry(
    isotropic_stiffness(1.0, 0.3),
    isotropic_stiffness(10.0, 0.3),
    normal=(1, 0),
    volume_fraction=0.5,
)
oracle = laminate_effective_oracle(geom)
print("interface-condition effective tensor:")
print(np.array_str(oracle, precision=6))

for n in (16, 32, 64):
    mat = [[n, 0], [0, n]]
    c, _ = rasterize_laminate(mat, geom)
    c0 = default_reference(c)
    table = periodised_green_table(c0, coefficient_table(KernelSpec.dirichlet(mat)))
    eff, asym = effective_tensor(c, c0, table)
    err = np.linalg.norm(eff - oracle) / np.linalg.norm(oracle)
    print(f"m = {n}^2: relative error {err:.3e}   asymmetry {asym:.1e}")

# the 1111 entry is the harmonic mean of the plane-strain moduli here
# (proportional phases), a classical sanity anchor
from lathom.tensor import lame_parameters

p1 = sum(lame_parameters(1.0, 0.3)[i] * (1, 2)[i] for i in range(2))
p2 = sum(lame_parameters(10.0, 0.3)[i] * (1, 2)[i] for i in range(2))
harmonic = 2.0 / (1.0 / p1 + 1.0 / p2)
print("C_eff[0,0] vs harmonic mean:", oracle[0, 0] - harmonic)
