"""Pattern-based homogenization of periodic linear elasticity.

Strain fields on the unit cell are expanded in translates of a periodic
kernel over an integer-matrix pattern; the cell problem is solved by
conjugate gradients preconditioned by a per-frequency periodised Green
operator.  Submodules:

- lattice: patterns P(M) of 2 x 2 integer matrices, generating sets,
  congruence arithmetic
- pattern_fft: Smith-form fast Fourier transform on a pattern
- tensor: two-dimensional Mandel layout of strains and stiffnesses
- kernels: Dirichlet / de la Vallee Poussin / box-spline coefficients
- green: periodised Green operator tables
- solver: preconditioned CG, effective stiffness
- bench: benchmark geometries, reference restriction, error metrics
- cli: manifest-driven command line frontend (`lathom`)
"""

from .bench import (
    HashinGeometry,
    LaminateGeometry,
    error_metrics,
    hashin_field,
    laminate_effective_oracle,
    laminate_field,
    nearest_point_grid,
    rasterize_hashin,
    rasterize_laminate,
    restrict_field,
)
from .cli import RunManifest, main, parse_manifest, run, run_selftest
from .errors import LathomError, NotConverged, ParseError, ValidationError
from .green import (
    GreenTable,
    apply_green,
    green_multiplier,
    periodised_green_table,
    strain_basis,
)
from .kernels import (
    CoefficientTable,
    KernelSpec,
    coefficient_table,
    interpolant_coeffs,
    orthonormalize,
    synthesize,
    three_direction_set,
)
from .lattice import Pattern, PatternMatrix, as_pattern_matrix, generating_set, pattern_points
from .pattern_fft import pattern_dft, pattern_fft, pattern_ifft, smith_normal_form
from .solver import (
    SolveReport,
    StiffnessField,
    basic_scheme,
    default_reference,
    effective_action,
    effective_tensor,
    report_summary,
    residual_ls,
)
from .tensor import isotropic_parts, isotropic_stiffness

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # lattice / transform
    "Pattern",
    "PatternMatrix",
    "as_pattern_matrix",
    "generating_set",
    "pattern_points",
    "pattern_dft",
    "pattern_fft",
    "pattern_ifft",
    "smith_normal_form",
    # tensors
    "isotropic_parts",
    "isotropic_stiffness",
    # kernels
    "CoefficientTable",
    "KernelSpec",
    "coefficient_table",
    "interpolant_coeffs",
    "orthonormalize",
    "synthesize",
    "three_direction_set",
    # green
    "GreenTable",
    "apply_green",
    "green_multiplier",
    "periodised_green_table",
    "strain_basis",
    # solver
    "SolveReport",
    "StiffnessField",
    "basic_scheme",
    "default_reference",
    "effective_action",
    "effective_tensor",
    "report_summary",
    "residual_ls",
    # benchmarks
    "HashinGeometry",
    "LaminateGeometry",
    "error_metrics",
    "hashin_field",
    "laminate_effective_oracle",
    "laminate_field",
    "nearest_point_grid",
    "rasterize_hashin",
    "rasterize_laminate",
    "restrict_field",
    # cli
    "RunManifest",
    "main",
    "parse_manifest",
    "run",
    "run_selftest",
    # errors
    "LathomError",
    "NotConverged",
    "ParseError",
    "ValidationError",
]
