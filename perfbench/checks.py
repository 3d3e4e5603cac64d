"""Output checks, run after timing stops; a failed check fails the command.

Every command is checked on what it wrote:

* `solve`: the report says converged; strain.csv lists the pattern points in
  canonical order; the relative Lippmann-Schwinger residual of the written
  strain, recomputed through the public API, is within RESIDUAL_FACTOR * tol;
  the reported effective action (its real part) matches the one recomputed from the strain.
* `effective`: the tensor is symmetric, positive definite, and lies between
  the Reuss and Voigt averages of the pointwise stiffness (Loewner order).
* At the default seed and full size the effective action or tensor also
  matches the values pinned in reference.json to PIN_FACTOR * tol.

Each check raises CheckFailed with the reason.
"""

from __future__ import annotations

import json
import os

import numpy as np

SOLVER_TOL = 1e-10  # the manifests keep lathom's default tolerance
# A converged iterate's LS residual is one further Cauchy step, at most tol
# times the contraction factor; the factor 10 leaves room for roundoff.
RESIDUAL_FACTOR = 10.0
# Pinned values differ from a fresh solve by the fixed-point error, which is
# tol / (1 - contraction) and stays below 1e3 tol for these workloads.
PIN_FACTOR = 1e3
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class CheckFailed(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _cell_problem(manifest):
    """(stiffness field, reference stiffness, Green table) as the CLI builds them."""
    from lathom import coefficient_table, orthonormalize, periodised_green_table
    from lathom import default_reference, rasterize_hashin

    c, _ = rasterize_hashin(manifest.matrix, manifest.geometry)
    c0 = default_reference(c)
    table = periodised_green_table(c0, orthonormalize(coefficient_table(manifest.kernel_spec())))
    return c, c0, table


def _report_action(path):
    with open(path) as handle:
        lines = handle.read().splitlines()
    _require(["converged", "true"] in [line.split() for line in lines], "report does not say converged")
    action = next((ln for ln in lines if ln.startswith("effective action ")), None)
    _require(action is not None, "report has no effective action")
    return np.array([float(x) for x in action[len("effective action "):].split(",")])


def _pinned(workload, seed, smoke):
    if smoke:
        return None
    with open(REFERENCE_PATH) as handle:
        pins = json.load(handle)
    pin = pins.get(workload)
    if pin is None or pin["seed"] != seed:
        return None
    return np.array(pin["value"])


def _relative(a, b):
    return float(np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b))


def check_solve(manifest, outdir, workload, seed, smoke):
    from lathom import effective_action, pattern_points, residual_ls

    action = _report_action(os.path.join(outdir, "report.txt"))
    data = np.loadtxt(os.path.join(outdir, "strain.csv"), delimiter=",", skiprows=1, ndmin=2)
    points = pattern_points(manifest.matrix).points
    # y1, y2, three real strain components, and three imaginary ones when
    # the field is complex (tables that are not even)
    _require(data.shape in ((len(points), 5), (len(points), 8)), f"strain.csv has shape {data.shape}")
    _require(np.array_equal(data[:, :2], points), "strain.csv points are not the pattern")
    strain = data[:, 2:5] if data.shape[1] == 5 else data[:, 2:5] + 1j * data[:, 5:8]
    c, c0, table = _cell_problem(manifest)
    eps0 = manifest.eps0
    scale = float(np.linalg.norm(strain + eps0))
    residual = residual_ls(strain, c, c0, eps0, table) / scale
    _require(
        residual <= RESIDUAL_FACTOR * SOLVER_TOL,
        f"relative LS residual {residual:.3e} above {RESIDUAL_FACTOR * SOLVER_TOL:.1e}",
    )
    recomputed = np.real(effective_action(c, strain, eps0))
    _require(
        _relative(action, recomputed) <= 1e-10,
        "reported effective action differs from the one of strain.csv",
    )
    pin = _pinned(workload, seed, smoke)
    if pin is not None:
        err = _relative(recomputed, pin)
        _require(err <= PIN_FACTOR * SOLVER_TOL, f"effective action off the pinned one by {err:.3e}")
    return {"residual_ls": residual}


def check_effective(manifest, outdir, workload, seed, smoke):
    from lathom import rasterize_hashin

    tensor = np.loadtxt(os.path.join(outdir, "effective.csv"), delimiter=",", skiprows=1)
    _require(tensor.shape == (3, 3), f"effective.csv has shape {tensor.shape}")
    size = float(np.linalg.norm(tensor))
    _require(np.allclose(tensor, tensor.T, rtol=0.0, atol=1e-12 * size), "tensor not symmetric")
    _require(float(np.linalg.eigvalsh(tensor)[0]) > 0.0, "tensor not positive definite")
    c, _ = rasterize_hashin(manifest.matrix, manifest.geometry)
    voigt = c.mean(axis=0)
    reuss = np.linalg.inv(np.linalg.inv(c).mean(axis=0))
    slack = -1e-9 * size
    _require(float(np.linalg.eigvalsh(voigt - tensor)[0]) >= slack, "tensor above Voigt")
    _require(float(np.linalg.eigvalsh(tensor - reuss)[0]) >= slack, "tensor below Reuss")
    pin = _pinned(workload, seed, smoke)
    if pin is not None:
        err = _relative(tensor, pin)
        _require(err <= PIN_FACTOR * SOLVER_TOL, f"tensor off the pinned one by {err:.3e}")
    return {}


CHECKS = {"solve": check_solve, "effective": check_effective}
