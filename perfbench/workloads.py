"""Workload definitions: manifest templates and the draws made from a seed.

Each workload is one `lathom` command on one generated manifest.  The seed
draws the Hashin inclusion's rotation and, for `solve`, a unit macroscopic
strain; everything else is fixed by the template.  The program only ever
sees the rendered manifest text.
"""

from __future__ import annotations

import dataclasses
import math
import random

DEFAULT_SEED = 1


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str  # lathom subcommand
    why: str
    template: str  # manifest text with {rotation} and {eps0} fields
    matrix: str  # full-size pattern matrix, row-major
    smoke_matrix: str  # tiny pattern matrix for the smoke mode

    def manifest(self, seed, smoke=False):
        """Manifest text for this seed; the same seed gives the same text."""
        rotation, eps0 = draw(seed)
        return self.template.format(
            matrix=self.smoke_matrix if smoke else self.matrix,
            rotation=repr(rotation),
            eps0=" ".join(repr(x) for x in eps0),
        )


def draw(seed):
    """(rotation in degrees, unit Mandel load) drawn from the seed."""
    rng = random.Random(seed)
    rotation = round(rng.uniform(0.0, 180.0), 6)
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in v))
    return rotation, [round(x / norm, 12) for x in v]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve_dlvp_512",
            command="solve",
            why=(
                "large dlVP solve (m = 512^2): the Green-apply hot loop and its "
                "FFTs dominate, working set far beyond L2; strain.csv output is large"
            ),
            matrix="512 0 0 512",
            smoke_matrix="16 0 0 16",
            template="""\
[pattern]
matrix = {matrix}

[kernel]
kind = dlvp
alpha = 0.25 0.25

[geometry]
type = hashin
rotation_degrees = {rotation}

[load]
eps0 = {eps0}

[output]
strain_csv = true
""",
        ),
        Workload(
            name="effective_contrast_sheared",
            command="effective",
            why=(
                "3 load cases at coating E = 50 on a sheared pattern (Smith grid "
                "64x256): iteration count and per-call overhead dominate, setup is small"
            ),
            matrix="128 0 64 128",
            smoke_matrix="16 0 8 16",
            template="""\
[pattern]
matrix = {matrix}

[kernel]
kind = dlvp
alpha = 0.25 0.25

[geometry]
type = hashin
rotation_degrees = {rotation}
coating_young = 50

[load]
eps0 = 1 0 0
""",
        ),
        Workload(
            name="box_setup_48",
            command="solve",
            why=(
                "box spline (2,2,0), radius 16 (1089 shifts) at m = 48^2: the Green "
                "and coefficient tables are most of the run, the solve is short"
            ),
            matrix="48 0 0 48",
            smoke_matrix="8 0 0 8",
            template="""\
[pattern]
matrix = {matrix}

[kernel]
kind = box
directions = 2 2 0
radius = 16

[geometry]
type = hashin
rotation_degrees = {rotation}

[load]
eps0 = {eps0}

[output]
strain_csv = true
""",
        ),
    )
}
