"""Property tests: lattice algebra, the fast transform, Green boundedness
and the solver's fixed point.

Patterns, kernels and reference stiffnesses are drawn by hypothesis (see
conftest.py for the profile); each property is exact or holds to a stated
floating-point tolerance.
"""

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from lathom.green import periodised_green_table
from lathom.kernels import KernelSpec, coefficient_table, orthonormalize, three_direction_set
from lathom.lattice import PatternMatrix, frac_coordinates, in_symmetric_box, reduce_mod
from lathom.pattern_fft import pattern_dft, pattern_fft, smith_normal_form
from lathom.solver import basic_scheme, default_reference, residual_ls
from lathom.tensor import isotropic_stiffness

from oracles import periodised_basic_scheme, regular_pattern


def patterns(dims=(2, 3), span=6, max_m=400):
    """Regular integer pattern matrices with entries in [-span, span]."""

    def of_dim(d):
        entries = hnp.arrays(np.int64, (d, d), elements=st.integers(-span, span))
        return entries.map(lambda a: regular_pattern(a, max_m)).filter(
            lambda pm: pm is not None
        )

    return st.sampled_from(dims).flatmap(of_dim)


def kernel_specs(pm):
    """Dirichlet, dlVP and box-spline (radius <= 4) kernels on pattern pm."""
    slopes = st.floats(0.0, 0.5)
    return st.one_of(
        st.just(KernelSpec.dirichlet(pm)),
        st.tuples(slopes, slopes).map(lambda alpha: KernelSpec.dlvp(pm, alpha)),
        st.builds(
            lambda pqr, radius: KernelSpec.box_spline(pm, three_direction_set(*pqr), radius),
            st.sampled_from([(1, 1, 0), (1, 1, 1), (2, 2, 0), (2, 2, 1), (2, 1, 1)]),
            st.integers(1, 4),
        ),
    )


def spd_mandel():
    """Symmetric positive definite 3 x 3 Mandel stiffness A A^T + I/2."""
    return hnp.arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0)).map(
        lambda a: a @ a.T + 0.5 * np.eye(3)
    )


@given(pm=patterns(span=8, max_m=3000))
def test_smith_form_invariants(pm):
    sd = smith_normal_form(pm)
    assert np.array_equal(sd.s @ np.diag(sd.d) @ sd.t, pm.entries)
    # S and T are unimodular: exact integer determinant +-1
    assert PatternMatrix(sd.s).m == 1
    assert PatternMatrix(sd.t).m == 1
    assert all(a > 0 and b % a == 0 for a, b in zip(sd.d[:-1], sd.d[1:]))
    assert int(np.prod(sd.d)) == pm.m


@given(pm=patterns(), data=st.data())
def test_reduce_mod_is_exact(pm, data):
    k = data.draw(
        hnp.arrays(np.int64, (8, pm.dim), elements=st.integers(-(10**6), 10**6)), label="k"
    )
    h = reduce_mod(pm, k)
    assert np.array_equal(reduce_mod(pm, h), h)  # idempotent
    w, n = frac_coordinates(pm.mt, k - h)
    assert np.all(w % n == 0)  # h - k lies in M^T Z^d
    assert np.all(in_symmetric_box(pm.mt, h))


@given(pm=patterns(max_m=300), seed=st.integers(0, 2**32 - 1))
def test_pattern_fft_matches_dft(pm, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=pm.m) + 1j * rng.normal(size=pm.m)
    fast, direct = pattern_fft(pm, a), pattern_dft(pm, a)
    assert np.linalg.norm(fast - direct) <= 1e-12 * np.linalg.norm(direct)


@given(data=st.data(), c0=spd_mandel())
def test_green_classes_are_bounded_by_one(data, c0):
    # every class of C0^1/2 Gp C0^1/2 is a convex combination of orthogonal
    # projections, so its spectrum lies in [0, 1]; Dirichlet classes are
    # projections themselves
    pm = data.draw(patterns(dims=(2,), max_m=64), label="pattern")
    spec = data.draw(kernel_specs(pm), label="kernel")
    table = periodised_green_table(c0, orthonormalize(coefficient_table(spec)))
    w, v = np.linalg.eigh(c0)
    root = (v * np.sqrt(w)) @ v.T
    vals = np.linalg.eigvalsh(root @ table.values @ root)
    assert vals.min() >= -1e-12
    assert vals.max() <= 1.0 + 1e-12
    if spec.kind == "dirichlet":
        assert np.all(np.minimum(np.abs(vals), np.abs(vals - 1.0)) <= 1e-12)


@given(data=st.data())
def test_cg_solves_the_basic_scheme_fixed_point(data):
    # Green_p is bounded for every kernel, so CG reaches the Basic Scheme's
    # fixed point for Dirichlet, dlVP and box tables alike
    pm = data.draw(patterns(dims=(2,), max_m=64), label="pattern")
    spec = data.draw(kernel_specs(pm), label="kernel")
    contrast = data.draw(st.floats(1.0, 10.0), label="contrast")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    young = rng.uniform(1.0, contrast, size=pm.m)
    eps0 = rng.normal(size=3)
    c = np.stack([isotropic_stiffness(e, 0.3) for e in young])
    c0 = default_reference(c)
    table = periodised_green_table(c0, orthonormalize(coefficient_table(spec)))
    tol = 1e-10
    strain = basic_scheme(c, c0, eps0, table, tol=tol).strain
    total = np.linalg.norm(strain + eps0)
    assert residual_ls(strain, c, c0, eps0, table) <= 10 * tol * total
    basic_strain, _ = periodised_basic_scheme(c, c0, eps0, table, tol=tol)
    assert np.linalg.norm(strain - basic_strain) <= 1e-8 * total
