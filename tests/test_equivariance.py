"""Structure-group equivariance oracle.

A member M of r(O(m, C)) preserves g, gt and J, so it maps an h-sphere with
centre z0 and parameters (a, b) onto the h-sphere with centre M z0 and the
same (a, b), and it maps an adapted tangent basis to an adapted basis in
which the shape operator has the same matrix.  Classification and the
h-proper decomposition must therefore commute with M.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from nordenhs.classify import VERDICT_DIM_TOO_SMALL, VERDICT_SPHERE, classify
from nordenhs.core import (
    complex_op_to_real,
    h_proper_decomposition,
    random_complex_orthogonal,
)
from nordenhs.hypersurface import SampleStack, make_h_sphere, make_surface_samples
from structure_group import random_structure_group_member

# bounded and reproducible: Tier-1 runs the same examples every time
EXAMPLES = settings(max_examples=30, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


def moved(stack, M):
    """The samples mapped by M: points, normals and tangent vectors go to
    M times themselves, A stays as it is in basis coordinates."""
    return SampleStack(points=stack.points @ M.T, xi=stack.xi @ M.T,
                       tangent_bases=stack.tangent_bases @ M.T, A=stack.A)


@EXAMPLES
@given(m=st.integers(2, 6), seed=SEEDS, r=st.floats(0.5, 5.0),
       theta=st.floats(-math.pi, math.pi))
def test_classify_commutes_with_structure_group(m, seed, r, theta):
    rng = np.random.default_rng(seed)
    a, b = r * math.cos(theta), r * math.sin(theta)
    center = rng.uniform(-2.0, 2.0, 2 * m)
    stack = make_surface_samples(make_h_sphere(center, a, b), 10, seed)
    M = random_structure_group_member(m, rng)
    before, after = classify(stack), classify(moved(stack, M))
    assert after.verdict == before.verdict
    assert before.verdict == (VERDICT_SPHERE if m >= 4 else VERDICT_DIM_TOO_SMALL)
    if m < 4:
        return
    rec0, rec1 = before.recovered, after.recovered
    assert abs(rec1.a - rec0.a) <= 1e-12 * r
    assert abs(rec1.b - rec0.b) <= 1e-12 * r
    z0 = M @ rec0.center
    assert np.max(np.abs(rec1.center - z0)) <= 1e-12 * max(1.0, np.max(np.abs(z0)))


def spectrum(S):
    """The (lambda, mu) pairs of S in a fixed order; rounding before the
    sort keeps round-off from reordering pairs with an equal lambda."""
    return np.array(sorted(h_proper_decomposition(S).pairs,
                           key=lambda pair: np.round(pair, 6).tolist()))


@EXAMPLES
@given(m=st.integers(2, 6), seed=SEEDS, data=st.data())
def test_h_proper_decomposition_commutes_with_conjugation(m, seed, data):
    # integer (lambda, mu) pairs keep the planted eigenvalues 1 apart
    pairs = data.draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                               min_size=m, max_size=m, unique=True))
    rng = np.random.default_rng(seed)
    Q = random_complex_orthogonal(m, rng)
    D = np.diag([lam - 1j * mu for lam, mu in pairs])
    S = complex_op_to_real(Q @ D @ Q.T)
    M = random_structure_group_member(m, rng)
    got, want = (spectrum(X) for X in (M @ S @ np.linalg.inv(M), S))
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))
