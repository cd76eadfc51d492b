"""Scale oracles of classify: the complex homothety and the accepted range.

Multiplication by a complex w maps the h-sphere with centre z0 and
c = a + ib onto the h-sphere with centre w z0 and c' = w^2 c.  The unit
normals and the adapted tangent bases stay as they are, and A, which is
multiplication by kappa = 1/sqrt(c), becomes multiplication by kappa/w:
in basis coordinates Re(1/w) A - Im(1/w) A J_rep, since J is
multiplication by -i.  classify must keep its verdict and its gate list and
map the recovered sphere accordingly; with the opposite sign on the J_rep
term the moved samples are no h-sphere's whenever Im w != 0.

The range property runs classify and `verify all` on spheres with |c|
log-uniform over what make_h_sphere accepts, a^2 + b^2 > 1e-24, up to 1e150.

A holomorphic hyperplane q(xi, Z) = d + i dt goes under p -> w p + v to the
one with the same normal and the offset w (d + i dt) + q(xi, v); its
samples keep xi (stored as c xi for any c > 0), their bases and A = 0.
classify must keep its verdict on honest stacks and on stacks with one
point or one normal off by 10 or 0.1 times its gate.  The decomposition of
t S has t times the pairs of S.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from nordenhs.classify import VERDICT_HYPERPLANE, VERDICT_OFF_SURFACE, VERDICT_SPHERE, classify
from nordenhs.core import (
    bilinear,
    complex_op_to_real,
    complex_scale,
    h_proper_decomposition,
    random_complex_orthogonal,
    to_complex,
)
from nordenhs.hypersurface import (
    SampleStack,
    adapted_j_rep,
    hyperplane_samples,
    make_h_sphere,
    make_hyperplane,
    make_surface_samples,
)
from nordenhs.verify import run_suite

# bounded and reproducible: Tier-1 runs the same examples every time
EXAMPLES = settings(max_examples=30, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


def uniform(lo, hi):
    """Floats uniform on [lo, hi); hypothesis' own floats crowd near simple values."""
    return SEEDS.map(lambda k: float(np.random.default_rng(k).uniform(lo, hi)))


ANGLES = uniform(-math.pi, math.pi)
# log10 |c|, from just above make_h_sphere's bound |c| > 1e-12 up to 1e150
LOW, HIGH = -11.99, 150.0


def scaled(stack, w):
    """The samples mapped by p -> w p: same normals and bases, A times 1/w."""
    v = 1.0 / w
    n = stack.A.shape[-1] // 2
    return SampleStack(points=complex_scale(w, stack.points), xi=stack.xi,
                       tangent_bases=stack.tangent_bases,
                       A=v.real * stack.A - v.imag * stack.A @ adapted_j_rep(n))


@settings(EXAMPLES, max_examples=60)
@given(m=st.integers(4, 6), seed=SEEDS, r=uniform(0.5, 5.0), theta=ANGLES,
       log_w=uniform(-5.0, 60.0), phi=ANGLES, fd=st.booleans())
@example(m=4, seed=3, r=1.0, theta=1.0, log_w=60.0, phi=2.0, fd=True)
@example(m=5, seed=4, r=5.0, theta=-3.0, log_w=-5.0, phi=-1.0, fd=False)
def test_classify_commutes_with_complex_homothety(m, seed, r, theta, log_w, phi, fd):
    rng = np.random.default_rng(seed)
    center = rng.uniform(-2.0, 2.0, 2 * m)
    c = complex(r * math.cos(theta), r * math.sin(theta))
    stack = make_surface_samples(make_h_sphere(center, c.real, c.imag), 10, seed, fd=fd)
    w = 10.0 ** log_w * complex(math.cos(phi), math.sin(phi))
    before, after = classify(stack), classify(scaled(stack, w))
    assert before.verdict == after.verdict == VERDICT_SPHERE
    assert [ch.name for ch in after.checks] == [ch.name for ch in before.checks]
    rec0, rec1 = before.recovered, after.recovered
    assert abs(complex(rec0.a, rec0.b) - c) <= (1e-8 if fd else 1e-12) * r
    c1 = w * w * complex(rec0.a, rec0.b)
    assert abs(complex(rec1.a, rec1.b) - c1) <= 1e-12 * abs(c1)
    z1 = complex_scale(w, rec0.center)
    assert np.max(np.abs(rec1.center - z1)) <= 1e-12 * (np.max(np.abs(z1)) + abs(c1) ** 0.5)


@settings(EXAMPLES, max_examples=80)
@given(m=st.integers(4, 6), seed=SEEDS, log_c=uniform(LOW, HIGH), theta=ANGLES,
       fd=st.booleans())
@example(m=4, seed=1, log_c=LOW, theta=math.pi, fd=True)
@example(m=6, seed=2, log_c=LOW, theta=0.5, fd=False)
@example(m=5, seed=3, log_c=HIGH, theta=-math.pi / 2, fd=True)
@example(m=4, seed=4, log_c=HIGH, theta=2.5, fd=False)
def test_every_accepted_sphere_classifies(m, seed, log_c, theta, fd):
    # the samples of `sample --with-frames [--fd]`, centre 0, then classify
    r = 10.0 ** log_c
    a, b = r * math.cos(theta), r * math.sin(theta)
    stack = make_surface_samples(make_h_sphere(np.zeros(2 * m), a, b), 20, seed, fd=fd)
    result = classify(stack)
    assert result.verdict == VERDICT_SPHERE, result.notes
    rec = result.recovered
    assert abs(complex(rec.a, rec.b) - complex(a, b)) <= 1e-8 * r
    checks, _ = run_suite("all", a=a, b=b, m=m, seed=seed, fd=fd)
    assert all(ch.passed for ch in checks), [ch for ch in checks if not ch.passed]


def _radius(P):
    return float(np.max(np.linalg.norm(P - P.mean(axis=0), axis=-1)))


def _planted_plane(m, seed, defect, k):
    """(own, 12 samples) of a random hyperplane with gt(xi, xi) != 0, with
    one point moved by k tol R along xi, or one normal entry by k tol max|xi|
    (N / (N - 1)).  own is the plane's own (xi, d + i dt), the mean offset
    moved by the planted point's share, or None for a planted normal."""
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, m))
    y *= 0.5 * np.linalg.norm(x) / np.linalg.norm(y)  # g(xi, xi) = 0.75 |x|^2 > 0
    hp = make_hyperplane(np.concatenate([x, y]), *rng.uniform(-2.0, 2.0, 2))
    st = hyperplane_samples(hp, 12, seed)
    P, xi = st.points.copy(), st.xi.copy()
    own = hp.xi, complex(hp.d, hp.dt)
    if defect == "point":
        shift = k * 1e-6 * _radius(P)
        P[3] += shift * hp.xi  # q(xi, xi) = 1: the offset of P[3] moves by shift
        own = hp.xi, own[1] + shift / 12
    elif defect == "normal":
        xi[3, 1] += k * 1e-6 * np.max(np.abs(xi)) * 12 / 11
        own = None
    return own, SampleStack(P, xi, st.tangent_bases, st.A)


@settings(EXAMPLES, max_examples=60)
@given(m=st.integers(4, 6), seed=SEEDS, defect=st.sampled_from(["none", "point", "normal"]),
       k=st.sampled_from([10.0, 0.1]), log_w=uniform(-5.0, 60.0), phi=ANGLES,
       log_v=uniform(-3.0, 6.0), log_c=uniform(-3.0, 200.0))
@example(m=4, seed=1, defect="point", k=10.0, log_w=-5.0, phi=0.5, log_v=6.0, log_c=200.0)
@example(m=5, seed=2, defect="point", k=0.1, log_w=60.0, phi=-2.0, log_v=6.0, log_c=-3.0)
@example(m=6, seed=3, defect="none", k=10.0, log_w=60.0, phi=3.0, log_v=6.0, log_c=200.0)
def test_hyperplane_verdicts_commute_with_similarities(m, seed, defect, k, log_w, phi,
                                                       log_v, log_c):
    own, stack = _planted_plane(m, seed, defect, k)
    w = 10.0 ** log_w * complex(math.cos(phi), math.sin(phi))
    P = complex_scale(w, stack.points)
    v = np.random.default_rng(seed + 1).standard_normal(2 * m)
    v *= 10.0 ** log_v * _radius(P) / np.linalg.norm(v)
    moved = SampleStack(P + v, 10.0 ** log_c * stack.xi, stack.tangent_bases, stack.A)
    before, after = classify(stack), classify(moved)
    verdict = VERDICT_OFF_SURFACE if defect != "none" and k > 1 else VERDICT_HYPERPLANE
    assert before.verdict == after.verdict == verdict, after.notes
    assert [ch.name for ch in after.checks] == [ch.name for ch in before.checks]
    if verdict == VERDICT_HYPERPLANE:
        # the plane's own (xi, d + i dt), and moved; a planted normal moves the
        # recovered normal, so there the moved plane is the recovered one's
        rec0 = before.recovered
        xi0, offset0 = own or (rec0.xi, complex(rec0.d, rec0.dt))
        want = w * offset0 + complex(bilinear(to_complex(xi0), to_complex(v)))
        for rec, offset, P in ((rec0, offset0, stack.points),
                               (after.recovered, want, moved.points)):
            assert np.max(np.abs(rec.xi - xi0)) <= 1e-14 * np.max(np.abs(xi0))
            reach = np.max(np.linalg.norm(P, axis=-1))
            assert abs(complex(rec.d, rec.dt) - offset) <= 1e-13 * reach


@settings(EXAMPLES, max_examples=40)
@given(m=st.integers(2, 5), seed=SEEDS, log_t=uniform(-150.0, 150.0))
@example(m=4, seed=0, log_t=-150.0)
@example(m=4, seed=0, log_t=150.0)
def test_decomposition_commutes_with_scaling(m, seed, log_t):
    rng = np.random.default_rng(seed)
    D = np.diag(rng.uniform(-2.0, 2.0, m) + 1j * rng.uniform(-2.0, 2.0, m))
    Q = random_complex_orthogonal(m, rng)
    S = complex_op_to_real(Q @ D @ Q.T)
    t = 10.0 ** log_t
    want = t * np.array(sorted(h_proper_decomposition(S).pairs))
    got = np.array(sorted(h_proper_decomposition(t * S).pairs))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
