"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines as they
are produced; each test also asserts its criterion so the suite gates CI.
"""

import time

import numpy as np
import pytest

from nordenhs.classify import VERDICT_HYPERPLANE, VERDICT_SPHERE, classify, shape_invariants
from nordenhs.core import (
    complex_op_to_real,
    h_proper_decomposition,
    h_symmetry_residual,
    random_complex_orthogonal,
)
from nordenhs.curvature import gauss_curvature_from_shape, ricci
from nordenhs.errors import NotHDiagonalizable
from nordenhs.hypersurface import (
    conjugate,
    hyperplane_samples,
    make_h_sphere,
    make_hyperplane,
    make_surface_samples,
    sample,
    surface_sample,
    theoretical_curvatures,
)
from nordenhs import verify

GRID = [(1.0, 0.0), (0.0, 1.0), (3.0, 4.0), (-1.0, 2.0), (2.0, -3.0)]


def emit(num, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {tag} {name}: {detail}")


def test_criterion_1_sectional_curvature_reproduction():
    t0 = time.time()
    worst_closed = worst_fd = 0.0
    for a, b in GRID:
        for fd, step in ((False, None), (True, 1e-5)):
            checks = verify.suite_curvature(
                a=a, b=b, m=4, points=20, planes=50, seed=0, fd=fd, step=step
            )
            r = max(c.residual for c in checks)
            if fd:
                worst_fd = max(worst_fd, r)
            else:
                worst_closed = max(worst_closed, r)
    elapsed = time.time() - t0
    ok = worst_closed <= 1e-9 and worst_fd <= 1e-5 and elapsed <= 10.0
    emit(
        1,
        "constant totally real sectional curvatures (a,b) grid",
        ok,
        f"closed {worst_closed:.2e} (tol 1e-9), fd {worst_fd:.2e} (tol 1e-5), "
        f"{elapsed:.1f}s (limit 10s)",
    )
    assert worst_closed <= 1e-9
    assert worst_fd <= 1e-5
    assert elapsed <= 10.0


def test_criterion_2_unit_sphere_anchor():
    params = theoretical_curvatures(make_h_sphere(np.zeros(8), 1.0, 0.0))
    r = max(abs(params.real - 1.0), abs(params.imag))
    ok = r <= 1e-12
    emit(2, "(a,b)=(1,0) gives (nu, nut)=(1, 0)", ok, f"residual {r:.2e} (tol 1e-12)")
    assert ok


def test_criterion_3_classification_round_trip():
    t0 = time.time()
    worst_closed = worst_fd = 0.0
    rng = np.random.default_rng(0xC1A55)
    for i, (a, b) in enumerate(GRID):
        center = rng.uniform(-2.0, 2.0, size=8)
        sph = make_h_sphere(center, a, b)
        scale = max(abs(a), abs(b), float(np.max(np.abs(center))))
        for fd in (False, True):
            samples = make_surface_samples(sph, 40, seed=100 + i, fd=fd)
            result = classify(samples, 1e-4 if fd else 1e-6)
            assert result.verdict == VERDICT_SPHERE
            assert result.residual("containment residual") <= 1e-6
            rec = result.recovered
            rel = max(
                abs(rec.a - a), abs(rec.b - b), float(np.max(np.abs(rec.center - center)))
            ) / scale
            if fd:
                worst_fd = max(worst_fd, rel)
            else:
                worst_closed = max(worst_closed, rel)
    xi = np.concatenate([rng.uniform(1.0, 2.0, 4), rng.uniform(-0.3, 0.3, 4)])
    hp = make_hyperplane(xi, 1.0, -0.5)
    res_hp = classify(hyperplane_samples(hp, 40, seed=9))
    plane_ok = res_hp.verdict == VERDICT_HYPERPLANE
    elapsed = time.time() - t0
    ok = worst_closed <= 1e-6 and worst_fd <= 1e-3 and plane_ok and elapsed <= 10.0
    emit(
        3,
        "classify round-trip on the (a,b) grid plus hyperplane",
        ok,
        f"closed rel {worst_closed:.2e} (tol 1e-6), fd rel {worst_fd:.2e} "
        f"(tol 1e-3), hyperplane verdict {res_hp.verdict}, {elapsed:.1f}s",
    )
    assert worst_closed <= 1e-6
    assert worst_fd <= 1e-3
    assert plane_ok
    assert elapsed <= 10.0


def test_criterion_4_decomposition_suite():
    rng = np.random.default_rng(0xDEC0)
    worst = 0.0
    count = 0
    for trial in range(200):
        m = int(rng.integers(2, 5))
        lam = rng.uniform(-2.0, 2.0, size=m)
        mu = rng.uniform(-2.0, 2.0, size=m)
        D = np.diag(lam - 1j * mu)
        Q = random_complex_orthogonal(m, rng)
        S = complex_op_to_real(Q @ D @ Q.T)
        dec = h_proper_decomposition(S)
        err = float(np.max(np.abs(dec.reconstruct() - S)))
        worst = max(worst, err / max(1.0, float(np.max(np.abs(S)))))
        count += 1
    nilpotent = complex_op_to_real(np.array([[1.0, 1j], [1j, -1.0]]))
    assert max(h_symmetry_residual(nilpotent)) == 0.0
    try:
        h_proper_decomposition(nilpotent)
        nil_ok = False
    except NotHDiagonalizable:
        nil_ok = True
    ok = worst <= 1e-10 and nil_ok and count == 200
    emit(
        4,
        "200 planted decompositions + nilpotent rejection",
        ok,
        f"worst relative reconstruction {worst:.2e} (tol 1e-10), "
        f"nilpotent raises: {nil_ok}",
    )
    assert worst <= 1e-10
    assert nil_ok


def test_criterion_5_identity_suites():
    checks = []
    checks += verify.suite_metrics(m=4, seed=0, count=1000)
    checks += verify.suite_frame(m=4, seed=0, count=100)
    checks += verify.suite_gauss(a=1.0, b=0.0, m=4, seed=0, quads=1000)
    checks += verify.suite_gauss(a=3.0, b=4.0, m=4, seed=1, quads=1000)
    checks += verify.suite_sigma(a=3.0, b=4.0, m=4, seed=0, count=1000)
    worst = max(c.residual / max(c.tol, 1e-300) for c in checks)
    failed = [c.name for c in checks if c.residual > max(c.tol, 1e-10)]
    ok = not failed
    emit(
        5,
        "identity suites (metrics, frame, Gauss tensor, sigma)",
        ok,
        f"{len(checks)} checks, worst residual/tol {worst:.2e}, "
        f"failures: {failed or 'none'}",
    )
    assert ok


def test_criterion_6_ricci_identity():
    worst = 0.0
    for i, (a, b) in enumerate(GRID):
        checks = verify.suite_ricci(a=a, b=b, m=4, seed=i)
        worst = max(worst, max(c.residual for c in checks))
    ok = worst <= 1e-8
    emit(6, "Ricci identity, flat ambient, (a,b) grid", ok,
         f"worst residual {worst:.2e} (tol 1e-8)")
    assert ok


def test_criterion_7_codazzi():
    worst_at = 0.0
    worst_ratio = 0.0
    for i, (a, b) in enumerate(GRID):
        checks = verify.suite_codazzi(a=a, b=b, m=4, step=1e-4, seed=i)
        worst_at = max(worst_at, checks[0].residual)
        worst_ratio = max(worst_ratio, checks[1].residual)
    ok = worst_at <= 1e-4 and worst_ratio <= 0.25
    emit(
        7,
        "Codazzi residual and second-order decrease",
        ok,
        f"worst residual at h=1e-4: {worst_at:.2e} (tol 1e-4); "
        f"worst refinement ratio {worst_ratio:.3f} (quadratic needs <= 0.25)",
    )
    assert worst_at <= 1e-4
    assert worst_ratio <= 0.25


def test_criterion_8_umbilicity_witnesses():
    checks = verify.suite_umbilic(m=4, seed=0)
    worst = max(c.residual for c in checks)
    ok = all(c.passed for c in checks)
    emit(
        8,
        "umbilicity witnesses for (1,0) and (0,1)",
        ok,
        f"worst residual {worst:.2e} (tol 1e-9); "
        "for (0,1) the witness is the J-image of the mean curvature vector",
    )
    assert ok


def test_criterion_9_mean_curvature_invariants():
    worst = 0.0
    flip_ok = True
    for i, (a, b) in enumerate(GRID):
        sph = make_h_sphere(np.zeros(8), a, b)
        p = sample(sph, 1, seed=i)[0]
        smp = surface_sample(sph, p)
        _, _, nu, nut = shape_invariants(smp)[0]
        params = theoretical_curvatures(sph)
        worst = max(worst, abs(nu - params.real), abs(nut - params.imag))
        conj = theoretical_curvatures(conjugate(sph))
        flip_ok = flip_ok and conj.real == params.real and conj.imag == -params.imag
    ok = worst <= 1e-10 and flip_ok
    emit(
        9,
        "(nu, nut) = (g(H,H), gt(H,H)); conjugate flips nut",
        ok,
        f"worst residual {worst:.2e} (tol 1e-10), conjugate flip: {flip_ok}",
    )
    assert worst <= 1e-10
    assert flip_ok
