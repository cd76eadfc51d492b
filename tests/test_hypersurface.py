"""Tests for h-spheres, hyperplanes, frames and shape operators."""

import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest

from nordenhs.classify import classify, shape_invariants
from nordenhs.core import (
    apply_J,
    h_proper_decomposition,
    is_adapted_basis,
    metric_g,
    metric_gt,
    q_value,
    tangent_reps,
)
from nordenhs.curvature import (
    gauss_curvature_from_shape,
    sample_totally_real_planes,
    sectional_curvatures,
)
from nordenhs.errors import NordenError
from nordenhs.hypersurface import (
    HolomorphicHyperplane,
    adapted_j_rep,
    ambient_shape_operator,
    codazzi_residual,
    conjugate,
    containment_residual,
    contains,
    hyperplane_base_point,
    hyperplane_samples,
    hyperplane_tangent_basis,
    lambda_mu,
    make_h_sphere,
    make_hyperplane,
    make_surface_samples,
    mean_curvature,
    normal_frame,
    normalize_normal_frame,
    project_to_sphere,
    sample,
    scaled_containment_residual,
    second_fundamental,
    shape_operator_fd,
    shape_operator_wrt,
    surface_sample,
    surface_samples,
    tangent_adapted_basis,
    theoretical_curvatures,
)
from nordenhs.verify import suite_codazzi


def basis_vec(dim, i):
    e = np.zeros(dim)
    e[i] = 1.0
    return e


def mean_curvature_vector(smp):
    """H = (tr A xi - tr(A o J) J xi) / 2n of one record."""
    tr_a, tr_aj, _ = mean_curvature(smp)
    return (tr_a * smp.xi - tr_aj * apply_J(smp.xi)) / len(smp.A)


class TestConstructors:
    def test_isotropic_parameters_rejected(self):
        with pytest.raises(NordenError, match="is not an h-sphere"):
            make_h_sphere(np.zeros(8), 0.0, 0.0)

    def test_odd_center_rejected(self):
        with pytest.raises(NordenError, match="center must have even length"):
            make_h_sphere(np.zeros(7), 1.0, 0.0)

    def test_odd_hyperplane_normal_rejected(self):
        with pytest.raises(NordenError, match="xi must have even length"):
            make_hyperplane(np.r_[1.0, np.zeros(6)], 1.0, 0.0)

    @pytest.mark.parametrize("x", [1e200, 1e-13, 1e-200])
    def test_parameters_out_of_range_rejected(self, x):
        # x^2 overflows, or falls below 1e-24
        with pytest.raises(NordenError, match=r"a\^2 \+ b\^2 must be finite"):
            make_h_sphere(np.zeros(8), x, 0.0)
        with pytest.raises(NordenError, match=re.escape(f"(0.0, {x!r})")):
            make_h_sphere(np.zeros(8), 0.0, np.float64(x))

    @pytest.mark.parametrize("xi0,d,dt", [
        (np.nan, 1.0, 0.0), (np.inf, 1.0, 0.0), (1.0, np.inf, 0.0),
        (1.0, np.nan, 0.0), (1.0, 0.0, -np.inf), (1.0, 0.0, np.nan),
    ])
    def test_non_finite_hyperplane_rejected(self, xi0, d, dt):
        with pytest.raises(NordenError, match="must be finite"):
            make_hyperplane(np.r_[xi0, np.zeros(7)], d, dt)

    @pytest.mark.parametrize("xi", [[1e200] + [0.0] * 3 + [1e200] + [0.0] * 3],
                             ids=["null"])
    def test_overflowing_hyperplane_normal_rejected(self, xi):
        # g(xi, xi) of the raw xi is inf - inf; taken of xi scaled by a power
        # of two it is 0, so the null normal is rejected as null (a
        # RuntimeWarning fails the test)
        with pytest.raises(NordenError, match="positive g-square"):
            make_hyperplane(np.array(xi), 1.0, 0.0)

    def test_huge_hyperplane_normal_accepted(self):
        # g(xi, xi) of 1e200 e1 would overflow
        assert np.array_equal(make_hyperplane(1e200 * np.eye(8)[0], 1.0, 0.0).xi, np.eye(8)[0])

    def test_normal_scaling_keeps_bits(self):
        # scaling xi by a power of two before q(xi, xi) leaves the normal
        # unchanged, and where gt(xi, xi) = 0 (x and y on disjoint entries,
        # signed zeros among them) it is xi / sqrt(g) bit for bit
        rng = np.random.default_rng(41)
        for _ in range(2000):
            m = int(rng.integers(1, 7))
            xi = rng.standard_normal(2 * m) * np.repeat([3.0, 1.0], m)
            xi *= 10.0 ** rng.uniform(-150, 150)
            if rng.random() < 0.5:
                on_x = rng.random(m) < 0.5
                xi[np.r_[~on_x, on_x]] = rng.choice([0.0, -0.0])
            g = metric_g(xi, xi)
            if g > 0:
                got = make_hyperplane(xi, 0.0, 0.0).xi
                k = int(rng.integers(-100, 100))
                assert np.array_equal(make_hyperplane(np.ldexp(xi, k), 0.0, 0.0).xi.view(np.int64),
                                      got.view(np.int64))
                if metric_gt(xi, xi) == 0:
                    assert np.array_equal(got.view(np.int64), (xi / np.sqrt(g)).view(np.int64))

    def test_conjugate_flips_nut(self):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        c = conjugate(sph)
        assert c.a == sph.a and c.b == -sph.b
        p = theoretical_curvatures(sph)
        pc = theoretical_curvatures(c)
        assert pc.real == pytest.approx(p.real, abs=1e-14)
        assert pc.imag == pytest.approx(-p.imag, abs=1e-14)


class TestLambdaMu:
    def test_kotelnikov_study(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        assert lambda_mu(sph) == (1.0, 0.0)

    def test_isotropic_mean_curvature_case(self):
        sph = make_h_sphere(np.zeros(8), 0.0, 1.0)
        lam, mu = lambda_mu(sph)
        assert lam == pytest.approx(np.sqrt(0.5), abs=1e-14)
        assert mu == pytest.approx(np.sqrt(0.5), abs=1e-14)

    def test_three_four(self):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        lam, mu = lambda_mu(sph)
        assert lam == pytest.approx(0.4, abs=1e-14)
        assert mu == pytest.approx(0.2, abs=1e-14)

    def test_defining_relations(self):
        for a, b in [(1.0, 0.0), (0.0, 1.0), (3.0, 4.0), (-1.0, 2.0), (2.0, -3.0)]:
            sph = make_h_sphere(np.zeros(8), a, b)
            lam, mu = lambda_mu(sph)
            r2 = a * a + b * b
            assert lam * lam - mu * mu == pytest.approx(a / r2, abs=1e-12)
            assert 2.0 * lam * mu == pytest.approx(b / r2, abs=1e-12)
            assert lam >= 0.0

    # |c| from 1.5e-12 (a^2 + b^2 must exceed 1e-24) to 1e150, on the four
    # half-axes and at one angle inside each quadrant
    @pytest.mark.parametrize("r", [1.5e-12, 1e-5, 0.3, 1.0, 7e4, 1e30, 1e100, 1e150])
    @pytest.mark.parametrize("unit", [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0),
                                      (0.8, 0.6), (-0.28, 0.96), (-0.6, -0.8), (0.96, -0.28)])
    def test_kappa_squared_inverts_c(self, r, unit):
        # (lambda - i mu)^2 (a + ib) = 1 within 1e-15, evaluated exactly in rationals
        a, b = r * unit[0], r * unit[1]
        lam, mu = map(Fraction, lambda_mu(make_h_sphere(np.zeros(8), a, b)))
        k2 = (lam * lam - mu * mu, -2 * lam * mu)
        re = k2[0] * Fraction(a) - k2[1] * Fraction(b) - 1
        im = k2[0] * Fraction(b) + k2[1] * Fraction(a)
        assert re * re + im * im <= Fraction(1e-15) ** 2, (float(re), float(im))

    @pytest.mark.parametrize("a, b", [(-1.0, 0.0), (-1.0, -0.0), (-3e40, -0.0), (-2e-12, 0.0),
                                      (1.0, -0.0), (-1.0, -1e-17), (1e30, -1e29),
                                      (1e100, -3e99), (-1e-6, -1e-7), (-5.0, 1e-3)])
    def test_branch(self, a, b):
        # lambda >= 0, mu >= 0 when lambda = 0, no -0, and 2 lambda mu has the sign of b
        lam, mu = lambda_mu(make_h_sphere(np.zeros(8), a, b))
        assert lam >= 0.0 and not np.signbit(lam)
        assert mu != 0.0 or not np.signbit(mu)
        if lam == 0.0:
            assert mu > 0.0
        elif b != 0.0:
            assert np.sign(mu) == np.sign(b)

    @pytest.mark.parametrize("a, b", [(1e30, -1e29), (1e100, -3e99), (-1e30, -1e29)])
    def test_huge_sphere_frames_are_unit(self, a, b):
        xi = make_surface_samples(make_h_sphere(np.zeros(8), a, b), 20, seed=5).xi
        assert np.abs(metric_g(xi, xi) - 1.0).max() <= 1e-12
        assert np.abs(metric_gt(xi, xi)).max() <= 1e-12

    @pytest.mark.parametrize("fd", [False, True])
    def test_negative_zero_b_is_zero_b(self, fd):
        # one root kappa for the bases and the normals, whatever the sign of b = 0
        plus, minus = (make_surface_samples(make_h_sphere(np.arange(8.0), -1.0, b), 20, seed=6,
                                            fd=fd) for b in (0.0, -0.0))
        for field in ("points", "xi", "tangent_bases", "A"):
            assert getattr(plus, field).tobytes() == getattr(minus, field).tobytes(), field


@pytest.mark.parametrize("m", [2, 3, 4, 6])
@pytest.mark.parametrize("a, b", [(3.0, 4.0), (1.0, 0.0), (0.0, 1.0), (-1.137, 1.885),
                                  (0.5, -2.25)])
def test_h_proper_pairs_of_a_sample_shape_operator(m, a, b):
    # the pinned sign convention: a sample's A is in the coordinates of its
    # basis (t, Jt), where J is adapted_j_rep(n) = [[0, -I], [I, 0]];
    # h_proper_decomposition reads a matrix in the (x; y) coordinates of C^m,
    # where J is [[0, I], [-I, 0]] = -J_rep.  So A = lam I + mu J_rep gives
    # the pairs (lam, -mu), and A^T = D A D, D = diag(I, -I) (the basis
    # (t, -Jt); A is G_t-self-adjoint and G_t = D), gives lambda_mu's (lam, mu)
    sph = make_h_sphere(np.zeros(2 * m), a, b)
    A = make_surface_samples(sph, 1, seed=m).A[0]
    D = np.diag(np.repeat([1.0, -1.0], m - 1))
    assert np.array_equal(A.T, D @ A @ D)
    lam, mu = lambda_mu(sph)
    for S, want in ((A, (lam, -mu)), (A.T, (lam, mu))):
        pairs = np.array(h_proper_decomposition(S).pairs)
        assert pairs.shape == (m - 1, 2)
        assert np.abs(pairs - want).max() <= 1e-14


class TestSampling:
    def test_points_satisfy_equations(self):
        center = np.arange(8, dtype=float)
        sph = make_h_sphere(center, -1.0, 2.0)
        for p in sample(sph, 15, seed=21):
            rg, rgt = containment_residual(sph, p)
            assert abs(rg) <= 1e-10
            assert abs(rgt) <= 1e-10

    def test_deterministic(self):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        a = sample(sph, 10, seed=5)
        b = sample(sph, 10, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_anchor_direction(self):
        # direction e1 has q = 1, so the (4, 0) sphere maps it to z0 + 2 e1
        sph = make_h_sphere(np.zeros(8), 4.0, 0.0)
        p = project_to_sphere(sph, basis_vec(8, 0))
        assert np.allclose(p, 2.0 * basis_vec(8, 0), atol=1e-14)

    def test_anchor_direction_imaginary(self):
        # (0, 2): scaling factor sqrt(2i) rotates e1 to e1 + f1
        sph = make_h_sphere(np.zeros(8), 0.0, 2.0)
        p = project_to_sphere(sph, basis_vec(8, 0))
        assert np.allclose(p, basis_vec(8, 0) + basis_vec(8, 4), atol=1e-14)


class TestNormalFrame:
    def test_kotelnikov_study_frame(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        p = basis_vec(8, 0)
        xi, _ = normal_frame(sph, p)
        assert np.allclose(xi, -p, atol=1e-14)

    def test_frame_relations(self):
        sph = make_h_sphere(np.zeros(8), -1.0, 2.0)
        for p in sample(sph, 10, seed=6):
            xi, jxi = normal_frame(sph, p)
            assert metric_g(xi, xi) == pytest.approx(1.0, abs=1e-12)
            assert metric_g(jxi, jxi) == pytest.approx(-1.0, abs=1e-12)
            assert metric_g(xi, jxi) == pytest.approx(0.0, abs=1e-12)

    def test_off_surface_point_rejected(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        msg = "point off the h-sphere: residuals g: 8.000e+00, gt: 0.000e+00"
        with pytest.raises(NordenError, match=f"^{re.escape(msg)}$"):
            normal_frame(sph, 3.0 * basis_vec(8, 0))

    def test_normalize_normal_frame(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        p = sample(sph, 1, seed=7)[0]
        xi, jxi = normal_frame(sph, p)
        for s_target in (0.75, -2.0):
            t = -0.5 * np.arcsinh(s_target)
            eta = np.cosh(t) * xi + np.sinh(t) * jxi
            xi2, jxi2 = normalize_normal_frame(eta, apply_J(eta))
            assert metric_g(xi2, xi2) == pytest.approx(1.0, abs=1e-10)
            assert metric_g(jxi2, jxi2) == pytest.approx(-1.0, abs=1e-10)
            assert metric_g(xi2, jxi2) == pytest.approx(0.0, abs=1e-10)
            # recovers the canonical frame up to sign
            assert min(
                np.max(np.abs(xi2 - xi)), np.max(np.abs(xi2 + xi))
            ) <= 1e-10

    @pytest.mark.parametrize("factor,fails", [(10.0, True), (0.1, False)])
    @pytest.mark.parametrize("gate", ["g-unit", "J"])
    def test_normalize_tolerance_boundary(self, gate, factor, fails):
        # each check is off by factor times its tolerance 1e-8: eta = sqrt(1 +
        # delta) xi has g(eta, eta) = -g(J eta, J eta) = 1 + delta, and the
        # second vector J eta + delta max(1, max|eta|) e1 is off J eta by that
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        xi, _ = normal_frame(sph, sample(sph, 1, seed=8)[0])
        delta = factor * 1e-8
        if gate == "g-unit":
            eta = np.sqrt(1.0 + delta) * xi
            jeta, msg = apply_J(eta), "eta is not g-unit"
        else:
            eta = xi
            jeta = apply_J(xi) + delta * max(1.0, np.max(np.abs(xi))) * basis_vec(8, 0)
            msg = "second vector is not J of the first"
        if fails:
            with pytest.raises(NordenError, match=msg):
                normalize_normal_frame(eta, jeta)
        else:
            xi2, jxi2 = normalize_normal_frame(eta, jeta)
            assert metric_g(xi2, xi2) == pytest.approx(1.0, abs=1e-8)

    def test_normalize_rejects_bad_input(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        p = sample(sph, 1, seed=8)[0]
        xi, jxi = normal_frame(sph, p)
        with pytest.raises(NordenError, match="eta is not g-unit"):
            normalize_normal_frame(2.0 * xi, 2.0 * jxi)
        with pytest.raises(NordenError, match="second vector is not J of the first"):
            normalize_normal_frame(xi, xi)


ON_SURFACE_CHECKS = {
    "normal_frame": normal_frame,
    "tangent_adapted_basis": tangent_adapted_basis,
    "surface_samples": lambda s, p: surface_samples(s, p[None]),
}


@pytest.mark.parametrize("check", list(ON_SURFACE_CHECKS))
@pytest.mark.parametrize("residual,on_surface", [(2e-8, False), (5e-9, True)])
def test_shared_on_surface_threshold(check, residual, on_surface):
    # t e1 on the (1, 0) sphere has the scaled containment residual
    # (t^2 - 1) / (t^2 + 1); the threshold is 1e-8
    sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
    p = np.sqrt((1.0 + residual) / (1.0 - residual)) * basis_vec(8, 0)
    assert scaled_containment_residual(sph, p) == pytest.approx(residual, rel=1e-6)
    if on_surface:
        ON_SURFACE_CHECKS[check](sph, p)
    else:
        with pytest.raises(NordenError, match="point off the h-sphere"):
            ON_SURFACE_CHECKS[check](sph, p)


class TestTangentBasis:
    def test_adapted_and_orthogonal_to_normal(self):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        p = sample(sph, 1, seed=9)[0]
        basis = tangent_adapted_basis(sph, p)
        assert len(basis) == 6  # 2(m - 1) with m = 4
        assert is_adapted_basis(np.vstack(basis), tol=1e-8)
        Z = p - sph.center
        for t in basis:
            assert abs(metric_g(t, Z)) <= 1e-9
            assert abs(metric_gt(t, Z)) <= 1e-9

    def test_tangent_rep_j(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        p = sample(sph, 1, seed=10)[0]
        basis = tangent_adapted_basis(sph, p)
        _, J_rep, _ = tangent_reps(basis)
        assert np.allclose(J_rep, adapted_j_rep(3), atol=1e-9)


class TestShapeOperator:
    def test_closed_form(self):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        p = sample(sph, 1, seed=11)[0]
        smp = surface_sample(sph, p)
        assert np.allclose(
            smp.A, 0.4 * np.eye(6) + 0.2 * adapted_j_rep(3), atol=1e-12
        )

    def test_fd_matches_closed(self):
        sph = make_h_sphere(np.zeros(8), -1.0, 2.0)
        p = sample(sph, 1, seed=12)[0]
        smp = surface_sample(sph, p)
        A_fd = shape_operator_fd(sph, p, list(smp.tangent_bases), step=1e-5)
        assert np.max(np.abs(A_fd - smp.A)) <= 1e-8

    def test_fd_second_order_convergence(self):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        p = sample(sph, 1, seed=13)[0]
        smp = surface_sample(sph, p)
        basis = list(smp.tangent_bases)
        errs = [
            np.max(np.abs(shape_operator_fd(sph, p, basis, step=h) - smp.A))
            for h in (4e-3, 1e-3, 2.5e-4)
        ]
        assert errs[1] <= errs[0] / 4.0
        assert errs[2] <= errs[1] / 4.0

    def test_fd_step_bounds(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        p = sample(sph, 1, seed=14)[0]
        basis = tangent_adapted_basis(sph, p)
        with pytest.raises(NordenError, match="step 1.000e-14 too small"):
            shape_operator_fd(sph, p, basis, step=1e-14)
        with pytest.raises(NordenError, match="step 1.000e[+]01 too large"):
            shape_operator_fd(sph, p, basis, step=10.0)

    def test_wrt_normal_combinations(self):
        sph = make_h_sphere(np.zeros(8), 2.0, -3.0)
        p = sample(sph, 1, seed=15)[0]
        smp = surface_sample(sph, p)
        _, J_rep, _ = tangent_reps(smp.tangent_bases)
        assert np.allclose(
            shape_operator_wrt(smp, smp.xi), smp.A, atol=1e-10
        )
        assert np.allclose(
            shape_operator_wrt(smp, apply_J(smp.xi)),
            J_rep @ smp.A,
            atol=1e-10,
        )
        assert np.allclose(
            shape_operator_wrt(smp, np.zeros(8)), 0.0, atol=1e-12
        )

    def test_wrt_rejects_tangent_vector(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        p = sample(sph, 1, seed=16)[0]
        smp = surface_sample(sph, p)
        with pytest.raises(NordenError, match="eta is not normal to the tangent space"):
            shape_operator_wrt(smp, np.asarray(smp.tangent_bases[0]))

    @pytest.mark.parametrize("size", [1e-9, 1.0, 1e9])
    @pytest.mark.parametrize("k", [10.0, 0.1])
    def test_wrt_normality_gate(self, k, size):
        # eta = size (xi + c t_1): g(t_1, eta) = size c, as g(t_1, t_1) = 1 and
        # the other rows are g-orthogonal to t_1, against 1e-8 max|eta| max|t_1|
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        smp = surface_sample(sph, sample(sph, 1, seed=16)[0])
        t1 = smp.tangent_bases[0]
        c = k * 1e-8 * np.max(np.abs(smp.xi)) * np.max(np.abs(t1))
        eta = size * (smp.xi + c * t1)
        if k > 1:
            with pytest.raises(NordenError, match="eta is not normal to the tangent space"):
                shape_operator_wrt(smp, eta)
        else:
            assert np.max(np.abs(shape_operator_wrt(smp, eta) - size * smp.A)) <= 1e-12 * size

    def test_wrt_rejects_small_tangent_vector(self):
        # 1e-9 t_1 is tangent at any size
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        smp = surface_sample(sph, sample(sph, 1, seed=16)[0])
        with pytest.raises(NordenError, match="eta is not normal to the tangent space"):
            shape_operator_wrt(smp, 1e-9 * smp.tangent_bases[0])

    def test_wrt_rejects_nan_normal(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        smp = surface_sample(sph, sample(sph, 1, seed=16)[0])
        with pytest.raises(NordenError, match="eta is not normal to the tangent space"):
            shape_operator_wrt(smp, np.full(8, np.nan))


class TestSecondFundamental:
    def test_j_compatibility(self):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        p = sample(sph, 1, seed=17)[0]
        smp = surface_sample(sph, p)
        sigma = second_fundamental(smp)
        rng = np.random.default_rng(18)
        basis = list(smp.tangent_bases)
        for _ in range(10):
            x = sum(c * t for c, t in zip(rng.uniform(-1, 1, 6), basis))
            y = sum(c * t for c, t in zip(rng.uniform(-1, 1, 6), basis))
            s_xy = sigma(x, y)
            assert np.allclose(sigma(x, apply_J(y)), apply_J(s_xy), atol=1e-10)
            assert np.allclose(sigma(apply_J(x), y), apply_J(s_xy), atol=1e-10)

    def test_umbilical_model(self):
        # sigma(x, y) = g(x, y) H - gt(x, y) JH on an h-sphere
        sph = make_h_sphere(np.zeros(8), -1.0, 2.0)
        p = sample(sph, 1, seed=19)[0]
        smp = surface_sample(sph, p)
        sigma = second_fundamental(smp)
        H = mean_curvature_vector(smp)
        rng = np.random.default_rng(20)
        basis = list(smp.tangent_bases)
        for _ in range(10):
            x = sum(c * t for c, t in zip(rng.uniform(-1, 1, 6), basis))
            y = sum(c * t for c, t in zip(rng.uniform(-1, 1, 6), basis))
            want = metric_g(x, y) * H - metric_gt(x, y) * apply_J(H)
            assert np.allclose(sigma(x, y), want, atol=1e-9)


class TestMeanCurvature:
    def test_theorem_22_invariants(self):
        # nu = g(H, H), nut = gt(H, H) for every sphere in the grid
        for a, b in [(1.0, 0.0), (0.0, 1.0), (3.0, 4.0), (-1.0, 2.0), (2.0, -3.0)]:
            sph = make_h_sphere(np.zeros(8), a, b)
            p = sample(sph, 1, seed=22)[0]
            smp = surface_sample(sph, p)
            _, _, nu, nut = shape_invariants(smp)[0]
            H = mean_curvature_vector(smp)
            params = theoretical_curvatures(sph)
            assert nu == pytest.approx(params.real, abs=1e-12)
            assert nut == pytest.approx(params.imag, abs=1e-12)
            assert metric_g(H, H) == pytest.approx(params.real, abs=1e-10)
            assert metric_gt(H, H) == pytest.approx(params.imag, abs=1e-10)

    def test_traces(self):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        p = sample(sph, 1, seed=23)[0]
        smp = surface_sample(sph, p)
        tr_a, tr_aj, _ = mean_curvature(smp)
        lam, mu = lambda_mu(sph)
        assert tr_a == pytest.approx(6 * lam, abs=1e-12)
        assert tr_aj == pytest.approx(-6 * mu, abs=1e-12)


class TestUmbilicity:
    def test_sphere_is_umbilical(self):
        sph = make_h_sphere(np.zeros(8), 2.0, -3.0)
        for smp in make_surface_samples(sph, 5, seed=24):
            assert shape_invariants(smp)[1] <= 1e-8

    def test_non_umbilical_operator(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        smp = surface_sample(sph, sample(sph, 1, seed=24)[0])
        smp = dataclasses.replace(smp, A=np.kron(np.eye(2), np.diag([1.0, 2.0, 3.0])))
        assert mean_curvature(smp)[2] > 0.5
        assert shape_invariants(smp)[1] > 1e-6


class TestCodazzi:
    def test_residual_small(self):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        p = sample(sph, 1, seed=25)[0]
        assert codazzi_residual(sph, p, step=1e-4) <= 1e-4

    def test_second_order_decrease(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        p = sample(sph, 1, seed=26)[0]
        rs = [codazzi_residual(sph, p, step=h) for h in (1.6e-2, 4e-3, 1e-3)]
        assert rs[1] <= rs[0] / 4.0
        assert rs[2] <= rs[1] / 4.0

    @pytest.mark.parametrize("m", [2, 3, 5])
    # (-1, 0) lies on the branch cut of sqrt(a + ib)
    @pytest.mark.parametrize("a,b", [(3.0, 4.0), (-1.0, 0.0), (0.05, 0.0)])
    def test_step_ladder_equals_single_steps(self, a, b, m):
        sph = make_h_sphere(np.zeros(2 * m), a, b)
        p = sample(sph, 1, seed=m)[0]
        hs = (1e-4, 1.6e-2, 4e-3, 1e-3)
        single = [codazzi_residual(sph, p, step=h) for h in hs]
        assert all(type(r) is float for r in single)
        assert codazzi_residual(sph, p, step=hs) == single
        assert codazzi_residual(sph, p, step=np.array(hs[1:3])) == single[1:3]

    @pytest.mark.parametrize("bad", [1e-14, 10.0])
    def test_step_ladder_out_of_range_raises_as_scalar(self, bad):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        p = sample(sph, 1, seed=28)[0]
        with pytest.raises(NordenError, match="too (small|large)") as scalar:
            codazzi_residual(sph, p, step=bad)
        with pytest.raises(NordenError, match=f"^{re.escape(str(scalar.value))}$"):
            codazzi_residual(sph, p, step=(1e-4, 4e-3, bad, 1e-3))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("a", [-0.5, -1.0, -5.0])
    def test_suite_passes_on_negative_real_a(self, a, seed):
        # a + ib = a on the branch cut of sqrt: the tangent bases of
        # neighbouring points must come from one branch
        checks = suite_codazzi(a=a, b=0.0, seed=seed)
        assert all(c.passed for c in checks), [(c.name, c.residual) for c in checks]


class TestFrameGauge:
    def test_shape_data_independent_of_frame_gauge(self):
        # a boosted normal eta' = cosh s xi + sinh s Jxi leaves the normal
        # bundle invariant; renormalizing it must reproduce the canonical
        # frame (up to sign) and the transformed A must map back to A
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        p = sample(sph, 1, seed=27)[0]
        smp = surface_sample(sph, p)
        _, J_rep, _ = tangent_reps(smp.tangent_bases)
        s = 0.6
        eta = np.cosh(s) * smp.xi + np.sinh(s) * apply_J(smp.xi)
        # shape operator with respect to the boosted normal obeys the
        # linearity rule: g(Jxi, eta) = -sinh(s), so
        # A_eta = cosh(s) A + sinh(s) (J o A)
        A_eta = shape_operator_wrt(smp, eta)
        assert np.allclose(
            A_eta,
            np.cosh(s) * smp.A + np.sinh(s) * (J_rep @ smp.A),
            atol=1e-10,
        )
        eta_unit = eta / np.sqrt(metric_g(eta, eta))
        xi2, jxi2 = normalize_normal_frame(eta_unit, apply_J(eta_unit))
        sign = np.sign(metric_g(xi2, smp.xi))
        assert np.allclose(sign * xi2, smp.xi, atol=1e-10)
        A_back = shape_operator_wrt(smp, sign * xi2)
        assert np.allclose(A_back, smp.A, atol=1e-10)


class TestHyperplane:
    def test_normalizes_normal(self):
        hp = make_hyperplane(2.0 * basis_vec(8, 0), 4.0, 2.0)
        assert metric_g(hp.xi, hp.xi) == pytest.approx(1.0, abs=1e-14)

    def test_normal_with_gt_lies_on_the_declared_plane(self):
        # q(xi, xi) = g + i gt is made 1, not g alone: with gt != 0 the samples
        # lie on q(xi, p) = d + i dt, not on (d + i dt) q(xi, xi)
        hp = make_hyperplane(np.array([1.0, 0.3, 0, 0, 0.5, 0.2, 0, 0]), 1.5, 0.5)
        assert abs(q_value(hp.xi) - 1.0) <= 4 * np.finfo(float).eps
        samples = hyperplane_samples(hp, 30, seed=4)
        off = metric_g(hp.xi, samples.points) + 1j * metric_gt(hp.xi, samples.points)
        assert np.max(np.abs(off - (1.5 + 0.5j))) <= 1e-14
        rec = classify(samples).recovered
        assert isinstance(rec, HolomorphicHyperplane)
        assert abs(complex(rec.d, rec.dt) - (1.5 + 0.5j)) <= 1e-14
        assert np.max(np.abs(rec.xi - hp.xi)) <= 1e-15

    def test_rejects_nonpositive_normal(self):
        with pytest.raises(NordenError, match="positive g-square"):
            make_hyperplane(basis_vec(8, 4), 1.0, 0.0)

    def test_base_point_on_plane(self):
        hp = make_hyperplane(basis_vec(8, 0) + 0.5 * basis_vec(8, 1), 3.0, -1.0)
        p = hyperplane_base_point(hp)
        assert metric_g(hp.xi, p) == pytest.approx(hp.d, abs=1e-12)
        assert metric_gt(hp.xi, p) == pytest.approx(hp.dt, abs=1e-12)

    def test_samples_flat_and_on_plane(self):
        hp = make_hyperplane(basis_vec(8, 0), 2.0, 1.0)
        samples = hyperplane_samples(hp, 10, seed=28)
        for smp in samples:
            assert metric_g(hp.xi, smp.points) == pytest.approx(hp.d, abs=1e-10)
            assert metric_gt(hp.xi, smp.points) == pytest.approx(hp.dt, abs=1e-10)
            assert np.count_nonzero(smp.A) == 0

    def test_curvatures_vanish(self):
        hp = make_hyperplane(basis_vec(8, 0), 1.0, 0.0)
        smp = hyperplane_samples(hp, 1, seed=29)[0]
        R = gauss_curvature_from_shape(
            smp.A, smp.tangent_bases
        )
        planes = sample_totally_real_planes(list(smp.tangent_bases), 10, seed=30)
        for x, y in zip(*planes):
            K, Kt = sectional_curvatures(R, x, y)
            assert K == pytest.approx(0.0, abs=1e-12)
            assert Kt == pytest.approx(0.0, abs=1e-12)

    def test_tangent_basis_adapted(self):
        hp = make_hyperplane(basis_vec(8, 0), 1.0, 0.0)
        basis = hyperplane_tangent_basis(hp)
        assert len(basis) == 6
        assert is_adapted_basis(np.vstack(basis), tol=1e-8)


def test_ambient_shape_operator_annihilates_normal_complement():
    sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
    p = sample(sph, 1, seed=31)[0]
    smp = surface_sample(sph, p)
    A_amb = ambient_shape_operator(smp)
    lam, mu = lambda_mu(sph)
    for t in smp.tangent_bases:
        t = np.asarray(t)
        assert np.allclose(A_amb @ t, lam * t + mu * apply_J(t), atol=1e-10)


@pytest.mark.parametrize("k", [10.0, 0.1])
def test_on_surface_threshold_far_from_the_origin(k):
    # the (1, 0) sphere centred at 1e6 (1, ..., 1): q(Z) may carry round-off
    # of 4 eps |Z| |z0|, 1.3e-9 of q here, which is not counted; a point
    # k times the threshold 1e-8 off is rejected for k = 10
    z0 = np.full(8, 1e6)
    sph = make_h_sphere(z0, 1.0, 0.0)
    p = z0 + np.sqrt((1.0 + k * 1e-8) / (1.0 - k * 1e-8)) * basis_vec(8, 0)
    assert scaled_containment_residual(sph, p) < 1.1 * k * 1e-8
    if k > 1:
        assert scaled_containment_residual(sph, p) > 0.9 * k * 1e-8
    assert bool(contains(sph, p)) == (k < 1)


def test_contains_tolerance():
    sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
    p = basis_vec(8, 0)
    assert contains(sph, p)
    assert not contains(sph, 1.1 * p)
