"""Tests for h-spheres, hyperplanes, frames and shape operators."""

import re

import numpy as np
import pytest

from nordenhs.core import apply_J, is_adapted_basis, metric_g, metric_gt
from nordenhs.curvature import (
    SpaceFormParams,
    gauss_curvature_from_shape,
    sample_totally_real_planes,
    sectional_curvatures,
)
from nordenhs.errors import (
    BadInputNormalization,
    DegenerateBasis,
    DimensionMismatch,
    IsotropicParameters,
    PointNotOnSurface,
    StepSizeError,
    ZeroCurvatures,
)
from nordenhs.hypersurface import (
    adapted_j_rep,
    ambient_shape_operator,
    codazzi_residual,
    conjugate,
    containment_residual,
    contains,
    h_sphere_from_curvatures,
    h_umbilicity_deviation,
    hyperplane_base_point,
    hyperplane_samples,
    hyperplane_tangent_basis,
    is_h_umbilical,
    lambda_mu,
    make_h_sphere,
    make_hyperplane,
    make_surface_samples,
    mean_curvature,
    normal_frame,
    normalize_normal_frame,
    project_to_sphere,
    sample,
    second_fundamental,
    shape_operator_fd,
    shape_operator_wrt,
    surface_sample,
    tangent_adapted_basis,
    tangent_rep,
    theoretical_curvatures,
)


def basis_vec(dim, i):
    e = np.zeros(dim)
    e[i] = 1.0
    return e


class TestConstructors:
    def test_isotropic_parameters_rejected(self):
        with pytest.raises(IsotropicParameters):
            make_h_sphere(np.zeros(8), 0.0, 0.0)

    def test_odd_center_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_h_sphere(np.zeros(7), 1.0, 0.0)

    def test_from_curvatures_round_trip(self):
        # (nu, nut) = (0.12, -0.16) comes from the (a, b) = (3, 4) sphere
        sph = h_sphere_from_curvatures(0.12, -0.16, m=4)
        assert sph.a == pytest.approx(3.0, abs=1e-12)
        assert sph.b == pytest.approx(4.0, abs=1e-12)
        params = theoretical_curvatures(sph)
        assert params.nu == pytest.approx(0.12, abs=1e-14)
        assert params.nut == pytest.approx(-0.16, abs=1e-14)

    def test_zero_curvatures_rejected(self):
        with pytest.raises(ZeroCurvatures):
            h_sphere_from_curvatures(0.0, 0.0)

    @pytest.mark.parametrize("x", [1e200, 1e-13, 1e-200])
    def test_parameters_out_of_range_rejected(self, x):
        # x^2 overflows, or falls below 1e-24
        with pytest.raises(IsotropicParameters, match=r"a\^2 \+ b\^2 must be finite"):
            make_h_sphere(np.zeros(8), x, 0.0)
        with pytest.raises(IsotropicParameters, match=re.escape(f"(0.0, {x!r})")):
            make_h_sphere(np.zeros(8), 0.0, np.float64(x))
        with pytest.raises(ZeroCurvatures, match=r"nu\^2 \+ nut\^2 must be finite"):
            h_sphere_from_curvatures(x, 0.0)

    def test_conjugate_flips_nut(self):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        c = conjugate(sph)
        assert c.a == sph.a and c.b == -sph.b
        p = theoretical_curvatures(sph)
        pc = theoretical_curvatures(c)
        assert pc.nu == pytest.approx(p.nu, abs=1e-14)
        assert pc.nut == pytest.approx(-p.nut, abs=1e-14)


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
        fr = normal_frame(sph, p)
        assert np.allclose(fr.xi, -p, atol=1e-14)

    def test_frame_relations(self):
        sph = make_h_sphere(np.zeros(8), -1.0, 2.0)
        for p in sample(sph, 10, seed=6):
            fr = normal_frame(sph, p)
            assert metric_g(fr.xi, fr.xi) == pytest.approx(1.0, abs=1e-12)
            assert metric_g(fr.jxi, fr.jxi) == pytest.approx(-1.0, abs=1e-12)
            assert metric_g(fr.xi, fr.jxi) == pytest.approx(0.0, abs=1e-12)

    def test_off_surface_point_rejected(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        with pytest.raises(PointNotOnSurface):
            normal_frame(sph, 3.0 * basis_vec(8, 0))

    def test_normalize_normal_frame(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        p = sample(sph, 1, seed=7)[0]
        fr = normal_frame(sph, p)
        for s_target in (0.75, -2.0):
            t = -0.5 * np.arcsinh(s_target)
            eta = np.cosh(t) * fr.xi + np.sinh(t) * fr.jxi
            xi, jxi = normalize_normal_frame(eta, apply_J(eta))
            assert metric_g(xi, xi) == pytest.approx(1.0, abs=1e-10)
            assert metric_g(jxi, jxi) == pytest.approx(-1.0, abs=1e-10)
            assert metric_g(xi, jxi) == pytest.approx(0.0, abs=1e-10)
            # recovers the canonical frame up to sign
            assert min(
                np.max(np.abs(xi - fr.xi)), np.max(np.abs(xi + fr.xi))
            ) <= 1e-10

    def test_normalize_rejects_bad_input(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        p = sample(sph, 1, seed=8)[0]
        fr = normal_frame(sph, p)
        with pytest.raises(BadInputNormalization):
            normalize_normal_frame(2.0 * fr.xi, 2.0 * fr.jxi)
        with pytest.raises(BadInputNormalization):
            normalize_normal_frame(fr.xi, fr.xi)


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
        _, _, J_rep, _ = tangent_rep(basis, sph.space)
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
        A_fd = shape_operator_fd(sph, p, list(smp.tangent_basis), step=1e-5)
        assert np.max(np.abs(A_fd - smp.A)) <= 1e-8

    def test_fd_second_order_convergence(self):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        p = sample(sph, 1, seed=13)[0]
        smp = surface_sample(sph, p)
        basis = list(smp.tangent_basis)
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
        with pytest.raises(StepSizeError):
            shape_operator_fd(sph, p, basis, step=1e-14)
        with pytest.raises(StepSizeError):
            shape_operator_fd(sph, p, basis, step=10.0)

    def test_wrt_normal_combinations(self):
        sph = make_h_sphere(np.zeros(8), 2.0, -3.0)
        p = sample(sph, 1, seed=15)[0]
        smp = surface_sample(sph, p)
        _, _, J_rep, _ = tangent_rep(smp.tangent_basis, sph.space)
        assert np.allclose(
            shape_operator_wrt(smp, sph.space, smp.frame.xi), smp.A, atol=1e-10
        )
        assert np.allclose(
            shape_operator_wrt(smp, sph.space, smp.frame.jxi),
            J_rep @ smp.A,
            atol=1e-10,
        )
        assert np.allclose(
            shape_operator_wrt(smp, sph.space, np.zeros(8)), 0.0, atol=1e-12
        )

    def test_wrt_rejects_tangent_vector(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        p = sample(sph, 1, seed=16)[0]
        smp = surface_sample(sph, p)
        with pytest.raises(DimensionMismatch):
            shape_operator_wrt(smp, sph.space, np.asarray(smp.tangent_basis[0]))


class TestSecondFundamental:
    def test_j_compatibility(self):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        p = sample(sph, 1, seed=17)[0]
        smp = surface_sample(sph, p)
        sigma = second_fundamental(smp, sph.space)
        rng = np.random.default_rng(18)
        basis = list(smp.tangent_basis)
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
        sigma = second_fundamental(smp, sph.space)
        mcd = mean_curvature(smp, sph.space)
        rng = np.random.default_rng(20)
        basis = list(smp.tangent_basis)
        for _ in range(10):
            x = sum(c * t for c, t in zip(rng.uniform(-1, 1, 6), basis))
            y = sum(c * t for c, t in zip(rng.uniform(-1, 1, 6), basis))
            want = metric_g(x, y) * mcd.H - metric_gt(x, y) * mcd.JH
            assert np.allclose(sigma(x, y), want, atol=1e-9)


class TestMeanCurvature:
    def test_theorem_22_invariants(self):
        # nu = g(H, H), nut = gt(H, H) for every sphere in the grid
        for a, b in [(1.0, 0.0), (0.0, 1.0), (3.0, 4.0), (-1.0, 2.0), (2.0, -3.0)]:
            sph = make_h_sphere(np.zeros(8), a, b)
            p = sample(sph, 1, seed=22)[0]
            smp = surface_sample(sph, p)
            mcd = mean_curvature(smp, sph.space)
            params = theoretical_curvatures(sph)
            assert mcd.gHH == pytest.approx(params.nu, abs=1e-12)
            assert mcd.gtHH == pytest.approx(params.nut, abs=1e-12)
            assert metric_g(mcd.H, mcd.H) == pytest.approx(params.nu, abs=1e-10)
            assert metric_gt(mcd.H, mcd.H) == pytest.approx(params.nut, abs=1e-10)

    def test_traces(self):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        p = sample(sph, 1, seed=23)[0]
        smp = surface_sample(sph, p)
        mcd = mean_curvature(smp, sph.space)
        lam, mu = lambda_mu(sph)
        assert mcd.traceA == pytest.approx(6 * lam, abs=1e-12)
        assert mcd.traceAJ == pytest.approx(-6 * mu, abs=1e-12)


class TestUmbilicity:
    def test_sphere_is_umbilical(self):
        sph = make_h_sphere(np.zeros(8), 2.0, -3.0)
        for smp in make_surface_samples(sph, 5, seed=24):
            assert is_h_umbilical(smp, sph.space)

    def test_non_umbilical_operator(self):
        A = np.kron(np.eye(2), np.diag([1.0, 2.0, 3.0]))
        assert h_umbilicity_deviation(A, adapted_j_rep(3)) > 0.5


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


class TestFrameGauge:
    def test_shape_data_independent_of_frame_gauge(self):
        # a boosted normal eta' = cosh s xi + sinh s Jxi leaves the normal
        # bundle invariant; renormalizing it must reproduce the canonical
        # frame (up to sign) and the transformed A must map back to A
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        p = sample(sph, 1, seed=27)[0]
        smp = surface_sample(sph, p)
        _, _, J_rep, _ = tangent_rep(smp.tangent_basis, sph.space)
        s = 0.6
        eta = np.cosh(s) * smp.frame.xi + np.sinh(s) * smp.frame.jxi
        # shape operator with respect to the boosted normal obeys the
        # linearity rule: g(Jxi, eta) = -sinh(s), so
        # A_eta = cosh(s) A + sinh(s) (J o A)
        A_eta = shape_operator_wrt(smp, sph.space, eta)
        assert np.allclose(
            A_eta,
            np.cosh(s) * smp.A + np.sinh(s) * (J_rep @ smp.A),
            atol=1e-10,
        )
        eta_unit = eta / np.sqrt(metric_g(eta, eta))
        xi2, jxi2 = normalize_normal_frame(eta_unit, apply_J(eta_unit))
        sign = np.sign(metric_g(xi2, smp.frame.xi))
        assert np.allclose(sign * xi2, smp.frame.xi, atol=1e-10)
        A_back = shape_operator_wrt(smp, sph.space, sign * xi2)
        assert np.allclose(A_back, smp.A, atol=1e-10)


class TestHyperplane:
    def test_normalizes_normal(self):
        hp = make_hyperplane(2.0 * basis_vec(8, 0), 4.0, 2.0)
        assert metric_g(hp.xi, hp.xi) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_nonpositive_normal(self):
        with pytest.raises(DegenerateBasis):
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
            assert metric_g(hp.xi, smp.point) == pytest.approx(hp.d, abs=1e-10)
            assert metric_gt(hp.xi, smp.point) == pytest.approx(hp.dt, abs=1e-10)
            assert np.count_nonzero(smp.A) == 0

    def test_curvatures_vanish(self):
        hp = make_hyperplane(basis_vec(8, 0), 1.0, 0.0)
        smp = hyperplane_samples(hp, 1, seed=29)[0]
        R = gauss_curvature_from_shape(
            smp.A, smp.tangent_basis, SpaceFormParams(0.0, 0.0)
        )
        planes = sample_totally_real_planes(list(smp.tangent_basis), 10, seed=30)
        for pl in planes:
            K, Kt = sectional_curvatures(R, pl)
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
    A_amb = ambient_shape_operator(smp, sph.space)
    lam, mu = lambda_mu(sph)
    for t in smp.tangent_basis:
        t = np.asarray(t)
        assert np.allclose(A_amb @ t, lam * t + mu * apply_J(t), atol=1e-10)


def test_contains_tolerance():
    sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
    p = basis_vec(8, 0)
    assert contains(sph, p)
    assert not contains(sph, 1.1 * p)
