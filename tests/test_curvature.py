"""Tests for the curvature tensors, plane sampling and Ricci contraction."""

import numpy as np
import pytest

from nordenhs.core import NordenSpace, apply_J, random_structure_group_member
from nordenhs.curvature import (
    CurvatureStats,
    SpaceFormParams,
    TangentPlane,
    curvature_constancy_report,
    gauss_curvature_from_shape,
    is_totally_real,
    pi_tensors,
    ricci,
    sample_totally_real_planes,
    sectional_batch_planes,
    sectional_curvatures,
    space_form_curvature,
)
from nordenhs.errors import (
    DegeneratePlane,
    DegenerateBasis,
    NotHSymmetric,
    SamplingExhausted,
)
from nordenhs.hypersurface import adapted_j_rep, make_h_sphere, sample, surface_sample


def basis_vec(dim, i):
    e = np.zeros(dim)
    e[i] = 1.0
    return e


def standard_adapted(m):
    V = np.eye(2 * m)
    return np.vstack([V[:m], [apply_J(V[i]) for i in range(m)]])


class TestPiTensors:
    def test_on_orthonormal_pair(self):
        e1 = basis_vec(8, 0)
        e2 = basis_vec(8, 1)
        p1, p2, p3 = pi_tensors(e1, e2, e2, e1)
        assert (p1, p2, p3) == (1.0, 0.0, 0.0)

    def test_tilde_slot(self):
        # pi2 picks up the gt pairings: x = e1, y = f1 pairs under gt
        e1 = basis_vec(8, 0)
        f1 = basis_vec(8, 4)
        p1, p2, p3 = pi_tensors(e1, f1, f1, e1)
        # p1 = g(f1,f1) g(e1,e1) = -1; p2 = -gt(e1,f1)^2 = -1; p3 cancels
        assert p1 == -1.0
        assert p2 == -1.0
        assert p3 == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(5)
        x, y, z, u = rng.standard_normal((4, 8))
        a = pi_tensors(x, y, z, u)
        b = pi_tensors(y, x, z, u)
        assert np.allclose(a, [-v for v in b], atol=1e-12)


class TestSpaceForm:
    def test_sectional_constancy(self):
        params = SpaceFormParams(nu=0.12, nut=-0.16)
        R = space_form_curvature(params)
        basis = standard_adapted(4)
        planes = sample_totally_real_planes(basis, 30, seed=1)
        for pl in planes:
            K, Kt = sectional_curvatures(R, pl)
            assert K == pytest.approx(0.12, abs=1e-10)
            assert Kt == pytest.approx(-0.16, abs=1e-10)

    def test_batch_matches_scalar(self):
        R = space_form_curvature(SpaceFormParams(nu=1.0, nut=0.5))
        basis = standard_adapted(4)
        planes = sample_totally_real_planes(basis, 20, seed=2)
        Ks, Kts = sectional_batch_planes(R, planes)
        for pl, K, Kt in zip(planes, Ks, Kts):
            k, kt = sectional_curvatures(R, pl)
            assert K == pytest.approx(k, abs=1e-11)
            assert Kt == pytest.approx(kt, abs=1e-11)

    def test_degenerate_plane_raises(self):
        R = space_form_curvature(SpaceFormParams(1.0, 0.0))
        e1 = basis_vec(8, 0)
        with pytest.raises(DegeneratePlane):
            sectional_curvatures(R, TangentPlane(x=e1, y=2.0 * e1))


class TestGaussCurvature:
    def test_umbilical_shape_gives_space_form_values(self):
        # A = 0.4 I + 0.2 J on an h-sphere tangent space should produce
        # (nu, nut) = (0.4^2 - 0.2^2, -2 * 0.4 * 0.2) = (0.12, -0.16)
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        p = sample(sph, 1, 9)[0]
        smp = surface_sample(sph, p)
        R = gauss_curvature_from_shape(
            smp.A, smp.tangent_basis, SpaceFormParams(0.0, 0.0)
        )
        planes = sample_totally_real_planes(list(smp.tangent_basis), 25, seed=3)
        for pl in planes:
            K, Kt = sectional_curvatures(R, pl)
            assert K == pytest.approx(0.12, abs=1e-10)
            assert Kt == pytest.approx(-0.16, abs=1e-10)

    def test_rejects_non_h_symmetric_shape(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        p = sample(sph, 1, 10)[0]
        smp = surface_sample(sph, p)
        A = np.asarray(smp.A).copy()
        A[0, 1] += 0.1  # breaks commutation with J
        with pytest.raises(NotHSymmetric):
            gauss_curvature_from_shape(
                A, smp.tangent_basis, SpaceFormParams(0.0, 0.0)
            )

    def test_plane_rebasing_invariance(self):
        # sectional curvature depends on the plane, not the spanning pair
        sph = make_h_sphere(np.zeros(8), -1.0, 2.0)
        p = sample(sph, 1, 11)[0]
        smp = surface_sample(sph, p)
        R = gauss_curvature_from_shape(
            smp.A, smp.tangent_basis, SpaceFormParams(0.0, 0.0)
        )
        pl = sample_totally_real_planes(list(smp.tangent_basis), 1, seed=4)[0]
        K1, Kt1 = sectional_curvatures(R, pl)
        pl2 = TangentPlane(x=2.0 * pl.x + 0.3 * pl.y, y=-pl.y + 0.1 * pl.x)
        K2, Kt2 = sectional_curvatures(R, pl2)
        assert K2 == pytest.approx(K1, abs=1e-9)
        assert Kt2 == pytest.approx(Kt1, abs=1e-9)


class TestTotallyReal:
    def test_coordinate_plane(self):
        assert is_totally_real(
            TangentPlane(x=basis_vec(8, 0), y=basis_vec(8, 1))
        )

    def test_holomorphic_plane_rejected(self):
        e1 = basis_vec(8, 0)
        assert not is_totally_real(TangentPlane(x=e1, y=apply_J(e1)))

    def test_gt_nonvanishing_rejected(self):
        assert not is_totally_real(
            TangentPlane(x=basis_vec(8, 0) + basis_vec(8, 4), y=basis_vec(8, 1))
        )


class TestPlaneSampler:
    def test_deterministic(self):
        basis = standard_adapted(4)
        a = sample_totally_real_planes(basis, 10, seed=42)
        b = sample_totally_real_planes(basis, 10, seed=42)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.x, pb.x)
            assert np.array_equal(pa.y, pb.y)

    def test_all_planes_totally_real(self):
        basis = standard_adapted(3)
        for pl in sample_totally_real_planes(basis, 25, seed=8):
            assert is_totally_real(pl, tol=1e-8)

    def test_requires_adapted_basis(self):
        with pytest.raises(DegenerateBasis):
            sample_totally_real_planes(np.eye(8), 5, seed=0)

    def test_one_complex_dimension_exhausts(self):
        # n = 1: every candidate pair is real-collinear, so none is accepted
        basis = np.vstack([basis_vec(8, 0), apply_J(basis_vec(8, 0))])
        with pytest.raises(SamplingExhausted):
            sample_totally_real_planes(basis, 5, seed=0)


class TestConstancyReport:
    def test_space_form_report(self):
        R = space_form_curvature(SpaceFormParams(nu=2.0, nut=-1.0))
        planes = sample_totally_real_planes(standard_adapted(4), 40, seed=12)
        stats = curvature_constancy_report(R, planes)
        assert isinstance(stats, CurvatureStats)
        assert stats.nu == pytest.approx(2.0, abs=1e-10)
        assert stats.nut == pytest.approx(-1.0, abs=1e-10)
        assert stats.max_deviation_K <= 1e-10
        assert stats.max_deviation_Kt <= 1e-10
        assert stats.sample_count == 40

    def test_non_umbilical_shape_varies(self):
        # block-diagonal non-umbilical A: curvature depends on the plane
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        p = sample(sph, 1, 13)[0]
        smp = surface_sample(sph, p)
        A = np.kron(np.eye(2), np.diag([1.0, 2.0, 3.0]))  # commutes with J_rep
        R = gauss_curvature_from_shape(
            A, smp.tangent_basis, SpaceFormParams(0.0, 0.0)
        )
        planes = sample_totally_real_planes(list(smp.tangent_basis), 30, seed=14)
        stats = curvature_constancy_report(R, planes)
        assert stats.max_deviation_K > 1e-3


class TestRicci:
    def test_flat_space_form_ricci_zero(self):
        R = space_form_curvature(SpaceFormParams(0.0, 0.0))
        basis = list(standard_adapted(3))
        assert np.allclose(ricci(R, basis), 0.0, atol=1e-12)

    def test_j_compatibility(self):
        # rho(Jx, Jy) = -rho(x, y) follows from R(x,y,z,u) = -R(x,y,Jz,Ju)
        sph = make_h_sphere(np.zeros(8), 2.0, -3.0)
        p = sample(sph, 1, 15)[0]
        smp = surface_sample(sph, p)
        R = gauss_curvature_from_shape(
            smp.A, smp.tangent_basis, SpaceFormParams(0.0, 0.0)
        )
        basis = list(smp.tangent_basis)
        rho = ricci(R, basis)
        jbasis = [apply_J(b) for b in basis]
        rho_j = ricci(R, jbasis)
        assert np.allclose(rho_j, -rho, atol=1e-9)
