"""Tests for the curvature tensors, plane sampling and Ricci contraction."""

import re

import numpy as np
import pytest

from nordenhs.core import apply_J
from nordenhs.curvature import (
    GaussShapeCurvature,
    gauss_curvature_from_shape,
    is_totally_real,
    pi_tensors,
    ricci,
    sample_totally_real_planes,
    sectional_batch_planes,
    sectional_curvatures,
)
from nordenhs.errors import NordenError
from nordenhs.hypersurface import (
    adapted_j_rep,
    make_h_sphere,
    make_surface_samples,
    sample,
    surface_sample,
)


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
        params = complex(0.12, -0.16)
        R = GaussShapeCurvature(params)
        basis = standard_adapted(4)
        planes = sample_totally_real_planes(basis, 30, seed=1)
        for x, y in zip(*planes):
            K, Kt = sectional_curvatures(R, x, y)
            assert K == pytest.approx(0.12, abs=1e-10)
            assert Kt == pytest.approx(-0.16, abs=1e-10)

    def test_batch_matches_scalar(self):
        R = GaussShapeCurvature(complex(1.0, 0.5))
        basis = standard_adapted(4)
        planes = sample_totally_real_planes(basis, 20, seed=2)
        Ks, Kts = sectional_batch_planes(R, *planes)
        for x, y, K, Kt in zip(*planes, Ks, Kts):
            k, kt = sectional_curvatures(R, x, y)
            assert K == pytest.approx(k, abs=1e-11)
            assert Kt == pytest.approx(kt, abs=1e-11)

    def test_degenerate_plane_raises(self):
        R = GaussShapeCurvature(complex(1.0, 0.0))
        e1 = basis_vec(8, 0)
        msg = "degenerate plane: |pi1| / (|x|^2 |y|^2) = 0.000e+00 not above threshold"
        with pytest.raises(NordenError, match=f"^{re.escape(msg)}$"):
            sectional_curvatures(R, e1, 2.0 * e1)

    @pytest.mark.parametrize("rho,degenerate", [(1e-9, True), (1e-7, False)])
    def test_degeneracy_threshold_boundary(self, rho, degenerate):
        # x = e1, y = e1 + eps e2 in the positive block of g: pi1 = eps^2 and
        # |pi1| / (|x|^2 |y|^2) = eps^2 / (1 + eps^2), 0.1 or 10 times the
        # threshold 1e-8; on a real plane the (1, 0) space form has K = 1
        R = GaussShapeCurvature(complex(1.0, 0.0))
        eps = np.sqrt(rho / (1.0 - rho))
        x, y = basis_vec(8, 0), basis_vec(8, 0) + eps * basis_vec(8, 1)
        if degenerate:
            with pytest.raises(NordenError, match=r"degenerate plane: .* = 1\.000e-09 not"):
                sectional_curvatures(R, x, y)
        else:
            K, Kt = sectional_curvatures(R, x, y)
            assert K == pytest.approx(1.0, rel=1e-6) and Kt == 0.0

    def test_stack_of_planes_rejected(self):
        # a stack has one (K, Kt) per plane: sectional_batch_planes takes it
        R = GaussShapeCurvature(complex(1.0, 0.0))
        planes = sample_totally_real_planes(standard_adapted(4), 3, seed=2)
        with pytest.raises(NordenError, match="sectional_batch_planes"):
            sectional_curvatures(R, *planes)


def _h_symmetry_defect(gate, d):
    """A 6 x 6 defect on one gate.  In an adapted g-orthonormal basis G_t =
    diag(I, -I) and J_rep = [[0, -I], [I, 0]]: diag(P, -P) with P = d e11 is
    G_t-self-adjoint, and its commutator with J_rep is off by 2d; diag(K, K)
    with K = d (e12 - e21) commutes with J_rep, and G_t A - A^T G_t is off by 2d."""
    E = np.zeros((6, 6))
    if gate == "commutator":
        E[0, 0], E[3, 3] = d, -d
    else:
        E[0, 1], E[1, 0], E[3, 4], E[4, 3] = d, -d, d, -d
    return E


class TestGaussCurvature:
    def test_umbilical_shape_gives_space_form_values(self):
        # A = 0.4 I + 0.2 J on an h-sphere tangent space should produce
        # (nu, nut) = (0.4^2 - 0.2^2, -2 * 0.4 * 0.2) = (0.12, -0.16)
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        p = sample(sph, 1, 9)[0]
        smp = surface_sample(sph, p)
        R = gauss_curvature_from_shape(
            smp.A, smp.tangent_bases
        )
        planes = sample_totally_real_planes(list(smp.tangent_bases), 25, seed=3)
        for x, y in zip(*planes):
            K, Kt = sectional_curvatures(R, x, y)
            assert K == pytest.approx(0.12, abs=1e-10)
            assert Kt == pytest.approx(-0.16, abs=1e-10)

    def test_rejects_non_h_symmetric_shape(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        p = sample(sph, 1, 10)[0]
        smp = surface_sample(sph, p)
        A = np.asarray(smp.A).copy()
        A[0, 1] += 0.1  # breaks commutation with J
        with pytest.raises(NordenError, match="does not commute with J"):
            gauss_curvature_from_shape(
                A, smp.tangent_bases
            )

    def test_rejects_basis_of_another_size(self):
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        smp = surface_sample(sph, sample(sph, 1, 10)[0])
        with pytest.raises(NordenError, match="tangent basis size does not match A"):
            gauss_curvature_from_shape(smp.A[:4, :4], smp.tangent_bases)

    def test_rejects_j_commuting_shape_not_self_adjoint(self):
        # in an adapted orthonormal basis, diag(K, K) commutes with J_rep, and
        # G_t diag(K, K) with G_t = diag(I, -I) is antisymmetric for antisymmetric K
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        smp = surface_sample(sph, sample(sph, 1, 10)[0])
        K = np.zeros((3, 3))
        K[0, 1], K[1, 0] = 0.1, -0.1
        A = smp.A + np.kron(np.eye(2), K)
        with pytest.raises(NordenError, match="not g-self-adjoint"):
            gauss_curvature_from_shape(A, smp.tangent_bases)

    @pytest.mark.parametrize("factor,fails", [(10.0, True), (0.1, False)])
    @pytest.mark.parametrize("gate,msg", [("commutator", "does not commute with J"),
                                          ("self-adjoint", "not g-self-adjoint")])
    def test_h_symmetry_gate_boundaries(self, gate, msg, factor, fails):
        # the gates read 1e-6 max|A| max|B|, B = J_rep or G_t, with max|B| = 1
        # in the adapted g-orthonormal basis of a (3, 4) sphere sample
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        smp = surface_sample(sph, sample(sph, 1, 10)[0])
        E = _h_symmetry_defect(gate, factor * 1e-6 * np.max(np.abs(smp.A)) / 2)
        if fails:
            with pytest.raises(NordenError, match=msg):
                gauss_curvature_from_shape(smp.A + E, smp.tangent_bases)
        else:
            gauss_curvature_from_shape(smp.A + E, smp.tangent_bases)

    @pytest.mark.parametrize("a,b,t", [(1e12, 0.0, 1.0), (3.0, 4.0, 1e-4), (3.0, 4.0, 1e4)],
                             ids=["c=1e12", "basis*1e-4", "basis*1e4"])
    @pytest.mark.parametrize("factor,fails", [(10.0, True), (0.1, False)])
    @pytest.mark.parametrize("gate,msg", [("commutator", "does not commute with J"),
                                          ("self-adjoint", "not g-self-adjoint")])
    def test_h_symmetry_gates_at_scale(self, gate, msg, factor, fails, a, b, t):
        # max|A| = 1e-6 at c = (1e12, 0); the basis scaled by t keeps A and
        # J_rep and scales G_t by t^2, and with it both sides of the
        # self-adjointness gate
        sph = make_h_sphere(np.zeros(8), a, b)
        smp = surface_sample(sph, sample(sph, 1, 10)[0])
        E = _h_symmetry_defect(gate, factor * 1e-6 * np.max(np.abs(smp.A)) / 2)
        if fails:
            with pytest.raises(NordenError, match=msg):
                gauss_curvature_from_shape(smp.A + E, t * smp.tangent_bases)
        else:
            gauss_curvature_from_shape(smp.A + E, t * smp.tangent_bases)

    def test_far_from_j_commuting_at_large_c(self):
        # 50 % of max|A| = 1e-6 off J-commuting, below a unit floor of 1e-6
        sph = make_h_sphere(np.zeros(8), 1e12, 0.0)
        smp = surface_sample(sph, sample(sph, 1, 10)[0])
        E = _h_symmetry_defect("commutator", 0.25 * np.max(np.abs(smp.A)))
        with pytest.raises(NordenError, match="does not commute with J"):
            gauss_curvature_from_shape(smp.A + E, smp.tangent_bases)

    def test_nan_shape_rejected(self):
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        smp = surface_sample(sph, sample(sph, 1, 10)[0])
        A = smp.A.copy()
        A[2, 4] = np.nan
        with pytest.raises(NordenError, match="does not commute with J"):
            gauss_curvature_from_shape(A, smp.tangent_bases)

    def test_plane_rebasing_invariance(self):
        # sectional curvature depends on the plane, not the spanning pair
        sph = make_h_sphere(np.zeros(8), -1.0, 2.0)
        p = sample(sph, 1, 11)[0]
        smp = surface_sample(sph, p)
        R = gauss_curvature_from_shape(
            smp.A, smp.tangent_bases
        )
        (x,), (y,) = sample_totally_real_planes(list(smp.tangent_bases), 1, seed=4)
        K1, Kt1 = sectional_curvatures(R, x, y)
        K2, Kt2 = sectional_curvatures(R, 2.0 * x + 0.3 * y, -y + 0.1 * x)
        assert K2 == pytest.approx(K1, abs=1e-9)
        assert Kt2 == pytest.approx(Kt1, abs=1e-9)


class TestTotallyReal:
    def test_coordinate_plane(self):
        assert is_totally_real(basis_vec(8, 0), basis_vec(8, 1))

    def test_holomorphic_plane_rejected(self):
        e1 = basis_vec(8, 0)
        assert not is_totally_real(e1, apply_J(e1))

    def test_gt_nonvanishing_rejected(self):
        assert not is_totally_real(basis_vec(8, 0) + basis_vec(8, 4), basis_vec(8, 1))


class TestPlaneSampler:
    def test_deterministic(self):
        basis = standard_adapted(4)
        a = sample_totally_real_planes(basis, 10, seed=42)
        b = sample_totally_real_planes(basis, 10, seed=42)
        for xa, ya, xb, yb in zip(*a, *b):
            assert np.array_equal(xa, xb)
            assert np.array_equal(ya, yb)

    def test_all_planes_totally_real(self):
        basis = standard_adapted(3)
        for x, y in zip(*sample_totally_real_planes(basis, 25, seed=8)):
            assert is_totally_real(x, y, tol=1e-8)

    def test_smaller_count_is_a_prefix(self):
        # attempt k of a basis is row k of its seed's stream, however many
        # rows a block draws, so the first planes do not depend on count
        sph = make_h_sphere(np.zeros(8), -1.137, 1.885)
        bases = make_surface_samples(sph, 3, 16).tangent_bases
        for basis, seed in ((bases[0], 5), (bases, np.array([5, 6, 7]))):
            small = sample_totally_real_planes(basis, 10, seed)
            large = sample_totally_real_planes(basis, 50, seed)
            for s, v in zip(small, large):
                assert np.array_equal(s, v[..., :10, :])

    def test_requires_adapted_basis(self):
        with pytest.raises(NordenError, match="input is not an adapted basis"):
            sample_totally_real_planes(np.eye(8), 5, seed=0)

    def test_one_complex_dimension_exhausts(self):
        # n = 1: every candidate pair is real-collinear, so none is accepted
        basis = np.vstack([basis_vec(8, 0), apply_J(basis_vec(8, 0))])
        with pytest.raises(NordenError, match="plane sampling rejection bound exceeded"):
            sample_totally_real_planes(basis, 5, seed=0)


class TestConstancyReport:
    def test_space_form_report(self):
        R = GaussShapeCurvature(complex(2.0, -1.0))
        planes = sample_totally_real_planes(standard_adapted(4), 40, seed=12)
        K, Kt = sectional_batch_planes(R, *planes)
        assert len(K) == len(Kt) == 40
        assert K.mean() == pytest.approx(2.0, abs=1e-10)
        assert Kt.mean() == pytest.approx(-1.0, abs=1e-10)
        assert np.max(np.abs(K - K.mean())) <= 1e-10
        assert np.max(np.abs(Kt - Kt.mean())) <= 1e-10

    def test_non_umbilical_shape_varies(self):
        # block-diagonal non-umbilical A: curvature depends on the plane
        sph = make_h_sphere(np.zeros(8), 1.0, 0.0)
        p = sample(sph, 1, 13)[0]
        smp = surface_sample(sph, p)
        A = np.kron(np.eye(2), np.diag([1.0, 2.0, 3.0]))  # commutes with J_rep
        R = gauss_curvature_from_shape(
            A, smp.tangent_bases
        )
        planes = sample_totally_real_planes(list(smp.tangent_bases), 30, seed=14)
        K, _ = sectional_batch_planes(R, *planes)
        assert np.max(np.abs(K - K.mean())) > 1e-3


class TestRicci:
    def test_flat_space_form_ricci_zero(self):
        R = GaussShapeCurvature(0j)
        basis = list(standard_adapted(3))
        assert np.allclose(ricci(R, basis), 0.0, atol=1e-12)

    def test_j_compatibility(self):
        # rho(Jx, Jy) = -rho(x, y) follows from R(x,y,z,u) = -R(x,y,Jz,Ju)
        sph = make_h_sphere(np.zeros(8), 2.0, -3.0)
        p = sample(sph, 1, 15)[0]
        smp = surface_sample(sph, p)
        R = gauss_curvature_from_shape(
            smp.A, smp.tangent_bases
        )
        basis = list(smp.tangent_bases)
        rho = ricci(R, basis)
        jbasis = [apply_J(b) for b in basis]
        rho_j = ricci(R, jbasis)
        assert np.allclose(rho_j, -rho, atol=1e-9)

    def test_degenerate_basis_raises(self):
        # e1 + f1 is g-null, so the g-Gram matrix of the basis is singular
        R = GaussShapeCurvature(complex(1.0, 0.0))
        null = basis_vec(8, 0) + basis_vec(8, 4)
        with pytest.raises(NordenError, match="tangent basis g-degenerate"):
            ricci(R, [null])
