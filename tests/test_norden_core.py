"""Tests for the split-signature linear algebra layer."""

import numpy as np
import pytest

from nordenhs.core import (
    HProperDecomposition,
    NordenSpace,
    apply_J,
    bilinear_orthonormalize,
    complex_givens,
    complex_op_to_real,
    complex_scale,
    from_complex,
    h_proper_decomposition,
    is_adapted_basis,
    is_h_symmetric,
    is_structure_group_member,
    metric_g,
    metric_gt,
    pseudo_orthonormalize,
    q_value,
    random_structure_group_member,
    real_op_to_complex,
    to_complex,
)
from nordenhs.errors import (
    DegenerateBasis,
    DimensionMismatch,
    NotHDiagonalizable,
    NotHSymmetric,
)


def basis_vec(dim, i):
    e = np.zeros(dim)
    e[i] = 1.0
    return e


class TestMetrics:
    def test_standard_basis_values(self):
        # e1 is spacelike, f1 = e_{m+1} is timelike; gt pairs them
        e1 = basis_vec(8, 0)
        f1 = basis_vec(8, 4)
        assert metric_g(e1, e1) == 1.0
        assert metric_g(f1, f1) == -1.0
        assert metric_g(e1, f1) == 0.0
        assert metric_gt(e1, f1) == 1.0
        assert metric_gt(e1, e1) == 0.0
        assert metric_gt(e1 + f1, e1 + f1) == 2.0

    def test_j_action_on_basis(self):
        e1 = basis_vec(8, 0)
        f1 = basis_vec(8, 4)
        assert np.array_equal(apply_J(e1), -f1)
        assert np.array_equal(apply_J(f1), e1)

    def test_j_squares_to_minus_identity(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(10)
        assert np.array_equal(apply_J(apply_J(u)), -u)

    def test_anti_isometry(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.standard_normal(8)
            v = rng.standard_normal(8)
            assert metric_g(apply_J(u), apply_J(v)) == pytest.approx(
                -metric_g(u, v), abs=1e-12
            )
            assert metric_gt(u, v) == pytest.approx(
                metric_g(apply_J(u), v), abs=1e-12
            )

    def test_signature(self):
        eig = np.sort(np.linalg.eigvalsh(NordenSpace(4).metric_matrix()))
        assert np.array_equal(eig, np.concatenate([-np.ones(4), np.ones(4)]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            metric_g(np.zeros(4), np.zeros(6))

    def test_space_requires_positive_m(self):
        with pytest.raises(DimensionMismatch):
            NordenSpace(0)


class TestComplexBridge:
    def test_i_acts_as_minus_j(self):
        e1 = basis_vec(8, 0)
        f1 = basis_vec(8, 4)
        # multiplying e1 by i should give the vector whose complex form is i
        assert np.allclose(complex_scale(1j, e1), f1)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(8)
        assert np.allclose(from_complex(to_complex(u)), u)

    def test_q_value_is_bilinear_square(self):
        rng = np.random.default_rng(13)
        u = rng.standard_normal(8)
        z = to_complex(u)
        assert q_value(u) == pytest.approx(complex(z @ z), abs=1e-12)

    def test_complex_square_law(self):
        rng = np.random.default_rng(17)
        u = rng.standard_normal(8)
        c = 1.3 - 0.7j
        assert q_value(complex_scale(c, u)) == pytest.approx(
            c * c * q_value(u), abs=1e-12
        )

    def test_operator_round_trip(self):
        rng = np.random.default_rng(19)
        C = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        S = complex_op_to_real(C)
        assert np.allclose(real_op_to_complex(S), C)
        # real form commutes with J and mirrors the complex action
        J = NordenSpace(4).j_matrix()
        assert np.allclose(S @ J, J @ S)
        u = rng.standard_normal(8)
        assert np.allclose(to_complex(S @ u), C @ to_complex(u))


class TestStructureGroup:
    def test_identity_and_j(self):
        assert is_structure_group_member(np.eye(8))
        # J preserves itself but is an anti-isometry of g
        assert not is_structure_group_member(NordenSpace(4).j_matrix())

    def test_hyperbolic_rotation_member(self):
        # cosh/sinh block in one complex coordinate: a complex rotation
        # by a purely imaginary angle
        t = 0.8
        R = complex_op_to_real(complex_givens(4, 0, 1, 1j * t))
        assert is_structure_group_member(R)

    def test_real_rotation_member(self):
        R = complex_op_to_real(complex_givens(3, 0, 2, 0.6))
        assert is_structure_group_member(R)

    def test_random_members_closed_under_product_and_inverse(self):
        rng = np.random.default_rng(23)
        for m in (2, 3, 4):
            A = random_structure_group_member(m, rng)
            B = random_structure_group_member(m, rng)
            assert is_structure_group_member(A, tol=1e-10)
            assert is_structure_group_member(A @ B, tol=1e-10)
            assert is_structure_group_member(np.linalg.inv(A), tol=1e-10)

    def test_non_member(self):
        M = np.eye(8)
        M[0, 0] = 2.0
        assert not is_structure_group_member(M)

    def test_preserves_metrics_pointwise(self):
        rng = np.random.default_rng(29)
        M = random_structure_group_member(4, rng)
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        assert metric_g(M @ u, M @ v) == pytest.approx(metric_g(u, v), abs=1e-10)
        assert metric_gt(M @ u, M @ v) == pytest.approx(metric_gt(u, v), abs=1e-10)


class TestAdaptedBasis:
    def test_standard_basis_is_adapted(self):
        V = np.eye(8)
        # ordering (e_1..e_4, f_1..f_4): need second half = J(first half)
        W = np.vstack([V[:4], [apply_J(V[i]) for i in range(4)]])
        assert is_adapted_basis(W)

    def test_rotated_basis_stays_adapted(self):
        rng = np.random.default_rng(31)
        M = random_structure_group_member(4, rng)
        V = np.eye(8)
        W = np.vstack(
            [[M @ V[i] for i in range(4)],
             [apply_J(M @ V[i]) for i in range(4)]]
        )
        assert is_adapted_basis(W, tol=1e-9)

    def test_wrong_ordering_rejected(self):
        assert not is_adapted_basis(np.eye(8))


class TestBilinearOrthonormalize:
    def test_anisotropic_span(self):
        rng = np.random.default_rng(37)
        W = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        out = bilinear_orthonormalize(W)
        for i, u in enumerate(out):
            for j, v in enumerate(out):
                expect = 1.0 if i == j else 0.0
                assert complex(u @ v) == pytest.approx(expect, abs=1e-10)

    def test_generic_square_inputs(self):
        # the column a pivot came from is the one dropped; dropping another
        # left isotropic leftovers and raised on generic full-rank input
        for m in (2, 4, 6):
            for seed in range(1, 60):
                rng = np.random.default_rng(seed)
                W = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                V = np.column_stack(bilinear_orthonormalize(W))
                assert np.max(np.abs(V.T @ V - np.eye(m))) <= 1e-10

    def test_isotropic_line_raises(self):
        z = np.array([1.0, 1j], dtype=complex)  # z^T z = 0
        with pytest.raises(NotHDiagonalizable):
            bilinear_orthonormalize(z[:, None])


class TestHProperDecomposition:
    def test_scalar_operator(self):
        # S = 0.4 I + 0.2 J: every vector is h-proper with pair (0.4, 0.2)
        sp = NordenSpace(3)
        S = 0.4 * np.eye(6) + 0.2 * sp.j_matrix()
        dec = h_proper_decomposition(S)
        for lam, mu in dec.pairs:
            assert lam == pytest.approx(0.4, abs=1e-12)
            assert mu == pytest.approx(0.2, abs=1e-12)
        # defining relation S x = lam x + mu J x on each basis vector
        for x, (lam, mu) in zip(dec.basis, dec.pairs):
            assert np.allclose(S @ x, lam * x + mu * apply_J(x), atol=1e-10)

    def test_identity(self):
        dec = h_proper_decomposition(np.eye(8))
        assert dec.pairs == ((1.0, 0.0),) * 4
        assert np.allclose(dec.reconstruct(), np.eye(8), atol=1e-12)

    def test_planted_distinct_spectrum(self):
        rng = np.random.default_rng(41)
        m = 4
        pairs = [(1.0, 0.0), (2.0, -1.0), (-0.5, 0.3), (0.0, 2.0)]
        D = np.diag([lam - 1j * mu for lam, mu in pairs])
        # conjugate by a complex orthogonal matrix: stays complex symmetric
        from nordenhs.core import random_complex_orthogonal

        Q = random_complex_orthogonal(m, rng)
        S = complex_op_to_real(Q @ D @ Q.T)
        dec = h_proper_decomposition(S)
        got = sorted(dec.pairs)
        want = sorted(pairs)
        assert np.allclose(got, want, atol=1e-9)
        s = np.max(np.abs(S))
        assert np.max(np.abs(dec.reconstruct() - S)) <= 1e-10 * s
        # adapted: h-proper vectors plus their J-images form an adapted basis
        assert is_adapted_basis(np.vstack(dec.full_basis()), tol=1e-8)

    def test_planted_repeated_eigenvalue(self):
        rng = np.random.default_rng(43)
        from nordenhs.core import random_complex_orthogonal

        D = np.diag([2.0 - 1.0j, 2.0 - 1.0j, 0.5 + 0.0j])
        Q = random_complex_orthogonal(3, rng)
        S = complex_op_to_real(Q @ D @ Q.T)
        dec = h_proper_decomposition(S)
        assert np.allclose(
            sorted(dec.pairs),
            sorted([(0.5, 0.0), (2.0, 1.0), (2.0, 1.0)]),
            atol=1e-8,
        )
        assert np.max(np.abs(dec.reconstruct() - S)) <= 1e-9 * np.max(np.abs(S))

    def test_not_h_symmetric_rejected(self):
        S = np.eye(8)
        S[0, 1] = 0.5  # breaks the J-commutation block pattern
        with pytest.raises(NotHSymmetric):
            h_proper_decomposition(S)

    def test_nilpotent_not_diagonalizable(self):
        # C = [[1, i], [i, -1]] is complex symmetric with C^2 = 0; its only
        # eigenvector (1, i) is isotropic
        C = np.array([[1.0, 1j], [1j, -1.0]])
        assert np.allclose(C @ C, 0.0)
        S = complex_op_to_real(C)
        assert is_h_symmetric(S)
        with pytest.raises(NotHDiagonalizable):
            h_proper_decomposition(S)


class TestPseudoOrthonormalize:
    def test_signs_and_gram(self):
        rng = np.random.default_rng(47)
        vecs = [rng.standard_normal(8) for _ in range(8)]
        frame, signs = pseudo_orthonormalize(vecs)
        assert sorted(signs) == [-1.0] * 4 + [1.0] * 4
        for i, (u, eps) in enumerate(zip(frame, signs)):
            assert metric_g(u, u) == pytest.approx(eps, abs=1e-8)
            for v in frame[:i]:
                assert metric_g(u, v) == pytest.approx(0.0, abs=1e-8)

    def test_degenerate_direction_raises(self):
        e1 = basis_vec(8, 0)
        f1 = basis_vec(8, 4)
        with pytest.raises(DegenerateBasis):
            pseudo_orthonormalize([e1 + f1])  # null vector


def test_reconstruct_matches_manual():
    # hand-checkable 1-complex-dimensional case embedded in m=2
    dec = HProperDecomposition(
        basis=(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])),
        pairs=((2.0, 3.0), (2.0, 3.0)),
    )
    sp = NordenSpace(2)
    assert np.allclose(
        dec.reconstruct(), 2.0 * np.eye(4) + 3.0 * sp.j_matrix(), atol=1e-12
    )
