"""Tests for the split-signature linear algebra layer."""

import re
import warnings

import numpy as np
import pytest

from nordenhs.core import (
    HProperDecomposition,
    apply_J,
    bilinear_orthonormalize,
    complex_givens,
    complex_op_to_real,
    complex_scale,
    from_complex,
    h_proper_decomposition,
    h_symmetry_residual,
    is_adapted_basis,
    metric_g,
    metric_gt,
    q_value,
    random_complex_orthogonal,
    real_op_to_complex,
    tangent_reps,
    to_complex,
)
from nordenhs.errors import NordenError, NotHDiagonalizable
from structure_group import is_structure_group_member, random_structure_group_member


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
        E = np.eye(8)
        eig = np.sort(np.linalg.eigvalsh(metric_g(E[:, None], E[None])))
        assert np.array_equal(eig, np.concatenate([-np.ones(4), np.ones(4)]))

    def test_dimension_mismatch(self):
        with pytest.raises(NordenError, match="expected equal even-length vectors"):
            metric_g(np.zeros(4), np.zeros(6))


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
        J = apply_J(np.eye(8)).T
        assert np.allclose(S @ J, J @ S)
        u = rng.standard_normal(8)
        assert np.allclose(to_complex(S @ u), C @ to_complex(u))


class TestStructureGroup:
    def test_identity_and_j(self):
        assert is_structure_group_member(np.eye(8))
        # J preserves itself but is an anti-isometry of g
        assert not is_structure_group_member(apply_J(np.eye(8)).T)

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

    @pytest.mark.parametrize("M, member", [
        (complex_op_to_real(complex_givens(4, 0, 1, 360j)), True),  # max|M| 1.1e156
        (complex_op_to_real(complex_givens(4, 0, 1, 400j)), True),  # max|M| 2.6e173
        (1e160 * np.eye(8), False),
        (1e200 * np.eye(8), False),
    ], ids=["givens-360j", "givens-400j", "1e160-I", "1e200-I"])
    def test_huge_matrices_decided_without_overflow(self, M, member):
        # C^T C of these overflows; the check scales M by a power of two first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_structure_group_member(M) is member

    def test_preserves_metrics_pointwise(self):
        rng = np.random.default_rng(29)
        M = random_structure_group_member(4, rng)
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        assert metric_g(M @ u, M @ v) == pytest.approx(metric_g(u, v), abs=1e-10)
        assert metric_gt(M @ u, M @ v) == pytest.approx(metric_gt(u, v), abs=1e-10)


class TestMatrixFormulas:
    """h_symmetry_residual and is_structure_group_member against the
    formulas on explicit matrices G = diag(I, -I) and J of the standard basis."""

    @staticmethod
    def g_and_j(m):
        G = np.diag(np.repeat([1.0, -1.0], m))
        J = np.zeros((2 * m, 2 * m))
        J[:m, m:] = np.eye(m)
        J[m:, :m] = -np.eye(m)
        return G, J

    @staticmethod
    def matrices(m, rng):
        """(scale, matrix): random, near-h-symmetric and structure-group
        matrices at scales 1e-200..1e200, and members perturbed by 1e-12 and 1e-6."""
        for scale in (1e-200, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e200):
            C = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            S = complex_op_to_real(C + C.T)  # h-symmetric
            yield scale, scale * rng.standard_normal((2 * m, 2 * m))
            yield scale, scale * (S + 1e-12 * rng.standard_normal(S.shape))
            yield scale, scale * random_structure_group_member(m, rng)
        for eps in (1e-12, 1e-6):
            M = random_structure_group_member(m, rng)
            yield 1.0, M + eps * rng.standard_normal(M.shape)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_h_symmetry_residual_bit_equal(self, m):
        G, J = self.g_and_j(m)
        for _, S in self.matrices(m, np.random.default_rng(m)):
            expect = (float(np.max(np.abs(S @ J - J @ S))),
                      float(np.max(np.abs(G @ S - S.T @ G))))
            assert h_symmetry_residual(S) == expect

    @pytest.mark.parametrize("m", range(1, 7))
    def test_structure_group_member_same_answer(self, m):
        G, J = self.g_and_j(m)
        answers = []
        for scale, M in self.matrices(m, np.random.default_rng(100 + m)):
            s = max(1.0, float(np.max(np.abs(M))))
            if scale > 1e150:
                # s^2 overflows: the bound 1e-9 s^2 is inf, and neither form
                # decides membership there (FOUND in CHANGES.md)
                continue
            expect = (np.max(np.abs(M @ J - J @ M)) <= 1e-9 * s
                      and np.max(np.abs(M.T @ G @ M - G)) <= 1e-9 * s * s)
            assert is_structure_group_member(M) == expect
            answers.append(expect)
        assert True in answers and False in answers


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

    @pytest.mark.parametrize("shape", [(8,), (3, 8), (4, 7)])
    def test_odd_shape_rejected(self, shape):
        with pytest.raises(NordenError, match="2k vectors of even length"):
            is_adapted_basis(np.ones(shape))


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

    # every column isotropic, their span not: the pivot is a random mixture
    ISOTROPIC = [
        np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2),
        np.array([[1.0, 1.0, 0.0], [1j, -1j, 1.0], [0.0, 0.0, 1j]]) / np.sqrt(2),
    ]

    @pytest.mark.parametrize("W", ISOTROPIC, ids=["2-columns", "3-columns"])
    def test_isotropic_columns_mixed(self, W):
        assert np.max(np.abs(np.sum(W * W, axis=0))) == 0.0
        V = np.column_stack(bilinear_orthonormalize(W))
        k = W.shape[1]
        assert V.shape == W.shape
        assert np.max(np.abs(V.T @ V - np.eye(k))) <= 1e-12
        # V spans the columns of W
        assert np.linalg.matrix_rank(np.column_stack([W, V])) == k

    @staticmethod
    def reprojecting(W):
        """The former loop: each pass re-projects every remaining input column
        through all outputs so far."""
        cols = [W[:, j].copy() for j in range(W.shape[1])]
        rng = np.random.default_rng(0x5EED)
        out = []
        for _ in range(len(cols)):
            cand = []
            for v in cols:
                w = v.copy()
                for e in out:
                    w = w - np.dot(w, e) * e
                cand.append(w)
            ratios = []
            for w in cand:
                nrm2 = float(np.real(np.vdot(w, w)))
                ratios.append(abs(np.dot(w, w)) / nrm2 if nrm2 >= 1e-24 else -1.0)
            pick = int(np.argmax(ratios))
            best = cand[pick]
            if ratios[pick] < 1e-10:
                for _ in range(16):
                    coeffs = rng.standard_normal(len(cand)) + 1j * rng.standard_normal(len(cand))
                    w = sum(c * v for c, v in zip(coeffs, cand))
                    nrm2 = float(np.real(np.vdot(w, w)))
                    if nrm2 >= 1e-24 and abs(np.dot(w, w)) / nrm2 >= 1e-10:
                        best = w
                        pick = int(np.argmax(np.abs(coeffs)))
                        break
                else:
                    raise NotHDiagonalizable("eigenspace contains only isotropic vectors")
            e = best / complex(np.sqrt(complex(np.dot(best, best))))
            idx = int(np.argmax(np.abs(e)))
            lead = e[idx]
            if lead.real < 0 or (abs(lead.real) < 1e-14 and lead.imag < 0):
                e = -e
            out.append(e)
            cols.pop(pick)
        return out

    @pytest.mark.parametrize("m", range(2, 6))
    def test_bit_equal_to_reprojecting_loop(self, m):
        rng = np.random.default_rng(m)
        inputs = [rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
                  for k in range(1, m + 1) for _ in range(5)]
        # pairs of isotropic columns (e_p + i e_q, e_p - i e_q), rotated
        iso = np.zeros((m, 2 * (m // 2)), dtype=complex)
        for j in range(m // 2):
            iso[2 * j, 2 * j:2 * j + 2] = 1.0
            iso[2 * j + 1, 2 * j:2 * j + 2] = 1j, -1j
        inputs += [random_complex_orthogonal(m, rng) @ iso / np.sqrt(2) for _ in range(5)]
        for W in inputs:
            new, old = bilinear_orthonormalize(W), self.reprojecting(W)
            assert len(new) == len(old)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(new, old))


class TestTangentReps:
    # the adapted basis (e1, e2, e3, Je1, Je2, Je3) of a tangent space, m = 4
    BASIS = np.concatenate([np.eye(8)[:3], apply_J(np.eye(8)[:3])])

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_repeated_row_raises_at_every_scale(self, scale):
        V = self.BASIS.copy()
        V[1] = V[0]
        with pytest.raises(NordenError, match="tangent basis g-degenerate"):
            tangent_reps(scale * V)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("eps, degenerate", [(1e-5, False), (1e-7, True)])
    def test_nearly_repeated_row_decided_alike_at_every_scale(self, scale, eps, degenerate):
        # det G_t is about eps^2 at scale 1; an absolute bound on det G_t
        # would decide by the scale instead
        V = self.BASIS.copy()
        V[1] = V[0] + eps * np.eye(8)[1]
        if degenerate:
            with pytest.raises(NordenError, match="tangent basis g-degenerate"):
                tangent_reps(scale * V)
        else:
            tangent_reps(scale * V)

    @pytest.mark.parametrize("k", [-30, -1, 0, 1, 30])
    def test_gate_invariant_under_power_of_two(self, k):
        # the gate reads det(G_t / 2^(e-1)), and G_t / 2^(e-1) does not move
        # when the basis is scaled by 2^k
        coords, J_rep, Gt = tangent_reps(np.ldexp(self.BASIS, k))
        assert np.array_equal(Gt, np.ldexp(np.diag([1.0] * 3 + [-1.0] * 3), 2 * k))
        assert np.array_equal(J_rep, tangent_reps(self.BASIS)[1])


class TestHProperDecomposition:
    def test_scalar_operator(self):
        # S = 0.4 I + 0.2 J: every vector is h-proper with pair (0.4, 0.2)
        S = 0.4 * np.eye(6) + 0.2 * apply_J(np.eye(6)).T
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
        xs = np.array(dec.basis)
        assert is_adapted_basis(np.vstack([xs, apply_J(xs)]), tol=1e-8)

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
        msg = "not h-symmetric: residuals: commutator 5.000e-01, self-adjointness 5.000e-01"
        with pytest.raises(NordenError, match=f"^{re.escape(msg)}$"):
            h_proper_decomposition(S)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN residual fails no comparison, so without the up-front check
        # it would pass the h-symmetry gate and reach np.linalg.eig
        S = np.eye(8)
        S[2, 2] = S[6, 6] = bad
        with pytest.raises(NordenError, match="must be finite"):
            h_proper_decomposition(S)

    def test_nilpotent_not_diagonalizable(self):
        # C = [[1, i], [i, -1]] is complex symmetric with C^2 = 0; its only
        # eigenvector (1, i) is isotropic
        C = np.array([[1.0, 1j], [1j, -1.0]])
        assert np.allclose(C @ C, 0.0)
        S = complex_op_to_real(C)
        assert max(h_symmetry_residual(S)) == 0.0
        with pytest.raises(NotHDiagonalizable):
            h_proper_decomposition(S)


def test_reconstruct_matches_manual():
    # hand-checkable 1-complex-dimensional case embedded in m=2
    dec = HProperDecomposition(
        basis=(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])),
        pairs=((2.0, 3.0), (2.0, 3.0)),
    )
    assert np.allclose(
        dec.reconstruct(), 2.0 * np.eye(4) + 3.0 * apply_J(np.eye(4)).T, atol=1e-12
    )


# the pairs (lambda, mu) of diag(1, 3, 2 - i, 5), sorted
DIAG_PAIRS = [(1.0, 0.0), (2.0, 1.0), (3.0, 0.0), (5.0, 0.0)]


class TestDecompositionScales:
    """h_proper_decomposition's gates are relative to max|S|: t S has t
    times the pairs of S, and each gate rejects an input at 10 times its
    bound and passes one at 0.1 times it, at max|S| = 1e-9 as at 1."""

    @pytest.mark.parametrize("t", [1e-150, 1e-12, 1e-9, 1.0, 1e150])
    def test_scaled_diagonal(self, t):
        # below a unit floor of the grouping (1e-8), t diag(1, 3, 2 - i, 5)
        # came out as four equal pairs t (2.75, 0.25)
        S = complex_op_to_real(t * np.diag([1.0, 3.0, 2.0 - 1.0j, 5.0]))
        got = np.array(sorted(h_proper_decomposition(S).pairs))
        assert np.max(np.abs(got - t * np.array(DIAG_PAIRS))) <= 1e-12 * 5 * t

    def test_small_random_operator_rejected(self):
        # 1e-12 times a random matrix is as far from h-symmetric as the matrix
        S = 1e-12 * np.random.default_rng(5).standard_normal((8, 8))
        with pytest.raises(NordenError, match="not h-symmetric"):
            h_proper_decomposition(S)

    @pytest.mark.parametrize("gate", ["commutator", "self-adjointness"])
    @pytest.mark.parametrize("k", [10.0, 0.1])
    def test_h_symmetry_gates(self, k, gate):
        # S = 1e-9 diag(1, 3, 2 - i, 5) in real form, max|S| = 5e-9.  e on
        # S[m, m] alone is off the J-commuting form by e and keeps GS
        # symmetric; e on P[0, 1] (S[0, 1] and S[m, m + 1]) keeps the form
        # and makes GS - GS^T e
        S = complex_op_to_real(1e-9 * np.diag([1.0, 3.0, 2.0 - 1.0j, 5.0]))
        e = k * 1e-9 * np.max(np.abs(S))
        if gate == "commutator":
            S[4, 4] += e
        else:
            S[0, 1] += e
            S[4, 5] += e
        r_comm, r_sym = h_symmetry_residual(S)
        assert (r_comm if gate == "commutator" else r_sym) == pytest.approx(e, rel=1e-12)
        if k > 1:
            with pytest.raises(NordenError, match="not h-symmetric"):
                h_proper_decomposition(S)
        else:
            got = np.array(sorted(h_proper_decomposition(S).pairs))
            assert np.max(np.abs(got - 1e-9 * np.array(DIAG_PAIRS))) <= 1e-3 * 1e-9

    @pytest.mark.parametrize("k", [10.0, 0.1])
    def test_grouping(self, k):
        # eigenvalues t and t (1 + k 5e-8), k 1e-8 max|S| apart, max|S| = 5t:
        # two pairs at 10 times the grouping bound, one group at 0.1 times
        t = 1e-9
        S = complex_op_to_real(t * np.diag([1.0, 1.0 + k * 5e-8, 3.0, 5.0]))
        pairs = sorted(h_proper_decomposition(S).pairs)
        if k > 1:
            assert np.max(np.abs(np.array(pairs[:2]) - [(t, 0.0), (t * (1 + k * 5e-8), 0.0)])) \
                <= 1e-15 * t
        else:
            assert pairs[0] == pairs[1]

    @pytest.mark.parametrize("k", [10.0, 0.1])
    def test_reconstruction_gate(self, k):
        # C = t (R diag(1, 1 + delta) R^T + diag(3, 5)), R the complex Givens
        # rotation by i theta in the (0, 1) plane.  The eigenvalues 1 and
        # 1 + delta are one group (delta < 1e-8 max|S|), whose mean 1 + delta/2
        # misses C by (delta / 2) cosh(2 theta) t: k 1e-8 max|S| for this delta
        t, cosh2 = 1e-9, 40.0
        R = complex_givens(4, 0, 1, 1j * np.arccosh(cosh2) / 2)
        delta = k * 1e-7 / cosh2
        C = t * (R @ np.diag([1.0, 1.0 + delta, 3.0, 5.0]) @ R.T)
        S = complex_op_to_real(C)
        s = np.max(np.abs(S))
        assert s == pytest.approx(5 * t, rel=1e-6)
        if k > 1:
            with pytest.raises(NotHDiagonalizable, match="reconstruction residual") as err:
                h_proper_decomposition(S)
            residual = float(str(err.value).split()[-1])
        else:
            dec = h_proper_decomposition(S)
            assert dec.pairs[0] == dec.pairs[1]
            residual = np.max(np.abs(dec.reconstruct() - S))
        assert 0.9 * k < residual / (1e-8 * s) < 1.1 * k
