"""Split-signature linear algebra of the flat Norden space.

Vectors are real arrays of length 2m ordered (x^1..x^m; y^1..y^m) and
identified with C^m via z = x + i y.  The complex structure acts as
J(x; y) = (y; -x), so multiplication by i corresponds to -J, and the
complex bilinear square of a vector is q(u) = g(u,u) + i gt(u,u).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBasis,
    DimensionMismatch,
    NotHDiagonalizable,
    NotHSymmetric,
)

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class NordenSpace:
    """Flat ambient arena of real dimension 2m with metrics (g, gt) and J."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise DimensionMismatch("complex dimension m must be >= 1")

    @property
    def dim(self):
        return 2 * self.m

    def metric_matrix(self):
        """Gram matrix of g on the standard basis: diag(I_m, -I_m)."""
        d = np.ones(self.dim)
        d[self.m:] = -1.0
        return np.diag(d)

    def j_matrix(self):
        """Matrix of J in the standard basis (column convention)."""
        m = self.m
        J = np.zeros((2 * m, 2 * m))
        J[:m, m:] = np.eye(m)
        J[m:, :m] = -np.eye(m)
        return J


def _halves(u, v):
    """(u, v, m) as float arrays whose last axes have the same even length 2m."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim < 1 or v.ndim < 1 or u.shape[-1] != v.shape[-1] or u.shape[-1] % 2:
        raise DimensionMismatch(
            f"expected equal even-length vectors, got {u.shape} and {v.shape}"
        )
    return u, v, u.shape[-1] // 2


def metric_g(u, v):
    """Norden metric sum x_u x_v - sum y_u y_v, along the last axis.

    Stacks pair row by row and broadcast against each other, so
    metric_g(X[..., :, None, :], Y[..., None, :, :]) is a Gram matrix.
    """
    u, v, m = _halves(u, v)
    return np.vecdot(u[..., :m], v[..., :m]) - np.vecdot(u[..., m:], v[..., m:])


def metric_gt(u, v):
    """Associated metric gt(u, v) = g(Ju, v), along the last axis."""
    u, v, m = _halves(u, v)
    return np.vecdot(u[..., m:], v[..., :m]) + np.vecdot(u[..., :m], v[..., m:])


def apply_J(u):
    """(x; y) -> (y; -x) along the last axis.  Applying twice gives -u exactly."""
    u = np.asarray(u, dtype=float)
    m = u.shape[-1] // 2
    return np.concatenate([u[..., m:], -u[..., :m]], axis=-1)


def complex_scale(c, u):
    """Multiply by the complex scalar c under the C^m identification.

    i corresponds to -J, hence c = re + i*im acts as re*I - im*J.
    Stacks of scalars c (...) scale stacks of vectors u (..., 2m) row by row.
    """
    c = np.asarray(c, dtype=complex)[..., None]
    u = np.asarray(u, dtype=float)
    return c.real * u - c.imag * apply_J(u)


def q_value(u):
    """Complex bilinear square q(u) = g(u,u) + i gt(u,u), along the last axis."""
    z = to_complex(u)
    return bilinear(z, z)


def to_complex(u):
    """Real (x; y) -> complex x + i y, along the last axis."""
    u = np.asarray(u, dtype=float)
    m = u.shape[-1] // 2
    return u[..., :m] + 1j * u[..., m:]


def from_complex(z):
    """Complex vectors -> real (Re z; Im z), along the last axis."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag], axis=-1)


def complex_op_to_real(C):
    """m x m complex matrix acting on C^m -> its 2m x 2m real form.

    With C = P - iQ the real form is [[P, Q], [-Q, P]]; it automatically
    commutes with J.
    """
    C = np.asarray(C, dtype=complex)
    P = C.real
    Q = -C.imag
    return np.block([[P, Q], [-Q, P]])


def real_op_to_complex(S):
    """Inverse of complex_op_to_real for J-commuting S."""
    S = np.asarray(S, dtype=float)
    m = S.shape[0] // 2
    return S[:m, :m] - 1j * S[:m, m:]


def bilinear(z, w):
    """Non-conjugating complex bilinear form z^T w along the last axis.

    Stacks pair row by row and broadcast against a single vector.  For
    z = to_complex(u), w = to_complex(v) it equals g(u, v) + i gt(u, v).
    """
    return np.sum(np.asarray(z) * np.asarray(w), axis=-1)


def _scale(M):
    return max(1.0, float(np.max(np.abs(M))))


def h_symmetry_residual(S):
    """Max-norm residuals (commutator with J, g-self-adjointness)."""
    S = np.asarray(S, dtype=float)
    sp = NordenSpace(S.shape[0] // 2)
    J = sp.j_matrix()
    G = sp.metric_matrix()
    r_comm = float(np.max(np.abs(S @ J - J @ S)))
    r_sym = float(np.max(np.abs(G @ S - S.T @ G)))
    return r_comm, r_sym


def is_h_symmetric(S, tol=DEFAULT_TOL):
    r_comm, r_sym = h_symmetry_residual(S)
    s = _scale(S)
    return r_comm <= tol * s and r_sym <= tol * s


def is_structure_group_member(M, tol=DEFAULT_TOL):
    """True iff M preserves both J and g (the group r(O(m, C)))."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2 != 0:
        raise DimensionMismatch(f"expected square 2m x 2m matrix, got {M.shape}")
    m = M.shape[0] // 2
    sp = NordenSpace(m)
    J = sp.j_matrix()
    G = sp.metric_matrix()
    s = _scale(M)
    if np.max(np.abs(M @ J - J @ M)) > tol * s:
        return False
    return float(np.max(np.abs(M.T @ G @ M - G))) <= tol * s * s


def is_adapted_basis(vectors, tol=DEFAULT_TOL):
    """Check (x_1..x_m, Jx_1..Jx_m) ordering and the Gram relations.

    Requires the second half to equal J applied to the first half, with
    g(x_i, x_j) = delta_ij and g(x_i, Jx_j) = 0 within tol.  For a stack of
    bases (..., 2k, 2m) the answer is a boolean array.
    """
    V = np.asarray(vectors, dtype=float)
    if V.ndim < 2 or V.shape[-2] % 2 != 0 or V.shape[-1] % 2 != 0:
        raise DimensionMismatch("expected 2k vectors of even length")
    k = V.shape[-2] // 2
    s = np.maximum(1.0, np.abs(V).max(axis=(-2, -1)))
    Z = to_complex(V[..., :k, :])
    gram = Z @ np.swapaxes(Z, -1, -2) - np.eye(k)  # g(x_i, x_j) - delta_ij + i gt(x_i, x_j)
    off_j = np.abs(V[..., k:, :] - apply_J(V[..., :k, :])).max(axis=(-2, -1))
    off_g = np.maximum(np.abs(gram.real), np.abs(gram.imag)).max(axis=(-2, -1))
    ok = (off_j <= tol * s) & (off_g <= tol * s * s)
    return bool(ok) if ok.ndim == 0 else ok


def tangent_reps(T):
    """(coords, J_rep, G_t) for a stack of tangent bases T (N, 2n, 2m) with
    the vectors as rows: G_t the g-Gram matrices, coords (N, 2n, 2m) the
    maps from ambient tangent vectors to basis coordinates, J_rep the
    matrices of J in the bases."""
    T = np.asarray(T, dtype=float)
    m = T.shape[-1] // 2
    TG = T.copy()  # rows of T^T G, G = diag(I, -I)
    TG[..., m:] *= -1.0
    Gt = TG @ np.swapaxes(T, -1, -2)
    if (np.abs(np.linalg.det(Gt)) < 1e-12).any():
        raise DegenerateBasis("tangent basis g-degenerate")
    coords = np.linalg.solve(Gt, TG)
    return coords, coords @ np.swapaxes(apply_J(T), -1, -2), Gt


# ---------------------------------------------------------------------------
# structure-group catalog
# ---------------------------------------------------------------------------

def complex_givens(m, p, q, theta):
    """Complex-orthogonal Givens rotation in the (p, q) plane of C^m.

    cos/sin of a complex angle keep cos^2 + sin^2 = 1, so the matrix is in
    O(m, C) exactly (up to round-off).
    """
    R = np.eye(m, dtype=complex)
    c = np.cos(theta)
    s = np.sin(theta)
    R[p, p] = c
    R[q, q] = c
    R[p, q] = -s
    R[q, p] = s
    return R


def random_complex_orthogonal(m, rng, im_scale=0.4):
    """Product of 2m complex Givens rotations with bounded imaginary angles."""
    if m == 1:
        return np.eye(1, dtype=complex)
    R = np.eye(m, dtype=complex)
    for _ in range(2 * m):
        p, q = rng.choice(m, size=2, replace=False)
        theta = rng.uniform(-np.pi, np.pi) + 1j * rng.uniform(-im_scale, im_scale)
        R = complex_givens(m, int(p), int(q), theta) @ R
    return R


def random_structure_group_member(m, rng, im_scale=0.4):
    """Random member of r(O(m, C)) as a real 2m x 2m matrix."""
    return complex_op_to_real(random_complex_orthogonal(m, rng, im_scale=im_scale))


# ---------------------------------------------------------------------------
# bilinear Gram-Schmidt and the adapted eigen-decomposition
# ---------------------------------------------------------------------------

ISO_TOL = 1e-10


def _principal_sqrt(c):
    return complex(np.sqrt(complex(c)))


def _fix_sign(z):
    idx = int(np.argmax(np.abs(z)))
    lead = z[idx]
    if lead.real < 0 or (abs(lead.real) < 1e-14 and lead.imag < 0):
        return -z
    return z


def bilinear_orthonormalize(W, iso_tol=ISO_TOL, max_combos=16):
    """B-orthonormalize the span of the columns of W (B(z,w) = z^T w).

    Pivots on the candidate with the largest |B(v,v)| / ||v||^2; when every
    candidate is isotropic, deterministic pseudo-random combinations are
    tried before giving up.  The column the pivot came from (for a
    combination, the one with the largest coefficient) leaves the
    candidates, so the rest still span the remaining directions.  Raises
    NotHDiagonalizable when the span admits no anisotropic vector
    (diagonalization in an adapted basis is then impossible).
    """
    W = np.asarray(W, dtype=complex)
    cols = [W[:, j].copy() for j in range(W.shape[1])]
    rng = np.random.default_rng(0x5EED)
    out = []
    for _ in range(len(cols)):
        # project remaining candidates against the output so far
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
        if ratios[pick] < iso_tol:
            # every single candidate is isotropic; try mixtures
            for _ in range(max_combos):
                coeffs = rng.standard_normal(len(cand)) + 1j * rng.standard_normal(
                    len(cand)
                )
                w = sum(c * v for c, v in zip(coeffs, cand))
                nrm2 = float(np.real(np.vdot(w, w)))
                if nrm2 >= 1e-24 and abs(np.dot(w, w)) / nrm2 >= iso_tol:
                    best = w
                    pick = int(np.argmax(np.abs(coeffs)))
                    break
            else:
                raise NotHDiagonalizable(
                    "eigenspace contains only isotropic vectors"
                )
        e = best / _principal_sqrt(np.dot(best, best))
        out.append(_fix_sign(e))
        cols.pop(pick)
    return out


@dataclass(frozen=True)
class HProperDecomposition:
    """Adapted eigenbasis data of an h-symmetric operator.

    basis holds the m real h-proper vectors x_k (the other half of the
    adapted basis is J x_k); pairs holds (lambda_k, mu_k) with
    S x_k = lambda_k x_k + mu_k J x_k.
    """

    basis: tuple
    pairs: tuple

    def full_basis(self):
        xs = [np.asarray(x) for x in self.basis]
        return xs + [apply_J(x) for x in xs]

    def reconstruct(self):
        """Rebuild the 2m x 2m real operator from the spectral data."""
        V = np.column_stack([to_complex(x) for x in self.basis])
        d = np.array([lam - 1j * mu for lam, mu in self.pairs])
        C = V @ np.diag(d) @ V.T
        return complex_op_to_real(C)


def h_proper_decomposition(S, tol=DEFAULT_TOL):
    """Adapted basis of h-proper vectors of an h-symmetric operator.

    Maps S to its m x m complex symmetric matrix, diagonalizes, and
    orthonormalizes each eigenspace under the complex bilinear form.  The
    complex eigenvalue lambda - i mu yields the real pair (lambda, mu).
    """
    S = np.asarray(S, dtype=float)
    s = _scale(S)
    r_comm, r_sym = h_symmetry_residual(S)
    if r_comm > tol * s or r_sym > tol * s:
        raise NotHSymmetric(
            f"residuals: commutator {r_comm:.3e}, self-adjointness {r_sym:.3e}"
        )
    C = real_op_to_complex(S)
    m = C.shape[0]
    evals, evecs = np.linalg.eig(C)
    order = np.lexsort((evals.imag, evals.real))
    evals = evals[order]
    evecs = evecs[:, order]

    group_tol = 1e-8 * s
    basis_c = []
    pairs = []
    i = 0
    while i < m:
        j = i + 1
        while j < m and abs(evals[j] - evals[i]) <= group_tol:
            j += 1
        lam_c = evals[i:j].mean()
        vecs = bilinear_orthonormalize(evecs[:, i:j])
        for v in vecs:
            basis_c.append(v)
            pairs.append((float(lam_c.real), float(-lam_c.imag)))
        i = j

    V = np.column_stack(basis_c)
    # cross-eigenspace bilinear orthogonality is automatic for a symmetric
    # matrix; a defective input shows up as V^T V far from identity
    gram_err = float(np.max(np.abs(V.T @ V - np.eye(m))))
    if gram_err > 1e-6:
        raise NotHDiagonalizable(f"eigenbasis Gram residual {gram_err:.3e}")
    dec = HProperDecomposition(
        basis=tuple(from_complex(v) for v in basis_c), pairs=tuple(pairs)
    )
    recon_err = float(np.max(np.abs(dec.reconstruct() - S)))
    if recon_err > 1e-8 * s:
        raise NotHDiagonalizable(f"reconstruction residual {recon_err:.3e}")
    return dec


def pseudo_orthonormalize(vectors, tol=1e-8):
    """Indefinite real Gram-Schmidt: returns (frame, signs) with
    g(E_i, E_j) = eps_i delta_ij, eps_i = +-1."""
    frame = []
    signs = []
    for v in vectors:
        w = np.asarray(v, dtype=float).copy()
        for e, eps in zip(frame, signs):
            w = w - eps * metric_g(w, e) * e
        n2 = metric_g(w, w)
        if abs(n2) < tol * max(1.0, float(w @ w)):
            raise DegenerateBasis("g-degenerate direction in basis")
        frame.append(w / np.sqrt(abs(n2)))
        signs.append(1.0 if n2 > 0 else -1.0)
    return frame, signs
