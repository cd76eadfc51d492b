"""Curvature machinery: pi-tensors, the Gauss-equation curvature tensor (the
space form nu + i nut is GaussShapeCurvature(nu + i nut), the case A = 0),
sectional curvatures on totally real planes, Ricci.  A plane span{x, y} is
the pair of arrays x, y; stacks of them are stacks of planes.

Everything acts on vectors along the last axis, so stacks of vectors (and
of shape operators) evaluate in one call; nothing is materialized as a
4-index array.  With q = g + i gt, W(x,y,z,u) = q(y,z) q(x,u) - q(x,z) q(y,u)
gives pi1 - pi2 = Re W, pi3 = -Im W and R = Re B, B = (nu + i nut) W + W(Ax,Ay,z,u);
as q(., Jv) = -i q(., v), R(x,y,y,x) + i R(x,y,y,Jx) is B at (z,u) = (y,x).
A plane is totally real when gt = Im q vanishes on it; the g-Gram matrix of
(x, y, Jx, Jy) has determinant |det Q|^2 for the q-Gram Q of (x, y).
"""

import functools

import numpy as np

from .core import (
    DEFAULT_TOL,
    _require_count,
    bilinear,
    from_complex,
    is_adapted_basis,
    metric_g,
    metric_gt,
    random_complex_orthogonal,
    tangent_reps,
    to_complex,
)
from .errors import NordenError

PLANE_DEGENERACY_THRESHOLD = 1e-8


def pi_tensors(x, y, z, u):
    """The three fundamental quartic tensors pi1, pi2, pi3."""
    x, y, z, u = (to_complex(v) for v in (x, y, z, u))
    yz, xu, xz, yu = bilinear(y, z), bilinear(x, u), bilinear(x, z), bilinear(y, u)
    p1 = yz.real * xu.real - xz.real * yu.real
    p2 = yz.imag * xu.imag - xz.imag * yu.imag
    p3 = -yz.real * xu.imag + xz.real * yu.imag - yz.imag * xu.real + xz.imag * yu.real
    return p1, p2, p3


def _w(x, y, z, u):
    """W(x,y,z,u) = pi1 - pi2 - i pi3."""
    p1, p2, p3 = pi_tensors(x, y, z, u)
    return (p1 - p2) - 1j * p3


class GaussShapeCurvature:
    """Curvature tensor of a hypersurface by the Gauss equation:

        R(x,y,z,u) = R'(x,y,z,u) + pi1(Ax,Ay,z,u) - pi2(Ax,Ay,z,u)

    with R' = nu (pi1 - pi2) + nut pi3 the ambient space form, given as one
    complex number ambient = nu + i nut, and A_ambient the shape operator on
    ambient tangent vectors; A = 0 (A_ambient None) is R' itself.  A stack of
    shape operators (..., 2m, 2m) is a stack of tensors, broadcast as vectors are.
    """

    def __init__(self, ambient=0, A_ambient=None):
        self.ambient = complex(ambient)
        self.A_ambient = A_ambient

    def __call__(self, x, y, z, u):
        return self._bracket(x, y, z, u).real

    def _bracket(self, x, y, z, u):
        """B = (nu + i nut) W(x,y,z,u) + W(Ax,Ay,z,u), so that R = Re B."""
        if self.A_ambient is None:
            return self.ambient * _w(x, y, z, u)
        shape = _w(*(np.einsum("...ij,...j->...i", self.A_ambient, v) for v in (x, y)), z, u)
        # a flat ambient adds R' = 0
        return self.ambient * _w(x, y, z, u) + shape if self.ambient else shape


def gauss_curvature_from_shape(A, tangent_basis, ambient=0):
    """Gauss tensor of the shape operator A given on a tangent basis (rows) over
    the ambient nu + i nut (flat by default); it evaluates ambient vectors lying
    in that tangent space.  Stacks of A (..., 2n, 2n) and of bases (..., 2n, 2m)
    give a stack of tensors."""
    A = np.asarray(A, dtype=float)
    rows = np.asarray(tangent_basis, dtype=float)
    if rows.shape[-2] != A.shape[-1]:
        raise NordenError("tangent basis size does not match A")
    # coords: ambient tangent vectors -> basis coordinates
    coords, J_rep, Gt = tangent_reps(rows)

    def off(M, B):  # M of products of A and B against 1e-6 max|A| max|B|; a NaN fails
        r, a, b = (np.abs(X).max(axis=(-2, -1)) for X in (M, A, B))
        return not (r <= 1e-6 * a * b).all()

    if off(A @ J_rep - J_rep @ A, J_rep):
        raise NordenError("A does not commute with J on the tangent space")
    if off(Gt @ A - np.swapaxes(A, -1, -2) @ Gt, Gt):
        raise NordenError("A is not g-self-adjoint on the tangent space")
    # ambient-acting form of A (valid on tangent vectors)
    return GaussShapeCurvature(ambient, np.swapaxes(rows, -1, -2) @ A @ coords)


def _plane(x, y):
    """(x, y, g, pi1, rho, ok) of the planes span{x, y} along the last axis,
    the kernel of _sectional and is_totally_real.  x, y come back scaled by
    the power of two that puts max(|x|, |y|) into [1/2, 1): that is exact,
    and what the callers read is homogeneous, so (t x, t y) gets the answer
    of (x, y) for any t.  g = (g(x,x), g(x,y), g(y,y)) of the scaled pair,
    pi1 = pi1(x,y,y,x) = g(y,y) g(x,x) - g(x,y)^2, and the plane is
    non-degenerate (ok) where rho = |pi1| / (|x|^2 |y|^2) > PLANE_DEGENERACY_THRESHOLD."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    e = np.frexp(np.maximum(np.abs(x).max(-1, initial=0.0), np.abs(y).max(-1, initial=0.0)))[1]
    x, y = (np.ldexp(v, -np.expand_dims(e, -1)) for v in (x, y))
    g = metric_g(x, x), metric_g(x, y), metric_g(y, y)
    pi1 = g[2] * g[0] - g[1] ** 2
    rho = np.abs(pi1) / np.maximum(np.sum(x * x, -1) * np.sum(y * y, -1), 1e-300)
    return x, y, g, pi1, rho, rho > PLANE_DEGENERACY_THRESHOLD


def _sectional(R, x, y):
    """(K, Kt, rho, ok) of the planes span{x, y} along the last axis:
    K + i Kt = B(x,y,y,x) / pi1(x,y,y,x) for the Gauss bracket B of R, on
    the pair _plane scales; K, Kt are NaN where the plane is degenerate."""
    x, y, _, pi1, rho, ok = _plane(x, y)
    den = np.where(ok, pi1, np.nan)
    num = R._bracket(x, y, y, x)
    return num.real / den, num.imag / den, rho, ok


def sectional_curvatures(R, x, y):
    """(K, Kt) of one non-degenerate 2-plane span{x, y}; sectional_batch_planes
    takes a stack."""
    K, Kt, rho, ok = _sectional(R, x, y)
    if np.ndim(ok):
        raise NordenError(f"one plane expected, got a stack of shape {np.shape(ok)}: "
                          "use sectional_batch_planes")
    if not ok:
        raise NordenError(f"degenerate plane: |pi1| / (|x|^2 |y|^2) = {rho:.3e} "
                          "not above threshold")
    return float(K), float(Kt)


def sectional_batch_planes(R, x, y):
    """(K, Kt) over the planes span{x, y} of stacks x, y (..., 2m), as flat
    arrays with the degenerate planes dropped."""
    K, Kt, _, ok = _sectional(R, x, y)
    return K[ok], Kt[ok]


def is_totally_real(x, y, tol=DEFAULT_TOL):
    """gt vanishes on the plane span{x, y}, the plane is g-non-degenerate,
    and it is transversal to its J-image.  For stacks x, y the answer is a
    boolean array.  All three tests read g and gt = Im q of (x,x), (x,y),
    (y,y) of the pair _plane scales: the g-Gram matrix G of (x, y, Jx, Jy)
    is [[A, B], [B, -A]] for the g- and gt-Grams A, B of (x, y), so
    det G = |det Q|^2, Q = A + iB."""
    x, y, (gxx, gxy, gyy), _, _, ok = _plane(x, y)
    scale = np.maximum(np.sum(x * x, -1), np.sum(y * y, -1))
    gt = metric_gt(x, x), metric_gt(x, y), metric_gt(y, y)
    det_q = (gxx + 1j * gt[0]) * (gyy + 1j * gt[2]) - (gxy + 1j * gt[1]) ** 2
    ok &= np.max(np.abs(gt), axis=0) <= tol * scale
    ok &= np.abs(det_q) ** 2 >= 1e-10 * scale ** 4
    return bool(ok) if np.ndim(ok) == 0 else ok


# fixed (12, n, n) catalog of complex-orthogonal rotations used by the plane
# sampler: the identity, then 11 random members
_CATALOG_SEED = 0x1985
_CATALOG_SIZE = 12


@functools.cache
def _rotation_catalog(n):
    rng = np.random.default_rng(_CATALOG_SEED + n)
    return np.array([np.eye(n, dtype=complex)] + [
        random_complex_orthogonal(n, rng, im_scale=0.3)
        for _ in range(_CATALOG_SIZE - 1)
    ])


def sample_totally_real_planes(adapted_basis, count, seed, tol=DEFAULT_TOL):
    """`count` totally real planes inside span(adapted_basis) (2n, 2m), as the
    pair (X, Y) of stacks (count, 2m) spanning them; for a stack of bases
    (..., 2n, 2m), one seed per basis, each is (..., count, 2m).

    Each plane is spanned by two random combinations of the x-half of a
    catalog-rotated copy of the basis; rotation by a structure-group member
    keeps the basis adapted, so the x-half always spans a totally real
    subspace.  Attempt k of a basis takes the k-th row u of
    np.random.default_rng(seed).random((., 2n + 1)): the catalog member
    floor(12 u[0]) and the two combinations 2 u[1:] - 1 as a (2, n) block.
    A row does not depend on how many rows are drawn at once, so every
    basis still short of planes draws the same block of count + 8 attempts
    and the planes of a smaller count are a prefix of a larger count's.
    Each basis keeps its first `count` accepted attempts, at most
    50 count + 100 attempts in.
    """
    _require_count(count)
    V = np.asarray(adapted_basis, dtype=float)
    seeds = np.asarray(seed)
    if seeds.shape != V.shape[:-2]:
        raise NordenError(f"need one seed per basis, got {seeds.shape} for {V.shape[:-2]}")
    if not np.all(is_adapted_basis(V, tol=max(tol, 1e-8))):
        raise NordenError("input is not an adapted basis")
    n = V.shape[-2] // 2
    V = V.reshape((-1,) + V.shape[-2:])
    # (bases, 12, m, n): the m-dim complex reps of every basis, rotated
    rotated = np.swapaxes(to_complex(V[:, None, :n, :]), -1, -2) @ _rotation_catalog(n)
    rngs = [np.random.default_rng(s) for s in seeds.reshape(-1)]
    left = 50 * count + 100  # attempts each basis may still make
    have = np.zeros(len(V), dtype=np.intp)
    out = np.empty((2, len(V), count, V.shape[-1]))
    while (need := np.flatnonzero(have < count)).size:
        if not left:
            raise NordenError("plane sampling rejection bound exceeded")
        block = min(left, count + 8)
        left -= block
        u = np.array([rngs[i].random((block, 2 * n + 1)) for i in need])
        idx = (_CATALOG_SIZE * u[..., 0]).astype(np.intp)
        # (2, bases, attempts, n): the two combinations of each attempt
        C = np.moveaxis(2.0 * u[..., 1:].reshape(len(need), block, 2, n) - 1.0, 2, 0)
        # one mat-vec per candidate vector, as the per-attempt Xrot @ c
        xy = from_complex((rotated[need[:, None], idx] @ C[..., None])[..., 0])
        c1, c2 = C
        ok = np.vecdot(c1, c1) * np.vecdot(c2, c2) - np.vecdot(c1, c2) ** 2 >= 1e-6  # det C C^T
        ok &= is_totally_real(*xy, tol=tol)
        # 1 + the slot of each accepted attempt
        rank = have[need, None] + np.cumsum(ok, axis=1)
        b, k = np.nonzero(ok & (rank <= count))
        out[:, need[b], rank[b, k] - 1] = xy[:, b, k]
        have[need] = np.minimum(rank[:, -1], count)
    return tuple(out.reshape((2,) + seeds.shape + out.shape[2:]))


def ricci(R, basis):
    """Ricci table rho(b_i, b_j) = sum_kl (G_t^-1)_kl R(b_k, b_i, b_j, b_l).

    G_t is the g-Gram matrix of the basis, so sum_l (G_t^-1)_kl b_l is the
    g-dual basis; the sign of the contraction is fixed so the hypersurface
    Ricci identity holds on the Kotel'nikov-Study sphere.
    """
    basis = np.asarray(basis, dtype=float)
    coords, _, _ = tangent_reps(basis)
    dual = coords * np.repeat([1.0, -1.0], basis.shape[-1] // 2)  # coords G = G_t^-1 B
    return R(basis[:, None, None, :], basis[None, :, None, :],
             basis[None, None, :, :], dual[:, None, None, :]).sum(axis=0)
