"""Curvature machinery: pi-tensors, the Gauss-equation curvature tensor (a
space form is the case A = 0), sectional curvatures on totally real planes,
constancy reports, Ricci.

Everything acts on vectors along the last axis, so stacks of vectors (and
of shape operators) evaluate in one call; nothing is materialized as a
4-index array.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    apply_J,
    from_complex,
    is_adapted_basis,
    metric_g,
    metric_gt,
    pseudo_orthonormalize,
    random_complex_orthogonal,
    tangent_reps,
    to_complex,
)
from .errors import (
    DegeneratePlane,
    DegenerateBasis,
    DimensionMismatch,
    NotHSymmetric,
    SamplingExhausted,
)

PLANE_DEGENERACY_THRESHOLD = 1e-8


@dataclass(frozen=True)
class SpaceFormParams:
    """Constant totally real sectional curvatures (nu, nut)."""

    nu: float
    nut: float


@dataclass(frozen=True)
class TangentPlane:
    """A 2-plane spanned by x and y, or a stack of planes when x and y are
    stacks (..., 2m); a stack indexes and iterates along its first axis."""

    x: np.ndarray
    y: np.ndarray

    def __len__(self):
        return len(self.x)

    def __getitem__(self, i):
        return TangentPlane(self.x[i], self.y[i])


@dataclass(frozen=True)
class CurvatureStats:
    nu: float
    nut: float
    max_deviation_K: float
    max_deviation_Kt: float
    sample_count: int


def pi_tensors(x, y, z, u):
    """The three fundamental quartic tensors pi1, pi2, pi3."""
    g = metric_g
    gt = metric_gt
    p1 = g(y, z) * g(x, u) - g(x, z) * g(y, u)
    p2 = gt(y, z) * gt(x, u) - gt(x, z) * gt(y, u)
    p3 = (
        -g(y, z) * gt(x, u)
        + g(x, z) * gt(y, u)
        - gt(y, z) * g(x, u)
        + gt(x, z) * g(y, u)
    )
    return p1, p2, p3


class GaussShapeCurvature:
    """Curvature tensor of a hypersurface by the Gauss equation:

        R(x,y,z,u) = R'(x,y,z,u) + pi1(Ax,Ay,z,u) - pi2(Ax,Ay,z,u)

    with R' = nu (pi1 - pi2) + nut pi3 the ambient space form and A_ambient
    the shape operator acting on ambient tangent vectors.  A = 0
    (A_ambient None) is the space form R' itself.  A stack of shape
    operators (..., 2m, 2m) is a stack of tensors; its leading axes
    broadcast against those of the vectors.
    """

    def __init__(self, ambient, A_ambient=None):
        self.ambient = ambient
        self.A_ambient = A_ambient

    def __call__(self, x, y, z, u):
        p1, p2, p3 = pi_tensors(x, y, z, u)
        r = self.ambient.nu * (p1 - p2) + self.ambient.nut * p3
        if self.A_ambient is None:
            return r
        ax, ay = (np.einsum("...ij,...j->...i", self.A_ambient, v) for v in (x, y))
        q1, q2, _ = pi_tensors(ax, ay, z, u)
        return r + q1 - q2


def space_form_curvature(params):
    """R = nu (pi1 - pi2) + nut pi3: the Gauss tensor with A = 0."""
    return GaussShapeCurvature(params)


def gauss_curvature_from_shape(A, tangent_basis, ambient):
    """Gauss tensor of the shape operator A given on a tangent basis (rows);
    it evaluates ambient vectors lying in that tangent space.  Stacks of A
    (..., 2n, 2n) and of bases (..., 2n, 2m) give a stack of tensors."""
    A = np.asarray(A, dtype=float)
    rows = np.asarray(tangent_basis, dtype=float)
    if rows.shape[-2] != A.shape[-1]:
        raise DimensionMismatch("tangent basis size does not match A")
    # coords: ambient tangent vectors -> basis coordinates
    coords, J_rep, Gt = tangent_reps(rows)
    s = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))

    def off(M):
        return (np.abs(M).max(axis=(-2, -1)) > 1e-6 * s).any()

    if off(A @ J_rep - J_rep @ A):
        raise NotHSymmetric("A does not commute with J on the tangent space")
    if off(Gt @ A - np.swapaxes(A, -1, -2) @ Gt):
        raise NotHSymmetric("A is not g-self-adjoint on the tangent space")
    # ambient-acting form of A (valid on tangent vectors)
    return GaussShapeCurvature(ambient, np.swapaxes(rows, -1, -2) @ A @ coords)


def _sectional(R, x, y, threshold):
    """(K, Kt, pi1, ok) of the planes span{x, y} along the last axis:
    K = R(x,y,y,x)/pi1, Kt = R(x,y,y,Jx)/pi1 with pi1 = pi1(x,y,y,x).  ok is
    False, and K, Kt are NaN, where |pi1| is within threshold * |x|^2 |y|^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    den = pi_tensors(x, y, y, x)[0]
    scale = np.sum(x * x, axis=-1) * np.sum(y * y, axis=-1)
    ok = np.abs(den) > threshold * np.maximum(scale, 1e-300)
    safe = np.where(ok, den, np.nan)
    return R(x, y, y, x) / safe, R(x, y, y, apply_J(x)) / safe, den, ok


def sectional_curvatures(R, plane, threshold=PLANE_DEGENERACY_THRESHOLD):
    """(K, Kt) of a non-degenerate 2-plane."""
    K, Kt, den, ok = _sectional(R, plane.x, plane.y, threshold)
    if not ok:
        raise DegeneratePlane(f"pi1 denominator {den:.3e} below threshold")
    return float(K), float(Kt)


def sectional_batch_planes(R, planes, threshold=PLANE_DEGENERACY_THRESHOLD):
    """(K, Kt) over a TangentPlane of stacks, as flat arrays with the
    degenerate planes dropped."""
    K, Kt, _, ok = _sectional(R, planes.x, planes.y, threshold)
    return K[ok], Kt[ok]


def is_totally_real(plane, tol=DEFAULT_TOL):
    """gt vanishes on the plane, the plane is g-non-degenerate, and it is
    transversal to its J-image.  For a TangentPlane of stacks the answer is
    a boolean array."""
    x = np.asarray(plane.x, dtype=float)
    y = np.asarray(plane.y, dtype=float)
    scale = np.maximum(np.maximum(np.sum(x * x, -1), np.sum(y * y, -1)), 1e-300)
    V = np.stack([x, y, apply_J(x), apply_J(y)], axis=-2)
    G = metric_g(V[..., :, None, :], V[..., None, :, :])
    # gt(x, x), gt(x, y), gt(y, y) = g(Jx, x), g(Jx, y), g(Jy, y)
    gt_max = np.max(np.abs(G[..., [2, 2, 3], [0, 1, 1]]), axis=-1)
    pi1 = G[..., 1, 1] * G[..., 0, 0] - G[..., 0, 1] * G[..., 1, 0]
    ok = (
        (gt_max <= tol * scale)
        & (np.abs(np.linalg.det(G)) >= 1e-10 * scale ** 4)
        & (np.abs(pi1) > PLANE_DEGENERACY_THRESHOLD * scale)
    )
    return bool(ok) if np.ndim(ok) == 0 else ok


# fixed (12, n, n) catalog of complex-orthogonal rotations used by the plane
# sampler: the identity, then 11 random members
_CATALOG_SEED = 0x1985
_CATALOG_SIZE = 12
_catalog_cache = {}


def _rotation_catalog(n):
    if n not in _catalog_cache:
        rng = np.random.default_rng(_CATALOG_SEED + n)
        _catalog_cache[n] = np.array([np.eye(n, dtype=complex)] + [
            random_complex_orthogonal(n, rng, im_scale=0.3)
            for _ in range(_CATALOG_SIZE - 1)
        ])
    return _catalog_cache[n]


def sample_totally_real_planes(adapted_basis, count, seed, tol=DEFAULT_TOL):
    """`count` totally real planes inside span(adapted_basis) (2n, 2m), as a
    TangentPlane of stacks (count, 2m); for a stack of bases (..., 2n, 2m),
    one seed per basis, (..., count, 2m).

    Each plane is spanned by two random combinations of the x-half of a
    catalog-rotated copy of the basis; rotation by a structure-group member
    keeps the basis adapted, so the x-half always spans a totally real
    subspace.  Candidates are drawn one attempt at a time from the seed's
    stream and tested in blocks; the planes are the first `count` accepted
    candidates, at most 50 count + 100 attempts in.  Deterministic per seed.
    """
    V = np.asarray(adapted_basis, dtype=float)
    seeds = np.asarray(seed)
    if seeds.shape != V.shape[:-2]:
        raise DimensionMismatch(f"need one seed per basis, got {seeds.shape} for {V.shape[:-2]}")
    if not np.all(is_adapted_basis(V, tol=max(tol, 1e-8))):
        raise DegenerateBasis("input is not an adapted basis")
    n = V.shape[-2] // 2
    # (..., 12, m, n): the m-dim complex reps of every basis, rotated
    rotated = np.swapaxes(to_complex(V[..., None, :n, :]), -1, -2) @ _rotation_catalog(n)
    max_attempts = 50 * max(count, 1) + 100
    out = np.empty(seeds.shape + (2, count, V.shape[-1]))
    for i in np.ndindex(seeds.shape):
        rng = np.random.default_rng(seeds[i])
        have = attempts = 0
        while have < count:
            # a few spare candidates, so that one block usually suffices
            block = min(max_attempts - attempts, count - have + 8)
            if block <= 0:
                raise SamplingExhausted("plane sampling rejection bound exceeded")
            attempts += block
            idx = np.empty(block, dtype=np.intp)
            C = np.empty((block, 2, n))
            for k in range(block):
                idx[k] = rng.integers(_CATALOG_SIZE)
                C[k] = rng.uniform(-1.0, 1.0, size=(2, n))
            # one mat-vec per candidate vector, as the per-attempt Xrot @ c
            Z = (rotated[i][idx][:, None] @ C[..., None])[..., 0]
            xy = np.moveaxis(from_complex(Z), 1, 0)
            ok = np.linalg.det(C @ np.swapaxes(C, -1, -2)) >= 1e-6
            ok &= is_totally_real(TangentPlane(*xy), tol=tol)
            new = xy[:, ok][:, :count - have]
            out[i][:, have:have + new.shape[1]] = new
            have += new.shape[1]
    return TangentPlane(*np.moveaxis(out, -3, 0))


def curvature_constancy_report(R, planes):
    """Mean and max deviation of (K, Kt) over a TangentPlane of stacks."""
    ks, kts = sectional_batch_planes(R, planes)
    if len(ks) < 1:
        raise DegeneratePlane("all planes degenerate")
    return CurvatureStats(
        nu=float(ks.mean()),
        nut=float(kts.mean()),
        max_deviation_K=float(np.max(np.abs(ks - ks.mean()))),
        max_deviation_Kt=float(np.max(np.abs(kts - kts.mean()))),
        sample_count=len(ks),
    )


def ricci(R, basis):
    """Ricci table rho(b_i, b_j) = sum_k eps_k R(E_k, b_i, b_j, E_k).

    E_k is a pseudo-orthonormal frame built from the basis; the sign of the
    contraction is fixed so the hypersurface Ricci identity holds on the
    Kotel'nikov-Study sphere.
    """
    basis = np.asarray(basis, dtype=float)
    frame, signs = pseudo_orthonormalize(basis)
    E = np.array(frame)[:, None, None, :]
    terms = R(E, basis[None, :, None, :], basis[None, None, :, :], E)
    return (np.array(signs)[:, None, None] * terms).sum(axis=0)
