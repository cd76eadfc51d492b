"""Curvature machinery: pi-tensors, space-form and Gauss-equation tensors,
sectional curvatures on totally real planes, constancy reports, Ricci.

Curvature tensors are exposed as evaluators over quadruples of vectors;
nothing is materialized as a 4-index array.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import (
    DEFAULT_TOL,
    apply_J,
    is_adapted_basis,
    metric_g,
    metric_gt,
    random_complex_orthogonal,
    tangent_reps,
    to_complex,
    from_complex,
)
from .errors import (
    DegeneratePlane,
    DegenerateBasis,
    DimensionMismatch,
    NotHSymmetric,
    SamplingExhausted,
)
from .core import pseudo_orthonormalize

PLANE_DEGENERACY_THRESHOLD = 1e-8


@dataclass(frozen=True)
class SpaceFormParams:
    """Constant totally real sectional curvatures (nu, nut)."""

    nu: float
    nut: float


@dataclass(frozen=True)
class TangentPlane:
    """A 2-plane spanned by x and y."""

    x: np.ndarray
    y: np.ndarray


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


class SpaceFormCurvature:
    """R = nu (pi1 - pi2) + nut pi3."""

    def __init__(self, params):
        self.params = params

    def __call__(self, x, y, z, u):
        p1, p2, p3 = pi_tensors(x, y, z, u)
        return self.params.nu * (p1 - p2) + self.params.nut * p3

    def apply_shape(self, X):
        """Shape-operator images for the batched kernel (zero here)."""
        return np.zeros_like(X)

    def sectional_batch(self, X, Y):
        X = _kernels._ascontig(X)
        Y = _kernels._ascontig(Y)
        Z = np.zeros_like(X)
        return _kernels.sectional_batch(
            X, Y, Z, Z, self.params.nu, self.params.nut
        )


class GaussShapeCurvature:
    """Tensor of a hypersurface recovered from the Gauss equation:

        R(x,y,z,u) = R'(x,y,z,u) + pi1(Ax,Ay,z,u) - pi2(Ax,Ay,z,u)

    with R' the ambient space form.  A is given on a tangent basis; the
    evaluator accepts ambient vectors lying in that tangent space.
    """

    def __init__(self, A, tangent_basis, ambient, tol=DEFAULT_TOL):
        self.A = np.asarray(A, dtype=float)
        rows = np.asarray(tangent_basis, dtype=float)
        self.T = rows.T
        self.ambient = ambient
        if len(rows) != self.A.shape[0]:
            raise DimensionMismatch("tangent basis size does not match A")
        # coords: ambient tangent vectors -> basis coordinates
        self.coords, self.J_rep, Gt = (x[0] for x in tangent_reps(rows[None]))
        s = max(1.0, float(np.max(np.abs(self.A))))
        if np.max(np.abs(self.A @ self.J_rep - self.J_rep @ self.A)) > 1e-6 * s:
            raise NotHSymmetric("A does not commute with J on the tangent space")
        if np.max(np.abs(Gt @ self.A - self.A.T @ Gt)) > 1e-6 * s:
            raise NotHSymmetric("A is not g-self-adjoint on the tangent space")
        # ambient-acting form of A (valid on tangent vectors)
        self.A_ambient = self.T @ self.A @ self.coords

    def apply_shape(self, X):
        return X @ self.A_ambient.T

    def __call__(self, x, y, z, u):
        ax = self.A_ambient @ np.asarray(x, dtype=float)
        ay = self.A_ambient @ np.asarray(y, dtype=float)
        p1, p2, p3 = pi_tensors(x, y, z, u)
        rp = self.ambient.nu * (p1 - p2) + self.ambient.nut * p3
        q1, q2, _ = pi_tensors(ax, ay, z, u)
        return rp + q1 - q2

    def sectional_batch(self, X, Y):
        X = _kernels._ascontig(X)
        Y = _kernels._ascontig(Y)
        AX = _kernels._ascontig(self.apply_shape(X))
        AY = _kernels._ascontig(self.apply_shape(Y))
        return _kernels.sectional_batch(
            X, Y, AX, AY, self.ambient.nu, self.ambient.nut
        )


def space_form_curvature(params):
    return SpaceFormCurvature(params)


def gauss_curvature_from_shape(A, tangent_basis, ambient, tol=DEFAULT_TOL):
    return GaussShapeCurvature(A, tangent_basis, ambient, tol=tol)


def curvature_tilde(R, x, y, z, u):
    """Rt(x,y,z,u) = R(x,y,z,Ju)."""
    return R(x, y, z, apply_J(u))


def sectional_curvatures(R, plane, threshold=PLANE_DEGENERACY_THRESHOLD):
    """(K, Kt) of a non-degenerate 2-plane."""
    x = np.asarray(plane.x, dtype=float)
    y = np.asarray(plane.y, dtype=float)
    den = metric_g(y, y) * metric_g(x, x) - metric_g(x, y) ** 2
    scale = float(np.sqrt(x @ x) * np.sqrt(y @ y)) ** 2
    if abs(den) <= threshold * max(scale, 1e-300):
        raise DegeneratePlane(f"pi1 denominator {den:.3e} below threshold")
    K = R(x, y, y, x) / den
    Kt = R(x, y, y, apply_J(x)) / den
    return float(K), float(Kt)


def is_totally_real(plane, tol=DEFAULT_TOL):
    """gt vanishes on the plane, the plane is g-non-degenerate, and it is
    transversal to its J-image."""
    x = np.asarray(plane.x, dtype=float)
    y = np.asarray(plane.y, dtype=float)
    scale = max(float(x @ x), float(y @ y), 1e-300)
    if abs(metric_gt(x, x)) > tol * scale:
        return False
    if abs(metric_gt(x, y)) > tol * scale:
        return False
    if abs(metric_gt(y, y)) > tol * scale:
        return False
    vecs = [x, y, apply_J(x), apply_J(y)]
    G = np.array([[metric_g(a, b) for b in vecs] for a in vecs])
    if abs(np.linalg.det(G)) < 1e-10 * scale ** 4:
        return False
    den = metric_g(y, y) * metric_g(x, x) - metric_g(x, y) ** 2
    return abs(den) > PLANE_DEGENERACY_THRESHOLD * scale


# fixed catalog of complex-orthogonal rotations used by the plane sampler
_CATALOG_SEED = 0x1985
_CATALOG_SIZE = 12
_catalog_cache = {}


def _rotation_catalog(n):
    if n not in _catalog_cache:
        rng = np.random.default_rng(_CATALOG_SEED + n)
        _catalog_cache[n] = [np.eye(n, dtype=complex)] + [
            random_complex_orthogonal(n, rng, im_scale=0.3)
            for _ in range(_CATALOG_SIZE - 1)
        ]
    return _catalog_cache[n]


def sample_totally_real_planes(adapted_basis, count, seed, tol=DEFAULT_TOL):
    """Sample totally real planes inside span(adapted_basis).

    Each plane is spanned by two random combinations of the x-half of a
    catalog-rotated copy of the basis; rotation by a structure-group member
    keeps the basis adapted, so the x-half always spans a totally real
    subspace.  Deterministic per seed.
    """
    V = np.asarray(adapted_basis, dtype=float)
    if not is_adapted_basis(V, tol=max(tol, 1e-8)):
        raise DegenerateBasis("input is not an adapted basis")
    n = V.shape[0] // 2
    Zs = np.column_stack([to_complex(v) for v in V[:n]])  # m-dim complex reps
    rng = np.random.default_rng(seed)
    catalog = _rotation_catalog(n)
    planes = []
    attempts = 0
    max_attempts = 50 * max(count, 1) + 100
    while len(planes) < count:
        attempts += 1
        if attempts > max_attempts:
            raise SamplingExhausted("plane sampling rejection bound exceeded")
        Rc = catalog[rng.integers(len(catalog))]
        Xrot = Zs @ Rc  # columns: rotated x-half in complex form
        c1 = rng.uniform(-1.0, 1.0, size=n)
        c2 = rng.uniform(-1.0, 1.0, size=n)
        gram = np.array([[c1 @ c1, c1 @ c2], [c1 @ c2, c2 @ c2]])
        if np.linalg.det(gram) < 1e-6:
            continue
        x = from_complex(Xrot @ c1)
        y = from_complex(Xrot @ c2)
        plane = TangentPlane(x=x, y=y)
        if not is_totally_real(plane, tol=tol):
            continue
        planes.append(plane)
    return planes


def sectional_batch_planes(R, planes, threshold=PLANE_DEGENERACY_THRESHOLD):
    """Vectorized (K, Kt) over a list of planes, degenerate ones dropped."""
    X = np.stack([p.x for p in planes])
    Y = np.stack([p.y for p in planes])
    num, numt, den = R.sectional_batch(X, Y)
    scale = np.einsum("ij,ij->i", X, X) * np.einsum("ij,ij->i", Y, Y)
    ok = np.abs(den) > threshold * np.maximum(scale, 1e-300)
    return num[ok] / den[ok], numt[ok] / den[ok]


def curvature_constancy_report(R, planes):
    """Mean and max deviation of (K, Kt) over the given planes."""
    ks = []
    kts = []
    for p in planes:
        try:
            K, Kt = sectional_curvatures(R, p)
        except DegeneratePlane:
            continue
        ks.append(K)
        kts.append(Kt)
    if len(ks) < 1:
        raise DegeneratePlane("all planes degenerate")
    ks = np.array(ks)
    kts = np.array(kts)
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
    basis = [np.asarray(b, dtype=float) for b in basis]
    frame, signs = pseudo_orthonormalize(basis)
    k = len(basis)
    rho = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            rho[i, j] = sum(
                eps * R(E, basis[i], basis[j], E) for E, eps in zip(frame, signs)
            )
    return rho
