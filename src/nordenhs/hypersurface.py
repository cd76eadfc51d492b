"""Model holomorphic hypersurfaces of the flat Norden space.

Implements the two model surfaces (h-spheres and holomorphic hyperplanes),
point sampling, normal frames, shape operators (closed form and finite
difference), second fundamental form, mean curvature, h-umbilicity and the
Codazzi residual check.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    NordenSpace,
    apply_J,
    bilinear,
    from_complex,
    metric_g,
    metric_gt,
    q_value,
    tangent_reps,
    to_complex,
)
from .curvature import SpaceFormParams
from .errors import (
    BadInputNormalization,
    DegenerateBasis,
    DimensionMismatch,
    IsotropicParameters,
    NordenError,
    PointNotOnSurface,
    SamplingExhausted,
    StepSizeError,
    ZeroCurvatures,
)


@dataclass(frozen=True)
class HSphere:
    """Locus g(Z - z0, Z - z0) = a, gt(Z - z0, Z - z0) = b."""

    space: NordenSpace
    center: np.ndarray
    a: float
    b: float


@dataclass(frozen=True)
class HolomorphicHyperplane:
    """Locus g(xi, Z) = d, gt(xi, Z) = dt with unit normal xi."""

    space: NordenSpace
    xi: np.ndarray
    d: float
    dt: float


@dataclass(frozen=True)
class NormalFrame:
    point: np.ndarray
    xi: np.ndarray
    jxi: np.ndarray


@dataclass(frozen=True)
class SurfaceSample:
    """Second-order record: point, normal frame, tangent basis (2n vectors)
    and the shape operator A expressed in tangent-basis coordinates."""

    point: np.ndarray
    frame: NormalFrame
    tangent_basis: tuple
    A: np.ndarray


@dataclass(frozen=True, eq=False)
class SampleStack:
    """N second-order records as arrays: points and unit normals xi
    (N, 2m), tangent bases (N, 2n, 2m) with the vectors as rows and shape
    operators (N, 2n, 2n).  Indexing and iteration (through __getitem__)
    give SurfaceSample records."""

    points: np.ndarray
    xi: np.ndarray
    tangent_bases: np.ndarray
    A: np.ndarray

    @classmethod
    def of(cls, samples):
        """The stack of a sequence of SurfaceSample records (or the stack)."""
        if isinstance(samples, cls):
            return samples
        return cls(
            points=np.array([s.point for s in samples], dtype=float),
            xi=np.array([s.frame.xi for s in samples], dtype=float),
            tangent_bases=np.array([s.tangent_basis for s in samples], dtype=float),
            A=np.array([s.A for s in samples], dtype=float),
        )

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        p, xi = self.points[i], self.xi[i]
        return SurfaceSample(
            point=p,
            frame=NormalFrame(point=p, xi=xi, jxi=apply_J(xi)),
            tangent_basis=self.tangent_bases[i],
            A=self.A[i],
        )


@dataclass(frozen=True)
class MeanCurvatureData:
    H: np.ndarray
    JH: np.ndarray
    gHH: float
    gtHH: float
    traceA: float
    traceAJ: float


def _require_radius(names, a, b, error):
    """error unless a^2 + b^2 is finite and above 1e-24 (in Python floats,
    which overflow to inf without a warning)."""
    if not 1e-24 < float(a) * float(a) + float(b) * float(b) < float("inf"):
        x, y = names
        raise error(f"({x}, {y}) = ({float(a)!r}, {float(b)!r}) is not an h-sphere: "
                    f"{x}^2 + {y}^2 must be finite and above 1e-24")


def make_h_sphere(center, a, b):
    center = np.asarray(center, dtype=float)
    if center.ndim != 1 or center.shape[0] % 2 != 0 or center.shape[0] < 4:
        raise DimensionMismatch("center must have even length >= 4")
    if not (np.isfinite(center).all() and np.isfinite(a) and np.isfinite(b)):
        raise NordenError(f"a, b and the center must be finite, got a={a}, b={b}")
    _require_radius(("a", "b"), a, b, IsotropicParameters)
    return HSphere(
        space=NordenSpace(center.shape[0] // 2), center=center, a=float(a), b=float(b)
    )


def h_sphere_from_curvatures(nu, nut, m=4):
    """Sphere with prescribed constant curvatures (nu, nut)."""
    _require_radius(("nu", "nut"), nu, nut, ZeroCurvatures)
    den = nu * nu + nut * nut
    return make_h_sphere(np.zeros(2 * m), nu / den, -nut / den)


def conjugate(s):
    """Same center and a, with b negated; flips the sign of nut."""
    return HSphere(space=s.space, center=s.center, a=s.a, b=-s.b)


def theoretical_curvatures(s):
    den = s.a * s.a + s.b * s.b
    return SpaceFormParams(nu=s.a / den, nut=-s.b / den)


def lambda_mu(s):
    """The normal-frame coefficients: lambda^2 - mu^2 = a/(a^2+b^2),
    2 lambda mu = b/(a^2+b^2), branch lambda >= 0 (mu >= 0 when lambda = 0).
    """
    r2 = s.a * s.a + s.b * s.b
    r = np.sqrt(r2)
    # 0.5 x / r2 rounds as x / (2 r2), and 2 r2 may overflow
    lam = np.sqrt(max(0.0, 0.5 * (r + s.a) / r2))
    mu = np.sqrt(max(0.0, 0.5 * (r - s.a) / r2))
    if lam >= 1e-15 and s.b < 0:
        mu = -mu
    return float(lam), float(mu)


def containment_residual(s, p):
    """(g(Z, Z) - a, gt(Z, Z) - b) with Z = p - z0, for a point or a stack."""
    q = q_value(np.asarray(p, dtype=float) - s.center)
    return q.real - s.a, q.imag - s.b


def scaled_containment_residual(s, p):
    """Largest containment residual relative to max(1, |a| + |b| + |Z|^2)."""
    w = np.asarray(p, dtype=float) - s.center
    rg, rgt = containment_residual(s, p)
    scale = np.maximum(abs(s.a) + abs(s.b) + np.sum(w * w, axis=-1), 1.0)
    return np.maximum(np.abs(rg), np.abs(rgt)) / scale


def contains(s, p, tol=1e-8):
    return scaled_containment_residual(s, p) <= tol


def _on_surface(s, P, tol):
    """P as a float array; PointNotOnSurface unless every point is on s."""
    P = np.asarray(P, dtype=float)
    bad = ~contains(s, P, tol=tol)
    if bad.any():
        rg, rgt = containment_residual(s, P[np.unravel_index(np.argmax(bad), bad.shape)])
        raise PointNotOnSurface(f"residuals g: {rg:.3e}, gt: {rgt:.3e}")
    return P


def _isotropic(W):
    """Rows of W too close to the isotropic cone to be rescaled."""
    return np.abs(q_value(W)) < 1e-10 * np.maximum(np.sum(W * W, axis=-1), 1e-300)


def _rescale(s, W):
    """z0 + c W, with the complex factor c = sqrt((a + ib) / q(W)) per row
    landing exactly on the quadric."""
    c = np.sqrt(complex(s.a, s.b) / q_value(W))
    return s.center + from_complex(c[..., None] * to_complex(W))


def project_to_sphere(s, p):
    """Rescale p - z0 (a point or a stack) onto the quadric."""
    W = np.asarray(p, dtype=float) - s.center
    if _isotropic(W).any():
        raise SamplingExhausted("isotropic direction cannot be projected")
    return _rescale(s, W)


def sample(s, count, seed):
    """Draw `count` points on the sphere, as a (count, 2m) array, by Gaussian
    directions rescaled onto the quadric.  Deterministic per seed."""
    rng = np.random.default_rng(seed)
    bound = 100 * max(count, 1) + 100
    kept = [np.empty((0, s.space.dim))]
    have = drawn = 0
    while have < count:
        if drawn >= bound:
            raise SamplingExhausted("sphere sampling rejection bound exceeded")
        W = rng.standard_normal((min(count - have, bound - drawn), s.space.dim))
        drawn += len(W)
        W = W[~_isotropic(W)]
        kept.append(W)
        have += len(W)
    return _rescale(s, np.concatenate(kept))


def _normals(s, P):
    """Canonical normals xi = -lambda Z - mu JZ, Z = p - z0."""
    lam, mu = lambda_mu(s)
    Z = P - s.center
    return -lam * Z - mu * apply_J(Z)


def normal_frame(s, p, tol=1e-8):
    """Canonical frame xi = -lambda Z - mu JZ, Z = p - z0, at a point or at
    each point of a stack."""
    p = _on_surface(s, p, tol)
    xi = _normals(s, p)
    return NormalFrame(point=p, xi=xi, jxi=apply_J(xi))


def normalize_normal_frame(eta, jeta, tol=1e-8):
    """Rotate a pair (eta, J eta) with g(eta,eta)=1 into a frame satisfying
    g(xi,xi) = -g(Jxi,Jxi) = 1 and g(xi,Jxi) = 0, along the last axis.
    BadInputNormalization if any pair of a stack fails a check."""
    eta = np.asarray(eta, dtype=float)
    jeta = np.asarray(jeta, dtype=float)
    off_j = np.max(np.abs(jeta - apply_J(eta)), axis=-1)
    # not all(r <= tol) rather than any(r > tol), so that a NaN residual fails
    if not (off_j <= tol * np.maximum(1.0, np.max(np.abs(eta), axis=-1))).all():
        raise BadInputNormalization("second vector is not J of the first")
    if not ((np.abs(metric_g(eta, eta) - 1.0) <= tol)
            & (np.abs(metric_g(jeta, jeta) + 1.0) <= tol)).all():
        raise BadInputNormalization("eta is not g-unit")
    t = np.arcsinh(metric_gt(eta, eta))[..., None]  # g(eta, J eta) = gt(eta, eta)
    xi = (np.cosh(t / 2.0) * eta + np.sinh(t / 2.0) * jeta) / np.cosh(t)
    return xi, apply_J(xi)


def _complement_bases(zeta):
    """Adapted bases (N, 2(m-1), 2m), as rows, of the bilinear-orthogonal
    complements of the complex directions zeta (N, m).

    The complex orthogonal reflection H = I - 2 w w^T / (w^T w) with
    w = e_k - zh, zh = zeta / sqrt(q(zeta)), swaps e_k and zh, so its
    columns j != k are bilinear-orthonormal and orthogonal to zeta.  Taking
    k = argmax |1 - zh_k| keeps w^T w = 2 (1 - zh_k) away from 0: zh^T zh = 1
    rules out zh_k close to 1 for every k when m >= 2.
    """
    qz = bilinear(zeta, zeta)
    if (np.abs(qz) < 1e-12 * np.sum(np.abs(zeta) ** 2, axis=-1)).any():
        raise DegenerateBasis("isotropic normal direction")
    count, m = zeta.shape
    zh = zeta / np.sqrt(qz)[:, None]
    k = np.argmax(np.abs(1.0 - zh), axis=1)
    w = -zh
    w[np.arange(count), k] += 1.0
    H = np.eye(m) - (2.0 / bilinear(w, w))[:, None, None] * (w[:, :, None] * w[:, None, :])
    # H is symmetric: rows j != k are its columns j != k
    keep = np.arange(m - 1) + (np.arange(m - 1) >= k[:, None])
    X = from_complex(np.take_along_axis(H, keep[:, :, None], axis=1))
    return np.concatenate([X, apply_J(X)], axis=1)


def tangent_adapted_basis(s, p, tol=1e-8):
    """Adapted basis of the tangent space at p: 2(m-1) vectors (rows)
    x_1..x_n, Jx_1..Jx_n orthogonal to p - z0 and J(p - z0)."""
    p = _on_surface(s, p, tol)
    return _complement_bases(to_complex(p - s.center)[None])[0]


def adapted_j_rep(n):
    """Representation of J in an adapted basis (t_1..t_n, Jt_1..Jt_n)."""
    J = np.zeros((2 * n, 2 * n))
    J[n:, :n] = np.eye(n)
    J[:n, n:] = -np.eye(n)
    return J


def tangent_rep(tangent_basis, space):
    """(T, coords, J_rep, G_t) for one tangent basis; T has the vectors as
    columns."""
    T = np.asarray(tangent_basis, dtype=float)
    if T.ndim != 2 or T.shape[1] != space.dim:
        raise DimensionMismatch(f"expected tangent vectors of length {space.dim}")
    return (T.T, *(x[0] for x in tangent_reps(T[None])))


def default_fd_step(s, p):
    return 1e-5 * (1.0 + np.linalg.norm(np.asarray(p) - s.center, axis=-1))


def shape_operators_fd(s, P, T, step=None):
    """Central-difference Weingarten maps (N, 2n, 2n) in tangent-basis
    coordinates at a stack of points P (N, 2m) with bases T (N, 2n, 2m).

    Moves along each basis direction, re-projects onto the quadric by the
    exact complex rescaling, differentiates the canonical normal field and
    projects back onto the tangent space.
    """
    P = np.asarray(P, dtype=float)
    T = np.asarray(T, dtype=float)
    scale = 1.0 + np.linalg.norm(P - s.center, axis=-1)
    h = default_fd_step(s, P) if step is None else np.full(len(P), float(step))
    for bad, what in ((h <= 1e-12 * scale, "small"), (h > 0.05 * scale, "large")):
        if bad.any():
            raise StepSizeError(f"step {h[bad][0]:.3e} too {what}")
    coords, _, _ = tangent_reps(T)
    dP = h[:, None, None] * T
    xi_p = _normals(s, _on_surface(s, project_to_sphere(s, P[:, None] + dP), 1e-8))
    xi_m = _normals(s, _on_surface(s, project_to_sphere(s, P[:, None] - dP), 1e-8))
    dxi = (xi_p - xi_m) / (2.0 * h[:, None, None])  # row i: along t_i
    return -coords @ np.swapaxes(dxi, 1, 2)


def shape_operator_fd(s, p, tangent_basis, step=None):
    """Central-difference Weingarten map at one point (shape_operators_fd)."""
    P, T = (np.asarray(x, dtype=float)[None] for x in (p, tangent_basis))
    return shape_operators_fd(s, P, T, step=step)[0]


def surface_samples(s, P, fd=False, step=None, tol=1e-8):
    """Second-order records at a stack of points of an h-sphere."""
    P = _on_surface(s, P, tol)
    T = _complement_bases(to_complex(P - s.center))
    if fd:
        A = shape_operators_fd(s, P, T, step=step)
    else:
        n = T.shape[1] // 2
        lam, mu = lambda_mu(s)
        A = np.tile(lam * np.eye(2 * n) + mu * adapted_j_rep(n), (len(P), 1, 1))
    return SampleStack(points=P, xi=_normals(s, P), tangent_bases=T, A=A)


def surface_sample(s, p, fd=False, step=None, tol=1e-8):
    """Full second-order record at a point of an h-sphere."""
    return surface_samples(s, np.asarray(p, dtype=float)[None], fd=fd, step=step, tol=tol)[0]


def make_surface_samples(s, count, seed, fd=False, step=None):
    return surface_samples(s, sample(s, count, seed), fd=fd, step=step)


def _ambient_shape_operators(stack):
    """The shape operators of a SampleStack acting on ambient tangent
    vectors, (N, 2m, 2m)."""
    coords, _, _ = tangent_reps(stack.tangent_bases)
    return np.swapaxes(stack.tangent_bases, 1, 2) @ stack.A @ coords


def ambient_shape_operator(sample, space):
    """A as an operator on ambient tangent vectors."""
    return _ambient_shape_operators(SampleStack.of([sample]))[0]


def second_fundamental(sample, space):
    """sigma(x, y) = g(Ax, y) xi - gt(Ax, y) J xi for ambient tangent x, y,
    or for stacks of them along the last axis."""
    A_amb = ambient_shape_operator(sample, space)
    xi = sample.frame.xi
    jxi = sample.frame.jxi

    def sigma(x, y):
        ax = np.asarray(x, dtype=float) @ A_amb.T
        return metric_g(ax, y)[..., None] * xi - metric_gt(ax, y)[..., None] * jxi

    return sigma


def shape_operator_wrt(sample, space, eta, tol=1e-8):
    """Shape operator with respect to an arbitrary normal vector eta:
    A_eta = g(xi, eta) A - g(Jxi, eta) (J o A)."""
    eta = np.asarray(eta, dtype=float)
    scale = max(1.0, float(np.max(np.abs(eta))))
    for t in sample.tangent_basis:
        if abs(metric_g(eta, t)) > tol * scale * max(1.0, float(np.max(np.abs(t)))):
            raise DimensionMismatch("eta is not normal to the tangent space")
    _, _, J_rep, _ = tangent_rep(sample.tangent_basis, space)
    c1 = metric_g(sample.frame.xi, eta)
    c2 = metric_g(sample.frame.jxi, eta)
    return c1 * sample.A - c2 * (J_rep @ sample.A)


def mean_curvature(sample, space):
    """Mean curvature vector and its Norden norms per the trace formulas."""
    _, _, J_rep, _ = tangent_rep(sample.tangent_basis, space)
    two_n = sample.A.shape[0]
    tr_a = float(np.trace(sample.A))
    tr_aj = float(np.trace(sample.A @ J_rep))
    H = (tr_a * sample.frame.xi - tr_aj * sample.frame.jxi) / two_n
    return MeanCurvatureData(
        H=H,
        JH=apply_J(H),
        gHH=(tr_a / two_n) ** 2 - (tr_aj / two_n) ** 2,
        gtHH=2.0 * (tr_a / two_n) * (tr_aj / two_n),
        traceA=tr_a,
        traceAJ=tr_aj,
    )


def h_umbilicity_deviation(A, J_rep):
    """Max-norm distance of A from (trA/2n) I - (tr(AoJ)/2n) J, for one
    matrix or each of a stack."""
    two_n = A.shape[-1]
    tr_a = np.trace(A, axis1=-2, axis2=-1)[..., None, None]
    tr_aj = np.trace(A @ J_rep, axis1=-2, axis2=-1)[..., None, None]
    model = (tr_a / two_n) * np.eye(two_n) - (tr_aj / two_n) * J_rep
    return np.max(np.abs(A - model), axis=(-2, -1))


def is_h_umbilical(sample, space, tol=1e-8):
    _, _, J_rep, _ = tangent_rep(sample.tangent_basis, space)
    scale = max(1.0, float(np.max(np.abs(sample.A))))
    return h_umbilicity_deviation(sample.A, J_rep) <= tol * scale


def _tangential_projectors(Xi):
    """Projectors v -> v - g(v, xi) xi + g(v, Jxi) Jxi onto the tangent
    spaces with canonical normals Xi (N, 2m)."""
    m = Xi.shape[-1] // 2
    g = np.r_[np.ones(m), -np.ones(m)]
    JXi = apply_J(Xi)
    return (np.eye(2 * m) - Xi[:, :, None] * (g * Xi)[:, None, :]
            + JXi[:, :, None] * (g * JXi)[:, None, :])


def codazzi_residual(s, p, step=1e-4):
    """Max over tangent basis pairs of ||(grad_x A) y - (grad_y A) x||.

    The shape-operator field is estimated by finite differences of the FD
    Weingarten map; for h-spheres the analytic value is zero.  The inner
    Weingarten step is the outer step, so the truncation error of the A-field
    varies smoothly with h and the residual shows its second-order decrease
    before hitting round-off.
    """
    h = float(step)
    p = np.asarray(p, dtype=float)
    T = tangent_adapted_basis(s, p)
    # p, then its neighbours p + h t_i and p - h t_i on the quadric
    Q = np.concatenate([p[None], project_to_sphere(s, p + h * T),
                        project_to_sphere(s, p - h * T)])
    st = surface_samples(s, Q, fd=True, step=h)
    A = _ambient_shape_operators(st)
    proj = _tangential_projectors(st.xi)
    # y extended by tangential projection: (grad_{t_i} A) y = nabla[i] y
    n2 = len(T)
    d_a = (A[1:n2 + 1] @ proj[1:n2 + 1] - A[n2 + 1:] @ proj[n2 + 1:]) / (2.0 * h)
    d_y = (proj[1:n2 + 1] - proj[n2 + 1:]) / (2.0 * h)
    nabla = proj[0] @ d_a - A[0] @ proj[0] @ d_y
    R = nabla @ T.T  # R[i, :, j] = (grad_{t_i} A) t_j
    return float(np.max(np.abs(R - R.transpose(2, 1, 0))))


# ---------------------------------------------------------------------------
# holomorphic hyperplanes
# ---------------------------------------------------------------------------

def make_hyperplane(xi, d, dt):
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or xi.shape[0] % 2 != 0:
        raise DimensionMismatch("xi must have even length")
    g = metric_g(xi, xi)
    if g <= 0:
        raise DegenerateBasis("normal must have positive g-square")
    xi = xi / np.sqrt(g)
    return HolomorphicHyperplane(
        space=NordenSpace(xi.shape[0] // 2), xi=xi, d=float(d), dt=float(dt)
    )


def hyperplane_base_point(hp):
    """A point on the plane: d xi - dt J xi."""
    return hp.d * hp.xi - hp.dt * apply_J(hp.xi)


def hyperplane_tangent_basis(hp):
    """Adapted basis of the (constant) tangent space, as rows."""
    return _complement_bases(to_complex(hp.xi)[None])[0]


def hyperplane_samples(hp, count, seed, spread=2.0):
    """Totally geodesic samples (A = 0) of a holomorphic hyperplane."""
    rng = np.random.default_rng(seed)
    T = hyperplane_tangent_basis(hp)
    coeffs = rng.uniform(-spread, spread, size=(count, len(T)))
    return SampleStack(
        points=hyperplane_base_point(hp) + coeffs @ T,
        xi=np.tile(hp.xi, (count, 1)),
        tangent_bases=np.tile(T, (count, 1, 1)),
        A=np.zeros((count, len(T), len(T))),
    )
