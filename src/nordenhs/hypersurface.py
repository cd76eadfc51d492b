"""Model holomorphic hypersurfaces of the flat Norden space.

Implements the two model surfaces (h-spheres and holomorphic hyperplanes),
point sampling, normal frames (xi, J xi), shape operators (closed form and
finite difference), second fundamental form, mean curvature and the
Codazzi residual check.

Second-order samples are one type, SampleStack, holding one record or a
stack of them.  One complex root per h-sphere, kappa = lambda - i mu =
1/sqrt(a + ib), gives the unit directions kappa (p - z0), the canonical
normals xi = -kappa (p - z0) and, from the same directions, the tangent
bases.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    _require_count,
    apply_J,
    bilinear,
    complex_scale,
    from_complex,
    metric_g,
    metric_gt,
    q_value,
    tangent_reps,
    to_complex,
)
from .errors import NordenError


@dataclass(frozen=True)
class HSphere:
    """Locus g(Z - z0, Z - z0) = a, gt(Z - z0, Z - z0) = b."""

    center: np.ndarray
    a: float
    b: float


@dataclass(frozen=True)
class HolomorphicHyperplane:
    """Locus g(xi, Z) = d, gt(xi, Z) = dt with unit normal xi: q(xi, xi) =
    g(xi, xi) + i gt(xi, xi) = 1."""

    xi: np.ndarray
    d: float
    dt: float


@dataclass(frozen=True, eq=False)
class SampleStack:
    """Second-order records of a hypersurface: points and unit normals xi
    (..., 2m), tangent bases (..., 2n, 2m) with the vectors as rows and
    shape operators A (..., 2n, 2n) in tangent-basis coordinates.  One
    record has no leading axis; a stack of N has the axis N, and indexes and
    iterates along it, stack[i] being the one-record SampleStack i."""

    points: np.ndarray
    xi: np.ndarray
    tangent_bases: np.ndarray
    A: np.ndarray

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return SampleStack(self.points[i], self.xi[i], self.tangent_bases[i], self.A[i])


def make_h_sphere(center, a, b):
    center = np.asarray(center, dtype=float)
    if center.ndim != 1 or center.shape[0] % 2 != 0 or center.shape[0] < 4:
        raise NordenError("center must have even length >= 4")
    if not (np.isfinite(center).all() and np.isfinite(a) and np.isfinite(b)):
        raise NordenError(f"a, b and the center must be finite, got a={a}, b={b}")
    # a^2 + b^2 in Python floats, which overflow to inf without a warning
    if not 1e-24 < float(a) * float(a) + float(b) * float(b) < float("inf"):
        raise NordenError(f"(a, b) = ({float(a)!r}, {float(b)!r}) is not an h-sphere: "
                          "a^2 + b^2 must be finite and above 1e-24")
    return HSphere(center=center, a=float(a), b=float(b))


def conjugate(s):
    """Same center and a, with b negated; flips the sign of nut."""
    return HSphere(center=s.center, a=s.a, b=-s.b)


def theoretical_curvatures(s):
    """The totally real sectional curvatures as one complex number 1/(a + ib)."""
    den = s.a * s.a + s.b * s.b
    return complex(s.a / den, -s.b / den)


def _kappa(s):
    """kappa = 1/sqrt(a + ib) on the principal branch, b = -0 read as +0."""
    return 1.0 / np.sqrt(complex(s.a, s.b + 0.0))


def lambda_mu(s):
    """The normal-frame coefficients (lambda, mu) of kappa = lambda - i mu =
    1/sqrt(a + ib), so that kappa^2 = nu + i nut: lambda^2 - mu^2 =
    a/(a^2+b^2) and 2 lambda mu = b/(a^2+b^2).  The principal branch gives
    lambda >= 0; b = -0 is read as +0, so mu >= 0 when lambda = 0."""
    k = _kappa(s)
    return float(k.real), 0.0 - float(k.imag)  # 0.0 - 0.0 is +0: no -0 is printed


def containment_residual(s, p):
    """(g(Z, Z) - a, gt(Z, Z) - b) with Z = p - z0, for a point or a stack."""
    q = q_value(np.asarray(p, dtype=float) - s.center)
    return q.real - s.a, q.imag - s.b


def scaled_containment_residual(s, p):
    """Largest containment residual, less its round-off, relative to
    |a| + |b| + |Z|^2.  Z = p - z0 carries up to about 2 eps |z0| from the
    rounding of p and of z0, so q(Z) up to 4 eps |Z| |z0|: that much is not
    counted.  The allowance and the scale both grow as |w|^2 under p -> w p."""
    w = np.asarray(p, dtype=float) - s.center
    rg, rgt = containment_residual(s, p)
    zz = np.sum(w * w, axis=-1)
    roundoff = 4 * np.finfo(float).eps * np.sqrt(zz) * np.linalg.norm(s.center)
    excess = np.maximum(np.maximum(np.abs(rg), np.abs(rgt)) - roundoff, 0.0)
    return excess / (abs(s.a) + abs(s.b) + zz)


def contains(s, p):
    """Whether a point, or each point of a stack, is on s: its scaled
    containment residual is at most 1e-8, on spheres of every size.  Every
    on-surface check uses this threshold."""
    return scaled_containment_residual(s, p) <= 1e-8


def _on_surface(s, P):
    """P as a float array; NordenError unless every point is on s."""
    P = np.asarray(P, dtype=float)
    bad = ~contains(s, P)
    if bad.any():
        rg, rgt = containment_residual(s, P[np.unravel_index(np.argmax(bad), bad.shape)])
        raise NordenError(f"point off the h-sphere: residuals g: {rg:.3e}, gt: {rgt:.3e}")
    return P


def _isotropic(W):
    """Rows of W too close to the isotropic cone to be rescaled."""
    return np.abs(q_value(W)) < 1e-10 * np.maximum(np.sum(W * W, axis=-1), 1e-300)


def _rescale(s, W):
    """z0 + c W, with the complex factor c = sqrt((a + ib) / q(W)) per row
    landing exactly on the quadric."""
    return s.center + complex_scale(np.sqrt(complex(s.a, s.b) / q_value(W)), W)


def project_to_sphere(s, p):
    """Rescale p - z0 (a point or a stack) onto the quadric."""
    W = np.asarray(p, dtype=float) - s.center
    if _isotropic(W).any():
        raise NordenError("isotropic direction cannot be projected")
    return _rescale(s, W)


def sample(s, count, seed):
    """Draw `count` points on the sphere, as a (count, 2m) array, by Gaussian
    directions rescaled onto the quadric.  Deterministic per seed."""
    _require_count(count)
    rng = np.random.default_rng(seed)
    bound = 100 * count + 100
    dim = len(s.center)
    kept = [np.empty((0, dim))]
    have = drawn = 0
    while have < count:
        if drawn >= bound:
            raise NordenError("sphere sampling rejection bound exceeded")
        W = rng.standard_normal((min(count - have, bound - drawn), dim))
        drawn += len(W)
        W = W[~_isotropic(W)]
        kept.append(W)
        have += len(W)
    return _rescale(s, np.concatenate(kept))


def normal_frame(s, p):
    """Canonical frame (xi, J xi), xi = -kappa Z = -lambda Z - mu JZ,
    Z = p - z0, at a point or at each point of a stack."""
    xi = -from_complex(_unit_directions(s, _on_surface(s, p)))
    return xi, apply_J(xi)


def normalize_normal_frame(eta, jeta):
    """Rotate a pair (eta, J eta) with g(eta,eta)=1 into a frame satisfying
    g(xi,xi) = -g(Jxi,Jxi) = 1 and g(xi,Jxi) = 0, along the last axis.
    NordenError if any pair of a stack fails a check within 1e-8."""
    tol = 1e-8
    eta = np.asarray(eta, dtype=float)
    jeta = np.asarray(jeta, dtype=float)
    off_j = np.max(np.abs(jeta - apply_J(eta)), axis=-1)
    # not all(r <= tol) rather than any(r > tol), so that a NaN residual fails
    if not (off_j <= tol * np.maximum(1.0, np.max(np.abs(eta), axis=-1))).all():
        raise NordenError("second vector is not J of the first")
    if not ((np.abs(metric_g(eta, eta) - 1.0) <= tol)
            & (np.abs(metric_g(jeta, jeta) + 1.0) <= tol)).all():
        raise NordenError("eta is not g-unit")
    t = np.arcsinh(metric_gt(eta, eta))[..., None]  # g(eta, J eta) = gt(eta, eta)
    xi = (np.cosh(t / 2.0) * eta + np.sinh(t / 2.0) * jeta) / np.cosh(t)
    return xi, apply_J(xi)


def _complement_bases(zh):
    """Adapted bases (N, 2(m-1), 2m), as rows, of the bilinear-orthogonal
    complements of the complex unit directions zh (N, m), zh^T zh = 1.

    The complex orthogonal reflection H = I - 2 w w^T / (w^T w) with
    w = e_k - zh swaps e_k and zh, so its columns j != k are
    bilinear-orthonormal and orthogonal to zh.  Taking k = argmax |1 - zh_k|
    keeps w^T w = 2 (1 - zh_k) away from 0: zh^T zh = 1 rules out zh_k close
    to 1 for every k when m >= 2.
    """
    if (np.abs(bilinear(zh, zh)) < 1e-12 * np.sum(np.abs(zh) ** 2, axis=-1)).any():
        raise NordenError("isotropic normal direction")
    count, m = zh.shape
    k = np.argmax(np.abs(1.0 - zh), axis=1)
    w = -zh
    w[np.arange(count), k] += 1.0
    H = np.eye(m) - (2.0 / bilinear(w, w))[:, None, None] * (w[:, :, None] * w[:, None, :])
    # H is symmetric: rows j != k are its columns j != k
    keep = np.arange(m - 1) + (np.arange(m - 1) >= k[:, None])
    X = from_complex(np.take_along_axis(H, keep[:, :, None], axis=1))
    return np.concatenate([X, apply_J(X)], axis=1)


def _unit_directions(s, P):
    """kappa Z = Z / sqrt(a + ib) as complex vectors, Z = p - z0, for points P
    on the sphere, where q(Z) = a + ib.  The one root kappa serves the whole
    sphere; the per-point sqrt(q(Z)) would flip sign between neighbouring
    points through round-off when a + ib lies on its branch cut (b = 0, a < 0)."""
    return to_complex(P - s.center) * _kappa(s)


def tangent_adapted_basis(s, p):
    """Adapted basis of the tangent space at p: 2(m-1) vectors (rows)
    x_1..x_n, Jx_1..Jx_n orthogonal to p - z0 and J(p - z0)."""
    p = _on_surface(s, p)
    return _complement_bases(_unit_directions(s, p[None]))[0]


def adapted_j_rep(n):
    """Representation of J in an adapted basis (t_1..t_n, Jt_1..Jt_n)."""
    return -apply_J(np.eye(2 * n)).T


def _fd_steps(s, P, step):
    """The FD step at each point of a stack P (N, 2m): 1e-5 (sqrt|a + ib| + |p - z0|),
    relative to the sphere, or `step`, scalar or per point, in (1e-12, 0.05]
    times 1 + |p - z0|."""
    norm = np.linalg.norm(P - s.center, axis=-1)
    if step is None:
        return 1e-5 * (np.sqrt(abs(complex(s.a, s.b))) + norm)
    h, scale = np.broadcast_arrays(np.asarray(step, dtype=float), 1.0 + norm)
    for bad, what in ((h <= 1e-12 * scale, "small"), (h > 0.05 * scale, "large")):
        if bad.any():
            raise NordenError(f"step {h[bad][0]:.3e} too {what}")
    return h


def shape_operators_fd(s, P, T, step=None):
    """Central-difference Weingarten maps (N, 2n, 2n) in tangent-basis
    coordinates at a stack of points P (N, 2m) with bases T (N, 2n, 2m).

    Moves along each basis direction, re-projects onto the quadric by the
    exact complex rescaling, differentiates the canonical normal field and
    projects back onto the tangent space.
    """
    P = np.asarray(P, dtype=float)
    T = np.asarray(T, dtype=float)
    h = _fd_steps(s, P, step)
    coords, _, _ = tangent_reps(T)
    dP = h[:, None, None] * T
    # kappa Z, minus the canonical normals, at p + h t_i and at p - h t_i
    U_p, U_m = (_unit_directions(s, _on_surface(s, project_to_sphere(s, P[:, None] + d)))
                for d in (dP, -dP))
    dxi = from_complex(U_m - U_p) / (2.0 * h[:, None, None])  # row i: along t_i
    return -coords @ np.swapaxes(dxi, 1, 2)


def shape_operator_fd(s, p, tangent_basis, step=None):
    """Central-difference Weingarten map at one point (shape_operators_fd)."""
    P, T = (np.asarray(x, dtype=float)[None] for x in (p, tangent_basis))
    return shape_operators_fd(s, P, T, step=step)[0]


def surface_samples(s, P, fd=False, step=None):
    """Second-order records at a stack of points of an h-sphere."""
    P = _on_surface(s, P)
    U = _unit_directions(s, P)  # the normals are -U
    T = _complement_bases(U)
    if fd:
        A = shape_operators_fd(s, P, T, step=step)
    else:
        n = T.shape[1] // 2
        lam, mu = lambda_mu(s)
        A = np.tile(lam * np.eye(2 * n) + mu * adapted_j_rep(n), (len(P), 1, 1))
    return SampleStack(points=P, xi=-from_complex(U), tangent_bases=T, A=A)


def surface_sample(s, p):
    """Closed-form second-order record at a point of an h-sphere."""
    return surface_samples(s, np.asarray(p, dtype=float)[None])[0]


def make_surface_samples(s, count, seed, fd=False, step=None):
    return surface_samples(s, sample(s, count, seed), fd=fd, step=step)


def ambient_shape_operator(sample):
    """A of one record or of each record of a stack as an operator on
    ambient tangent vectors, (..., 2m, 2m)."""
    T = sample.tangent_bases
    coords, _, _ = tangent_reps(T)
    return np.swapaxes(T, -1, -2) @ sample.A @ coords


def second_fundamental(sample):
    """sigma(x, y) = g(Ax, y) xi - gt(Ax, y) J xi, which is q(Ax, y) xi, at
    one record, for ambient tangent x, y or for stacks of them along the
    last axis."""
    A_amb = ambient_shape_operator(sample)

    def sigma(x, y):
        ax = np.asarray(x, dtype=float) @ A_amb.T
        return complex_scale(bilinear(to_complex(ax), to_complex(y)), sample.xi)

    return sigma


def shape_operator_wrt(sample, eta):
    """Shape operator at one record with respect to an arbitrary normal
    vector eta: A_eta = g(xi, eta) A - g(Jxi, eta) (J o A)."""
    eta = np.asarray(eta, dtype=float)
    T = sample.tangent_bases
    off = np.abs(metric_g(T, eta))
    # against 1e-8 max|eta| max|t_i|; all(r <= bound), so that a NaN residual fails
    if not (off <= 1e-8 * np.max(np.abs(eta)) * np.max(np.abs(T), axis=-1)).all():
        raise NordenError("eta is not normal to the tangent space")
    _, J_rep, _ = tangent_reps(T)
    c1 = metric_g(sample.xi, eta)
    c2 = metric_g(apply_J(sample.xi), eta)
    return c1 * sample.A - c2 * (J_rep @ sample.A)


def mean_curvature(sample):
    """(tr A, tr(A o J), umbilicity) of one record, or arrays over the
    records of a stack.

    With lambda = tr A / 2n and mu = -tr(A o J) / 2n, the h-umbilical part
    of A is lambda I + mu J and H = (tr A xi - tr(A o J) J xi) / 2n, so that
    g(H, H) = lambda^2 - mu^2 and gt(H, H) = -2 lambda mu.  umbilicity is
    the max-norm distance of A from its h-umbilical part.
    """
    _, J_rep, _ = tangent_reps(sample.tangent_bases)
    A = sample.A
    two_n = A.shape[-1]
    tr_a = np.trace(A, axis1=-2, axis2=-1)
    tr_aj = np.trace(A @ J_rep, axis1=-2, axis2=-1)
    lam, mu = tr_a / two_n, -tr_aj / two_n
    model = lam[..., None, None] * np.eye(two_n) + mu[..., None, None] * J_rep
    return tr_a, tr_aj, np.max(np.abs(A - model), axis=(-2, -1))


def codazzi_residual(s, p, step=1e-4):
    """Max over tangent basis pairs of ||(grad_x A) y - (grad_y A) x||.

    The shape-operator field is estimated by finite differences of the FD
    Weingarten map; for h-spheres the analytic value is zero.  The inner
    Weingarten step is the outer step, so the truncation error of the A-field
    varies smoothly with h and the residual shows its second-order decrease
    before hitting round-off.  A sequence of steps gives their residuals.
    """
    p = np.asarray(p, dtype=float)
    # bounded first: a step beyond the sphere's scale would otherwise fail
    # as a projection error below
    h = _fd_steps(s, p[None], step)[:, None, None]  # (steps, 1, 1)
    T = tangent_adapted_basis(s, p)
    # per step: p, then its neighbours p + h t_i and p - h t_i on the quadric
    Q = np.concatenate([np.broadcast_to(p, (len(h), 1, len(p))),
                        project_to_sphere(s, p + h * T), project_to_sphere(s, p - h * T)], axis=1)
    st = surface_samples(s, Q.reshape(-1, len(p)), fd=True, step=np.repeat(h, Q.shape[1]))
    # the tangential projectors T^T coords, and A as T^T A coords
    coords, _, _ = tangent_reps(st.tangent_bases)
    Tt = np.swapaxes(st.tangent_bases, -1, -2)
    A, proj = (M.reshape(Q.shape + M.shape[-1:]) for M in (Tt @ st.A @ coords, Tt @ coords))
    # y extended by tangential projection: (grad_{t_i} A) y = nabla[i] y
    n2 = len(T)
    h2 = 2.0 * h[..., None]
    d_a = (A[:, 1:n2 + 1] @ proj[:, 1:n2 + 1] - A[:, n2 + 1:] @ proj[:, n2 + 1:]) / h2
    d_y = (proj[:, 1:n2 + 1] - proj[:, n2 + 1:]) / h2
    nabla = proj[:, :1] @ d_a - A[:, :1] @ proj[:, :1] @ d_y
    R = nabla @ T.T  # R[k, i, :, j] = (grad_{t_i} A) t_j at step k
    r = np.max(np.abs(R - R.transpose(0, 3, 2, 1)), axis=(1, 2, 3)).tolist()
    return r if np.ndim(step) else r[0]


# ---------------------------------------------------------------------------
# holomorphic hyperplanes
# ---------------------------------------------------------------------------

def make_hyperplane(xi, d, dt):
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or xi.shape[0] % 2 != 0:
        raise NordenError("xi must have even length")
    # scaled by a power of two, q(xi, xi) cannot overflow and the normal keeps every bit
    xi = np.ldexp(xi, -np.frexp(np.max(np.abs(xi), initial=0.0))[1])
    with np.errstate(invalid="ignore"):
        g, gt = metric_g(xi, xi), metric_gt(xi, xi)  # not finite when xi is not
    if not np.isfinite([d, dt, g]).all():
        raise NordenError(f"xi, d, dt and g(xi, xi) must be finite, got d={d}, dt={dt}, "
                          f"g(xi, xi)={g}")
    if not g > 0:
        raise NordenError("normal must have positive g-square")
    # xi / sqrt(q(xi, xi)) for the root s + it with s > |t|, by Smith's division.
    # Where gt = 0 the J term is skipped, as xi + 0 J xi could clear the sign
    # of a -0.0, so the normal is xi / sqrt(g) bit for bit.
    root = np.sqrt(complex(g, gt))
    rat = root.imag / root.real
    if rat:
        xi = xi + rat * apply_J(xi)
    return HolomorphicHyperplane(xi=xi / (root.real + root.imag * rat), d=float(d), dt=float(dt))


def hyperplane_base_point(hp):
    """A point on the plane: d xi - dt J xi, which is (d + i dt) xi."""
    return complex_scale(complex(hp.d, hp.dt), hp.xi)


def hyperplane_tangent_basis(hp):
    """Adapted basis of the (constant) tangent space, as rows."""
    z = to_complex(hp.xi)
    return _complement_bases((z / np.sqrt(bilinear(z, z)))[None])[0]


def hyperplane_samples(hp, count, seed):
    """Totally geodesic samples (A = 0) of a holomorphic hyperplane."""
    _require_count(count)
    rng = np.random.default_rng(seed)
    T = hyperplane_tangent_basis(hp)
    coeffs = rng.uniform(-2.0, 2.0, size=(count, len(T)))
    return SampleStack(
        points=hyperplane_base_point(hp) + coeffs @ T,
        xi=np.tile(hp.xi, (count, 1)),
        tangent_bases=np.tile(T, (count, 1, 1)),
        A=np.zeros((count, len(T), len(T))),
    )
