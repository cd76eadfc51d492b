"""Numerical invariant suites shared by the CLI and the test suite.

Each suite returns a list of Check records; a suite passes when every
check's residual is within its tolerance.
"""

import numpy as np

from .core import (
    _require_count,
    apply_J,
    complex_scale,
    metric_g,
    metric_gt,
    q_value,
)
from .classify import Check, shape_invariants
from .curvature import (
    GaussShapeCurvature,
    gauss_curvature_from_shape,
    ricci,
    sample_totally_real_planes,
    sectional_batch_planes,
)
from .errors import NordenError
from .hypersurface import (
    ambient_shape_operator,
    codazzi_residual,
    lambda_mu,
    make_h_sphere,
    make_surface_samples,
    mean_curvature,
    normal_frame,
    normalize_normal_frame,
    sample,
    second_fundamental,
    shape_operator_wrt,
    theoretical_curvatures,
)


def suite_metrics(m=4, seed=0, count=1000):
    """Algebraic identities of (g, gt, J) and complex scaling."""
    _require_count(count)
    rng = np.random.default_rng(seed)
    U, V = rng.uniform(-2.0, 2.0, (2, count, 2 * m))  # as two (count, 2m) draws
    re, im = rng.uniform(-2, 2, (count, 2)).T
    c = re + 1j * im
    s = np.maximum(1.0, np.maximum(np.sum(U * U, -1), np.sum(V * V, -1)))
    g, gt = metric_g, metric_gt
    r_anti = np.max(np.abs(g(apply_J(U), apply_J(V)) + g(U, V)) / s)
    r_assoc = np.max(np.abs(gt(U, V) - g(apply_J(U), V)) / s)
    r_sym = max(np.max(np.abs(g(U, V) - g(V, U)) / s),
                np.max(np.abs(gt(U, V) - gt(V, U)) / s))
    r_square = np.max(
        np.abs(q_value(complex_scale(c, U)) - c * c * q_value(U))
        / np.maximum(1.0, np.abs(c) ** 2 * np.sum(U * U, -1))
    )
    E = np.eye(2 * m)
    eig = np.linalg.eigvalsh(metric_g(E[:, None], E[None]))  # the Gram matrix of g
    r_sig = float(
        np.max(np.abs(np.sort(eig) - np.concatenate([-np.ones(m), np.ones(m)])))
    )
    return [
        Check("anti_isometry g(JZ,JW)=-g(Z,W)", r_anti, 1e-12),
        Check("association gt(Z,W)=g(JZ,W)", r_assoc, 1e-12),
        Check("metric symmetry", r_sym, 1e-12),
        Check("signature (m,m)", r_sig, 0.0),
        Check("complex square law q(cu)=c^2 q(u)", r_square, 1e-12),
    ]


def suite_frame(m=4, seed=0, count=100):
    """Frame normalization yields the canonical normalization
    g(xi,xi) = 1, g(Jxi,Jxi) = -1, g(xi,Jxi) = 0; sphere frames satisfy it."""
    rng = np.random.default_rng(seed)
    sph = make_h_sphere(np.zeros(2 * m), 1.0, 0.0)
    xi, jxi = normal_frame(sph, sample(sph, count, seed + 1))

    def frame_error(xi, jxi):
        return float(np.max(np.abs([metric_g(xi, xi) - 1.0, metric_g(jxi, jxi) + 1.0,
                                    metric_g(xi, jxi)])))

    sinh_targets = [0.0, 0.75, -2.0] + list(rng.uniform(-3, 3, size=10))
    # frame k gets target k mod 13, so g(eta, J eta) = -sinh(2t)
    t = -0.5 * np.arcsinh(np.resize(sinh_targets, count))[:, None]
    eta = np.cosh(t) * xi + np.sinh(t) * jxi
    r_norm = frame_error(*normalize_normal_frame(eta, apply_J(eta)))
    return [
        Check("normalized frame satisfies the frame relations", r_norm, 1e-10),
        Check("canonical sphere frame satisfies the frame relations",
              frame_error(xi, jxi), 1e-10),
    ]


def suite_curvature(a=3.0, b=4.0, m=4, points=20, planes=50, seed=0,
                    fd=False, step=None, tol=None):
    """Sampled totally real sectional curvatures against the closed form."""
    if m < 3:
        raise NordenError(f"the curvature suite needs m >= 3, got m={m}: "
                          "no totally real plane exists below m = 3")
    if points < 1 or planes < 1:
        raise NordenError(
            f"points and planes must be at least 1, got {points} and {planes}"
        )
    sph = make_h_sphere(np.zeros(2 * m), a, b)
    nu = theoretical_curvatures(sph)
    st = make_surface_samples(sph, points, seed, fd=fd, step=step)
    # a (points, 1) stack of tensors meets the (points, planes) planes
    R = gauss_curvature_from_shape(st.A[:, None], st.tangent_bases[:, None])
    X, Y = sample_totally_real_planes(st.tangent_bases, planes, seed + 1000 + np.arange(points))
    K, Kt = sectional_batch_planes(R, X, Y)
    r_k = float(np.max(np.abs(K - nu.real)))
    r_kt = float(np.max(np.abs(Kt - nu.imag)))
    # K and Kt are of size |nu + i nut| = 1/|c|: tolerances scale with it
    tol = (1.0 / abs(complex(a, b))) * ((1e-5 if fd else 1e-9) if tol is None else tol)
    return [
        Check(f"max |K - {nu.real:g}|", r_k, tol),
        Check(f"max |Kt - {nu.imag:g}|", r_kt, tol),
    ]


def suite_gauss(a=1.0, b=0.0, m=4, seed=0, quads=1000):
    """Gauss-equation tensor from A = lambda I + mu J equals the space form
    with (lambda^2 - mu^2, -2 lambda mu); curvature symmetries hold."""
    _require_count(quads)
    sph = make_h_sphere(np.zeros(2 * m), a, b)
    lam, mu = lambda_mu(sph)
    smp = make_surface_samples(sph, 1, seed)[0]
    B = smp.tangent_bases
    R = gauss_curvature_from_shape(smp.A, B)
    Rsf = GaussShapeCurvature(complex(lam * lam - mu * mu, -2.0 * lam * mu))
    rng = np.random.default_rng(seed)
    W = np.moveaxis(rng.uniform(-1, 1, (quads, 4, len(B))) @ B, 1, 0)
    x, y, z, u = W
    scale = np.maximum(1.0, np.prod(np.linalg.norm(W, axis=-1), axis=0) ** 2)
    v = R(x, y, z, u)
    r_eq = np.max(np.abs(v - Rsf(x, y, z, u)) / scale)
    r_anti = max(np.max(np.abs(v + R(y, x, z, u)) / scale),
                 np.max(np.abs(v + R(x, y, u, z)) / scale))
    r_j = np.max(np.abs(v + R(x, y, apply_J(z), apply_J(u))) / scale)
    s = 1.0 / abs(complex(a, b))  # R is of size 1/|c|, as in suite_curvature
    return [
        Check("Gauss tensor equals space form", r_eq, 1e-9 * s),
        Check("pair antisymmetry", r_anti, 1e-10 * s),
        Check("R(x,y,z,u) = -R(x,y,Jz,Ju)", r_j, 1e-10 * s),
    ]


def suite_sigma(a=3.0, b=4.0, m=4, seed=0, count=200):
    """J-compatibility of the second fundamental form."""
    _require_count(count)
    sph = make_h_sphere(np.zeros(2 * m), a, b)
    smp = make_surface_samples(sph, 1, seed)[0]
    sigma = second_fundamental(smp)
    B = smp.tangent_bases
    rng = np.random.default_rng(seed)
    x, y = np.moveaxis(rng.uniform(-1, 1, (count, 2, len(B))) @ B, 1, 0)
    scale = np.maximum(1.0, np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1))
    dev = np.stack([sigma(x, apply_J(y)), sigma(apply_J(x), y)]) - apply_J(sigma(x, y))
    res = float(np.max(np.max(np.abs(dev), axis=-1) / scale))
    # sigma is of size |A| = 1/sqrt|c|: its tolerance scales with it
    return [Check("sigma(x,Jy)=sigma(Jx,y)=J sigma(x,y)", res,
                  1e-10 / np.sqrt(abs(complex(a, b))))]


def suite_ricci(a=1.0, b=0.0, m=4, seed=0):
    """Hypersurface Ricci identity with flat ambient on an h-sphere."""
    sph = make_h_sphere(np.zeros(2 * m), a, b)
    smp = make_surface_samples(sph, 1, seed)[0]
    B = smp.tangent_bases
    R = gauss_curvature_from_shape(smp.A, B)
    rho = ricci(R, B)
    A_amb = ambient_shape_operator(smp)
    tr_a, tr_aj, _ = mean_curvature(smp)
    # rows A b_i and A A b_i, paired by g with the rows b_j and J b_j
    AB = B @ A_amb.T
    g = np.repeat([1.0, -1.0], m)  # G = diag(g): AB @ G is AB * g
    rhs = (tr_a * AB * g @ B.T - tr_aj * AB * g @ apply_J(B).T
           - 2.0 * (AB @ A_amb.T) * g @ B.T)
    # rho is of size 1/|c|, as R is in suite_gauss
    return [Check("Ricci identity (flat ambient)", float(np.max(np.abs(rho - rhs))),
                  1e-8 / abs(complex(a, b)))]


def suite_codazzi(a=1.0, b=0.0, m=4, step=1e-4, seed=0):
    """Codazzi symmetry of the FD shape-operator field, plus order check.
    The c-sphere, c = a + ib, is the unit one scaled by sqrt c, so the steps
    (`step` included) are in units of sqrt|c| and the residual tolerances,
    of derivatives of A, in units of 1/|c|."""
    sph = make_h_sphere(np.zeros(2 * m), a, b)
    p = sample(sph, 1, seed)[0]
    c = abs(complex(a, b))
    hs = (1.6e-2, 4e-3, 1e-3)
    r_at, *rs = codazzi_residual(sph, p, step=[np.sqrt(c) * h for h in (step, *hs)])
    if m == 2:
        # n = 1: the truncation error vanishes identically and every r(h) is
        # round-off, so a ratio of two of them says nothing about the order
        order = Check("Codazzi residual at h=" + ", ".join(f"{h:g}" for h in hs),
                      max(rs), 1e-4 / c)
    else:
        # order check in the truncation-dominated regime: each step/4
        # refinement should cut the residual at least quadratically (factor
        # >= 4 observed margin of the asymptotic 16)
        worst_ratio = max(r1 / max(r0, 1e-300) for r0, r1 in zip(rs, rs[1:]))
        order = Check("second-order decrease (r(h/4)/r(h) <= 1/4)", worst_ratio, 0.25)
    return [Check(f"Codazzi residual at h={step:g}", r_at, 1e-4 / c), order]


def suite_umbilic(m=4, seed=0):
    """Umbilicity witnesses for the two degenerate mean-curvature cases.

    For (a,b)=(1,0) the sphere is umbilical with respect to xi; for
    (a,b)=(0,1) the mean curvature vector is isotropic and the sphere is
    umbilical with respect to JH (the 'H or JH' alternative resolves to JH
    under the canonical frame orientation).
    """
    def scalar_deviation(M):
        return float(np.max(np.abs(M - (np.trace(M) / len(M)) * np.eye(len(M)))))

    sph1 = make_h_sphere(np.zeros(2 * m), 1.0, 0.0)
    smp = make_surface_samples(sph1, 1, seed)[0]
    a_xi = shape_operator_wrt(smp, smp.xi)
    res = [Check("(1,0): A_xi proportional to I", scalar_deviation(a_xi), 1e-9)]

    sph2 = make_h_sphere(np.zeros(2 * m), 0.0, 1.0)
    smp = make_surface_samples(sph2, 1, seed + 1)[0]
    (_, _, nu, _), _ = shape_invariants(smp)
    res.append(Check("(0,1): g(H,H) = 0", abs(nu), 1e-12))
    tr_a, tr_aj, _ = mean_curvature(smp)
    H = (tr_a * smp.xi - tr_aj * apply_J(smp.xi)) / len(smp.A)
    devs = [scalar_deviation(shape_operator_wrt(smp, eta)) for eta in (H, apply_J(H))]
    res.append(Check("(0,1): A_H or A_JH proportional to I", min(devs), 1e-9))
    return res


SUITES = {
    "metrics": suite_metrics,
    "frame": suite_frame,
    "curvature": suite_curvature,
    "gauss": suite_gauss,
    "sigma": suite_sigma,
    "ricci": suite_ricci,
    "codazzi": suite_codazzi,
    "umbilic": suite_umbilic,
}
# each suite's parameter names, in order, read once from its code
SUITE_PARAMS = {k: f.__code__.co_varnames[:f.__code__.co_argcount] for k, f in SUITES.items()}


def run_suite(name, **params):
    """Run suite `name` (or every suite, for "all") with the set entries of
    params each suite takes (SUITE_PARAMS, its signature in order); returns
    the checks and the entries passed on to some suite, in their given order."""
    if name != "all" and name not in SUITES:
        raise NordenError(f"unknown suite {name!r}; known: {sorted(SUITES)} + ['all']")
    checks, used = [], set()
    for key in SUITES if name == "all" else [name]:
        kwargs = {k: v for k, v in params.items() if k in SUITE_PARAMS[key] and v is not None}
        used.update(kwargs)
        checks.extend(SUITES[key](**kwargs))
    return checks, {k: v for k, v in params.items() if k in used}
