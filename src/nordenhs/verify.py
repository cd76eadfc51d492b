"""Numerical invariant suites shared by the CLI and the test suite.

Each suite returns a list of Check records; a suite passes when every
check's residual is within its tolerance.
"""

import inspect
from dataclasses import dataclass

import numpy as np

from .core import (
    NordenSpace,
    apply_J,
    complex_scale,
    metric_g,
    metric_gt,
    q_value,
)
from .curvature import (
    SpaceFormParams,
    gauss_curvature_from_shape,
    ricci,
    sample_totally_real_planes,
    sectional_batch_planes,
    space_form_curvature,
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


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tol: float

    @property
    def passed(self):
        return bool(self.residual <= self.tol)


def _require_count(count):
    if count < 1:
        raise NordenError(f"count must be at least 1, got {count}")


def suite_metrics(m=4, seed=0, count=1000):
    """Algebraic identities of (g, gt, J) and complex scaling."""
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
    eig = np.linalg.eigvalsh(NordenSpace(m).metric_matrix())
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
    _require_count(count)
    rng = np.random.default_rng(seed)
    sph = make_h_sphere(np.zeros(2 * m), 1.0, 0.0)
    fr = normal_frame(sph, sample(sph, count, seed + 1))

    def frame_error(xi, jxi):
        return float(np.max(np.abs([metric_g(xi, xi) - 1.0, metric_g(jxi, jxi) + 1.0,
                                    metric_g(xi, jxi)])))

    sinh_targets = [0.0, 0.75, -2.0] + list(rng.uniform(-3, 3, size=10))
    # frame k gets target k mod 13, so g(eta, J eta) = -sinh(2t)
    t = -0.5 * np.arcsinh(np.resize(sinh_targets, count))[:, None]
    eta = np.cosh(t) * fr.xi + np.sinh(t) * fr.jxi
    r_norm = frame_error(*normalize_normal_frame(eta, apply_J(eta)))
    return [
        Check("normalized frame satisfies the frame relations", r_norm, 1e-10),
        Check("canonical sphere frame satisfies the frame relations",
              frame_error(fr.xi, fr.jxi), 1e-10),
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
    params = theoretical_curvatures(sph)
    st = make_surface_samples(sph, points, seed, fd=fd, step=step)
    # a (points, 1) stack of tensors meets the (points, planes) planes
    R = gauss_curvature_from_shape(st.A[:, None], st.tangent_bases[:, None],
                                   SpaceFormParams(0.0, 0.0))
    pls = sample_totally_real_planes(st.tangent_bases, planes, seed + 1000 + np.arange(points))
    K, Kt = sectional_batch_planes(R, pls)
    r_k = float(np.max(np.abs(K - params.nu)))
    r_kt = float(np.max(np.abs(Kt - params.nut)))
    tol = tol if tol is not None else (1e-5 if fd else 1e-9)
    return [
        Check(f"max |K - {params.nu:g}|", r_k, tol),
        Check(f"max |Kt - {params.nut:g}|", r_kt, tol),
    ]


def suite_gauss(a=1.0, b=0.0, m=4, seed=0, quads=1000):
    """Gauss-equation tensor from A = lambda I + mu J equals the space form
    with (lambda^2 - mu^2, -2 lambda mu); curvature symmetries hold."""
    sph = make_h_sphere(np.zeros(2 * m), a, b)
    lam, mu = lambda_mu(sph)
    smp = make_surface_samples(sph, 1, seed)[0]
    flat = SpaceFormParams(0.0, 0.0)
    R = gauss_curvature_from_shape(smp.A, smp.tangent_basis, flat)
    Rsf = space_form_curvature(SpaceFormParams(lam * lam - mu * mu, -2.0 * lam * mu))
    B = smp.tangent_basis
    rng = np.random.default_rng(seed)
    W = np.moveaxis(rng.uniform(-1, 1, (quads, 4, len(B))) @ B, 1, 0)
    x, y, z, u = W
    scale = np.maximum(1.0, np.prod(np.linalg.norm(W, axis=-1), axis=0) ** 2)
    v = R(x, y, z, u)
    r_eq = np.max(np.abs(v - Rsf(x, y, z, u)) / scale)
    r_anti = max(np.max(np.abs(v + R(y, x, z, u)) / scale),
                 np.max(np.abs(v + R(x, y, u, z)) / scale))
    r_j = np.max(np.abs(v + R(x, y, apply_J(z), apply_J(u))) / scale)
    return [
        Check("Gauss tensor equals space form", r_eq, 1e-9),
        Check("pair antisymmetry", r_anti, 1e-10),
        Check("R(x,y,z,u) = -R(x,y,Jz,Ju)", r_j, 1e-10),
    ]


def suite_sigma(a=3.0, b=4.0, m=4, seed=0, count=200):
    """J-compatibility of the second fundamental form."""
    _require_count(count)
    sph = make_h_sphere(np.zeros(2 * m), a, b)
    smp = make_surface_samples(sph, 1, seed)[0]
    sigma = second_fundamental(smp, sph.space)
    B = smp.tangent_basis
    rng = np.random.default_rng(seed)
    x, y = np.moveaxis(rng.uniform(-1, 1, (count, 2, len(B))) @ B, 1, 0)
    scale = np.maximum(1.0, np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1))
    dev = np.stack([sigma(x, apply_J(y)), sigma(apply_J(x), y)]) - apply_J(sigma(x, y))
    res = float(np.max(np.max(np.abs(dev), axis=-1) / scale))
    return [Check("sigma(x,Jy)=sigma(Jx,y)=J sigma(x,y)", res, 1e-10)]


def suite_ricci(a=1.0, b=0.0, m=4, seed=0):
    """Hypersurface Ricci identity with flat ambient on an h-sphere."""
    sph = make_h_sphere(np.zeros(2 * m), a, b)
    smp = make_surface_samples(sph, 1, seed)[0]
    flat = SpaceFormParams(0.0, 0.0)
    R = gauss_curvature_from_shape(smp.A, smp.tangent_basis, flat)
    B = smp.tangent_basis
    rho = ricci(R, B)
    A_amb = ambient_shape_operator(smp, sph.space)
    mcd = mean_curvature(smp, sph.space)
    tr_a, tr_aj = mcd.traceA, mcd.traceAJ
    # rows A b_i and A A b_i, paired by g with the rows b_j and J b_j
    AB = B @ A_amb.T
    G = sph.space.metric_matrix()
    rhs = (tr_a * AB @ G @ B.T - tr_aj * AB @ G @ apply_J(B).T
           - 2.0 * (AB @ A_amb.T) @ G @ B.T)
    return [Check("Ricci identity (flat ambient)", float(np.max(np.abs(rho - rhs))), 1e-8)]


def suite_codazzi(a=1.0, b=0.0, m=4, step=1e-4, seed=0):
    """Codazzi symmetry of the FD shape-operator field, plus order check."""
    sph = make_h_sphere(np.zeros(2 * m), a, b)
    p = sample(sph, 1, seed)[0]
    r_at = codazzi_residual(sph, p, step=step)
    hs = (1.6e-2, 4e-3, 1e-3)
    rs = [codazzi_residual(sph, p, step=h) for h in hs]
    if m == 2:
        # n = 1: the truncation error vanishes identically and every r(h) is
        # round-off, so a ratio of two of them says nothing about the order
        order = Check("Codazzi residual at h=" + ", ".join(f"{h:g}" for h in hs),
                      max(rs), 1e-4)
    else:
        # order check in the truncation-dominated regime: each step/4
        # refinement should cut the residual at least quadratically (factor
        # >= 4 observed margin of the asymptotic 16)
        worst_ratio = max(
            rs[i + 1] / max(rs[i], 1e-300) for i in range(len(rs) - 1)
        )
        order = Check("second-order decrease (r(h/4)/r(h) <= 1/4)", worst_ratio, 0.25)
    return [Check(f"Codazzi residual at h={step:g}", r_at, 1e-4), order]


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
    a_xi = shape_operator_wrt(smp, sph1.space, smp.frame.xi)
    res = [Check("(1,0): A_xi proportional to I", scalar_deviation(a_xi), 1e-9)]

    sph2 = make_h_sphere(np.zeros(2 * m), 0.0, 1.0)
    smp = make_surface_samples(sph2, 1, seed + 1)[0]
    mcd = mean_curvature(smp, sph2.space)
    res.append(Check("(0,1): g(H,H) = 0", abs(mcd.gHH), 1e-12))
    devs = [scalar_deviation(shape_operator_wrt(smp, sph2.space, eta))
            for eta in (mcd.H, mcd.JH)]
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


def _suites(name):
    if name == "all":
        return list(SUITES.values())
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)} + ['all']")
    return [SUITES[name]]


def _accepted(fn, params):
    names = inspect.signature(fn).parameters
    return {k: v for k, v in params.items() if k in names and v is not None}


def run_suite(name, **params):
    checks = []
    for fn in _suites(name):
        checks.extend(fn(**_accepted(fn, params)))
    return checks


def applied_params(name, params):
    """The set entries of params that run_suite(name, **params) passes on
    to a suite, in their given order."""
    used = set()
    for fn in _suites(name):
        used.update(_accepted(fn, params))
    return {k: v for k, v in params.items() if k in used}
