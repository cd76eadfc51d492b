"""Checks of the program's outputs against the benchmark's own geometry.

The flat Kaehler-Norden structure is rebuilt here in a few lines of numpy,
without importing nordenhs: g = diag(I, -I), J(x; y) = (y; -x) and
gt(Z, W) = g(JZ, W).  Each check returns a list of problems; empty means
the output is correct.
"""

import math

import numpy as np

# Residual bounds, relative to the scale of the quantity checked.  Observed
# residuals sit at round-off (below 1e-14) except A on finite-difference
# frames, whose error reaches about 3e-9 at the program's default step, and
# the centre and (a, b) that classify recovers from them (about 1e-13).
TOL = 1e-9
TOL_A = {False: 1e-9, True: 1e-7}  # keyed by "finite-difference frames"
TOL_RECOVERY = 1e-8


def structure(m):
    """(G, J, Gt): Gram matrices of g and gt, and the matrix of J."""
    eye = np.eye(m)
    zero = np.zeros((m, m))
    G = np.block([[eye, zero], [zero, -eye]])
    J = np.block([[zero, eye], [-eye, zero]])
    return G, J, J.T @ G


def lambda_mu_relations(a, b):
    """(lambda^2 - mu^2, 2 lambda mu) of an h-sphere with parameters (a, b)."""
    r2 = a * a + b * b
    return a / r2, b / r2


def curvatures(a, b):
    """(nu, nut) = (a, -b) / (a^2 + b^2)."""
    r2 = a * a + b * b
    return a / r2, -b / r2


def _pair(U, M, V):
    return np.einsum("...i,ij,...j->...", U, M, V)


def check_samples(doc, a, b, center, count, fd):
    """A sample file written by `sample --with-frames` for the h-sphere
    g(Z - z0, Z - z0) = a, gt(Z - z0, Z - z0) = b."""
    if not isinstance(doc, dict) or doc.get("kind") != "samples":
        return ["not a samples document"]
    z0 = np.asarray(center, dtype=float)
    m = z0.shape[0] // 2
    recs = doc.get("samples", [])
    if doc.get("m") != m or len(recs) != count:
        return [f"expected {count} samples at m={m}, got {len(recs)} at m={doc.get('m')}"]
    try:
        P = np.array([r["point"] for r in recs], dtype=float)
        Xi = np.array([r["xi"] for r in recs], dtype=float)
        T = np.array([r["tangent_basis"] for r in recs], dtype=float)
        A = np.array([r["A"] for r in recs], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed record: {exc}"]
    two_n = 2 * m - 2
    if (P.shape != (count, 2 * m) or Xi.shape != P.shape
            or T.shape != (count, two_n, 2 * m) or A.shape != (count, two_n, two_n)):
        return ["record arrays have the wrong shapes"]
    if not all(np.isfinite(X).all() for X in (P, Xi, T, A)):
        return ["non-finite number in a record"]
    G, J, Gt = structure(m)
    problems = []

    W = P - z0
    scale = 1.0 + abs(a) + abs(b) + np.einsum("ij,ij->i", W, W)
    quad = np.maximum(np.abs(_pair(W, G, W) - a), np.abs(_pair(W, Gt, W) - b)) / scale
    if quad.max() > TOL:
        problems.append(f"point off the quadric by {quad.max():.3e}")

    JXi = Xi @ J.T
    xi2 = np.maximum(1.0, np.einsum("ij,ij->i", Xi, Xi))
    frame = np.maximum(np.abs(_pair(Xi, G, Xi) - 1.0), np.abs(_pair(Xi, G, JXi))) / xi2
    if frame.max() > TOL:
        problems.append(f"xi not g-unit or g(xi, J xi) != 0 by {frame.max():.3e}")

    tn = np.linalg.norm(T, axis=2) * np.sqrt(xi2)[:, None]
    normal = np.maximum(np.abs(np.einsum("nki,ij,nj->nk", T, G, Xi)),
                        np.abs(np.einsum("nki,ij,nj->nk", T, G, JXi))) / tn
    if normal.max() > TOL:
        problems.append(f"tangent vector not g-orthogonal to xi, J xi by {normal.max():.3e}")

    # J on the tangent space in tangent-basis coordinates (column convention)
    Tc = np.swapaxes(T, 1, 2)
    sv = np.linalg.svd(Tc, compute_uv=False)
    if (sv[:, -1] <= TOL * sv[:, 0]).any():
        return problems + ["tangent basis is rank-deficient"]
    J_rep = np.linalg.pinv(Tc) @ J @ Tc
    closure = np.abs(Tc @ J_rep - J @ Tc).max(axis=(1, 2)) / sv[:, 0]
    if closure.max() > TOL:
        problems.append(f"tangent space not J-invariant by {closure.max():.3e}")

    lam = np.trace(A, axis1=1, axis2=2) / two_n
    mu = -np.trace(A @ J_rep, axis1=1, axis2=2) / two_n
    eye = np.eye(two_n)
    model = lam[:, None, None] * eye + mu[:, None, None] * J_rep
    a_scale = np.maximum(1.0, np.abs(A).max(axis=(1, 2)))
    dev = np.abs(A - model).max(axis=(1, 2)) / a_scale
    rel_g, rel_gt = lambda_mu_relations(a, b)
    rel = np.maximum(np.abs(lam * lam - mu * mu - rel_g),
                     np.abs(2.0 * lam * mu - rel_gt)) / max(1.0, math.hypot(rel_g, rel_gt))
    tol_a = TOL_A[fd]
    if dev.max() > tol_a:
        problems.append(f"A differs from lambda I + mu J by {dev.max():.3e}")
    if rel.max() > tol_a:
        problems.append(f"(lambda, mu) of A miss the h-sphere relations by {rel.max():.3e}")
    return problems


def check_classify(exit_code, report, a, b, center):
    """`classify` on samples of one h-sphere returns that h-sphere."""
    if exit_code != 0:
        return [f"classify exited {exit_code}"]
    if not isinstance(report, dict) or report.get("verdict") != "HSphere":
        return [f"verdict {report.get('verdict') if isinstance(report, dict) else report!r}"]
    rec = report.get("recovered") or {}
    z0 = np.asarray(center, dtype=float)
    try:
        got = np.asarray(rec["center"], dtype=float)
        ga, gb = float(rec["a"]), float(rec["b"])
    except (KeyError, TypeError, ValueError):
        return ["no recovered centre, a and b"]
    problems = []
    if got.shape != z0.shape or not np.isfinite(got).all():
        return ["recovered centre has the wrong shape"]
    cerr = float(np.abs(got - z0).max()) / (1.0 + float(np.abs(z0).max()))
    if not cerr <= TOL_RECOVERY:
        problems.append(f"recovered centre off by {cerr:.3e}")
    perr = max(abs(ga - a), abs(gb - b)) / max(1.0, math.hypot(a, b))
    if not perr <= TOL_RECOVERY:
        problems.append(f"recovered (a, b) off by {perr:.3e}")
    return problems


FIXED_CHECKS = (
    "anti_isometry g(JZ,JW)=-g(Z,W)",
    "association gt(Z,W)=g(JZ,W)",
    "metric symmetry",
    "signature (m,m)",
    "complex square law q(cu)=c^2 q(u)",
    "normalized frame satisfies the frame relations",
    "canonical sphere frame satisfies the frame relations",
    "Gauss tensor equals space form",
    "pair antisymmetry",
    "R(x,y,z,u) = -R(x,y,Jz,Ju)",
    "sigma(x,Jy)=sigma(Jx,y)=J sigma(x,y)",
    "Ricci identity (flat ambient)",
    "Codazzi residual at h=0.0001",
    "second-order decrease (r(h/4)/r(h) <= 1/4)",
    "(1,0): A_xi proportional to I",
    "(0,1): g(H,H) = 0",
    "(0,1): A_H or A_JH proportional to I",
)


def expected_checks(a, b):
    """Names of the 19 checks of `verify all`; the curvature checks name
    the nu and nut they compare against."""
    nu, nut = curvatures(a, b)
    return set(FIXED_CHECKS) | {f"max |K - {nu:g}|", f"max |Kt - {nut:g}|"}


def check_verify(exit_code, report, a, b):
    """`verify all` passes every one of its 19 invariant checks."""
    if exit_code != 0:
        return [f"verify exited {exit_code}"]
    if not isinstance(report, dict) or report.get("passed") is not True:
        return ["report does not say passed"]
    results = report.get("results")
    if not isinstance(results, list):
        return ["no results"]
    names = [r.get("name") for r in results if isinstance(r, dict)]
    want = expected_checks(a, b)
    problems = []
    if len(results) != len(want) or set(names) != want:
        problems.append(f"checks missing {sorted(want - set(names))}, "
                        f"unexpected {sorted(set(names) - want)}")
    for r in results:
        try:
            res, tol = float(r["residual"]), float(r["tol"])
        except (KeyError, TypeError, ValueError):
            problems.append(f"check {r!r} lacks a residual or tolerance")
            continue
        if not (math.isfinite(res) and math.isfinite(tol) and res <= tol):
            problems.append(f"{r['name']}: residual {res!r} above tolerance {tol!r}")
    return problems
