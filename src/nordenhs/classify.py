"""Classification pipeline for sampled holomorphic hypersurface data.

Estimates pointwise invariants from a SampleStack of second-order samples,
tests constancy and h-umbilicity, and reconstructs the h-sphere
center/parameters or the hyperplane normal data.
"""

from dataclasses import dataclass

import numpy as np

from .core import bilinear, complex_scale, to_complex
from .errors import NordenError
from .hypersurface import (
    HSphere,
    make_hyperplane,
    mean_curvature,
    scaled_containment_residual,
)

VERDICT_SPHERE = "HSphere"
VERDICT_HYPERPLANE = "HolomorphicHyperplane"
VERDICT_NOT_UMBILICAL = "NotHUmbilical"
VERDICT_NON_CONSTANT = "NonConstantInvariants"
VERDICT_DIM_TOO_SMALL = "DimensionTooSmall"
VERDICT_OFF_SURFACE = "SamplesOffSurface"

LAMBDA_MU_THRESHOLD = 1e-10


@dataclass(frozen=True)
class ClassificationResult:
    verdict: str
    recovered: object = None
    containment_residual: float = float("nan")
    umbilicity_residual: float = float("nan")
    constancy_spread: float = float("nan")
    totally_geodesic: bool = False
    notes: tuple = ()


def shape_invariants(stack):
    """Per-sample invariants of one record or a stack of them: an (..., 4)
    array of (lambda, mu, nu, nut), which is (lambda, mu, g(H, H), gt(H, H))
    from the traces of A (mean_curvature), and the h-umbilicity deviations
    relative to max(1, max|A|)."""
    tr_a, tr_aj, umbilicity = mean_curvature(stack)
    two_n = stack.A.shape[-1]
    lam, mu = tr_a / two_n, -tr_aj / two_n
    per = np.stack([lam, mu, lam * lam - mu * mu, -2.0 * lam * mu], axis=-1)
    scale = np.maximum(1.0, np.abs(stack.A).max(axis=(-2, -1)))
    return per, umbilicity / scale


def pair_crosscheck(pairs, ambient, observed):
    """Max residual of the cross-pair compatibility relations

        nu' - nu  = mu_j mu_k - lambda_j lambda_k
        nut' - nut = lambda_j mu_k + lambda_k mu_j   (j != k)

    with ambient = nu' + i nut' and observed = nu + i nut complex numbers."""
    lam, mu = np.array(list(pairs), dtype=float).reshape(-1, 2).T
    if len(lam) < 2:
        raise NordenError("need at least two (lambda, mu) pairs")
    r1 = (ambient.real - observed.real) - (np.outer(mu, mu) - np.outer(lam, lam))
    r2 = (ambient.imag - observed.imag) - (np.outer(lam, mu) + np.outer(mu, lam))
    off = ~np.eye(len(lam), dtype=bool)
    return float(max(np.max(np.abs(r1[off])), np.max(np.abs(r2[off]))))


def reconstruct_sphere(lam, mu, witness):
    """Center and parameters from the conserved field xi + kappa Z = kappa z0,
    kappa = lambda - i mu: z0 = (xi + kappa Z) / kappa, a + ib = 1/kappa^2."""
    if lam * lam + mu * mu <= LAMBDA_MU_THRESHOLD:
        raise NordenError("lambda^2 + mu^2 below threshold")
    k = complex(lam, -mu)
    z0 = complex_scale(1.0 / k, witness.xi + complex_scale(k, witness.points))
    c = 1.0 / (k * k)
    return HSphere(center=z0, a=c.real, b=c.imag)


def _offsets(xi, P):
    """(g(xi, p), gt(xi, p)) for every row p of P."""
    off = bilinear(to_complex(P), to_complex(xi))
    return off.real, off.imag


def _plane_residual(plane, P):
    """Largest offset residual of each point relative to
    max(1, |d| + |dt| + |p|)."""
    ds, dts = _offsets(plane.xi, P)
    scale = np.maximum(abs(plane.d) + abs(plane.dt) + np.linalg.norm(P, axis=-1), 1.0)
    return np.maximum(np.abs(ds - plane.d), np.abs(dts - plane.dt)) / scale


def reconstruct_hyperplane(stack, tol=1e-6):
    """Average the (constant) normal field and the plane offsets of a
    stack.  The normals may vary by tol * max(1, max|xi|), as they are
    stored unnormalized."""
    if len(stack) == 0:
        raise NordenError("no samples")
    # huge normals may overflow: an infinite dot keeps its sign, a NaN spread fails
    with np.errstate(over="ignore", invalid="ignore"):
        xis = stack.xi * np.where(stack.xi @ stack.xi[0] < 0, -1.0, 1.0)[:, None]
        xi_mean = xis.mean(axis=0)
        spread = float(np.max(np.abs(xis - xi_mean)))
    if not spread <= tol * max(1.0, float(np.max(np.abs(stack.xi)))):
        raise NordenError(f"normal spread {spread:.3e} exceeds tol")
    # g-unit, or NordenError for a normal with g(xi, xi) <= 0
    xi_mean = make_hyperplane(xi_mean, 0.0, 0.0).xi
    ds, dts = _offsets(xi_mean, stack.points)
    d_spread = max(float(np.ptp(ds)), float(np.ptp(dts)))
    if not d_spread <= tol * max(1.0, float(np.max(np.abs(ds))), float(np.max(np.abs(dts)))):
        raise NordenError(f"offset spread {d_spread:.3e} exceeds tol")
    return make_hyperplane(xi_mean, float(np.mean(ds)), float(np.mean(dts)))


def classify(stack, tol=1e-6):
    """Full pipeline on a SampleStack: dimension gate, invariant estimation,
    constancy and umbilicity tests, sphere or hyperplane reconstruction,
    then the containment of every sample in the recovered surface.  tol is
    the tolerance of every gate: constancy (relative to max(1, |mean nu|,
    |mean nut|)), umbilicity, the totally geodesic test, normal spread and
    containment."""
    dim = stack.points.shape[-1]
    if dim < 8:
        return ClassificationResult(
            verdict=VERDICT_DIM_TOO_SMALL,
            notes=(f"ambient dimension {dim} < 8",),
        )
    if len(stack) == 0:
        raise NordenError("no samples")

    per, devs = shape_invariants(stack)
    mean = per[:, 2:].mean(axis=0)
    spread = float(np.max(np.abs(per[:, 2:] - mean)))
    if not spread <= tol * max(1.0, float(np.max(np.abs(mean)))):
        return ClassificationResult(
            verdict=VERDICT_NON_CONSTANT,
            constancy_spread=spread,
        )

    worst = int(np.argmax(devs))
    umb_res = float(devs[worst])
    if not umb_res <= tol:
        return ClassificationResult(
            verdict=VERDICT_NOT_UMBILICAL,
            umbilicity_residual=umb_res,
            constancy_spread=spread,
            notes=(f"worst sample index {worst}",),
        )

    lam, mu, nu, nut = (float(v) for v in per.mean(axis=0))
    geodesic = float(np.max(np.abs(stack.A))) <= tol
    notes = []
    if geodesic:
        notes.append("totally geodesic (A = 0): curvatures equal ambient (0, 0)")

    if lam * lam + mu * mu > LAMBDA_MU_THRESHOLD:
        verdict = VERDICT_SPHERE
        recovered = reconstruct_sphere(lam, mu, stack[int(np.argmin(devs))])
        cres = float(np.max(scaled_containment_residual(recovered, stack.points)))
        if nu or nut:
            c = 1.0 / complex(nu, nut)  # a + ib = 1/(nu + i nut)
            notes.append(f"curvature-route parameters: a={c.real:.12g}, b={c.imag:.12g}")
    else:
        verdict = VERDICT_HYPERPLANE
        recovered = reconstruct_hyperplane(stack, tol=tol)
        cres = float(np.max(_plane_residual(recovered, stack.points)))
    if not cres <= tol:
        notes = [f"no single {verdict} holds the samples: containment "
                 f"residual {cres:.3e} > tol {tol:.3e}"]
        verdict, recovered = VERDICT_OFF_SURFACE, None
    return ClassificationResult(
        verdict=verdict,
        recovered=recovered,
        containment_residual=cres,
        umbilicity_residual=umb_res,
        constancy_spread=spread,
        totally_geodesic=geodesic,
        notes=tuple(notes),
    )
