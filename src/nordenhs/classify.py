"""Classification pipeline for sampled holomorphic hypersurface data.

`classify` decides through ordered Check gates on a SampleStack; the first
that fails sets the verdict: constancy (NonConstantInvariants), h-umbilicity
(NotHUmbilical), the hyperplane route's spreads and the containment in the
recovered h-sphere or hyperplane (SamplesOffSurface).
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
class Check:
    """A gate or an invariant check; a NaN residual fails."""
    name: str
    residual: float
    tol: float

    @property
    def passed(self):
        return bool(self.residual <= self.tol)


@dataclass(frozen=True)
class ClassificationResult:
    verdict: str
    recovered: object = None
    checks: tuple = ()  # the Checks of the gates that ran, in order
    totally_geodesic: bool = False
    notes: tuple = ()

    def residual(self, name):
        """The residual of gate `name`, or NaN if it did not run."""
        return next((c.residual for c in self.checks if c.name == name), float("nan"))


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
    """Average the (constant) normal field and the plane offsets of a stack:
    (plane, checks) with the gates that ran, the normal spread (relative to
    max(1, max|xi|), the normals being stored unnormalized) and the offset
    spread (relative to max(1, max|d|, max|dt|)); plane is None if one fails."""
    if len(stack) == 0:
        raise NordenError("no samples")
    # huge normals may overflow: an infinite dot keeps its sign, a NaN spread fails
    with np.errstate(over="ignore", invalid="ignore"):
        xis = stack.xi * np.where(stack.xi @ stack.xi[0] < 0, -1.0, 1.0)[:, None]
        xi_mean = xis.mean(axis=0)
        spread = float(np.max(np.abs(xis - xi_mean)))
    normal = Check("normal spread", spread, tol * max(1.0, float(np.max(np.abs(stack.xi)))))
    if not normal.passed:
        return None, (normal,)
    xi_mean = make_hyperplane(xi_mean, 0.0, 0.0).xi  # g-unit, or NordenError if g <= 0
    ds, dts = _offsets(xi_mean, stack.points)
    offset = Check("offset spread", max(float(np.ptp(ds)), float(np.ptp(dts))),
                   tol * max(1.0, float(np.max(np.abs(ds))), float(np.max(np.abs(dts)))))
    if not offset.passed:
        return None, (normal, offset)
    return make_hyperplane(xi_mean, float(np.mean(ds)), float(np.mean(dts))), (normal, offset)


def classify(stack, tol=1e-6):
    """Full pipeline on a SampleStack; below ambient dimension 8 the verdict
    is DimensionTooSmall and no gate runs.  The constancy gate is relative to
    max(1, |mean nu|, |mean nut|); the hyperplane route (lambda^2 + mu^2 <=
    LAMBDA_MU_THRESHOLD) adds reconstruct_hyperplane's spread gates.  tol is
    the tolerance of every gate and of the totally geodesic test max|A| <= tol."""
    if (dim := stack.points.shape[-1]) < 8:
        return ClassificationResult(VERDICT_DIM_TOO_SMALL, notes=(f"ambient dimension {dim} < 8",))
    if len(stack) == 0:
        raise NordenError("no samples")

    per, devs = shape_invariants(stack)
    mean = per[:, 2:].mean(axis=0)
    checks = [Check("constancy spread", float(np.max(np.abs(per[:, 2:] - mean))),
                    tol * max(1.0, float(np.max(np.abs(mean)))))]
    if checks[-1].passed:
        checks.append(Check("umbilicity residual", float(np.max(devs)), tol))
    recovered, geodesic, notes = None, False, []
    if checks[-1].passed:
        lam, mu, nu, nut = (float(v) for v in per.mean(axis=0))
        geodesic = float(np.max(np.abs(stack.A))) <= tol
        notes = ["totally geodesic (A = 0): curvatures equal ambient (0, 0)"] if geodesic else []
        if lam * lam + mu * mu > LAMBDA_MU_THRESHOLD:
            route, residual = VERDICT_SPHERE, scaled_containment_residual
            recovered = reconstruct_sphere(lam, mu, stack[int(np.argmin(devs))])
            if nu or nut:
                c = 1.0 / complex(nu, nut)  # a + ib = 1/(nu + i nut)
                notes.append(f"curvature-route parameters: a={c.real:.12g}, b={c.imag:.12g}")
        else:
            route, residual = VERDICT_HYPERPLANE, _plane_residual
            recovered, spreads = reconstruct_hyperplane(stack, tol=tol)
            checks.extend(spreads)
        if recovered is not None:
            checks.append(Check("containment residual",
                                float(np.max(residual(recovered, stack.points))), tol))
    failed = next((c for c in checks if not c.passed), None)
    if failed is None:
        verdict = route
    elif failed is checks[0]:
        verdict = VERDICT_NON_CONSTANT
    elif failed is checks[1]:
        verdict, notes = VERDICT_NOT_UMBILICAL, [f"worst sample index {np.argmax(devs)}"]
    else:
        verdict, recovered = VERDICT_OFF_SURFACE, None
        notes = [f"no single {route} holds the samples: "
                 f"{failed.name} {failed.residual:.3e} > tol {failed.tol:.3e}"]
    return ClassificationResult(verdict, recovered, tuple(checks), geodesic, tuple(notes))
