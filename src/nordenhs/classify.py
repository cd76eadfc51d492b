"""Classification pipeline for sampled holomorphic hypersurface data.

`classify` decides through ordered Check gates on a SampleStack, measured in
one inverse length of the samples; the first that fails sets the verdict:
constancy (NonConstantInvariants), h-umbilicity (NotHUmbilical), then the
hyperplane route's spreads or the containment in the recovered h-sphere
(SamplesOffSurface).
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
    max|A - lambda I - mu J|."""
    tr_a, tr_aj, umbilicity = mean_curvature(stack)
    two_n = stack.A.shape[-1]
    lam, mu = tr_a / two_n, -tr_aj / two_n
    return np.stack([lam, mu, lam * lam - mu * mu, -2.0 * lam * mu], axis=-1), umbilicity


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
    kappa = lambda - i mu: z0 = (xi + kappa Z) / kappa, a + ib = 1/kappa^2.
    NordenError if kappa^2 is 0: the flat case has no h-sphere."""
    k = complex(lam, -mu)
    if k * k == 0:
        raise NordenError("kappa^2 = (lambda - i mu)^2 is 0: no h-sphere")
    z0 = complex_scale(1.0 / k, witness.xi + complex_scale(k, witness.points))
    c = 1.0 / (k * k)
    return HSphere(center=z0, a=c.real, b=c.imag)


def _extent(P):
    """(R, max|p|): the largest distance of a point from the points' mean and from 0,
    taken of P scaled by the power of two that brings max|p_i| into [1/2, 1): that
    is exact, and no square overflows."""
    P = np.ldexp(P, -(e := np.frexp(np.max(np.abs(P)))[1]))
    lengths = (np.max(np.linalg.norm(v, axis=-1)) for v in (P - P.mean(axis=0), P))
    return tuple(float(np.ldexp(x, e)) for x in lengths)


def _mean(x):
    """np.mean(x), taken of x scaled as _extent scales P, so that no sum overflows."""
    e = np.frexp(np.max(np.abs(x)))[1]
    return float(np.ldexp(np.mean(np.ldexp(x, -e)), e))


def reconstruct_hyperplane(stack, tol=1e-6):
    """Average the (constant) normal field and the plane offsets of a stack:
    (plane, checks) with the gates that ran; plane is None if one fails.  The
    normal spread is held against tol max|xi| (the stored normals), the offset
    spread against tol R after 4 eps |xi| max|p|, its round-off, is taken off."""
    if len(stack) == 0:
        raise NordenError("no samples")
    # huge normals may overflow: an infinite dot keeps its sign, a NaN spread fails
    with np.errstate(over="ignore", invalid="ignore"):
        xis = stack.xi * np.where(stack.xi @ stack.xi[0] < 0, -1.0, 1.0)[:, None]
        xi_mean = xis.mean(axis=0)
        spread = float(np.max(np.abs(xis - xi_mean)))
    normal = Check("normal spread", spread, tol * float(np.max(np.abs(stack.xi))))
    if not normal.passed:
        return None, (normal,)
    xi_mean = make_hyperplane(xi_mean, 0.0, 0.0).xi  # q(xi, xi) = 1, or NordenError if g <= 0
    off = bilinear(to_complex(stack.points), to_complex(xi_mean))  # g + i gt of (xi, p)
    ds, dts = off.real, off.imag
    radius, reach = _extent(stack.points)
    roundoff = 4 * np.finfo(float).eps * np.linalg.norm(xi_mean) * reach
    spread = float(np.maximum(np.ptp(ds), np.ptp(dts)) - roundoff)
    offset = Check("offset spread", max(spread, 0.0), tol * radius)  # a NaN spread stays
    if not offset.passed:
        return None, (normal, offset)
    return make_hyperplane(xi_mean, _mean(ds), _mean(dts)), (normal, offset)


def classify(stack, tol=1e-6):
    """Full pipeline on a SampleStack; below ambient dimension 8 the verdict
    is DimensionTooSmall and no gate runs.  kappa = mean lambda - i mean mu
    and R, the largest distance of a point from the points' mean, decide the
    route: |kappa| R <= tol is flat within tol, the hyperplane route and its
    spread gates, with the inverse length s = 1/R; otherwise the sphere
    route and its containment gate, with s = |kappa|.  The constancy spread
    of (nu, nut) is held against tol s^2 and the umbilicity residual against
    tol s.  p -> w p maps kappa to kappa/w and R to |w| R, so every rule is
    scale-free.  NordenError if the points all coincide (R = 0)."""
    if (dim := stack.points.shape[-1]) < 8:
        return ClassificationResult(VERDICT_DIM_TOO_SMALL, notes=(f"ambient dimension {dim} < 8",))
    if len(stack) == 0:
        raise NordenError("no samples")
    P = stack.points
    if (P == P[0]).all():  # compared exactly: their mean may differ from them by round-off
        raise NordenError("need two distinct sample points")
    radius = _extent(P)[0]

    per, devs = shape_invariants(stack)
    lam, mu, nu, nut = (float(v) for v in per.mean(axis=0))
    kappa = abs(complex(lam, mu))
    flat = kappa <= tol / radius  # holds for kappa = 0 even where R overflows to inf
    s = 1.0 / radius if flat else kappa
    checks = [Check("constancy spread", float(np.max(np.abs(per[:, 2:] - (nu, nut)))), tol * s * s)]
    if checks[-1].passed:
        checks.append(Check("umbilicity residual", float(np.max(devs)), tol * s))
    recovered, notes = None, []
    geodesic = flat and checks[-1].passed
    if geodesic:
        route = VERDICT_HYPERPLANE
        notes = [f"flat within tol: |kappa| R <= tol, |kappa| = {kappa:.3e}, R = {radius:.3e}"]
        recovered, spreads = reconstruct_hyperplane(stack, tol=tol)
        checks.extend(spreads)
    elif checks[-1].passed:
        route, recovered = VERDICT_SPHERE, reconstruct_sphere(lam, mu, stack[int(np.argmin(devs))])
        checks.append(Check("containment residual",
                            float(np.max(scaled_containment_residual(recovered, P))), tol))
        if nu or nut:
            c = 1.0 / complex(nu, nut)  # a + ib = 1/(nu + i nut)
            notes = [f"curvature-route parameters: a={c.real:.12g}, b={c.imag:.12g}"]
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
