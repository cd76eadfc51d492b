"""Classification pipeline for sampled holomorphic hypersurface data.

Estimates pointwise invariants from second-order samples, tests constancy
and h-umbilicity, and reconstructs the h-sphere center/parameters or the
hyperplane normal data.
"""

from dataclasses import dataclass

import numpy as np

from .core import NordenSpace, apply_J, bilinear, metric_g, tangent_reps, to_complex
from .errors import (
    EmptySampleSet,
    NearZeroLambdaMu,
    NonConstantNormal,
)
from .hypersurface import (
    HSphere,
    SampleStack,
    h_umbilicity_deviation,
    make_hyperplane,
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
class SampleSet:
    """Samples of one space: a sequence of SurfaceSample records or a
    SampleStack."""

    space: NordenSpace
    samples: tuple
    provenance: str = ""


@dataclass(frozen=True)
class Tolerances:
    constancy: float = 1e-6
    umbilicity: float = 1e-6
    containment: float = 1e-6
    normal_spread: float = 1e-6


@dataclass(frozen=True)
class ClassificationResult:
    verdict: str
    recovered: object = None
    per_sample: tuple = ()
    containment_residual: float = float("nan")
    umbilicity_residual: float = float("nan")
    constancy_spread: float = float("nan")
    totally_geodesic: bool = False
    notes: tuple = ()


def shape_invariants(stack):
    """Per-sample invariants of a SampleStack in one batched pass: an
    (N, 4) array of (lambda, mu, nu, nut) from the traces of the shape
    operators, and the h-umbilicity deviations relative to max(1, max|A|)."""
    _, J_rep, _ = tangent_reps(stack.tangent_bases)
    A = stack.A
    two_n = A.shape[-1]
    lam = np.trace(A, axis1=1, axis2=2) / two_n
    mu = -np.trace(A @ J_rep, axis1=1, axis2=2) / two_n
    per = np.column_stack([lam, mu, lam * lam - mu * mu, -2.0 * lam * mu])
    scale = np.maximum(1.0, np.abs(A).max(axis=(1, 2)))
    return per, h_umbilicity_deviation(A, J_rep) / scale


def estimate_invariants(sample, space):
    """(lambda, mu, nu, nut) from the traces of the shape operator."""
    per, _ = shape_invariants(SampleStack.of([sample]))
    return tuple(per[0].tolist())


def umbilicity_check(sample_set, tol=1e-6):
    """Per-sample h-umbilicity deviations; (passed, deviations, worst_index)."""
    if len(sample_set.samples) == 0:
        raise EmptySampleSet("no samples")
    _, devs = shape_invariants(SampleStack.of(sample_set.samples))
    worst = int(np.argmax(devs))
    return bool(devs[worst] <= tol), devs, worst


def pair_crosscheck(pairs, ambient, observed):
    """Max residual of the cross-pair compatibility relations

        nu' - nu  = mu_j mu_k - lambda_j lambda_k
        nut' - nut = lambda_j mu_k + lambda_k mu_j   (j != k).
    """
    lam, mu = np.array(list(pairs), dtype=float).reshape(-1, 2).T
    if len(lam) < 2:
        raise EmptySampleSet("need at least two (lambda, mu) pairs")
    r1 = (ambient.nu - observed.nu) - (np.outer(mu, mu) - np.outer(lam, lam))
    r2 = (ambient.nut - observed.nut) - (np.outer(lam, mu) + np.outer(mu, lam))
    off = ~np.eye(len(lam), dtype=bool)
    return float(max(np.max(np.abs(r1[off])), np.max(np.abs(r2[off]))))


def reconstruct_sphere(lam, mu, witness):
    """Center and parameters from the conserved field xi + lambda Z + mu JZ."""
    den = lam * lam + mu * mu
    if den <= LAMBDA_MU_THRESHOLD:
        raise NearZeroLambdaMu("lambda^2 + mu^2 below threshold")
    Z = np.asarray(witness.point, dtype=float)
    C = witness.frame.xi + lam * Z + mu * apply_J(Z)
    z0 = (lam * C - mu * apply_J(C)) / den
    a = (lam * lam - mu * mu) / (den * den)
    b = 2.0 * lam * mu / (den * den)
    return HSphere(
        space=NordenSpace(Z.shape[0] // 2), center=z0, a=float(a), b=float(b)
    )


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


def reconstruct_hyperplane(sample_set, tol=1e-6):
    """Average the (constant) normal field and the plane offsets."""
    if len(sample_set.samples) == 0:
        raise EmptySampleSet("no samples")
    stack = SampleStack.of(sample_set.samples)
    xis = stack.xi * np.where(stack.xi @ stack.xi[0] < 0, -1.0, 1.0)[:, None]
    xi_mean = xis.mean(axis=0)
    spread = float(np.max(np.abs(xis - xi_mean)))
    if not spread <= tol:
        raise NonConstantNormal(f"normal spread {spread:.3e} exceeds tol")
    xi_mean = xi_mean / np.sqrt(metric_g(xi_mean, xi_mean))
    ds, dts = _offsets(xi_mean, stack.points)
    d_spread = max(float(np.ptp(ds)), float(np.ptp(dts)))
    if d_spread > tol * max(1.0, float(np.max(np.abs(ds))), float(np.max(np.abs(dts)))):
        raise NonConstantNormal(f"offset spread {d_spread:.3e} exceeds tol")
    return make_hyperplane(xi_mean, float(np.mean(ds)), float(np.mean(dts)))


def classify(sample_set, tolerances=None):
    """Full pipeline: dimension gate, invariant estimation, constancy and
    umbilicity tests, sphere or hyperplane reconstruction, then the
    containment of every sample in the recovered surface."""
    tols = tolerances or Tolerances()
    space = sample_set.space
    if space.dim < 8:
        return ClassificationResult(
            verdict=VERDICT_DIM_TOO_SMALL,
            notes=(f"ambient dimension {space.dim} < 8",),
        )
    if len(sample_set.samples) == 0:
        raise EmptySampleSet("no samples")
    stack = SampleStack.of(sample_set.samples)

    per, devs = shape_invariants(stack)
    per_sample = tuple(map(tuple, per.tolist()))
    spread = float(np.max(np.abs(per[:, 2:] - per[:, 2:].mean(axis=0))))
    if not spread <= tols.constancy:
        return ClassificationResult(
            verdict=VERDICT_NON_CONSTANT,
            per_sample=per_sample,
            constancy_spread=spread,
        )

    worst = int(np.argmax(devs))
    umb_res = float(devs[worst])
    if not umb_res <= tols.umbilicity:
        return ClassificationResult(
            verdict=VERDICT_NOT_UMBILICAL,
            per_sample=per_sample,
            umbilicity_residual=umb_res,
            constancy_spread=spread,
            notes=(f"worst sample index {worst}",),
        )

    lam, mu, nu, nut = (float(v) for v in per.mean(axis=0))
    geodesic = float(np.max(np.abs(stack.A))) <= tols.umbilicity
    notes = []
    if geodesic:
        notes.append("totally geodesic (A = 0): curvatures equal ambient (0, 0)")

    if lam * lam + mu * mu > LAMBDA_MU_THRESHOLD:
        verdict = VERDICT_SPHERE
        recovered = reconstruct_sphere(lam, mu, stack[int(np.argmin(devs))])
        cres = float(np.max(scaled_containment_residual(recovered, stack.points)))
        den = nu * nu + nut * nut
        if den > 0:
            notes.append(
                "curvature-route parameters: "
                f"a={nu / den:.12g}, b={-nut / den:.12g}"
            )
    else:
        verdict = VERDICT_HYPERPLANE
        recovered = reconstruct_hyperplane(
            SampleSet(space=space, samples=stack), tol=tols.normal_spread
        )
        cres = float(np.max(_plane_residual(recovered, stack.points)))
    if not cres <= tols.containment:
        notes = [f"no single {verdict} holds the samples: containment "
                 f"residual {cres:.3e} > tol {tols.containment:.3e}"]
        verdict, recovered = VERDICT_OFF_SURFACE, None
    return ClassificationResult(
        verdict=verdict,
        recovered=recovered,
        per_sample=per_sample,
        containment_residual=cres,
        umbilicity_residual=umb_res,
        constancy_spread=spread,
        totally_geodesic=geodesic,
        notes=tuple(notes),
    )
