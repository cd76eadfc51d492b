"""Tests of the verify layer itself: suite parameters and planted faults."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from nordenhs import hypersurface, verify
from nordenhs.cli import main
from nordenhs.core import metric_g
from nordenhs.curvature import pi_tensors
from nordenhs.errors import NordenError


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_params_are_the_signature(name):
    params = inspect.signature(verify.SUITES[name]).parameters
    assert verify.SUITE_PARAMS[name] == tuple(params)


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("name, param", [("metrics", "count"), ("frame", "count"),
                                         ("gauss", "quads"), ("sigma", "count")])
def test_count_below_one_rejected(name, param, count):
    with pytest.raises(NordenError, match=f"count must be at least 1, got {count}"):
        verify.SUITES[name](**{param: count})


def _planted(term):
    """gauss_curvature_from_shape with `term` added to every tensor it builds."""
    honest = verify.gauss_curvature_from_shape

    def build(A, tangent_basis, ambient=0):
        R = honest(A, tangent_basis, ambient)
        return lambda x, y, z, u: R(x, y, z, u) + term(x, y, z, u)

    return build


# pi1 is antisymmetric in each pair but pi1(x,y,Jz,Ju) = pi2(x,y,z,u), so it
# is not J-anti-invariant; g(x,y) g(z,u) is J-anti-invariant but symmetric in
# each pair.  Each must fail its own check and only that symmetry check.
PLANTS = {
    "R(x,y,z,u) = -R(x,y,Jz,Ju)": lambda x, y, z, u: 0.1 * pi_tensors(x, y, z, u)[0],
    "pair antisymmetry": lambda x, y, z, u: 0.1 * metric_g(x, y) * metric_g(z, u),
}


@pytest.mark.parametrize("a,b", [(1.0, 0.0), (3.0, 4.0)])
@pytest.mark.parametrize("check", sorted(PLANTS))
def test_suite_gauss_catches_planted_fault(monkeypatch, check, a, b):
    # the suite evaluates R on swapped and J-rotated arguments; were one side
    # of a check derived from the identity it checks, the plant would pass
    assert all(c.passed for c in verify.suite_gauss(a=a, b=b, seed=2))
    monkeypatch.setattr(verify, "gauss_curvature_from_shape", _planted(PLANTS[check]))
    checks = {c.name: c for c in verify.suite_gauss(a=a, b=b, seed=2)}
    assert not checks[check].passed
    assert not checks["Gauss tensor equals space form"].passed
    other = ({"R(x,y,z,u) = -R(x,y,Jz,Ju)", "pair antisymmetry"} - {check}).pop()
    assert checks[other].residual <= 1e-14, checks[other]
    assert np.isfinite(checks[check].residual)


def test_suite_metrics_signature_reads_the_pairing(monkeypatch):
    # "signature (m,m)" takes the eigenvalues of the Gram matrix of verify's
    # own metric_g, so a pairing of the wrong signature fails it
    assert all(c.passed for c in verify.suite_metrics(m=3))
    monkeypatch.setattr(verify, "metric_g", lambda u, v: np.vecdot(u, v))  # signature (6, 0)
    checks = {c.name: c for c in verify.suite_metrics(m=3)}
    assert not checks["signature (m,m)"].passed


# K, Kt and R are of size 1/|c| = |nu + i nut|: the tolerances of these suites
# scale with it on both sides of |c| = 1, and at |c| = 1 they are the absolute ones
TINY = [("curvature", 1e-11, 0.0), ("gauss", 1e-12, 1e-12)]


@pytest.mark.parametrize("name, a, b", TINY)
def test_tiny_spheres_pass(capsys, name, a, b):
    assert main(["verify", name, "--a", str(a), "--b", str(b)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    scale = 1.0 / abs(complex(a, b))
    assert all(r["passed"] and r["tol"] in (1e-9 * scale, 1e-10 * scale) for r in results)


@pytest.mark.parametrize("a, b, scale", [(3.0, 4.0, 0.2), (1.0, 0.0, 1), (0.0, -1.0, 1),
                                          (0.6, 0.8, 1), (0.5, 0.0, 2), (0.0, 0.25, 4)])
def test_tolerance_applied(a, b, scale):
    for name in ("curvature", "gauss"):
        assert verify.SUITES[name](a=a, b=b)[0].tol == 1e-9 * scale
    assert verify.suite_curvature(a=a, b=b, points=2, fd=True)[0].tol == 1e-5 * scale
    assert verify.suite_curvature(a=a, b=b, points=2, tol=1e-7)[0].tol == 1e-7 * scale


@pytest.mark.parametrize("name, a, b", TINY + [("curvature", 1.0, 0.0), ("gauss", 0.6, 0.8),
                                                ("curvature", 1e30, -1e29)])
def test_planted_shape_operator_fault_fails(monkeypatch, name, a, b):
    honest = verify.make_surface_samples

    def faulty(*args, **kwargs):
        st = honest(*args, **kwargs)
        return dataclasses.replace(st, A=st.A * (1 + 1e-6))

    monkeypatch.setattr(verify, "make_surface_samples", faulty)
    assert not verify.SUITES[name](a=a, b=b)[0].passed


# The Codazzi suite takes its steps in units of sqrt|c| and its residual
# tolerances in units of 1/|c|: fixed steps would leave every residual at
# round-off at large |c|, and would reach beyond the sphere at small |c|.
@pytest.mark.parametrize("m", [3, 4, 6])
@pytest.mark.parametrize("r, theta", [(1e-6, 0.4), (0.01, np.pi), (64.0, 7 * np.pi / 4),
                                      (1e4, 0.0), (1e30, -2.5), (1e150, 2.0)])
def test_codazzi_passes_at_every_scale(m, r, theta):
    a, b = r * np.cos(theta), r * np.sin(theta)
    checks = verify.suite_codazzi(a=a, b=b, m=m, seed=2)
    assert all(c.passed for c in checks), checks
    assert checks[0].tol == 1e-4 / abs(complex(a, b))
    assert checks[1].tol == 0.25


@pytest.mark.parametrize("argv", [["codazzi", "--a", "1e4"], ["all", "--a", "1e150"]])
def test_large_spheres_pass(capsys, argv):
    assert main(["verify", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


# rho is of size 1/|c| and sigma of size |A| = 1/sqrt|c|: the Ricci tolerance
# is 1e-8 / |c| and the sigma tolerance 1e-10 / sqrt|c|, the absolute ones at |c| = 1
@pytest.mark.parametrize("argv", [["ricci", "--a", "1e-8", "--b", "0", "--m", "5"],
                                  ["sigma", "--a=-2e-12", "--b=0"]])
def test_tiny_spheres_pass_ricci_and_sigma(capsys, argv):
    assert main(["verify", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (3.0, 4.0),
                                  (1e-8, 0.0), (-2e-12, 0.0), (1e4, 0.0)])
def test_ricci_and_sigma_tolerances_scale(a, b):
    c = abs(complex(a, b))
    ricci_tol, = (ch.tol for ch in verify.suite_ricci(a=a, b=b))
    sigma_tol, = (ch.tol for ch in verify.suite_sigma(a=a, b=b))
    if c == 1.0:
        assert (ricci_tol, sigma_tol) == (1e-8, 1e-10)
    assert ricci_tol == pytest.approx(1e-8 / c, rel=1e-15)
    assert sigma_tol == pytest.approx(1e-10 / np.sqrt(c), rel=1e-15)


@pytest.mark.parametrize("name, eps", [("ricci", 1e-7), ("sigma", 2e-9)])
@pytest.mark.parametrize("c", [1e-11, 1.0, 1e4])
def test_planted_non_j_commuting_fault_fails(monkeypatch, name, eps, c):
    # A's first column scaled by 1 + eps: A no longer commutes with J, which
    # both identities take for granted, and the residual is about 10 tol
    assert verify.SUITES[name](a=c, b=0.0)[0].passed
    honest = verify.make_surface_samples

    def faulty(*args, **kwargs):
        st = honest(*args, **kwargs)
        A = st.A.copy()
        A[..., 0] *= 1 + eps
        return dataclasses.replace(st, A=A)

    monkeypatch.setattr(verify, "make_surface_samples", faulty)
    check, = verify.SUITES[name](a=c, b=0.0)
    assert 9 * check.tol < check.residual < 11 * check.tol


# A scaled by 1 + eps: R is quadratic in A, so K and the Gauss tensor move by
# 2 eps.  A constant factor keeps A a Codazzi tensor, so the Codazzi plant is
# 1 + eps x_0 / sqrt|c|, a factor that varies over the sphere on its own
# scale.  Each eps puts the first check's residual at about 10 tol on every scale.
PLANTED_SCALE = {"curvature": 5e-9, "gauss": 1.25e-8, "codazzi": 1.2e-3}


@pytest.mark.parametrize("name", sorted(PLANTED_SCALE))
@pytest.mark.parametrize("c", [1e-11, 1.0, 1e4])
def test_planted_scaled_shape_operator_fails(monkeypatch, name, c):
    assert all(check.passed for check in verify.SUITES[name](a=c, b=0.0))
    eps = PLANTED_SCALE[name]
    # the Codazzi suite samples its FD neighbourhoods through surface_samples
    target, attr = ((hypersurface, "surface_samples") if name == "codazzi"
                    else (verify, "make_surface_samples"))
    honest = getattr(target, attr)

    def faulty(*args, **kwargs):
        st = honest(*args, **kwargs)
        x0 = st.points[:, :1, None] / np.sqrt(c) if name == "codazzi" else 1.0
        return dataclasses.replace(st, A=st.A * (1 + eps * x0))

    monkeypatch.setattr(target, attr, faulty)
    check = verify.SUITES[name](a=c, b=0.0)[0]
    assert 9 * check.tol < check.residual < 11 * check.tol
