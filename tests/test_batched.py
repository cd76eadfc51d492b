"""The batched sample/frame/basis/classify layer against per-point loops."""

import json

import numpy as np
import pytest

from nordenhs.classify import (
    SampleSet,
    VERDICT_OFF_SURFACE,
    VERDICT_SPHERE,
    classify,
    shape_invariants,
)
from nordenhs.cli import main
from nordenhs.core import apply_J, from_complex, is_adapted_basis, to_complex
from nordenhs.hypersurface import (
    SampleStack,
    lambda_mu,
    make_h_sphere,
    make_surface_samples,
    project_to_sphere,
    sample,
    shape_operators_fd,
    surface_sample,
    surface_samples,
)

GRID = [(1.0, 0.0), (0.0, 1.0), (3.0, 4.0), (-1.137, 1.885), (2.0, -3.0)]


# ---------------------------------------------------------------------------
# per-point loop reference
# ---------------------------------------------------------------------------

def loop_frame(s, p):
    lam, mu = lambda_mu(s)
    Z = p - s.center
    return -lam * Z - mu * apply_J(Z)


def loop_basis(s, p):
    """Columns j != k of the reflection swapping e_k and zeta / sqrt(q)."""
    zeta = to_complex(p - s.center)
    m = len(zeta)
    zh = zeta / np.sqrt(zeta @ zeta)
    k = int(np.argmax(np.abs(1.0 - zh)))
    w = np.eye(m)[k] - zh
    H = np.eye(m) - 2.0 * np.outer(w, w) / (w @ w)
    xs = [from_complex(H[:, j]) for j in range(m) if j != k]
    return np.array(xs + [apply_J(x) for x in xs])


def loop_invariants(smp):
    """(lambda, mu, nu, nut, deviation) of one record via its own solve."""
    T = np.column_stack(list(smp.tangent_basis))
    m = T.shape[0] // 2
    G = np.diag(np.r_[np.ones(m), -np.ones(m)])
    Jm = np.block([[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]])
    coords = np.linalg.solve(T.T @ G @ T, T.T @ G)
    J_rep = coords @ Jm @ T
    A = np.asarray(smp.A)
    two_n = A.shape[0]
    lam = np.trace(A) / two_n
    mu = -np.trace(A @ J_rep) / two_n
    model = lam * np.eye(two_n) + mu * J_rep
    dev = np.max(np.abs(A - model)) / max(1.0, np.max(np.abs(A)))
    return lam, mu, lam * lam - mu * mu, -2.0 * lam * mu, dev


def loop_fd(s, p, basis, h):
    T = np.column_stack(list(basis))
    m = T.shape[0] // 2
    G = np.diag(np.r_[np.ones(m), -np.ones(m)])
    coords = np.linalg.solve(T.T @ G @ T, T.T @ G)
    cols = []
    for t in basis:
        xp = loop_frame(s, project_to_sphere(s, p + h * t))
        xm = loop_frame(s, project_to_sphere(s, p - h * t))
        cols.append(coords @ (-(xp - xm) / (2.0 * h)))
    return np.column_stack(cols)


def gram_errors(T, xi):
    """Largest deviation of the g-Gram matrix of each basis from diag(I, -I)
    and largest g-pairing of a basis vector with xi or J xi."""
    m = T.shape[-1] // 2
    g = np.r_[np.ones(m), -np.ones(m)]
    n = T.shape[1] // 2
    want = np.diag(np.r_[np.ones(n), -np.ones(n)])
    gram = np.einsum("nia,a,nja->nij", T, g, T)
    normal = [np.einsum("nia,a,na->ni", T, g, v) for v in (xi, apply_J(xi))]
    return np.abs(gram - want).max(), max(np.abs(x).max() for x in normal)


# ---------------------------------------------------------------------------
# batched layer == loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a,b", GRID)
def test_frames_and_bases_match_loop(a, b):
    center = np.random.default_rng(3).uniform(-2, 2, 8)
    sph = make_h_sphere(center, a, b)
    P = sample(sph, 50, seed=11)
    st = surface_samples(sph, P)
    for i, p in enumerate(P):
        assert np.max(np.abs(st.xi[i] - loop_frame(sph, p))) <= 1e-12
        assert np.max(np.abs(st.tangent_bases[i] - loop_basis(sph, p))) <= 1e-12
        # the N = 1 wrapper is a row of the batched result
        one = surface_sample(sph, p)
        assert np.array_equal(one.frame.xi, st.xi[i])
        assert np.array_equal(np.asarray(one.tangent_basis), st.tangent_bases[i])
        assert np.array_equal(one.A, st.A[i])


def test_sample_stream_is_blockwise_prefix():
    sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
    assert np.array_equal(sample(sph, 7, seed=2), sample(sph, 40, seed=2)[:7])


def test_fd_matches_loop():
    sph = make_h_sphere(np.arange(8.0) / 4.0, -1.0, 2.0)
    st = surface_samples(sph, sample(sph, 12, seed=4), fd=True, step=1e-4)
    for p, T, A in zip(st.points, st.tangent_bases, st.A):
        assert np.max(np.abs(A - loop_fd(sph, p, T, 1e-4))) <= 1e-9
    assert np.max(np.abs(
        shape_operators_fd(sph, st.points, st.tangent_bases, step=1e-4) - st.A
    )) == 0.0


@pytest.mark.parametrize("fd", [False, True])
def test_classify_invariants_match_loop(fd):
    sph = make_h_sphere(np.random.default_rng(5).uniform(-2, 2, 8), 2.0, -3.0)
    st = make_surface_samples(sph, 40, seed=6, fd=fd)
    per, devs = shape_invariants(st)
    ref = np.array([loop_invariants(smp) for smp in st])
    assert np.max(np.abs(per - ref[:, :4])) <= 1e-12
    assert np.max(np.abs(devs - ref[:, 4])) <= 1e-12
    result = classify(SampleSet(space=sph.space, samples=st))
    assert np.max(np.abs(np.array(result.per_sample) - ref[:, :4])) <= 1e-12


def test_stack_round_trips_records():
    sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
    st = make_surface_samples(sph, 5, seed=1)
    again = SampleStack.of(tuple(st))
    for field in ("points", "xi", "tangent_bases", "A"):
        assert np.array_equal(getattr(again, field), getattr(st, field))


# ---------------------------------------------------------------------------
# tangent-basis regressions (complex Gram-Schmidt gave wrong or no bases)
# ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_record(rec):
    T = np.asarray(rec["tangent_basis"])
    xi = np.asarray(rec["xi"])
    assert is_adapted_basis(T, tol=1e-9)
    gram, normal = gram_errors(T[None], xi[None])
    assert gram <= 1e-12 and normal <= 1e-12


def test_seed_49_point_1550(capsys, tmp_path):
    out = tmp_path / "s.json"
    code, _, _ = run_cli(
        capsys, "sample", "--a=-1.137", "--b=1.885", "--count", "2000",
        "--seed", "49", "--with-frames", "--out", str(out),
    )
    assert code == 0
    check_record(json.loads(out.read_text())["samples"][1550])


def test_m8_seed_1(capsys, tmp_path):
    # point 61 of this stream used to end in a GramSchmidtFailure (exit 2)
    out = tmp_path / "s.json"
    code, _, _ = run_cli(
        capsys, "sample", "--a", "3", "--b", "4", "--m", "8", "--count", "100",
        "--seed", "1", "--with-frames", "--out", str(out),
    )
    assert code == 0
    recs = json.loads(out.read_text())["samples"]
    assert len(recs) == 100
    check_record(recs[61])
    st = make_surface_samples(make_h_sphere(np.zeros(16), 3.0, 4.0), 2000, 1)
    gram, normal = gram_errors(st.tangent_bases, st.xi)
    assert gram <= 1e-12 and normal <= 1e-12


# ---------------------------------------------------------------------------
# containment gate
# ---------------------------------------------------------------------------

def two_spheres():
    e1 = np.eye(8)[0]
    return [
        make_surface_samples(make_h_sphere(c, 3.0, 4.0), 50, seed)
        for c, seed in ((np.zeros(8), 1), (5.0 * e1, 2))
    ]


def test_two_centres_rejected():
    s1, s2 = two_spheres()
    result = classify(SampleSet(space=make_h_sphere(np.zeros(8), 3, 4).space,
                                samples=tuple(s1) + tuple(s2)))
    assert result.verdict == VERDICT_OFF_SURFACE
    assert result.containment_residual > 1e-6
    assert "tol 1.000e-06" in result.notes[0]
    one = classify(SampleSet(space=make_h_sphere(np.zeros(8), 3, 4).space, samples=s1))
    assert one.verdict == VERDICT_SPHERE
    assert one.containment_residual <= 1e-12


def test_two_centres_cli_exit_4(capsys, tmp_path):
    from nordenhs import jsonio

    f = tmp_path / "mixed.json"
    s1, s2 = two_spheres()
    jsonio.write_json(str(f), jsonio.samples_to_doc(4, tuple(s1) + tuple(s2)))
    code, out, _ = run_cli(capsys, "classify", "--in", str(f))
    assert code == 4
    doc = json.loads(out)
    assert doc["verdict"] == VERDICT_OFF_SURFACE
    assert "recovered" not in doc
    assert "containment residual" in doc["notes"][0]
