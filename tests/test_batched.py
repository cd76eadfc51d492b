"""The batched sample/frame/basis/classify and curvature layers against
per-item loops."""

import functools
import json

import numpy as np
import orjson
import pytest

from nordenhs import jsonio
from nordenhs.classify import (
    VERDICT_OFF_SURFACE,
    VERDICT_SPHERE,
    classify,
    shape_invariants,
)
from nordenhs.cli import main
from nordenhs.core import (
    apply_J,
    from_complex,
    is_adapted_basis,
    metric_g,
    metric_gt,
    random_complex_orthogonal,
    to_complex,
)
from nordenhs.curvature import (
    PLANE_DEGENERACY_THRESHOLD,
    GaussShapeCurvature,
    gauss_curvature_from_shape,
    is_totally_real,
    pi_tensors,
    ricci,
    sample_totally_real_planes,
    sectional_batch_planes,
    sectional_curvatures,
)
from nordenhs.errors import FormatError, NordenError
from nordenhs.hypersurface import (
    SampleStack,
    hyperplane_samples,
    lambda_mu,
    make_h_sphere,
    make_hyperplane,
    make_surface_samples,
    normal_frame,
    normalize_normal_frame,
    project_to_sphere,
    sample,
    second_fundamental,
    shape_operators_fd,
    surface_sample,
    surface_samples,
    theoretical_curvatures,
)
from nordenhs.verify import suite_curvature, suite_frame, suite_sigma

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
    T = np.column_stack(list(smp.tangent_bases))
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
    dev = np.max(np.abs(A - model))
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
        assert np.array_equal(one.xi, st.xi[i])
        assert np.array_equal(one.tangent_bases, st.tangent_bases[i])
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
    """Samples of two spheres, (a, b) = (3, 4) with centres 0 and 5 e_1, in
    one stack and the first sphere's alone."""
    e1 = np.eye(8)[0]
    s1, s2 = (make_surface_samples(make_h_sphere(c, 3.0, 4.0), 50, seed)
              for c, seed in ((np.zeros(8), 1), (5.0 * e1, 2)))
    both = SampleStack(*(np.concatenate([x, y]) for x, y in zip(vars(s1).values(),
                                                               vars(s2).values())))
    return both, s1


def test_two_centres_rejected():
    both, s1 = two_spheres()
    result = classify(both)
    assert result.verdict == VERDICT_OFF_SURFACE
    assert result.residual("containment residual") > 1e-6
    assert "tol 1.000e-06" in result.notes[0]
    one = classify(s1)
    assert one.verdict == VERDICT_SPHERE
    assert one.residual("containment residual") <= 1e-12


def test_two_centres_cli_exit_4(capsys, tmp_path):
    from nordenhs import jsonio

    f = tmp_path / "mixed.json"
    both, _ = two_spheres()
    jsonio.write_json(str(f), jsonio.samples_to_doc(4, both))
    code, out, _ = run_cli(capsys, "classify", "--in", str(f))
    assert code == 4
    doc = json.loads(out)
    assert doc["verdict"] == VERDICT_OFF_SURFACE
    assert "recovered" not in doc
    assert "containment residual" in doc["notes"][0]


# ---------------------------------------------------------------------------
# curvature layer against a per-item reference built from 1-D pairings
# ---------------------------------------------------------------------------

def ref_pi(x, y, z, u):
    g, gt = metric_g, metric_gt
    return (
        g(y, z) * g(x, u) - g(x, z) * g(y, u),
        gt(y, z) * gt(x, u) - gt(x, z) * gt(y, u),
        -g(y, z) * gt(x, u) + g(x, z) * gt(y, u) - gt(y, z) * g(x, u) + gt(x, z) * g(y, u),
    )


def ref_tensor(nu, nut, A_amb=None):
    """Gauss tensor of the ambient-acting shape operator A_amb (None: A = 0)
    over a space form (nu, nut), one quadruple of 1-D vectors at a time."""
    def R(x, y, z, u):
        p1, p2, p3 = ref_pi(x, y, z, u)
        r = nu * (p1 - p2) + nut * p3
        if A_amb is not None:
            q1, q2, _ = ref_pi(A_amb @ x, A_amb @ y, z, u)
            r += q1 - q2
        return r
    return R


def ref_ambient_shape(smp):
    T = smp.tangent_bases.T
    m = T.shape[0] // 2
    G = np.diag(np.r_[np.ones(m), -np.ones(m)])
    return T @ np.asarray(smp.A) @ np.linalg.solve(T.T @ G @ T, T.T @ G)


def ref_sectional(R, x, y):
    den = metric_g(y, y) * metric_g(x, x) - metric_g(x, y) ** 2
    return R(x, y, y, x) / den, R(x, y, y, apply_J(x)) / den


def ref_totally_real(x, y, tol):
    scale = max(float(x @ x), float(y @ y), 1e-300)
    if max(abs(metric_gt(a, b)) for a, b in ((x, x), (x, y), (y, y))) > tol * scale:
        return False
    vecs = [x, y, apply_J(x), apply_J(y)]
    G = np.array([[metric_g(a, b) for b in vecs] for a in vecs])
    if abs(np.linalg.det(G)) < 1e-10 * scale ** 4:
        return False
    den = metric_g(y, y) * metric_g(x, x) - metric_g(x, y) ** 2
    return abs(den) > 1e-8 * scale


def ref_ricci(R, basis):
    frame, signs = [], []
    for v in basis:
        w = v.copy()
        for e, eps in zip(frame, signs):
            w = w - eps * metric_g(w, e) * e
        n2 = metric_g(w, w)
        frame.append(w / np.sqrt(abs(n2)))
        signs.append(np.sign(n2))
    return np.array([[sum(eps * R(E, bi, bj, E) for E, eps in zip(frame, signs))
                      for bj in basis] for bi in basis])


def ref_sampler(adapted_basis, count, seed, tol=1e-9):
    """The per-attempt plane sampler: draw, test, keep, one candidate at a time."""
    V = np.asarray(adapted_basis, dtype=float)
    n = V.shape[0] // 2
    Zs = np.column_stack([to_complex(v) for v in V[:n]])
    crng = np.random.default_rng(0x1985 + n)
    catalog = [np.eye(n, dtype=complex)] + [
        random_complex_orthogonal(n, crng, im_scale=0.3) for _ in range(11)
    ]
    rng = np.random.default_rng(seed)
    planes = []
    while len(planes) < count:
        u = rng.random(2 * n + 1)
        Xrot = Zs @ catalog[int(len(catalog) * u[0])]
        c1, c2 = 2.0 * u[1:].reshape(2, n) - 1.0
        if np.linalg.det(np.array([[c1 @ c1, c1 @ c2], [c1 @ c2, c2 @ c2]])) < 1e-6:
            continue
        x = from_complex(Xrot @ c1)
        y = from_complex(Xrot @ c2)
        if ref_totally_real(x, y, tol):
            planes.append((x, y))
    return planes


def close(got, want):
    want = np.asarray(want, dtype=float)
    return np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def sphere_stack(a, b, count, seed, m=4):
    return make_surface_samples(make_h_sphere(np.zeros(2 * m), a, b), count, seed)


@pytest.mark.parametrize("a,b", GRID)
def test_tensors_match_reference(a, b):
    st = sphere_stack(a, b, 6, seed=21)
    rng = np.random.default_rng(22)
    x, y, z, u = rng.uniform(-1, 1, (4, 6, 40, 6)) @ st.tangent_bases
    # x[i, k]: k-th tangent vector at point i
    got = pi_tensors(x, y, z, u)
    for i, k in np.ndindex(6, 40):
        assert close([p[i, k] for p in got], ref_pi(x[i, k], y[i, k], z[i, k], u[i, k]))
    flat = 0j
    stacked = gauss_curvature_from_shape(st.A, st.tangent_bases, flat)
    sf = GaussShapeCurvature(complex(0.12, -0.16))
    ref_sf = ref_tensor(0.12, -0.16)
    v_stack = stacked(*(w.transpose(1, 0, 2) for w in (x, y, z, u)))  # (40, 6)
    v_sf = sf(x, y, z, u)
    for i, smp in enumerate(st):
        one = gauss_curvature_from_shape(smp.A, smp.tangent_bases, flat)
        ref = ref_tensor(0.0, 0.0, ref_ambient_shape(smp))
        want = [ref(x[i, k], y[i, k], z[i, k], u[i, k]) for k in range(40)]
        assert close(one(x[i], y[i], z[i], u[i]), want)
        assert close(v_stack[:, i], want)
        assert close(v_sf[i], [ref_sf(x[i, k], y[i, k], z[i, k], u[i, k]) for k in range(40)])


def test_flat_gauss_tensor_is_the_shape_term_exactly():
    st = sphere_stack(-1.137, 1.885, 5, seed=36)
    x, y, z, u = np.random.default_rng(37).uniform(-1, 1, (4, 5, 30, 6)) @ st.tangent_bases
    R = gauss_curvature_from_shape(st.A[:, None], st.tangent_bases[:, None])
    ax, ay = (np.einsum("...ij,...j->...i", R.A_ambient, v) for v in (x, y))
    q1, q2, _ = pi_tensors(ax, ay, z, u)
    assert np.array_equal(R(x, y, z, u), q1 - q2)


@pytest.mark.parametrize("nu,nut", [(0.7, 0.0), (0.0, -0.4), (1.3, 2.1)])
def test_gauss_tensor_is_space_form_plus_shape_term(nu, nut):
    st = sphere_stack(3.0, 4.0, 5, seed=38)
    x, y, z, u = np.random.default_rng(39).uniform(-1, 1, (4, 5, 30, 6)) @ st.tangent_bases
    A, T = st.A[:, None], st.tangent_bases[:, None]
    got = gauss_curvature_from_shape(A, T, complex(nu, nut))(x, y, z, u)
    want = (GaussShapeCurvature(complex(nu, nut))(x, y, z, u)
            + gauss_curvature_from_shape(A, T)(x, y, z, u))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("a,b", GRID)
def test_sectional_and_ricci_match_reference(a, b):
    st = sphere_stack(a, b, 4, seed=23)
    flat = 0j
    pls = [sample_totally_real_planes(T, 30, seed=24 + i) for i, T in enumerate(st.tangent_bases)]
    XY = np.array(pls).transpose(1, 2, 0, 3)
    K, Kt = sectional_batch_planes(gauss_curvature_from_shape(st.A, st.tangent_bases, flat), *XY)
    Rs = [gauss_curvature_from_shape(smp.A, smp.tangent_bases, flat) for smp in st]
    refs = [ref_tensor(0.0, 0.0, ref_ambient_shape(smp)) for smp in st]
    want = []
    for j in range(30):
        for i in range(4):
            x, y = pls[i][0][j], pls[i][1][j]
            kk = ref_sectional(refs[i], x, y)
            assert close(sectional_curvatures(Rs[i], x, y), kk)
            want.append(kk)
    assert close(np.stack([K, Kt], axis=1), want)
    for smp in st:
        B = smp.tangent_bases
        R = gauss_curvature_from_shape(smp.A, B, flat)
        assert close(ricci(R, B), ref_ricci(ref_tensor(0.0, 0.0, ref_ambient_shape(smp)), B))
        sf = GaussShapeCurvature(complex(-0.3, 0.7))
        assert close(ricci(sf, B), ref_ricci(ref_tensor(-0.3, 0.7), B))


@pytest.mark.parametrize("nu,nut", [(0.7, 0.0), (1.3, 2.1)])
@pytest.mark.parametrize("a,b", GRID)
def test_sectional_over_space_form_matches_reference(a, b, nu, nut):
    # the Gauss tensor over a non-flat ambient adds (nu + i nut) W(x,y,y,x)
    st = sphere_stack(a, b, 4, seed=40)
    amb = complex(nu, nut)
    X, Y = sample_totally_real_planes(st.tangent_bases, 30, seed=41 + np.arange(4))
    K, Kt = sectional_batch_planes(gauss_curvature_from_shape(st.A[:, None],
                                                              st.tangent_bases[:, None], amb), X, Y)
    want = []
    for i, smp in enumerate(st):
        R = gauss_curvature_from_shape(smp.A, smp.tangent_bases, amb)
        ref = ref_tensor(nu, nut, ref_ambient_shape(smp))
        for x, y in zip(X[i], Y[i]):
            kk = ref_sectional(ref, x, y)
            assert close(sectional_curvatures(R, x, y), kk)
            want.append(kk)
    assert close(np.stack([K, Kt], axis=1), want)


def _threshold_planes(T, targets, rng):
    """Planes (x, y) in the span of the adapted basis T with
    |pi1(x,y,y,x)| / (|x|^2 |y|^2) near each target, and that design value:
    x = u, y = cos th u + sin th v for u, v in the coordinates of T with
    g(u, u) = 1, g(u, v) = 0 and g(v, v) = +1 (odd k) or -1 (even k), so that
    pi1 = +- sin^2 th exactly; th is aimed with the norms at th = 0."""
    n = len(T) // 2
    out = []
    for k, target in enumerate(targets):
        a, b = rng.standard_normal((2, n))
        a /= np.linalg.norm(a)
        if k % 2:
            b -= (b @ a) * a
        b /= np.linalg.norm(b)
        u = np.r_[a, np.zeros(n)] @ T
        v = (np.r_[b, np.zeros(n)] if k % 2 else np.r_[np.zeros(n), b]) @ T
        th = np.arcsin(np.sqrt(target * (u @ u) ** 2))
        x, y = u, np.cos(th) * u + np.sin(th) * v
        out.append((x, y, np.sin(th) ** 2 / ((x @ x) * (y @ y))))
    return out


@pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
def test_batch_drops_exactly_the_degenerate_planes(t):
    # |pi1| / (|x|^2 |y|^2) from 1e-3 to 1e3 times the threshold, with pi1 of
    # both signs; round-off moves it by far less than the 1 % margin of the
    # planes designed at 0.99 and 1.01 times the threshold
    st = sphere_stack(-1.137, 1.885, 1, seed=45)
    amb = complex(0.7, -0.3)
    R = gauss_curvature_from_shape(st.A[0], st.tangent_bases[0], amb)
    ref = ref_tensor(amb.real, amb.imag, ref_ambient_shape(st[0]))
    targets = np.repeat([1e-3, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 1e3], 2) * PLANE_DEGENERACY_THRESHOLD
    X, Y, rho = (np.array(c) for c in zip(*_threshold_planes(st.tangent_bases[0], targets,
                                                            np.random.default_rng(46))))
    keep = rho > PLANE_DEGENERACY_THRESHOLD
    assert np.all(np.abs(rho / PLANE_DEGENERACY_THRESHOLD - 1) > 5e-3) and keep.sum() == 8
    K, Kt = sectional_batch_planes(R, t * X, t * Y)
    assert len(K) == len(Kt) == keep.sum()
    assert close(np.stack([K, Kt], axis=1),
                 [sectional_curvatures(R, t * x, t * y) for x, y in zip(X[keep], Y[keep])])
    for x, y, r in zip(t * X[keep], t * Y[keep], rho[keep]):
        # the cancellation in pi1 makes (K, Kt) as ill-conditioned as 1 / r
        want = np.array(ref_sectional(ref, x, y))
        assert np.max(np.abs(np.array(sectional_curvatures(R, x, y)) - want)) \
            <= 1e-13 / r * np.max(np.abs(want))
    for x, y in zip(t * X[~keep], t * Y[~keep]):
        with pytest.raises(NordenError, match="degenerate plane"):
            sectional_curvatures(R, x, y)


def test_totally_real_matches_reference():
    rng = np.random.default_rng(25)
    st = sphere_stack(3.0, 4.0, 1, seed=26)
    good = list(zip(*sample_totally_real_planes(st.tangent_bases[0], 40, seed=27)))
    e = np.eye(8)
    special = [(e[0], apply_J(e[0])), (e[0] + e[4], e[1]), (e[0], 2.0 * e[0]),
               (e[0], e[1]), (e[0] + 1e-12 * e[4], e[1]),
               # nearly degenerate: the Gram determinant decides these two
               (e[0] + e[2], e[0] + e[2] + 1e-3 * e[1]), (e[0] + e[2], e[0] + e[2] + 1e-2 * e[1])]
    noisy = [(x + 1e-6 * rng.standard_normal(8), y) for x, y in good[:10]]
    pairs = good + special + noisy + list(rng.uniform(-1, 1, (20, 2, 8)))
    X, Y = np.array(pairs).transpose(1, 0, 2)
    for tol in (1e-9, 1e-5):
        got = is_totally_real(X, Y, tol=tol)
        want = [ref_totally_real(x, y, tol) for x, y in pairs]
        assert got.tolist() == want
        assert [is_totally_real(x, y, tol=tol) for x, y in pairs] == want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("t", [1e-150, 1e-4, 1.0, 1e40, 1e150])
def test_totally_real_is_scale_free(t):
    # total reality is a property of the span: (t x, t y) answers as (x, y)
    # does, with no overflow of the quartic gates
    st = sphere_stack(3.0, 4.0, 1, seed=26)
    good = list(zip(*sample_totally_real_planes(st.tangent_bases[0], 10, seed=27)))
    e = np.eye(8)
    special = [(e[0], apply_J(e[0])), (e[0] + e[4], e[1]), (e[0], 2.0 * e[0]),
               (e[0], e[1]), (e[0] + 1e-12 * e[4], e[1]),
               (e[0] + e[2], e[0] + e[2] + 1e-3 * e[1]), (e[0] + e[2], e[0] + e[2] + 1e-2 * e[1])]
    X, Y = np.array(good + special).transpose(1, 0, 2)
    for tol in (1e-9, 1e-5):
        want = [ref_totally_real(x, y, tol) for x, y in zip(X, Y)]
        assert is_totally_real(t * X, t * Y, tol=tol).tolist() == want
        assert [is_totally_real(t * x, t * y, tol=tol)
                for x, y in zip(X, Y)] == want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("t", [1e-100, 1e-80, 1e-60, 1.0, 1e60, 1e80, 1e150,
                               2.0 ** -330, 2.0 ** -1, 2.0 ** 490])
def test_sectional_is_scale_free(t):
    # K + i Kt is of degree 0 in (x, y) and _plane scales each plane exactly
    # by a power of two, so (t x, t y) gets the t = 1 value, bit for bit when
    # t is a power of two; the quartic pi1 would under- or overflow at 1e-80
    # and 1e80 (a RuntimeWarning fails the test by the pytest settings)
    e = np.eye(8)
    st = sphere_stack(3.0, 4.0, 1, seed=26)
    T = st.tangent_bases[0]
    X, Y = sample_totally_real_planes(T, 5, seed=27)
    for R, x, y in ((GaussShapeCurvature(0.12 - 0.16j), e[:1], e[1:2]),
                    (gauss_curvature_from_shape(st.A[0], T), np.r_[T[:1], X], np.r_[T[1:2], Y])):
        want = np.array(sectional_batch_planes(R, x, y))
        assert want.shape == (2, len(x)) and np.allclose(want.T, [0.12, -0.16], atol=1e-13)
        got = [np.array(sectional_batch_planes(R, t * x, t * y)),
               np.array([sectional_curvatures(R, t * u, t * v) for u, v in zip(x, y)]).T]
        for g in got:
            if np.frexp(t)[0] == 0.5:
                assert np.array_equal(g, want)
            else:
                assert close(g, want)


def _near_threshold_planes(m, targets, rng):
    """Planes (x, y) with |det Q|^2 / scale^4 near each target, and that
    design value t: x = r M u, y = r M (cos th u + sin th v) with u, v real
    orthonormal and M complex-orthogonal, so q is real on the plane and
    det Q = r^4 sin^2 th exactly; th is refined against the scale of y."""
    out = []
    for target in targets:
        M = random_complex_orthogonal(m, rng, im_scale=0.3)
        u, v = np.linalg.qr(rng.standard_normal((m, 2)))[0].T
        r = rng.uniform(0.5, 3.0)
        a, b = (from_complex(r * (M @ w)) for w in (u, v))
        th = 0.0
        for _ in range(6):
            x, y = a, np.cos(th) * a + np.sin(th) * b
            scale = max(x @ x, y @ y)
            th = np.arcsin((target * scale ** 4 / r ** 8) ** 0.25)
        x, y = a, np.cos(th) * a + np.sin(th) * b
        out.append((x, y, (r ** 4 * np.sin(th) ** 2) ** 2 / max(x @ x, y @ y) ** 4))
    return out


def test_determinant_gate_sweep_matches_reference():
    # det G / scale^4 from 1e-12 to 1e-8 (10 steps a decade) and at 1e-10
    # (1 +- 1e-5), against the 4 x 4 LU reference; round-off moves det G
    # by far less than the band of 1e-6 relative around the 1e-10 threshold
    rng = np.random.default_rng(43)
    targets = list(np.logspace(-12, -8, 41)) + [1e-10 * (1 + 1e-5), 1e-10 * (1 - 1e-5)]
    compared = 0
    for m in (3, 4, 5, 6):
        planes = _near_threshold_planes(m, targets * 2, rng)
        X, Y, t = (np.array(c) for c in zip(*planes))
        outside = np.abs(t / 1e-10 - 1) > 1e-6
        for tol in (1e-9, 1e-5):
            got = is_totally_real(X, Y, tol=tol)
            want = np.array([ref_totally_real(x, y, tol) for x, y in zip(X, Y)])
            assert np.array_equal(got[outside], want[outside])
            assert np.array_equal(got[outside], t[outside] > 1e-10)
            compared += outside.sum()
    # only the two planes designed at 1e-10 itself fall in the band
    assert compared == 4 * 2 * (2 * len(targets) - 2)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_gram_determinant_is_squared_modulus_of_q_determinant(m):
    # G = [[A, B], [B, -A]] for the g- and gt-Grams A, B of (x, y)
    x, y = np.random.default_rng(44 + m).uniform(-1, 1, (2, 200, 2 * m))
    vecs = np.stack([x, y, apply_J(x), apply_J(y)], axis=1)
    det_g = np.linalg.det(metric_g(vecs[:, :, None], vecs[:, None, :]))
    zx, zy = to_complex(x), to_complex(y)
    det_q = np.einsum("ni,ni->n", zx, zx) * np.einsum("ni,ni->n", zy, zy) \
        - np.einsum("ni,ni->n", zx, zy) ** 2
    assert np.all(np.abs(det_g - np.abs(det_q) ** 2) <= 1e-12 * np.abs(det_g))


@pytest.mark.parametrize("basis,count,seed", [
    ("standard4", 30, 42),
    ("standard3", 25, 8),
    ("sphere4", 50, 1000),
    ("sphere5", 40, 7),
    # at tol = 0 only the catalog identity gives exact zeros of gt on the
    # real standard basis, so the sampler needs many candidate blocks
    ("exact4", 30, 5),
    ("exact4", 30, 11),
])
def test_sampler_bit_identical_to_per_attempt_sampler(basis, count, seed):
    m = int(basis[-1])
    tol = 0.0 if basis.startswith("exact") else 1e-9
    if basis.startswith(("standard", "exact")):
        V = np.eye(2 * m)
        B = np.vstack([V[:m - 1], apply_J(V[:m - 1])])
    else:
        B = sphere_stack(-1.137, 1.885, 1, seed=28, m=m).tangent_bases[0]
    got = sample_totally_real_planes(B, count, seed, tol=tol)
    want = ref_sampler(B, count, seed, tol=tol)
    assert len(got[0]) == len(got[1]) == count
    for gx, gy, (x, y) in zip(*got, want):
        assert np.array_equal(gx, x) and np.array_equal(gy, y)


@pytest.mark.parametrize("m,shape,count", [(4, (5,), 30), (3, (2, 3), 12), (5, (1,), 1),
                                           # the `verify curvature` shape, and m = 6
                                           (4, (20,), 50), (6, (3,), 20)])
def test_stacked_sampler_equals_single_calls(m, shape, count):
    size = int(np.prod(shape))
    bases = sphere_stack(-1.137, 1.885, size, seed=33, m=m).tangent_bases
    bases = bases.reshape(shape + bases.shape[1:])
    seeds = 500 + np.arange(size).reshape(shape)
    X, Y = sample_totally_real_planes(bases, count, seeds)
    assert X.shape == Y.shape == shape + (count, 2 * m)
    for i in np.ndindex(shape):
        x1, y1 = sample_totally_real_planes(bases[i], count, seeds[i])
        want = np.array(ref_sampler(bases[i], count, seeds[i]))
        for v, w in ((X[i], x1), (Y[i], y1), (X[i], want[:, 0]), (Y[i], want[:, 1])):
            assert np.array_equal(v, w)


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_exhausted_basis_in_stack_raises(failing):
    # with tol = 0 only exact zeros of gt pass: the real standard basis
    # gives them (catalog identity), a sphere's tangent basis never does
    e = np.eye(8)
    standard = np.vstack([e[:3], apply_J(e[:3])])
    bases = np.stack([standard] * 3)
    bases[failing] = make_surface_samples(make_h_sphere(np.zeros(8), 3.0, 4.0), 1, 2).tangent_bases[0]
    X, Y = sample_totally_real_planes(standard, 30, 5, tol=0.0)
    assert len(X) == len(Y) == 30
    with pytest.raises(NordenError, match="plane sampling rejection bound exceeded"):
        sample_totally_real_planes(bases, 30, np.array([5, 6, 7]), tol=0.0)


def test_sampler_needs_one_seed_per_basis():
    bases = sphere_stack(3.0, 4.0, 3, seed=34).tangent_bases
    for seed in (7, np.arange(2), np.arange(6).reshape(3, 2)):
        with pytest.raises(NordenError, match="need one seed per basis"):
            sample_totally_real_planes(bases, 5, seed)


def test_stacked_adapted_basis_check_equals_single_calls():
    bases = sphere_stack(-1.137, 1.885, 6, seed=35).tangent_bases.copy()
    bases[1, 0] *= 1.0 + 1e-6  # not g-unit
    bases[3, 4] = -bases[3, 4]  # not J of the first half
    bases[4, 2, 5] = np.nan
    bases = bases.reshape(2, 3, *bases.shape[1:])
    # the 1e-6 stretch passes at tol = 1e-5 only
    for tol, want in ((1e-9, [[True, False, True], [False, False, True]]),
                      (1e-5, [[True, True, True], [False, False, True]])):
        got = is_adapted_basis(bases, tol=tol)
        assert got.tolist() == want
        assert [[is_adapted_basis(B, tol=tol) for B in row] for row in bases] == want


def loop_suite_curvature(a, b, m, points, planes, seed, fd=False):
    """The curvature suite's residuals with one sampler call per point."""
    sph = make_h_sphere(np.zeros(2 * m), a, b)
    params = theoretical_curvatures(sph)
    st = make_surface_samples(sph, points, seed, fd=fd)
    R = gauss_curvature_from_shape(st.A, st.tangent_bases)
    pls = np.array([ref_sampler(T, planes, seed + 1000 + i)
                    for i, T in enumerate(st.tangent_bases)])
    X, Y = pls.transpose(2, 1, 0, 3)
    K, Kt = sectional_batch_planes(R, X, Y)
    return float(np.max(np.abs(K - params.real))), float(np.max(np.abs(Kt - params.imag)))


@pytest.mark.parametrize("a,b,m,points,planes,seed,fd", [
    (3.0, 4.0, 4, 20, 50, 0, False),
    (-1.137, 1.885, 3, 7, 13, 9, False),
    (2.0, -3.0, 5, 4, 20, 3, True),
    # the default FD step is relative to the sphere; the former 1e-5 was 1 % of this radius
    (1e-6, 0.0, 4, 5, 20, 1, True),
])
def test_suite_curvature_matches_per_point_loop(a, b, m, points, planes, seed, fd):
    got = suite_curvature(a=a, b=b, m=m, points=points, planes=planes, seed=seed, fd=fd)
    assert all(c.passed for c in got), got
    assert tuple(c.residual for c in got) == loop_suite_curvature(a, b, m, points, planes,
                                                                  seed, fd)


@pytest.mark.parametrize("m", [1, 2])
def test_suite_curvature_rejects_small_m(m):
    with pytest.raises(NordenError, match=f"m={m}.*no totally real plane"):
        suite_curvature(m=m)


# ---------------------------------------------------------------------------
# second fundamental form, frame normalization and their suites against
# per-item loops
# ---------------------------------------------------------------------------

def loop_sigma(smp):
    """sigma(x, y) = g(Ax, y) xi - gt(Ax, y) J xi for one pair of 1-D vectors."""
    A_amb = ref_ambient_shape(smp)
    xi, jxi = smp.xi, apply_J(smp.xi)

    def sigma(x, y):
        ax = A_amb @ x
        return metric_g(ax, y) * xi - metric_gt(ax, y) * jxi
    return sigma


def loop_normalize(eta, jeta, tol=1e-8):
    """The frame normalization of one pair (eta, J eta)."""
    if np.max(np.abs(jeta - apply_J(eta))) > tol * max(1.0, float(np.max(np.abs(eta)))):
        raise NordenError("second vector is not J of the first")
    if abs(metric_g(eta, eta) - 1.0) > tol or abs(metric_g(jeta, jeta) + 1.0) > tol:
        raise NordenError("eta is not g-unit")
    t = np.arcsinh(metric_gt(eta, eta))
    xi = (np.cosh(t / 2.0) * eta + np.sinh(t / 2.0) * jeta) / np.cosh(t)
    return xi, apply_J(xi)


def loop_frame_error(xi, jxi):
    return max(abs(metric_g(xi, xi) - 1.0), abs(metric_g(jxi, jxi) + 1.0),
               abs(metric_g(xi, jxi)))


def loop_suite_frame(m, seed, count):
    rng = np.random.default_rng(seed)
    sph = make_h_sphere(np.zeros(2 * m), 1.0, 0.0)
    frames = [(loop_frame(sph, p), apply_J(loop_frame(sph, p)))
              for p in sample(sph, count, seed + 1)]
    r_norm = 0.0
    sinh_targets = [0.0, 0.75, -2.0] + list(rng.uniform(-3, 3, size=10))
    for (xi, jxi), s_t in zip(frames, sinh_targets * (count // len(sinh_targets) + 1)):
        t = -0.5 * np.arcsinh(s_t)
        eta = np.cosh(t) * xi + np.sinh(t) * jxi
        r_norm = max(r_norm, loop_frame_error(*loop_normalize(eta, apply_J(eta))))
    return r_norm, max(loop_frame_error(xi, jxi) for xi, jxi in frames)


def loop_suite_sigma(a, b, m, seed, count):
    sph = make_h_sphere(np.zeros(2 * m), a, b)
    smp = surface_sample(sph, sample(sph, 1, seed)[0])
    sigma = loop_sigma(smp)
    B = smp.tangent_bases
    rng = np.random.default_rng(seed)
    res = 0.0
    for _ in range(count):
        x, y = rng.uniform(-1, 1, (2, len(B))) @ B
        s_xy = sigma(x, y)
        scale = max(1.0, float(np.linalg.norm(x) * np.linalg.norm(y)))
        res = max(res,
                  float(np.max(np.abs(sigma(x, apply_J(y)) - apply_J(s_xy)))) / scale,
                  float(np.max(np.abs(sigma(apply_J(x), y) - apply_J(s_xy)))) / scale)
    return res


@pytest.mark.parametrize("a,b", GRID)
def test_sigma_matches_per_pair_closure(a, b):
    sph = make_h_sphere(np.zeros(8), a, b)
    smp = surface_sample(sph, sample(sph, 1, 29)[0])
    x, y = np.random.default_rng(30).uniform(-1, 1, (2, 5, 7, 6)) @ smp.tangent_bases
    got = second_fundamental(smp)(x, y)
    ref = loop_sigma(smp)
    assert got.shape == (5, 7, 8)
    for i, k in np.ndindex(5, 7):
        assert close(got[i, k], ref(x[i, k], y[i, k]))
    assert close(second_fundamental(smp)(x[0, 0], y[0, 0]), ref(x[0, 0], y[0, 0]))


def boosted_normals(count, seed, m=4):
    """Unit normals eta = cosh t xi + sinh t J xi of the sphere (1, 0)."""
    sph = make_h_sphere(np.zeros(2 * m), 1.0, 0.0)
    xi, jxi = normal_frame(sph, sample(sph, count, seed))
    t = np.random.default_rng(seed).uniform(-1.5, 1.5, (count, 1))
    return np.cosh(t) * xi + np.sinh(t) * jxi


def test_normalize_stack_matches_rows_bit_for_bit():
    eta = boosted_normals(40, seed=31)
    xi, jxi = normalize_normal_frame(eta, apply_J(eta))
    for k, e in enumerate(eta):
        for got, want in ((normalize_normal_frame(e, apply_J(e)), (xi[k], jxi[k])),
                          (loop_normalize(e, apply_J(e)), (xi[k], jxi[k]))):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("row", [0, 17, 39])
@pytest.mark.parametrize("fault", ["non-unit", "not J"])
def test_normalize_stack_rejects_one_bad_row(row, fault):
    eta = boosted_normals(40, seed=32)
    jeta = apply_J(eta)
    if fault == "non-unit":
        eta[row] *= 1.5
        jeta[row] *= 1.5
        msg = "eta is not g-unit"
    else:
        jeta[row] = eta[row]
        msg = "second vector is not J of the first"
    with pytest.raises(NordenError, match=msg):
        normalize_normal_frame(eta, jeta)
    with pytest.raises(NordenError, match=msg):
        loop_normalize(eta[row], jeta[row])


def test_normalize_rejects_nan():
    nan = np.full(8, np.nan)
    with pytest.raises(NordenError, match="second vector is not J of the first"):
        normalize_normal_frame(nan, apply_J(nan))
    eta = boosted_normals(40, seed=33)
    eta[17, 2] = np.nan
    with pytest.raises(NordenError, match="second vector is not J of the first"):
        normalize_normal_frame(eta, apply_J(eta))


@pytest.mark.parametrize("m,seed,count", [(4, 0, 100), (3, 5, 27), (5, 11, 1)])
def test_suite_frame_matches_loop(m, seed, count):
    r_norm, r_sphere = (c.residual for c in suite_frame(m=m, seed=seed, count=count))
    assert (r_norm, r_sphere) == loop_suite_frame(m, seed, count)


@pytest.mark.parametrize("a,b,m,seed,count", [
    (3.0, 4.0, 4, 0, 200), (-1.137, 1.885, 3, 7, 50), (2.0, -3.0, 5, 3, 1),
])
def test_suite_sigma_matches_loop(a, b, m, seed, count):
    [check] = suite_sigma(a=a, b=b, m=m, seed=seed, count=count)
    assert abs(check.residual - loop_suite_sigma(a, b, m, seed, count)) <= 1e-15


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("draw", [
    lambda n: sample(make_h_sphere(np.zeros(8), 3.0, 4.0), n, 1),
    lambda n: sample_totally_real_planes(np.vstack([np.eye(8)[:3], apply_J(np.eye(8)[:3])]), n, 1),
    lambda n: hyperplane_samples(make_hyperplane(np.eye(8)[0], 1.0, 0.0), n, 1),
], ids=["sample", "sample_totally_real_planes", "hyperplane_samples"])
def test_samplers_reject_count_below_one(draw, count):
    with pytest.raises(NordenError, match=f"count must be at least 1, got {count}"):
        draw(count)


@pytest.mark.parametrize("suite", [suite_frame, suite_sigma])
def test_suites_reject_empty_count(suite):
    with pytest.raises(NordenError, match="at least 1"):
        suite(count=0)


# ---------------------------------------------------------------------------
# sample documents: the block writer against the per-record writer
# ---------------------------------------------------------------------------

def ref_dumps(obj, indent=0):
    """The per-record writer: a stack becomes a list of record dicts, every
    array a nested list, every float as orjson writes it."""
    pad, pad1 = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, SampleStack):
        obj = [{"point": p, "xi": xi, "tangent_basis": t, "A": A}
               for p, xi, t, A in zip(obj.points, obj.xi, obj.tangent_bases, obj.A)]
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        items = [f"{pad1}{json.dumps(k)}: {ref_dumps(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list) and all(isinstance(v, float) for v in obj):
        return "[" + ", ".join(orjson.dumps(v).decode() for v in obj) + "]"
    if isinstance(obj, list):
        return "[\n" + ",\n".join(pad1 + ref_dumps(v, indent + 1) for v in obj) + "\n" + pad + "]"
    return json.dumps(obj)


B = jsonio.BLOCK
COUNTS = (1, B - 1, B, B + 1, 2 * B + 3)


@functools.lru_cache(maxsize=None)
def stack_2b3(kind, m):
    """2B + 3 records of an h-sphere (closed form or FD) or of a hyperplane."""
    if kind == "hyperplane":
        return hyperplane_samples(make_hyperplane(np.eye(2 * m)[1], 2.0, -0.5), COUNTS[-1], 3)
    sph = make_h_sphere(np.arange(2.0 * m) / 7.0, -1.137, 1.885)
    return make_surface_samples(sph, COUNTS[-1], 5, fd=kind == "fd")


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["closed", "fd", "hyperplane"])
def test_block_writer_matches_per_record(tmp_path, kind, m):
    f = tmp_path / "s.json"
    for n in (0, *COUNTS):  # an empty stack is written as []
        doc = jsonio.samples_to_doc(m, stack_2b3(kind, m)[:n])
        want = ref_dumps(doc)
        assert jsonio.dumps_canonical(doc) == want
        jsonio.write_json(str(f), doc)
        assert f.read_text() == want + "\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["points", "xi", "tangent_bases", "A"])
def test_block_writer_rejects_non_finite_last_record(tmp_path, field, bad):
    st = stack_2b3("closed", 4)
    arrays = {k: v.copy() for k, v in vars(st).items()}
    arrays[field][-1].flat[-1] = bad
    doc = jsonio.samples_to_doc(4, SampleStack(**arrays))
    with pytest.raises(FormatError, match="non-finite"):
        jsonio.dumps_canonical(doc)
    f = tmp_path / "s.json"
    with pytest.raises(FormatError, match="non-finite"):
        jsonio.write_json(str(f), doc)
    assert not f.exists()


# ---------------------------------------------------------------------------
# sample documents: text reused for a shared A
# ---------------------------------------------------------------------------

def edge_stack(case, kind, m, n):
    """The first n records of stack_2b3(kind, m), changed at the edge of the
    writer's bitwise check that A is equal in every record, and with signed
    zeros, J-halves and extreme magnitudes in every field."""
    st = stack_2b3(kind, m)[:n]
    P, xi, T, A = (v.copy() for v in (st.points, st.xi, st.tangent_bases, st.A))
    h = m - 1

    def j_half(T):
        return np.concatenate([T[:, :h], apply_J(T[:, :h])], axis=1)

    if case == "negzero":  # -0.0 in every A and in the first half of every basis
        A[:, 0, -1] = -0.0
        T[:, 0, 0] = -0.0
        T = j_half(T)
    elif case == "zero_sign":  # equal numbers, different bits
        A[1:, 0, -1] = -0.0
        A[0, 0, -1] = 0.0
        T[:, 0, 0] = 0.0
        T = j_half(T)
        T[-1, h, m] = 0.0  # where J gives -0.0
    elif case == "ulp_block_end":  # one ulp off in the last record of a block
        r = min(n, B) - 1
        A[r, 0, 0] = np.nextafter(A[r, 0, 0], np.inf)
    elif case == "ulp_last":  # one ulp off in the last record of the stack
        A[-1, -1, -1] = np.nextafter(A[-1, -1, -1], -np.inf)
    elif case == "ulp_jhalf":  # a J-half entry one ulp off
        T[-1, -1, -1] = np.nextafter(T[-1, -1, -1], np.inf)
    elif case == "magnitudes":
        A[:, 0, 0], A[:, 0, -1], A[:, -1, 0] = 5e-324, 1e308, -1e-300
        T[:, 0, :3] = -1e-300, 5e-324, 1e308
        T[:, h - 1, -1] = -5e-324
        T = j_half(T)
        P[:, 0], xi[:, -1] = -1e-300, 5e-324
    return SampleStack(P, xi, T, A)


# whether each case has an A shared by its n records
EDGE_FLAGS = {
    "model": lambda n: True,
    "negzero": lambda n: True,
    "zero_sign": lambda n: n == 1,
    "ulp_block_end": lambda n: n == 1,
    "ulp_last": lambda n: n == 1,
    "ulp_jhalf": lambda n: True,
    "magnitudes": lambda n: True,
}


@pytest.mark.parametrize("case", list(EDGE_FLAGS))
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["closed", "hyperplane"])
def test_reused_text_matches_per_record(tmp_path, monkeypatch, kind, m, case):
    plans, plan = set(), jsonio._records_plan

    def recording_plan(shapes, count, indent, shared):
        plans.add(shared)
        return plan(shapes, count, indent, shared)

    monkeypatch.setattr(jsonio, "_records_plan", recording_plan)
    f = tmp_path / "s.json"
    for n in (1, B, B + 1, 2 * B + 3):
        st = edge_stack(case, kind, m, n)
        doc = jsonio.samples_to_doc(m, st)
        want = ref_dumps(doc)
        plans.clear()
        assert jsonio.dumps_canonical(doc) == want
        assert plans == {EDGE_FLAGS[case](n)}
        jsonio.write_json(str(f), doc)
        assert f.read_text() == want + "\n"
        # the text keeps the sign of zero: read back bit for bit
        got = jsonio.load_pointcloud(str(f))[2]
        for key, (field, arr) in zip(jsonio.SAMPLE_KEYS, vars(st).items()):
            read = getattr(got, field)
            assert np.array_equal(read.view(np.int64), arr.view(np.int64)), key
