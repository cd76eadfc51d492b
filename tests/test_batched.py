"""The batched sample/frame/basis/classify and curvature layers against
per-item loops."""

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
    SpaceFormParams,
    TangentPlane,
    gauss_curvature_from_shape,
    is_totally_real,
    pi_tensors,
    ricci,
    sample_totally_real_planes,
    sectional_batch_planes,
    sectional_curvatures,
    space_form_curvature,
)
from nordenhs.errors import (
    BadInputNormalization,
    DimensionMismatch,
    NordenError,
    SamplingExhausted,
)
from nordenhs.hypersurface import (
    SampleStack,
    lambda_mu,
    make_h_sphere,
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
    T = np.asarray(smp.tangent_basis).T
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
        Xrot = Zs @ catalog[rng.integers(len(catalog))]
        c1 = rng.uniform(-1.0, 1.0, size=n)
        c2 = rng.uniform(-1.0, 1.0, size=n)
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
    flat = SpaceFormParams(0.0, 0.0)
    stacked = gauss_curvature_from_shape(st.A, st.tangent_bases, flat)
    sf = space_form_curvature(SpaceFormParams(0.12, -0.16))
    ref_sf = ref_tensor(0.12, -0.16)
    v_stack = stacked(*(w.transpose(1, 0, 2) for w in (x, y, z, u)))  # (40, 6)
    v_sf = sf(x, y, z, u)
    for i, smp in enumerate(st):
        one = gauss_curvature_from_shape(smp.A, smp.tangent_basis, flat)
        ref = ref_tensor(0.0, 0.0, ref_ambient_shape(smp))
        want = [ref(x[i, k], y[i, k], z[i, k], u[i, k]) for k in range(40)]
        assert close(one(x[i], y[i], z[i], u[i]), want)
        assert close(v_stack[:, i], want)
        assert close(v_sf[i], [ref_sf(x[i, k], y[i, k], z[i, k], u[i, k]) for k in range(40)])


@pytest.mark.parametrize("a,b", GRID)
def test_sectional_and_ricci_match_reference(a, b):
    st = sphere_stack(a, b, 4, seed=23)
    flat = SpaceFormParams(0.0, 0.0)
    pls = [sample_totally_real_planes(T, 30, seed=24 + i) for i, T in enumerate(st.tangent_bases)]
    XY = np.array([[(p.x, p.y) for p in ps] for ps in pls]).transpose(2, 1, 0, 3)
    K, Kt = sectional_batch_planes(gauss_curvature_from_shape(st.A, st.tangent_bases, flat),
                                   TangentPlane(*XY))
    Rs = [gauss_curvature_from_shape(smp.A, smp.tangent_basis, flat) for smp in st]
    refs = [ref_tensor(0.0, 0.0, ref_ambient_shape(smp)) for smp in st]
    want = []
    for j in range(30):
        for i in range(4):
            kk = ref_sectional(refs[i], pls[i][j].x, pls[i][j].y)
            assert close(sectional_curvatures(Rs[i], pls[i][j]), kk)
            want.append(kk)
    assert close(np.stack([K, Kt], axis=1), want)
    for smp in st:
        B = np.asarray(smp.tangent_basis)
        R = gauss_curvature_from_shape(smp.A, B, flat)
        assert close(ricci(R, B), ref_ricci(ref_tensor(0.0, 0.0, ref_ambient_shape(smp)), B))
        sf = space_form_curvature(SpaceFormParams(-0.3, 0.7))
        assert close(ricci(sf, B), ref_ricci(ref_tensor(-0.3, 0.7), B))


def test_totally_real_matches_reference():
    rng = np.random.default_rng(25)
    st = sphere_stack(3.0, 4.0, 1, seed=26)
    good = [(p.x, p.y) for p in sample_totally_real_planes(st.tangent_bases[0], 40, seed=27)]
    e = np.eye(8)
    special = [(e[0], apply_J(e[0])), (e[0] + e[4], e[1]), (e[0], 2.0 * e[0]),
               (e[0], e[1]), (e[0] + 1e-12 * e[4], e[1]),
               # nearly degenerate: the Gram determinant decides these two
               (e[0] + e[2], e[0] + e[2] + 1e-3 * e[1]), (e[0] + e[2], e[0] + e[2] + 1e-2 * e[1])]
    noisy = [(x + 1e-6 * rng.standard_normal(8), y) for x, y in good[:10]]
    pairs = good + special + noisy + list(rng.uniform(-1, 1, (20, 2, 8)))
    X, Y = np.array(pairs).transpose(1, 0, 2)
    for tol in (1e-9, 1e-5):
        got = is_totally_real(TangentPlane(X, Y), tol=tol)
        want = [ref_totally_real(x, y, tol) for x, y in pairs]
        assert got.tolist() == want
        assert [is_totally_real(TangentPlane(x, y), tol=tol) for x, y in pairs] == want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("basis,count,seed", [
    ("standard4", 30, 42),
    ("standard3", 25, 8),
    ("sphere4", 50, 1000),
    ("sphere5", 40, 7),
])
def test_sampler_bit_identical_to_per_attempt_sampler(basis, count, seed):
    m = int(basis[-1])
    if basis.startswith("standard"):
        V = np.eye(2 * m)
        B = np.vstack([V[:m - 1], apply_J(V[:m - 1])])
    else:
        B = sphere_stack(-1.137, 1.885, 1, seed=28, m=m).tangent_bases[0]
    got = sample_totally_real_planes(B, count, seed)
    want = ref_sampler(B, count, seed)
    assert len(got) == count
    for p, (x, y) in zip(got, want):
        assert np.array_equal(p.x, x) and np.array_equal(p.y, y)


@pytest.mark.parametrize("m,shape,count", [(4, (5,), 30), (3, (2, 3), 12), (5, (1,), 1)])
def test_stacked_sampler_equals_single_calls(m, shape, count):
    size = int(np.prod(shape))
    bases = sphere_stack(-1.137, 1.885, size, seed=33, m=m).tangent_bases
    bases = bases.reshape(shape + bases.shape[1:])
    seeds = 500 + np.arange(size).reshape(shape)
    got = sample_totally_real_planes(bases, count, seeds)
    assert got.x.shape == got.y.shape == shape + (count, 2 * m)
    for i in np.ndindex(shape):
        one = sample_totally_real_planes(bases[i], count, seeds[i])
        want = np.array(ref_sampler(bases[i], count, seeds[i]))
        for v, w in ((got.x[i], one.x), (got.y[i], one.y),
                     (got.x[i], want[:, 0]), (got.y[i], want[:, 1])):
            assert np.array_equal(v, w)


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_exhausted_basis_in_stack_raises(failing):
    # with tol = 0 only exact zeros of gt pass: the real standard basis
    # gives them (catalog identity), a sphere's tangent basis never does
    e = np.eye(8)
    standard = np.vstack([e[:3], apply_J(e[:3])])
    bases = np.stack([standard] * 3)
    bases[failing] = make_surface_samples(make_h_sphere(np.zeros(8), 3.0, 4.0), 1, 2).tangent_bases[0]
    ok = sample_totally_real_planes(standard, 30, 5, tol=0.0)
    assert len(ok) == 30
    with pytest.raises(SamplingExhausted):
        sample_totally_real_planes(bases, 30, np.array([5, 6, 7]), tol=0.0)


def test_sampler_needs_one_seed_per_basis():
    bases = sphere_stack(3.0, 4.0, 3, seed=34).tangent_bases
    for seed in (7, np.arange(2), np.arange(6).reshape(3, 2)):
        with pytest.raises(DimensionMismatch):
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
    R = gauss_curvature_from_shape(st.A, st.tangent_bases, SpaceFormParams(0.0, 0.0))
    pls = np.array([ref_sampler(T, planes, seed + 1000 + i)
                    for i, T in enumerate(st.tangent_bases)])
    X, Y = pls.transpose(2, 1, 0, 3)
    K, Kt = sectional_batch_planes(R, TangentPlane(X, Y))
    return float(np.max(np.abs(K - params.nu))), float(np.max(np.abs(Kt - params.nut)))


@pytest.mark.parametrize("a,b,m,points,planes,seed,fd", [
    (3.0, 4.0, 4, 20, 50, 0, False),
    (-1.137, 1.885, 3, 7, 13, 9, False),
    (2.0, -3.0, 5, 4, 20, 3, True),
])
def test_suite_curvature_matches_per_point_loop(a, b, m, points, planes, seed, fd):
    got = suite_curvature(a=a, b=b, m=m, points=points, planes=planes, seed=seed, fd=fd)
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
    xi, jxi = smp.frame.xi, smp.frame.jxi

    def sigma(x, y):
        ax = A_amb @ x
        return metric_g(ax, y) * xi - metric_gt(ax, y) * jxi
    return sigma


def loop_normalize(eta, jeta, tol=1e-8):
    """The frame normalization of one pair (eta, J eta)."""
    if np.max(np.abs(jeta - apply_J(eta))) > tol * max(1.0, float(np.max(np.abs(eta)))):
        raise BadInputNormalization("second vector is not J of the first")
    if abs(metric_g(eta, eta) - 1.0) > tol or abs(metric_g(jeta, jeta) + 1.0) > tol:
        raise BadInputNormalization("eta is not g-unit")
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
    B = smp.tangent_basis
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
    x, y = np.random.default_rng(30).uniform(-1, 1, (2, 5, 7, 6)) @ smp.tangent_basis
    got = second_fundamental(smp, sph.space)(x, y)
    ref = loop_sigma(smp)
    assert got.shape == (5, 7, 8)
    for i, k in np.ndindex(5, 7):
        assert close(got[i, k], ref(x[i, k], y[i, k]))
    assert close(second_fundamental(smp, sph.space)(x[0, 0], y[0, 0]), ref(x[0, 0], y[0, 0]))


def boosted_normals(count, seed, m=4):
    """Unit normals eta = cosh t xi + sinh t J xi of the sphere (1, 0)."""
    sph = make_h_sphere(np.zeros(2 * m), 1.0, 0.0)
    fr = normal_frame(sph, sample(sph, count, seed))
    t = np.random.default_rng(seed).uniform(-1.5, 1.5, (count, 1))
    return np.cosh(t) * fr.xi + np.sinh(t) * fr.jxi


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
    else:
        jeta[row] = eta[row]
    with pytest.raises(BadInputNormalization):
        normalize_normal_frame(eta, jeta)
    with pytest.raises(BadInputNormalization):
        loop_normalize(eta[row], jeta[row])


def test_normalize_rejects_nan():
    nan = np.full(8, np.nan)
    with pytest.raises(BadInputNormalization):
        normalize_normal_frame(nan, apply_J(nan))
    eta = boosted_normals(40, seed=33)
    eta[17, 2] = np.nan
    with pytest.raises(BadInputNormalization):
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


@pytest.mark.parametrize("suite", [suite_frame, suite_sigma])
def test_suites_reject_empty_count(suite):
    with pytest.raises(NordenError, match="at least 1"):
        suite(count=0)
