"""Tests for the classification pipeline."""

import dataclasses
import warnings

import numpy as np
import pytest

from nordenhs.classify import (
    VERDICT_DIM_TOO_SMALL,
    VERDICT_HYPERPLANE,
    VERDICT_NOT_UMBILICAL,
    VERDICT_NON_CONSTANT,
    VERDICT_OFF_SURFACE,
    VERDICT_SPHERE,
    classify,
    pair_crosscheck,
    reconstruct_hyperplane,
    reconstruct_sphere,
    shape_invariants,
)
from nordenhs.errors import NordenError
from nordenhs.hypersurface import (
    SampleStack,
    hyperplane_samples,
    lambda_mu,
    make_h_sphere,
    make_hyperplane,
    make_surface_samples,
    project_to_sphere,
    sample,
    surface_samples,
    theoretical_curvatures,
)

GRID = [(1.0, 0.0), (0.0, 1.0), (3.0, 4.0), (-1.0, 2.0), (2.0, -3.0)]


def sphere_set(a, b, count=12, seed=0, center=None, fd=False, m=4):
    center = np.zeros(2 * m) if center is None else center
    sph = make_h_sphere(center, a, b)
    return sph, make_surface_samples(sph, count, seed, fd=fd)


def empty_stack(m=4):
    return SampleStack(np.zeros((0, 2 * m)), np.zeros((0, 2 * m)),
                       np.zeros((0, 2 * m - 2, 2 * m)), np.zeros((0, 2 * m - 2, 2 * m - 2)))


class TestEstimateInvariants:
    def test_sphere_values(self):
        sph, ss = sphere_set(3.0, 4.0)
        lam0, mu0 = lambda_mu(sph)
        for smp in ss:
            lam, mu, nu, nut = shape_invariants(smp)[0]
            assert lam == pytest.approx(lam0, abs=1e-12)
            assert mu == pytest.approx(mu0, abs=1e-12)
            assert nu == pytest.approx(0.12, abs=1e-12)
            assert nut == pytest.approx(-0.16, abs=1e-12)

    def test_hyperplane_values(self):
        hp = make_hyperplane(np.eye(8)[0], 1.0, 0.0)
        smp = hyperplane_samples(hp, 1, seed=1)[0]
        assert shape_invariants(smp)[0].tolist() == [0.0, 0.0, 0.0, 0.0]


class TestUmbilicityCheck:
    def test_sphere_passes(self):
        _, ss = sphere_set(-1.0, 2.0)
        assert np.max(shape_invariants(ss)[1]) <= 1e-10
        result = classify(ss)
        assert result.verdict == VERDICT_SPHERE
        assert result.residual("umbilicity residual") <= 1e-10

    def test_planted_defect_detected(self):
        # the defect keeps the traces, so the umbilicity gate decides
        sph, ss = sphere_set(1.0, 0.0, count=6)
        A = ss.A.copy()
        A[2] += np.kron(np.eye(2), np.diag([0.0, 0.1, -0.1]))
        result = classify(dataclasses.replace(ss, A=A))
        assert result.verdict == VERDICT_NOT_UMBILICAL
        assert result.notes == ("worst sample index 2",)

    def test_empty_raises(self):
        # no deviations to take a maximum of: the gate raises, not a verdict
        per, devs = shape_invariants(empty_stack())
        assert per.shape == (0, 4) and devs.shape == (0,)
        with pytest.raises(NordenError, match="no samples"):
            classify(empty_stack())


class TestPairCrosscheck:
    def test_consistent_pairs(self):
        # two hypersurface branches of the same ambient space form
        lam1, mu1 = 0.4, 0.2
        lam2, mu2 = -0.1, 0.3
        ambient = 0j
        # observed curvature offsets for the pair (j, k) are symmetric, so
        # feed the relation with the values it should reproduce
        obs = complex(
            -(mu1 * mu2 - lam1 * lam2), -(lam1 * mu2 + lam2 * mu1)
        )
        assert pair_crosscheck(
            [(lam1, mu1), (lam2, mu2)], ambient, obs
        ) == pytest.approx(0.0, abs=1e-14)

    def test_inconsistent_pairs(self):
        ambient = 0j
        obs = 0j
        res = pair_crosscheck([(1.0, 0.0), (0.0, 1.0)], ambient, obs)
        assert res == pytest.approx(1.0, abs=1e-14)

    def test_needs_two_pairs(self):
        with pytest.raises(NordenError, match="need at least two"):
            pair_crosscheck([(1.0, 0.0)], 0j, 0j)


class TestReconstruct:
    def test_sphere_round_trip(self):
        center = np.array([1.0, -2.0, 0.5, 0.0, 3.0, 1.0, -1.0, 2.0])
        sph, ss = sphere_set(3.0, 4.0, center=center, seed=3)
        rec = reconstruct_sphere(0.4, 0.2, ss[0])
        assert np.allclose(rec.center, center, atol=1e-9)
        assert rec.a == pytest.approx(3.0, abs=1e-10)
        assert rec.b == pytest.approx(4.0, abs=1e-10)

    def test_near_zero_rejected(self):
        _, ss = sphere_set(1.0, 0.0)
        with pytest.raises(NordenError, match="is 0: no h-sphere"):
            reconstruct_sphere(0.0, 0.0, ss[0])

    def test_hyperplane_round_trip(self):
        hp = make_hyperplane(np.eye(8)[0] + 0.3 * np.eye(8)[1], 2.0, -1.0)
        samples = hyperplane_samples(hp, 10, seed=4)
        rec, checks = reconstruct_hyperplane(samples)
        assert [(c.name, c.passed) for c in checks] == [("normal spread", True),
                                                        ("offset spread", True)]
        assert np.allclose(rec.xi, hp.xi, atol=1e-10)
        assert rec.d == pytest.approx(hp.d, abs=1e-10)
        assert rec.dt == pytest.approx(hp.dt, abs=1e-10)

    def test_timelike_normal_rejected(self):
        # one constant normal with g(xi, xi) = -1 and A = 0: it has no g-unit
        # multiple, so no hyperplane is recovered (and no NaN is computed)
        hp = make_hyperplane(np.eye(8)[0], 1.0, 0.0)
        samples = dataclasses.replace(hyperplane_samples(hp, 10, seed=4),
                                      xi=np.tile(np.eye(8)[4], (10, 1)))
        for route in (reconstruct_hyperplane, classify):
            with pytest.raises(NordenError, match="positive g-square"):
                route(samples)

    @pytest.mark.parametrize("big,count,msg", [
        (-1e308, 30, "normal spread inf"),
    ])
    def test_overflowing_normal_rejected(self, big, count, msg):
        # no RuntimeWarning on the way, and the sign test survives the overflow:
        # the normal spread gate fails, and no plane is made of the mean
        hp = make_hyperplane(np.eye(8)[0], 1.0, 0.0)
        samples = dataclasses.replace(hyperplane_samples(hp, count, seed=4),
                                      xi=np.tile(big * np.eye(8)[0], (count, 1)))
        plane, (normal,) = reconstruct_hyperplane(samples)
        assert plane is None and not normal.passed
        result = classify(samples)
        assert result.verdict == VERDICT_OFF_SURFACE
        assert msg in result.notes[0]

    @pytest.mark.parametrize("count", [2, 30])
    def test_huge_constant_normal_recovered(self, count):
        # the normal e1 stored as 1e200 e1: g(xi, xi) would overflow, but
        # make_hyperplane takes it after an exact power-of-two rescaling
        hp = make_hyperplane(np.eye(8)[0], 1.0, 0.0)
        samples = dataclasses.replace(hyperplane_samples(hp, count, seed=4),
                                      xi=np.tile(1e200 * np.eye(8)[0], (count, 1)))
        for rec in (reconstruct_hyperplane(samples)[0], classify(samples).recovered):
            assert np.array_equal(rec.xi, np.eye(8)[0])
            assert rec.d == pytest.approx(1.0, abs=1e-15)
            assert rec.dt == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("c",[1e-3, 1.0, 1e10, 1e12, 1e100, 1e200])
    def test_scaled_normal_accepted(self, c):
        # the spread of the stored normals c xi is compared with tol * max|c xi|,
        # and g(c xi, c xi), which overflows at c = 1e200, is not computed
        hp = make_hyperplane(np.eye(8)[0] + 0.3 * np.eye(8)[1], 2.0, -1.0)
        samples = hyperplane_samples(hp, 30, seed=4)
        scaled = dataclasses.replace(samples, xi=c * samples.xi)
        for rec in (reconstruct_hyperplane(scaled)[0], classify(scaled).recovered):
            assert np.max(np.abs(rec.xi - hp.xi)) <= 1e-15
            assert rec.d == pytest.approx(hp.d, abs=1e-15)
            assert rec.dt == pytest.approx(hp.dt, abs=1e-15)

    def test_huge_points_take_the_hyperplane_route(self):
        # R and max|p| are taken of the points scaled by a power of two, so no
        # square overflows at points of size 1e160 to 1e300, and no warning
        # is raised on the way
        hp = make_hyperplane(np.eye(8)[0] + 0.3 * np.eye(8)[1], 2.0, -1.0)
        samples = hyperplane_samples(hp, 12, seed=4)
        for size in (1e160, 1e200, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = classify(dataclasses.replace(samples, points=size * samples.points))
            assert result.verdict == VERDICT_HYPERPLANE and result.totally_geodesic
            assert result.recovered.d == pytest.approx(2 * size, rel=1e-14)
            assert result.recovered.dt == pytest.approx(-size, rel=1e-14)

    def test_empty_hyperplane_stack_rejected(self):
        with pytest.raises(NordenError, match="no samples"):
            reconstruct_hyperplane(empty_stack())

    def test_sphere_samples_rejected_as_hyperplane(self):
        _, ss = sphere_set(1.0, 0.0)
        plane, (normal,) = reconstruct_hyperplane(ss)
        assert plane is None
        assert normal.name == "normal spread" and not normal.passed


class TestGateBoundaries:
    """Each gate of classify rejects an input just outside it, 10 tol, and
    passes the unperturbed stack; default tol = 1e-6."""

    tol = 1e-6

    def test_containment_gate(self):
        # one sample Z scaled by t about the centre 0: A, xi and the bases are
        # unchanged, so only the containment residual moves, to
        # (t^2 - 1) |b| / (|a| + |b| + t^2 |Z|^2) = 10 tol to first order
        _, ss = sphere_set(3.0, 4.0)
        assert classify(ss).residual("containment residual") <= self.tol
        _, devs = shape_invariants(ss)
        i = (int(np.argmin(devs)) + 1) % len(ss)  # not the reconstruction witness
        P = ss.points.copy()
        P[i] *= np.sqrt(1 + 10 * self.tol * (7.0 + P[i] @ P[i]) / 4.0)
        result = classify(dataclasses.replace(ss, points=P))
        assert result.verdict == VERDICT_OFF_SURFACE
        assert 9 * self.tol < result.residual("containment residual") < 11 * self.tol

    def _hyperplane(self):
        hp = make_hyperplane(np.eye(8)[0] + 0.3 * np.eye(8)[1], 1.5, 0.5)
        st = hyperplane_samples(hp, 12, seed=4)
        assert classify(st).verdict == VERDICT_HYPERPLANE
        return hp, st

    def _spread_fails(self, planted, name, note):
        plane, checks = reconstruct_hyperplane(planted)
        assert plane is None
        assert checks[-1].name == name and not checks[-1].passed
        assert all(c.passed for c in checks[:-1])
        result = classify(planted)
        assert result.verdict == VERDICT_OFF_SURFACE and result.recovered is None
        assert result.checks[2:] == checks
        assert result.notes == ("no single HolomorphicHyperplane holds the samples: " + note,)

    def test_normal_spread_gate(self):
        # one of N normals moved by delta: its distance from the mean is
        # delta (N - 1) / N = 10 tol max|xi|, max|xi| = 1 / sqrt(1.09)
        _, st = self._hyperplane()
        xi, n = st.xi.copy(), len(st)
        xi[3, 2] += 10 * self.tol * float(np.max(np.abs(xi))) * n / (n - 1)
        self._spread_fails(dataclasses.replace(st, xi=xi), "normal spread",
                           "normal spread 9.578e-06 > tol 9.578e-07")

    def test_offset_spread_gate(self):
        # one point moved by delta xi, xi g-unit with gt(xi, xi) = 0, moves its
        # d by delta = 10 tol R, R = 3.536 the radius of the points, and its dt
        # not at all
        hp, st = self._hyperplane()
        P = st.points.copy()
        P[3] += 10 * self.tol * _radius(st) * hp.xi
        self._spread_fails(dataclasses.replace(st, points=P), "offset spread",
                           "offset spread 3.536e-05 > tol 3.536e-06")


# J-commuting and trace-free, so only the umbilicity residual of a sample moves
DEFECT = np.kron(np.eye(2), np.diag([0.0, 1.0, -1.0]))


def _radius(st):
    """R, the largest distance of a sample point from the points' mean."""
    return float(np.max(np.linalg.norm(st.points - st.points.mean(axis=0), axis=-1)))


def _scale(st, tol=1e-6):
    """classify's inverse length s: 1/R where |kappa| R <= tol (the flat
    route) and |kappa| otherwise, kappa from the mean traces."""
    lam, mu = shape_invariants(st)[0][:, :2].mean(axis=0)
    kappa, radius = abs(complex(lam, mu)), _radius(st)
    return 1.0 / radius if kappa * radius <= tol else kappa


def _patch(sph, kr):
    """Samples of a patch of sph about one point with |kappa| R = kr."""
    kappa = abs(complex(*lambda_mu(sph)))
    p0 = sample(sph, 1, seed=0)[0]
    U = np.random.default_rng(1).standard_normal((12, 8))

    def patch(h):
        return surface_samples(sph, project_to_sphere(sph, p0 + h * U))

    return patch(1e-6 * kr / (kappa * _radius(patch(1e-6))))


def _radially_off(ss, centre, f):
    """ss with one sample, not the reconstruction witness, moved to
    z0 + sqrt(f) (p - z0)."""
    _, devs = shape_invariants(ss)
    i = (int(np.argmin(devs)) + 1) % len(ss)
    P = ss.points.copy()
    P[i] = centre + np.sqrt(f) * (P[i] - centre)
    return dataclasses.replace(ss, points=P)


class TestScaledGateBoundaries:
    """Each rescaled gate away from |c| = 1: an input at 10 tol fails and one
    at 0.1 tol passes (k below); default tol = 1e-6."""

    tol = 1e-6

    @pytest.mark.parametrize("k", [10.0, 0.1])
    def test_constancy_gate_at_1e10(self, k):
        # lambda + delta on one of N samples spreads nu = lambda^2 by
        # 2 lambda delta (N - 1) / N to first order, against tol s^2, s = |kappa|
        sph, ss = sphere_set(1e10, 0.0, count=20)
        lam, n = lambda_mu(sph)[0], len(ss)
        A = ss.A.copy()
        A[3] += k * self.tol * lam * n / (2 * (n - 1)) * np.eye(6)
        planted = dataclasses.replace(ss, A=A)
        result = classify(planted)
        check = result.checks[0]
        assert check.tol == pytest.approx(self.tol * _scale(planted) ** 2, rel=1e-14)
        assert 0.9 * k < check.residual / check.tol < 1.1 * k
        assert result.verdict == (VERDICT_NON_CONSTANT if k > 1 else VERDICT_SPHERE)

    @pytest.mark.parametrize("k", [10.0, 0.1])
    def test_umbilicity_gate_at_1e10(self, k):
        _, ss = sphere_set(1e10, 0.0, count=20)
        A = ss.A.copy()
        A[3] += k * self.tol * _scale(ss) * DEFECT
        planted = dataclasses.replace(ss, A=A)
        result = classify(planted)
        check = result.checks[1]
        assert check.tol == pytest.approx(self.tol * _scale(planted), rel=1e-14)
        assert 0.9 * k < check.residual / check.tol < 1.1 * k
        assert result.verdict == (VERDICT_NOT_UMBILICAL if k > 1 else VERDICT_SPHERE)

    @pytest.mark.parametrize("a,b,centre", [(1e-11, 5e-12, 0.0), (1.0, 0.0, 1e5)],
                             ids=["small-c", "far-from-the-origin"])
    @pytest.mark.parametrize("k", [10.0, 0.1])
    def test_containment_gate(self, k, a, b, centre):
        # one sample Z scaled by sqrt(f) about z0 moves only its containment
        # residual, to (f - 1) max(|a|, |b|) / (|a| + |b| + f |Z|^2) = k tol
        # to first order.  No unit floor holds it down at |c| = 1e-11, and at
        # |z0| = 2.8e5 only the round-off of q(Z), 4 eps |Z| |z0| = 2.5e-10 |Z|,
        # is taken off
        _, ss = sphere_set(a, b, center=np.full(8, centre), count=20)
        i = (int(np.argmin(shape_invariants(ss)[1])) + 1) % len(ss)
        Z = ss.points[i] - centre
        f = 1 + k * self.tol * (abs(a) + abs(b) + Z @ Z) / max(abs(a), abs(b))
        result = classify(_radially_off(ss, centre, f))
        residual = result.residual("containment residual")
        assert 0.9 * k * self.tol < residual < 1.1 * k * self.tol
        assert result.verdict == (VERDICT_OFF_SURFACE if k > 1 else VERDICT_SPHERE)

    @pytest.mark.parametrize("k", [10.0, 0.1])
    def test_flatness_rule_on_a_sphere_patch(self, k):
        # samples of a patch of the (3, 4) sphere about one point, with
        # |kappa| R = k tol: a small enough patch is flat within tol
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        kappa = abs(complex(*lambda_mu(sph)))
        st = _patch(sph, k * self.tol)
        assert 0.9 * k * self.tol < kappa * _radius(st) < 1.1 * k * self.tol
        result = classify(st)
        if k > 1:
            assert result.verdict == VERDICT_SPHERE and not result.totally_geodesic
            rec = result.recovered
            assert abs(complex(rec.a, rec.b) - complex(3.0, 4.0)) <= 1e-12 * 5.0
        else:
            assert result.verdict == VERDICT_HYPERPLANE and result.totally_geodesic
            assert [c.name for c in result.checks] == PLANE_GATES
            assert result.notes[0].startswith("flat within tol: |kappa| R <= tol")


class TestScaleFreeVerdicts:
    """Inputs whose verdict the units of the samples used to decide."""

    @pytest.mark.parametrize("c", [1e8, 1e10])
    def test_relative_umbilicity_defect(self, c):
        # a defect of 0.1 % of |kappa| = c^-1/2 on one sample: below the
        # absolute 1e-6, far above tol |kappa|
        _, ss = sphere_set(c, 0.0, count=20)
        A = ss.A.copy()
        A[3] += 1e-3 * c ** -0.5 * DEFECT
        result = classify(dataclasses.replace(ss, A=A))
        assert result.verdict == VERDICT_NOT_UMBILICAL
        assert result.notes == ("worst sample index 3",)

    @pytest.mark.parametrize("gate", ["constancy spread", "umbilicity residual"])
    def test_clustered_patch_keeps_the_sphere_scale(self, gate):
        # a patch of the (3, 4) sphere with |kappa| R = 1e-4, on the sphere
        # route: 0.1 % defects are held against tol |kappa|, not tol / R
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        lam, mu = lambda_mu(sph)
        st = _patch(sph, 1e-4)
        A = st.A.copy()
        A[3] += 1e-3 * (lam * np.eye(6) if gate == "constancy spread"
                        else abs(complex(lam, mu)) * DEFECT)
        planted = dataclasses.replace(st, A=A)
        result = classify(planted)
        assert result.verdict == FAILED_VERDICT[gate]
        assert result.checks[-1].name == gate
        assert result.checks[-1].tol == pytest.approx(1e-6 * _scale(planted) ** (
            2 if gate == "constancy spread" else 1), rel=1e-14)

    def test_one_sample_off_a_small_sphere(self):
        # one sample 0.1 % radially off the (1e-11, 5e-12) sphere
        _, ss = sphere_set(1e-11, 5e-12, count=20)
        _, devs = shape_invariants(ss)
        P = ss.points.copy()
        P[(int(np.argmin(devs)) + 1) % len(ss)] *= 1.001
        result = classify(dataclasses.replace(ss, points=P))
        assert result.verdict == VERDICT_OFF_SURFACE
        assert result.notes[0].startswith("no single HSphere holds the samples: "
                                          "containment residual")
        assert result.residual("containment residual") > 1e-4

    def test_large_sphere_under_a_loose_tol_is_not_geodesic(self):
        # max|A| = |kappa| = 1e-4 is below tol = 1e-3, but |kappa| R is about 1
        _, ss = sphere_set(1e8, 0.0, count=50, seed=3)
        result = classify(ss, tol=1e-3)
        assert result.verdict == VERDICT_SPHERE and not result.totally_geodesic
        assert not any(n.startswith("flat within tol") for n in result.notes)
        assert abs(result.recovered.a - 1e8) <= 1e-12 * 1e8

    @pytest.mark.parametrize("a,centre", [(1e-12, 1e3), (1e-8, 1e5)])
    def test_small_sphere_far_from_the_origin(self, a, centre):
        # Z = p - z0 carries round-off of about eps |z0|, far above eps |Z|:
        # the containment residual does not count 4 eps |Z| |z0| of q(Z)
        sph, ss = sphere_set(a, 0.3 * a, center=np.full(8, centre), count=20)
        result = classify(ss)
        assert result.verdict == VERDICT_SPHERE
        assert result.residual("containment residual") <= 1e-14
        rec = result.recovered
        assert abs(complex(rec.a, rec.b) - complex(a, 0.3 * a)) <= 1e-12 * a
        assert np.max(np.abs(rec.center - centre)) <= 1e-12 * centre

    @pytest.mark.parametrize("copies", [1, 3])
    def test_coinciding_points_rejected(self, copies):
        # one point, alone or repeated, has no length scale
        _, ss = sphere_set(3.0, 4.0, count=1)
        with pytest.raises(NordenError, match="need two distinct sample points"):
            classify(_concat(*[ss] * copies))


def _plane(d, scale=1.0):
    """The normal e1 + 0.3 e2 of the plane g(xi, Z) = d, gt(xi, Z) = 0, and
    12 of its samples with every point scaled by `scale`: R = 3.536 scale."""
    hp = make_hyperplane(np.eye(8)[0] + 0.3 * np.eye(8)[1], d, 0.0)
    st = hyperplane_samples(hp, 12, seed=4)
    return hp.xi, dataclasses.replace(st, points=scale * st.points)


def _point_off(st, xi, delta):
    """st with sample 3 moved by delta along the g-unit normal xi: its d
    moves by delta, its dt not at all."""
    P = st.points.copy()
    P[3] += delta * xi
    return dataclasses.replace(st, points=P)


class TestFlatRouteScales:
    """The hyperplane route's gates away from unit scale: the normal spread
    against tol max|xi|, the offset spread against tol R after the
    round-off 4 eps |xi| max|p| is taken off it; default tol = 1e-6."""

    tol = 1e-6

    @pytest.mark.parametrize("d,scale", [(0.0, 1e-6), (1e6, 1.0)], ids=["R=3.5e-6", "d=1e6"])
    @pytest.mark.parametrize("k", [10.0, 0.1])
    def test_offset_gate(self, k, d, scale):
        xi, st = _plane(d, scale)
        planted = _point_off(st, xi, k * self.tol * _radius(st))
        result = classify(planted)
        check = result.checks[-1]
        assert check.name == "offset spread"
        assert check.tol == pytest.approx(self.tol * _radius(planted), rel=1e-12)
        assert 0.9 * k < check.residual / check.tol < 1.1 * k
        assert result.verdict == (VERDICT_OFF_SURFACE if k > 1 else VERDICT_HYPERPLANE)

    @pytest.mark.parametrize("d,scale,delta", [(1e6, 1.0, 0.5), (0.0, 1e-6, 1e-7)],
                             ids=["d=1e6", "R=3.5e-6"])
    def test_point_off_the_plane(self, d, scale, delta):
        # a point 0.5 off a plane at d = 1e6, and one 2.8 % of R off a plane
        # of radius 3.5e-6: below a unit floor of tol max(1, |d|), far above tol R
        xi, st = _plane(d, scale)
        result = classify(_point_off(st, xi, delta))
        assert result.verdict == VERDICT_OFF_SURFACE
        assert result.notes[0].startswith("no single HolomorphicHyperplane holds the "
                                          "samples: offset spread")

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("d", [0.0, 1e3, 1e6, 1e9, 1e12])
    def test_far_plane_passes(self, d, scale):
        # the offsets of points of size d carry round-off of about eps |xi| d,
        # 1e-4 at d = 1e12, far above tol R = 3.5e-6: the allowance takes it off
        radius = scale * _radius(_plane(d)[1])  # the norms of the scaled points over- or underflow
        result = classify(_plane(d, scale)[1])
        assert result.verdict == VERDICT_HYPERPLANE
        assert result.residual("offset spread") <= self.tol * radius
        assert abs(result.recovered.d - d * scale) <= 1e-12 * max(d * scale, radius)

    def test_roundoff_allowance_is_not_larger(self):
        # at d = 1e10 the allowance, 4 eps |xi| max|p| = 8.9e-6, is 2.5 tol R:
        # a point 10 tol R off the plane is still caught
        xi, st = _plane(1e10)
        result = classify(_point_off(st, xi, 10 * self.tol * _radius(st)))
        assert result.verdict == VERDICT_OFF_SURFACE
        assert result.residual("offset spread") > 5 * self.tol * _radius(st)

    @pytest.mark.parametrize("c", [1e-200, 1e-3, 1e200])
    @pytest.mark.parametrize("k", [10.0, 0.1])
    def test_normal_gate_at_scale(self, k, c):
        # one of N stored normals c xi moved by delta: its distance from the
        # mean is delta (N - 1) / N = k tol max|c xi|
        _, st = _plane(1.5)
        xi, n = c * st.xi, len(st)
        xi[3, 2] += k * self.tol * float(np.max(np.abs(xi))) * n / (n - 1)
        result = classify(dataclasses.replace(st, xi=xi))
        check = result.checks[2]
        assert check.name == "normal spread"
        assert 0.9 * k < check.residual / check.tol < 1.1 * k
        assert result.verdict == (VERDICT_OFF_SURFACE if k > 1 else VERDICT_HYPERPLANE)


def _concat(*stacks):
    return SampleStack(*(np.concatenate(fields) for fields in
                         zip(*(vars(st).values() for st in stacks))))


def _plane_stack(move=None):
    """Samples of one hyperplane; move(hp, st) edits them."""
    hp = make_hyperplane(np.eye(8)[0] + 0.3 * np.eye(8)[1], 1.5, 0.5)
    st = hyperplane_samples(hp, 12, seed=4)
    return st if move is None else move(hp, st)


def _moved_normal(hp, st):
    xi = st.xi.copy()
    xi[3, 2] += 1e-3
    return dataclasses.replace(st, xi=xi)


def _moved_point(hp, st):
    P = st.points.copy()
    P[3] += 1e-3 * hp.xi
    return dataclasses.replace(st, points=P)


def _two_centres():
    _, ss = sphere_set(3.0, 4.0, count=4)
    return _concat(ss, dataclasses.replace(ss, points=ss.points + 5.0 * np.eye(8)[0]))


def _planted_defect():
    _, ss = sphere_set(1.0, 0.0, count=6)
    return dataclasses.replace(ss, A=ss.A + np.kron(np.eye(2), np.diag([0.0, 0.1, -0.1])))


SPHERE_GATES = ["constancy spread", "umbilicity residual", "containment residual"]
PLANE_GATES = ["constancy spread", "umbilicity residual", "normal spread", "offset spread"]
# the verdict a failed gate gives
FAILED_VERDICT = {"constancy spread": VERDICT_NON_CONSTANT,
                  "umbilicity residual": VERDICT_NOT_UMBILICAL,
                  "normal spread": VERDICT_OFF_SURFACE,
                  "offset spread": VERDICT_OFF_SURFACE,
                  "containment residual": VERDICT_OFF_SURFACE}
# (stack, verdict, the gates that run, in order)
GATE_RUNS = {
    "sphere": (lambda: sphere_set(3.0, 4.0)[1], VERDICT_SPHERE, SPHERE_GATES),
    "hyperplane": (_plane_stack, VERDICT_HYPERPLANE, PLANE_GATES),
    "non-constant": (lambda: _concat(sphere_set(1.0, 0.0, count=4)[1],
                                     sphere_set(3.0, 4.0, count=4)[1]),
                     VERDICT_NON_CONSTANT, PLANE_GATES[:1]),
    "not umbilical": (_planted_defect, VERDICT_NOT_UMBILICAL, PLANE_GATES[:2]),
    "sphere containment": (_two_centres, VERDICT_OFF_SURFACE, SPHERE_GATES),
    "normal spread": (lambda: _plane_stack(_moved_normal), VERDICT_OFF_SURFACE, PLANE_GATES[:3]),
    "offset spread": (lambda: _plane_stack(_moved_point), VERDICT_OFF_SURFACE, PLANE_GATES[:4]),
    "dimension": (lambda: sphere_set(1.0, 0.0, count=5, m=3)[1], VERDICT_DIM_TOO_SMALL, []),
}


@pytest.mark.parametrize("case", list(GATE_RUNS))
def test_gate_list(case):
    # the gates run in order up to the first that fails, which sets the verdict
    make, verdict, names = GATE_RUNS[case]
    result = classify(make())
    assert [c.name for c in result.checks] == names
    failed = [c for c in result.checks if not c.passed]
    assert all(c.passed for c in result.checks[:-1])
    if failed:
        assert FAILED_VERDICT[failed[0].name] == verdict
    assert result.verdict == verdict
    assert (result.recovered is not None) == (verdict in (VERDICT_SPHERE, VERDICT_HYPERPLANE))
    for name, check in zip(names, result.checks):
        assert result.residual(name) == check.residual
    for name in set(FAILED_VERDICT) - set(names):
        assert np.isnan(result.residual(name))


class TestScaledTangentBases:
    @pytest.mark.parametrize("m", [4, 6])
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1e3])
    def test_sphere_recovered(self, m, scale):
        # A in basis coordinates does not change when every basis vector is
        # scaled alike; the degeneracy gate of tangent_reps is relative to
        # max|G_t|, so det G_t = scale^(4n) det G_t(1) does not trip it
        center = np.linspace(-1.0, 1.0, 2 * m)
        sph, ss = sphere_set(3.0, 4.0, count=50, seed=7, center=center, m=m)
        scaled = dataclasses.replace(ss, tangent_bases=scale * ss.tangent_bases)
        result = classify(scaled)
        assert result.verdict == VERDICT_SPHERE
        rec = result.recovered
        assert abs(rec.a - 3.0) <= 1e-14 and abs(rec.b - 4.0) <= 1e-14
        assert np.max(np.abs(rec.center - center)) <= 1e-14


class TestClassifyEndToEnd:
    @pytest.mark.parametrize("a,b", GRID)
    def test_closed_form_grid(self, a, b):
        rng = np.random.default_rng(abs(int(10 * a + b)))
        center = rng.uniform(-2, 2, size=8)
        sph, ss = sphere_set(a, b, count=12, seed=5, center=center)
        result = classify(ss)
        assert result.verdict == VERDICT_SPHERE
        rec = result.recovered
        scale = max(1.0, abs(a), abs(b), float(np.max(np.abs(center))))
        assert np.max(np.abs(rec.center - center)) <= 1e-6 * scale
        assert abs(rec.a - a) <= 1e-6 * scale
        assert abs(rec.b - b) <= 1e-6 * scale

    def test_fd_grid_looser(self):
        sph, ss = sphere_set(3.0, 4.0, count=8, seed=6, fd=True)
        result = classify(ss, tol=1e-4)
        assert result.verdict == VERDICT_SPHERE
        assert result.residual("containment residual") <= 1e-6
        assert abs(result.recovered.a - 3.0) <= 1e-3 * 3.0
        assert abs(result.recovered.b - 4.0) <= 1e-3 * 4.0

    def test_hyperplane_verdict(self):
        hp = make_hyperplane(np.eye(8)[0], 1.5, 0.5)
        samples = hyperplane_samples(hp, 12, seed=7)
        result = classify(samples)
        assert result.verdict == VERDICT_HYPERPLANE
        assert result.totally_geodesic
        assert result.residual("offset spread") <= 1e-9

    def test_dimension_gate(self):
        sph = make_h_sphere(np.zeros(6), 1.0, 0.0)
        samples = make_surface_samples(sph, 5, seed=8)
        result = classify(samples)
        assert result.verdict == VERDICT_DIM_TOO_SMALL

    def test_non_umbilical_verdict(self):
        sph, ss = sphere_set(1.0, 0.0, count=5)
        A = ss.A + np.kron(np.eye(2), np.diag([0.0, 0.01, -0.01]))
        result = classify(dataclasses.replace(ss, A=A))
        assert result.verdict == VERDICT_NOT_UMBILICAL
        assert result.residual("constancy spread") <= 1e-15

    def test_curvature_route_note(self):
        # (nu, nut) = (0.12, -0.16) of the (a, b) = (3, 4) sphere maps back to (3, 4)
        sph, ss = sphere_set(3.0, 4.0)
        result = classify(ss)
        params = theoretical_curvatures(sph)
        assert params.real == pytest.approx(0.12, abs=1e-14)
        assert params.imag == pytest.approx(-0.16, abs=1e-14)
        note = next(n for n in result.notes if n.startswith("curvature-route parameters: "))
        a, b = (float(f.split("=")[1]) for f in note.split(": ")[1].split(", "))
        assert a == pytest.approx(3.0, abs=1e-12)
        assert b == pytest.approx(4.0, abs=1e-12)

    def test_non_constant_verdict(self):
        sph1, ss1 = sphere_set(1.0, 0.0, count=4)
        sph2, ss2 = sphere_set(3.0, 4.0, count=4)
        result = classify(_concat(ss1, ss2))
        assert result.verdict == VERDICT_NON_CONSTANT

    @pytest.mark.parametrize("a,b", [(1e-10, 0.0), (1e-11, 0.5e-11), (2e-12, -1e-12)])
    def test_small_sphere_passes_the_constancy_gate(self, a, b):
        # nu + i nut = 1/(a + ib) is of size 1e10 and above, and the round-off
        # spread of nu, 2.5e-6 to 2.7e-4 here, is compared with tol |nu + i nut|
        _, ss = sphere_set(a, b, count=50, seed=3)
        result = classify(ss)
        assert result.verdict == VERDICT_SPHERE
        assert result.residual("constancy spread") > 1e-6
        c = complex(a, b)
        assert abs(complex(result.recovered.a, result.recovered.b) - c) <= 4e-15 * abs(c)

    def test_constancy_gate_is_absolute_at_unit_scale(self):
        # on the (1, 0) sphere nu = lambda^2 = 1: lambda + 6e-7 on one of 20
        # samples spreads nu by 1.14e-6, above tol = 1e-6
        _, ss = sphere_set(1.0, 0.0, count=20)
        A = ss.A.copy()
        A[3] += 6e-7 * np.eye(6)
        result = classify(dataclasses.replace(ss, A=A))
        assert result.verdict == VERDICT_NON_CONSTANT
        assert result.residual("constancy spread") == pytest.approx(1.14e-6, rel=1e-3)

    def test_noise_degrades_monotonically(self):
        # perturb A by increasing noise; recovered parameter error grows
        # roughly linearly and stays within a factor of the noise level
        sph, ss = sphere_set(3.0, 4.0, count=10, seed=9)
        errs = []
        for eps in (1e-8, 1e-6, 1e-4):
            # one 6 x 6 draw per sample, in sample order
            E = np.random.default_rng(17).standard_normal(ss.A.shape)[:, :3, :3]
            noise = np.zeros_like(ss.A)
            noise[:, :3, :3] = noise[:, 3:, 3:] = eps * E  # kron(I, E): keep J-commuting
            result = classify(
                dataclasses.replace(ss, A=ss.A + noise),
                tol=1e-2,
            )
            assert result.verdict == VERDICT_SPHERE
            errs.append(
                max(abs(result.recovered.a - 3.0), abs(result.recovered.b - 4.0))
            )
        assert errs[0] < errs[1] < errs[2]
        assert errs[2] <= 1e-1

    def test_empty_raises(self):
        with pytest.raises(NordenError, match="no samples"):
            classify(empty_stack())
