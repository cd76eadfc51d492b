"""Tests for the command-line interface and the JSON wire format."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import nordenhs
from nordenhs import errors, jsonio
from nordenhs.cli import build_parser, main
from nordenhs.core import apply_J, complex_op_to_real
from nordenhs.errors import FormatError
from nordenhs.hypersurface import (
    contains,
    make_h_sphere,
    make_hyperplane,
    hyperplane_samples,
    make_surface_samples,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSphereInfo:
    def test_kotelnikov_study(self, capsys):
        code, out, _ = run_cli(
            capsys, "sphere", "info", "--a", "1", "--b", "0", "--m", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["nu"] == 1.0
        assert doc["nut"] == 0.0
        assert doc["lambda"] == 1.0
        assert doc["mu"] == 0.0

    def test_three_four(self, capsys):
        code, out, _ = run_cli(
            capsys, "sphere", "info", "--a", "3", "--b", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["nu"] == pytest.approx(0.12, abs=1e-14)
        assert doc["nut"] == pytest.approx(-0.16, abs=1e-14)
        assert doc["gHH"] == doc["nu"]
        assert doc["gtHH"] == doc["nut"]

    def test_huge_sphere_with_negative_b(self, capsys):
        # lambda ~ 1e-15 and mu < 0: gtHH = -2 lambda mu and gHH = lambda^2 - mu^2
        code, out, _ = run_cli(capsys, "sphere", "info", "--a", "1e30", "--b=-1e29")
        assert code == 0
        doc = json.loads(out)
        assert -2.0 * doc["lambda"] * doc["mu"] == pytest.approx(doc["gtHH"], rel=1e-14, abs=0)
        assert doc["lambda"] ** 2 - doc["mu"] ** 2 == pytest.approx(doc["gHH"], rel=1e-14, abs=0)

    def test_isotropic_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sphere", "info", "--a", "0", "--b", "0"
        )
        assert code == 2
        assert err


@pytest.mark.parametrize("argv", [
    ("sphere", "info", "--a", "inf", "--b", "0"),
    ("sphere", "info", "--a", "nan", "--b", "1"),
    ("sample", "--a", "3", "--b=-inf", "--count", "5"),
    ("sample", "--a", "nan", "--b", "1", "--count", "5"),
    ("verify", "all", "--a", "inf"),
    ("verify", "curvature", "--b", "nan"),
])
def test_non_finite_sphere_params_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert not out
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "must be finite" in err


@pytest.mark.parametrize("a", ["1e200", "1e-13", "1e-200"])
@pytest.mark.parametrize("cmd", [("sphere", "info"), ("sample", "--count", "5", "--with-frames")])
def test_out_of_range_sphere_params_exit_2(capsys, cmd, a):
    # a^2 overflows, or falls below 1e-24 without being zero
    code, out, err = run_cli(capsys, *cmd, "--a", a, "--b", "0")
    assert code == 2
    assert not out
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"(a, b) = ({float(a)!r}, 0.0)" in err and "finite and above 1e-24" in err


class TestSample:
    def test_deterministic_bytes(self, capsys, tmp_path):
        f1 = tmp_path / "a.json"
        f2 = tmp_path / "b.json"
        for f in (f1, f2):
            code, _, _ = run_cli(
                capsys, "sample", "--a", "3", "--b", "4", "--count", "5",
                "--seed", "11", "--out", str(f),
            )
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_points_on_sphere(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--a", "-1", "--b", "2", "--count", "4",
            "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "points"
        sph = make_h_sphere(np.zeros(8), -1.0, 2.0)
        from nordenhs.hypersurface import containment_residual

        for p in doc["points"]:
            rg, rgt = containment_residual(sph, np.asarray(p))
            assert max(abs(rg), abs(rgt)) <= 1e-9

    def test_with_frames_round_trip(self, capsys, tmp_path):
        f = tmp_path / "s.json"
        code, _, _ = run_cli(
            capsys, "sample", "--a", "3", "--b", "4", "--count", "3",
            "--seed", "5", "--with-frames", "--out", str(f),
        )
        assert code == 0
        m, kind, samples = jsonio.load_pointcloud(str(f))
        assert (m, kind) == (4, "samples")
        assert len(samples) == 3
        # values survive the text round trip exactly
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        orig = make_surface_samples(sph, 3, 5)
        for a, b in zip(orig, samples):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(np.asarray(a.A), np.asarray(b.A))

    def test_invalid_params(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--a", "0", "--b", "0"
        )
        assert code == 2

    @pytest.mark.parametrize("count", ["-5", "0"])
    def test_count_below_one_rejected(self, capsys, tmp_path, count):
        f = tmp_path / "p.json"
        code, out, err = run_cli(
            capsys, "sample", "--a", "3", "--b", "4", "--count", count,
            "--out", str(f),
        )
        assert code == 2
        assert "--count" in err
        assert not f.exists() and not out

    def test_bad_center_file(self, capsys, tmp_path):
        f = tmp_path / "c.json"
        f.write_text("{not json")
        code, _, err = run_cli(
            capsys, "sample", "--a", "1", "--b", "0", "--center-file", str(f)
        )
        assert code == 3

    def test_center_file_sets_the_center(self, capsys, tmp_path):
        center = np.linspace(-2.0, 3.0, 8)
        f = tmp_path / "c.json"
        jsonio.write_json(str(f), jsonio.points_to_doc(4, center[None]))
        code, out, _ = run_cli(
            capsys, "sample", "--a", "3", "--b", "4", "--count", "30",
            "--center-file", str(f),
        )
        assert code == 0
        points = np.array(json.loads(out)["points"])
        assert points.shape == (30, 8)
        assert contains(make_h_sphere(center, 3.0, 4.0), points).all()
        assert not contains(make_h_sphere(np.zeros(8), 3.0, 4.0), points).any()

    @pytest.mark.parametrize("doc", [
        jsonio.points_to_doc(4, np.zeros((2, 8))),  # two points
        jsonio.points_to_doc(3, np.zeros((1, 6))),  # m = 3 under --m 4
        jsonio.samples_to_doc(4, make_surface_samples(make_h_sphere(np.zeros(8), 1.0, 0.0), 1, 0)),
    ], ids=["two-points", "m3", "samples"])
    def test_center_file_must_hold_one_point(self, capsys, tmp_path, doc):
        f = tmp_path / "c.json"
        jsonio.write_json(str(f), doc)
        code, out, err = run_cli(
            capsys, "sample", "--a", "3", "--b", "4", "--m", "4", "--center-file", str(f)
        )
        assert code == 3 and not out
        assert err == "nordenhs: center file must hold exactly one point\n"


class TestVerify:
    def test_metrics_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "metrics")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(r["passed"] for r in doc["results"])

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nope")
        assert code == 2
        assert "unknown suite" in err

    def test_library_error_is_exit_2(self, capsys):
        # at m = 2 no totally real plane exists: rejected up front
        code, out, err = run_cli(capsys, "verify", "all", "--m", "2")
        assert code == 2
        assert not out
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "m=2" in err and "no totally real plane" in err

    @pytest.mark.parametrize("flags", [
        ("--planes", "0"), ("--planes", "-3"), ("--points", "0"),
    ])
    def test_empty_curvature_counts_rejected(self, capsys, flags):
        code, out, err = run_cli(capsys, "verify", "curvature", *flags)
        assert code == 2
        assert not out
        assert err.count("\n") == 1 and "at least 1" in err

    def test_params_echo_only_applied(self, capsys):
        # --a reaches no suite of the run: exit 2 before any suite runs
        code, out, err = run_cli(capsys, "verify", "metrics", "--a", "3", "--m", "3")
        assert (code, out) == (2, "")
        assert err == "nordenhs: no suite of verify metrics takes --a\n"
        code, out, _ = run_cli(capsys, "verify", "metrics", "--m", "3")
        assert code == 0
        assert json.loads(out)["params"] == {"m": 3, "seed": 0}
        code, out, _ = run_cli(capsys, "verify", "all", "--a", "3", "--planes", "4")
        assert code == 0
        assert json.loads(out)["params"] == {"a": 3.0, "planes": 4, "seed": 0, "fd": False}

    def test_all_passes_the_step_to_codazzi(self, capsys):
        # without --fd the curvature suite ignores the step; codazzi takes it
        code, out, _ = run_cli(capsys, "verify", "all", "--step", "1e-3",
                               "--points", "2", "--planes", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"] == {"points": 2, "planes": 3, "seed": 0, "step": 1e-3, "fd": False}
        assert "Codazzi residual at h=0.001" in [r["name"] for r in doc["results"]]

    def test_failing_tolerance_reported(self, capsys):
        # impossible tolerance forces a failure report on stderr
        code, out, err = run_cli(
            capsys, "verify", "curvature", "--tol", "1e-30",
            "--points", "2", "--planes", "5",
        )
        assert code == 1
        assert "first failing invariant" in err
        doc = json.loads(out)
        assert doc["passed"] is False


@pytest.mark.parametrize("flag,value,cmd", [
    ("--tol", "nan", ("verify", "all")),
    ("--tol", "inf", ("verify", "all")),
    ("--tol", "-1", ("verify", "curvature")),
    ("--step", "nan", ("verify", "codazzi")),
    ("--step", "-1", ("verify", "codazzi")),
    ("--tol", "nan", ("classify",)),
    ("--tol", "-1", ("classify",)),
    ("--tol", "inf", ("classify",)),
])
def test_out_of_range_tol_and_step_exit_2(capsys, tmp_path, flag, value, cmd):
    if cmd == ("classify",):
        f = tmp_path / "s.json"
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        jsonio.write_json(str(f), jsonio.samples_to_doc(4, make_surface_samples(sph, 5, 1)))
        cmd += ("--in", str(f))
    code, out, err = run_cli(capsys, *cmd, f"{flag}={value}")
    assert code == 2
    assert not out
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"{flag} must be finite" in err


class TestClassify:
    def test_sphere_file(self, capsys, tmp_path):
        f = tmp_path / "sphere.json"
        sph = make_h_sphere(np.arange(8, dtype=float), 3.0, 4.0)
        jsonio.write_json(str(f), jsonio.samples_to_doc(4, make_surface_samples(sph, 10, 2)))
        code, out, _ = run_cli(capsys, "classify", "--in", str(f))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "HSphere"
        assert doc["recovered"]["a"] == pytest.approx(3.0, abs=1e-8)
        assert doc["recovered"]["b"] == pytest.approx(4.0, abs=1e-8)
        assert np.allclose(doc["recovered"]["center"], np.arange(8), atol=1e-8)

    def test_hyperplane_file(self, capsys, tmp_path):
        f = tmp_path / "plane.json"
        hp = make_hyperplane(np.eye(8)[0], 2.0, -0.5)
        jsonio.write_json(
            str(f), jsonio.samples_to_doc(4, hyperplane_samples(hp, 8, 3))
        )
        code, out, _ = run_cli(capsys, "classify", "--in", str(f))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "HolomorphicHyperplane"
        assert doc["recovered"]["d"] == pytest.approx(2.0, abs=1e-10)

    def test_dimension_gate_exit_code(self, capsys, tmp_path):
        f = tmp_path / "small.json"
        sph = make_h_sphere(np.zeros(6), 1.0, 0.0)
        jsonio.write_json(
            str(f), jsonio.samples_to_doc(3, make_surface_samples(sph, 4, 1))
        )
        code, out, _ = run_cli(capsys, "classify", "--in", str(f))
        assert code == 5
        assert json.loads(out)["verdict"] == "DimensionTooSmall"

    def test_malformed_file(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"version": 1, "m": 4, "kind": "weird"}')
        code, _, err = run_cli(capsys, "classify", "--in", str(f))
        assert code == 3

    def test_empty_samples_file_exit_3(self, capsys, tmp_path):
        f = tmp_path / "empty.json"
        f.write_text('{"version": 1, "m": 4, "kind": "samples", "samples": []}')
        code, out, err = run_cli(capsys, "classify", "--in", str(f))
        assert code == 3
        assert not out
        assert err.count("\n") == 1 and "empty samples array" in err

    def test_one_sample_file_exit_4(self, capsys, tmp_path):
        # one point has no length scale: no gate can pass it
        f = str(tmp_path / "one.json")
        assert run_cli(capsys, "sample", "--a", "3", "--b", "4", "--count", "1",
                       "--with-frames", "--out", f)[0] == 0
        code, out, err = run_cli(capsys, "classify", "--in", f)
        assert code == 4
        assert not out
        assert err.count("\n") == 1 and "need two distinct sample points" in err

    def test_points_file_rejected(self, capsys, tmp_path):
        f = tmp_path / "pts.json"
        jsonio.write_json(str(f), jsonio.points_to_doc(4, [np.zeros(8)]))
        code, _, _ = run_cli(capsys, "classify", "--in", str(f))
        assert code == 3


class TestDecompose:
    def test_scalar_plus_j(self, capsys, tmp_path):
        f = tmp_path / "op.json"
        S = 0.4 * np.eye(8) + 0.2 * apply_J(np.eye(8)).T
        jsonio.write_json(str(f), {"matrix": [list(map(float, r)) for r in S]})
        code, out, _ = run_cli(capsys, "decompose", "--in", str(f))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["pairs"]) == 4
        for lam, mu in doc["pairs"]:
            assert lam == pytest.approx(0.4, abs=1e-10)
            assert mu == pytest.approx(0.2, abs=1e-10)

    def test_not_h_symmetric(self, capsys, tmp_path):
        f = tmp_path / "op.json"
        S = np.eye(8)
        S[0, 1] = 0.5
        jsonio.write_json(str(f), {"matrix": [list(map(float, r)) for r in S]})
        code, _, _ = run_cli(capsys, "decompose", "--in", str(f))
        assert code == 2

    def test_nilpotent(self, capsys, tmp_path):
        f = tmp_path / "op.json"
        S = complex_op_to_real(np.array([[1.0, 1j], [1j, -1.0]]))
        jsonio.write_json(str(f), {"matrix": [list(map(float, r)) for r in S]})
        code, _, _ = run_cli(capsys, "decompose", "--in", str(f))
        assert code == 4

    def test_odd_matrix_rejected(self, capsys, tmp_path):
        f = tmp_path / "op.json"
        f.write_text("[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]")
        code, _, _ = run_cli(capsys, "decompose", "--in", str(f))
        assert code == 3


class TestJsonIO:
    def test_canonical_floats_round_trip(self):
        vals = [0.1, 1.0 / 3.0, -2.5e-17, 3.0]
        text = jsonio.dumps_canonical({"xs": vals})
        assert json.loads(text)["xs"] == vals

    def test_non_finite_rejected(self):
        with pytest.raises(FormatError):
            jsonio.dumps_canonical({"x": float("nan")})

    @pytest.mark.parametrize("x", [1j, b"1", object()], ids=["complex", "bytes", "object"])
    def test_unsupported_scalar_rejected(self, x):
        with pytest.raises(FormatError, match="unsupported scalar"):
            jsonio.dumps_canonical({"x": [x]})

    def test_array_rows_match_list_layout(self):
        A = np.array([[0.1, -0.0, 1e300], [2.0, 1.0 / 3.0, -2.5e-17]])
        doc = {"A": A, "rows": [A[0], np.zeros(0)], "x": A[1, 1]}
        listed = {"A": A.tolist(), "rows": [A[0].tolist(), []], "x": A[1, 1]}
        assert jsonio.dumps_canonical(doc) == jsonio.dumps_canonical(listed)

    def test_non_finite_array_rejected(self, tmp_path):
        doc = {"m": 4, "x": np.array([[1.0, np.inf]])}
        with pytest.raises(FormatError):
            jsonio.dumps_canonical(doc)
        f = tmp_path / "x.json"
        with pytest.raises(FormatError):
            jsonio.write_json(str(f), doc)
        assert not f.exists()

    # an integer literal beyond the float range overflows the float
    # conversion instead of reading as inf
    @pytest.mark.parametrize("bad", ["NaN", "-Infinity", "1e999", "1" + "0" * 400],
                             ids=["NaN", "-Infinity", "1e999", "integer-beyond-float"])
    def test_non_finite_point_rejected(self, capsys, tmp_path, bad):
        f = tmp_path / "s.json"
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        text = jsonio.dumps_canonical(
            jsonio.samples_to_doc(4, make_surface_samples(sph, 3, 1))
        )
        doc = json.loads(text)
        doc["samples"][1]["point"][2] = "BAD"
        f.write_text(json.dumps(doc).replace('"BAD"', bad))
        with pytest.raises(FormatError):
            jsonio.load_pointcloud(str(f))
        code, _, err = run_cli(capsys, "classify", "--in", str(f))
        assert code == 3
        assert "non-finite" in err

    def test_non_finite_matrix_rejected(self, capsys, tmp_path):
        f = tmp_path / "op.json"
        f.write_text('[[1.0, 0.0], [0.0, NaN]]')
        with pytest.raises(FormatError):
            jsonio.load_matrix(str(f))
        code, _, _ = run_cli(capsys, "decompose", "--in", str(f))
        assert code == 3

    def test_strings_outside_arrays_accepted(self, tmp_path):
        # an extra string field holding quotes, true and false is no array
        # entry: such a file takes the entry-by-entry check, which passes it
        f = tmp_path / "p.json"
        f.write_text('{"note": "true, \\"false\\"", "version": 1, "m": 2, '
                     '"kind": "points", "points": [[1, 0, 0, 0.5]]}')
        assert jsonio.load_pointcloud(str(f))[2].tolist() == [[1.0, 0.0, 0.0, 0.5]]
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        st = make_surface_samples(sph, 3, 1)
        doc = json.loads(jsonio.dumps_canonical(jsonio.samples_to_doc(4, st)))
        doc["samples"][1]["label"] = "true"
        f.write_text(json.dumps(doc))
        got = jsonio.load_pointcloud(str(f))[2]
        assert all(np.array_equal(x, y) for x, y in zip(vars(got).values(), vars(st).values()))

    def test_ragged_samples_rejected(self, tmp_path):
        f = tmp_path / "s.json"
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        doc = json.loads(jsonio.dumps_canonical(
            jsonio.samples_to_doc(4, make_surface_samples(sph, 2, 1))
        ))
        doc["samples"][1]["A"][0] = [1.0]
        f.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            jsonio.load_pointcloud(str(f))

    def test_version_gate(self, tmp_path):
        f = tmp_path / "v.json"
        f.write_text('{"version": 99, "m": 4, "kind": "points", "points": []}')
        with pytest.raises(FormatError):
            jsonio.load_pointcloud(str(f))

    def test_length_validation(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(
            '{"version": 1, "m": 4, "kind": "points", "points": [[1.0, 2.0]]}'
        )
        with pytest.raises(FormatError):
            jsonio.load_pointcloud(str(f))

    @pytest.mark.parametrize("x", [1.0, 1.5, -0.0, 5e-324, -1e308, 3, True, False])
    def test_zero_d_array_written_as_its_scalar(self, tmp_path, x):
        f = tmp_path / "x.json"
        for obj, scalar in [(np.array(x), x), ([np.array(x)], [x]),
                            ((np.array(x), 2.0), [x, 2.0]), ({"a": [np.array(x), "s"]},
                                                             {"a": [x, "s"]}),
                            ({"b": np.array(x)}, {"b": x})]:
            want = jsonio.dumps_canonical(scalar)
            assert jsonio.dumps_canonical(obj) == want
            jsonio.write_json(str(f), obj)
            assert f.read_text() == want + "\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_zero_d_array_rejected(self, tmp_path, bad):
        f = tmp_path / "x.json"
        for obj in [np.array(bad), [1.0, np.array(bad)], {"m": 4, "x": np.array(bad)}]:
            with pytest.raises(FormatError, match="non-finite"):
                jsonio.dumps_canonical(obj)
            with pytest.raises(FormatError, match="non-finite"):
                jsonio.write_json(str(f), obj)
            assert not f.exists()


def _report_argv(kind, tmp_path):
    """argv of a command whose report is `kind`, with its input files."""
    if kind == "sphere info":
        return ["sphere", "info", "--a", "3", "--b", "4"]
    samples = tmp_path / "s.json"
    if kind == "sample":
        return ["sample", "--a", "3", "--b", "4", "--count", "3", "--out", str(samples)]
    if kind == "verify":
        return ["verify", "metrics", "--m", "2"]
    if kind == "classify":
        sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
        jsonio.write_json(str(samples), jsonio.samples_to_doc(4, make_surface_samples(sph, 5, 1)))
        return ["classify", "--in", str(samples)]
    op = tmp_path / "op.json"
    jsonio.write_json(str(op), {"matrix": [list(map(float, r)) for r in np.eye(8)]})
    return ["decompose", "--in", str(op)]


@pytest.mark.parametrize("kind", ["sphere info", "sample", "verify", "classify", "decompose"])
def test_report_names_versions(capsys, tmp_path, kind):
    code, out, _ = run_cli(capsys, *_report_argv(kind, tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["command"].startswith(kind)
    assert doc["version"] == nordenhs.__version__
    assert doc["numpy"] == np.__version__


def test_sample_document_on_stdout_has_no_versions(capsys):
    code, out, _ = run_cli(capsys, "sample", "--a", "3", "--b", "4", "--count", "2")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"version", "m", "kind", "points"}
    assert doc["version"] == 1


def test_codazzi_at_m2_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "codazzi", "--m", "2")
    assert code == 0
    names = [r["name"] for r in json.loads(out)["results"]]
    assert "second-order decrease (r(h/4)/r(h) <= 1/4)" not in names
    code, out, _ = run_cli(capsys, "verify", "codazzi", "--m", "3")
    assert code == 0
    results = json.loads(out)["results"]
    assert results[1]["name"] == "second-order decrease (r(h/4)/r(h) <= 1/4)"
    assert results[1]["tol"] == 0.25


@pytest.mark.parametrize("step", ["1", "0.5", "10"])
def test_codazzi_step_beyond_sphere_scale_exit_2(capsys, step):
    code, out, err = run_cli(capsys, "verify", "codazzi", f"--step={step}")
    assert code == 2
    assert not out
    assert err.count("\n") == 1
    assert f"step {float(step):.3e} too large" in err


def run_python(tmp_path, *args):
    """A fresh interpreter run with args, importing nordenhs from this tree."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(nordenhs.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)


@pytest.mark.parametrize("size", [1e160, 1e300, 1e307])
def test_classify_huge_points_writes_no_warning(tmp_path, size):
    # R, max|p| and the mean offsets are taken after a power-of-two scaling:
    # numpy has no overflow to report on stderr
    hp = make_hyperplane(np.eye(8)[0] + 0.3 * np.eye(8)[1], 2.0, -1.0)
    st = hyperplane_samples(hp, 12, seed=4)
    st = type(st)(size * st.points, st.xi, st.tangent_bases, st.A)
    jsonio.write_json(str(tmp_path / "h.json"), jsonio.samples_to_doc(4, st))
    proc = run_python(tmp_path, "-m", "nordenhs", "classify", "--in", "h.json")
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "HolomorphicHyperplane"
    assert doc["recovered"]["d"] == pytest.approx(2 * size, rel=1e-14)


def test_python_dash_m(tmp_path):
    proc = run_python(tmp_path, "-m", "nordenhs", "sphere", "info", "--a", "3", "--b", "4")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "sphere info"


@pytest.mark.parametrize("cmd", [
    ("sphere", "info", "--a", "3", "--b", "4"),
    ("sample", "--a", "3", "--b", "4"),
    ("verify", "all"),
], ids=lambda cmd: cmd[0])
@pytest.mark.parametrize("m", ["0", "-1"])
def test_m_below_one_exit_2(capsys, cmd, m):
    code, out, err = run_cli(capsys, *cmd, "--m", m)
    assert code == 2
    assert not out
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"--m must be at least 1, got {m}" in err


@pytest.mark.parametrize("argv", [
    ("sample", "--a", "1", "--b", "0", "--seed", "-1"),
    ("verify", "all", "--seed", "-1"),
    ("verify", "frame", "--seed", "-1"),
    ("verify", "curvature", "--seed", "-2000"),
], ids=" ".join)
def test_negative_seed_exit_2(capsys, argv):
    # numpy takes no negative seed, so the range check rejects one before any draw
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert not out
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"--seed must be at least 0, got {argv[-1]}" in err


def test_python_dash_m_negative_m_exit_2(tmp_path):
    proc = run_python(tmp_path, "-m", "nordenhs", "sphere", "info", "--a", "3", "--b", "4",
                      "--m", "-1")
    assert proc.returncode == 2
    assert not proc.stdout
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "--m" in proc.stderr


def test_cli_loads_every_layer(tmp_path):
    # the benchmark's tracer reads sys.modules["nordenhs.<layer>"] of every
    # layer right after importing nordenhs.cli; the package re-exports no
    # names, so nordenhs.classify is the module, not the function
    code = """
import sys
import types
import nordenhs.cli
import nordenhs.classify as m
layers = ("core", "curvature", "hypersurface", "classify", "jsonio", "verify", "cli")
print([name for name in layers if "nordenhs." + name not in sys.modules])
print(isinstance(m, types.ModuleType), hasattr(m, "reconstruct_sphere"))
"""
    proc = run_python(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True True"]


def test_sampling_layers_do_not_load_curvature(tmp_path):
    # the ambient curvatures are one complex number, so hypersurface needs
    # no type from curvature
    code = """
import sys
import nordenhs.hypersurface, nordenhs.classify, nordenhs.jsonio
print("nordenhs.curvature" in sys.modules)
"""
    proc = run_python(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False"]


def test_orjson_loads_on_the_first_float_written_or_file_read(tmp_path):
    # import nordenhs.cli leaves orjson out; a report, a written sample file
    # and a read matrix each load it, every one in a fresh process
    (tmp_path / "m.json").write_text(json.dumps({"matrix": np.eye(4).tolist()}))
    code = """
import sys
from nordenhs import cli
print("orjson", "orjson" in sys.modules, file=sys.stderr)
cli.main(sys.argv[1:])
print("orjson", "orjson" in sys.modules, file=sys.stderr)
"""
    for argv in (["sphere", "info", "--a", "3", "--b", "4"],
                 ["sample", "--a", "3", "--b", "4", "--count", "4", "--out", "s.json"],
                 ["decompose", "--in", "m.json"]):
        proc = run_python(tmp_path, "-c", code, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == ["orjson False", "orjson True"], argv


@pytest.mark.parametrize("content", [
    b"[" * 10**6 + b"]" * 10**6,
    b'["]", ' * 200000 + b"1" + b"]" * 200000,
], ids=["brackets", "brackets-hidden-by-strings"])
@pytest.mark.parametrize("cmd", [
    ("classify", "--in"),
    ("decompose", "--in"),
    ("sample", "--a", "3", "--b", "4", "--center-file"),
], ids=lambda cmd: cmd[0])
def test_deep_file_exits_3_in_a_fresh_process(tmp_path, cmd, content):
    # orjson converts a document recursively and overflows the C stack on
    # either file, the second one valid JSON nested 200000 deep whose string
    # brackets cancel its own in a count of every bracket; the reader sends
    # both to json, which raises RecursionError.  A signal would give a
    # negative return code.
    (tmp_path / "deep.json").write_bytes(content)
    proc = run_python(tmp_path, "-m", "nordenhs", *cmd, "deep.json")
    assert proc.returncode == 3
    assert not proc.stdout
    assert proc.stderr.count("\n") == 1 and "cannot read deep.json" in proc.stderr


@pytest.mark.parametrize("content", [
    b'{"version": 1, "m": 4, "kind": "points\xd0"}',
    b"[" * 100000 + b"]" * 100000,
    b"[[1" + b"0" * 5000 + b"]]",
], ids=["not-utf8", "nested-too-deep", "integer-too-long"])
@pytest.mark.parametrize("cmd", [
    ("classify", "--in"),
    ("decompose", "--in"),
    ("sample", "--a", "3", "--b", "4", "--center-file"),
], ids=lambda cmd: cmd[0])
def test_unparsable_json_exit_3(capsys, tmp_path, cmd, content):
    f = tmp_path / "bad.json"
    f.write_bytes(content)
    code, out, err = run_cli(capsys, *cmd, str(f))
    assert code == 3
    assert not out
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"cannot read {f}" in err


@pytest.mark.parametrize("header,points,msg", [
    ('"version": 1, "m": 100000000000000000000', [], "point length must be"),
    ('"version": 1, "m": true', [[1.0, 0.0]], "missing complex dimension m"),
    ('"version": true, "m": 4', [[1.0] + [0.0] * 7], "unsupported or missing version"),
], ids=["m-too-large", "m-true", "version-true"])
@pytest.mark.parametrize("cmd", [
    ("classify", "--in"),
    ("sample", "--a", "3", "--b", "4", "--center-file"),
], ids=lambda cmd: cmd[0])
def test_bad_header_exit_3(capsys, tmp_path, cmd, header, points, msg):
    f = tmp_path / "bad.json"
    f.write_text(f'{{{header}, "kind": "points", "points": {json.dumps(points)}}}')
    code, out, err = run_cli(capsys, *cmd, str(f))
    assert code == 3
    assert not out
    assert err.count("\n") == 1 and "Traceback" not in err
    assert msg in err


def _samples_file(tmp_path, edit):
    """The file of `sample --a 3 --b 4 --count 30 --seed 2 --with-frames`,
    with edit(i, record) applied to every record."""
    sph = make_h_sphere(np.zeros(8), 3.0, 4.0)
    doc = jsonio.samples_to_doc(4, make_surface_samples(sph, 30, 2))
    doc = json.loads(jsonio.dumps_canonical(doc))
    for i, rec in enumerate(doc["samples"]):
        edit(i, rec)
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    return str(f)


def _zero_bases(i, rec):
    rec["tangent_basis"] = np.zeros_like(rec["tangent_basis"]).tolist()


def _flat_spread_normal(i, rec):
    rec["A"] = np.zeros_like(rec["A"]).tolist()
    rec["xi"] = [1 + 0.1 * i] + [0.0] * 7


def _timelike_normal(i, rec):
    rec["A"] = np.zeros_like(rec["A"]).tolist()
    rec["xi"] = [0.0] * 4 + [1.0] + [0.0] * 3  # g(xi, xi) = -1


def _huge_normal(i, rec):
    rec["A"] = np.zeros_like(rec["A"]).tolist()
    rec["xi"] = [1e200] + [0.0] * 7  # xi @ xi overflows


def _umbilicity_defect(i, rec):
    # keeps tr A and tr(A o J): only the umbilicity residual, 1e-5, moves
    rec["A"] = (np.array(rec["A"]) + np.kron(np.eye(2), np.diag([0.0, 1e-5, -1e-5]))).tolist()


@pytest.mark.parametrize("tol,code,verdict", [
    (None, 4, "NotHUmbilical"), ("1e-4", 0, "HSphere"),
])
def test_classify_tol_sets_every_gate(capsys, tmp_path, tol, code, verdict):
    argv = ["classify", "--in", _samples_file(tmp_path, _umbilicity_defect)]
    got, out, _ = run_cli(capsys, *argv, *(["--tol", tol] if tol else []))
    doc = json.loads(out)
    assert (got, doc["verdict"]) == (code, verdict)
    assert doc["umbilicity_residual"] == pytest.approx(1e-5, rel=1e-9)
    assert doc["constancy_spread"] <= 1e-15


def _not_h_symmetric(tmp_path):
    f = tmp_path / "op.json"
    jsonio.write_json(str(f), {"matrix": (np.eye(8) + 0.5 * np.eye(8, k=1)).tolist()})
    return str(f)


def _small_random(tmp_path):
    # 1e-12 times a random matrix: as far from h-symmetric as the matrix
    f = tmp_path / "op.json"
    S = 1e-12 * np.random.default_rng(5).standard_normal((8, 8))
    jsonio.write_json(str(f), {"matrix": S.tolist()})
    return str(f)


FAILURES = {
    "sample --fd without --with-frames": (
        lambda tmp: ["sample", "--a", "3", "--b", "4", "--count", "2", "--fd",
                     "--out", str(tmp / "x.json")],
        2, "--fd needs --with-frames"),
    "decompose not h-symmetric": (
        lambda tmp: ["decompose", "--in", _not_h_symmetric(tmp)], 2, "not h-symmetric"),
    "decompose small and not h-symmetric": (
        lambda tmp: ["decompose", "--in", _small_random(tmp)], 2, "not h-symmetric"),
    "sample --out into a missing directory": (
        lambda tmp: ["sample", "--a", "3", "--b", "4", "--out", str(tmp / "missing" / "x.json")],
        3, "x.json"),
    "classify g-degenerate tangent bases": (
        lambda tmp: ["classify", "--in", _samples_file(tmp, _zero_bases)],
        4, "tangent basis g-degenerate"),
    "classify timelike normal": (
        lambda tmp: ["classify", "--in", _samples_file(tmp, _timelike_normal)],
        4, "positive g-square"),
    "verify unknown suite": (lambda tmp: ["verify", "nope"], 2, "unknown suite 'nope'"),
    "verify unknown suite with a flag": (
        lambda tmp: ["verify", "nope", "--a", "3"], 2, "unknown suite 'nope'"),
    "verify flags no suite takes": (
        lambda tmp: ["verify", "metrics", "--a", "3", "--planes", "4", "--step", "0.5"],
        2, "no suite of verify metrics takes --a, --planes, --step"),
    "verify codazzi --points": (
        lambda tmp: ["verify", "codazzi", "--points", "3", "--step", "1e-3"],
        2, "no suite of verify codazzi takes --points"),
    "verify frame --fd": (
        lambda tmp: ["verify", "frame", "--fd"], 2, "no suite of verify frame takes --fd"),
    "verify curvature --step without --fd": (
        lambda tmp: ["verify", "curvature", "--step", "5", "--points", "2", "--planes", "3"],
        2, "--step needs --fd"),
}


@pytest.mark.parametrize("case", list(FAILURES))
def test_failure_exit_codes(capsys, tmp_path, case):
    make_argv, expected, msg = FAILURES[case]
    code, out, err = run_cli(capsys, *make_argv(tmp_path))
    assert code == expected
    assert not out
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("nordenhs: ") and msg in err
    assert err[len("nordenhs: "):][0] not in "'\""
    assert not (tmp_path / "x.json").exists()


SPREAD_FAILURES = {
    "classify spread normal": (_flat_spread_normal, "normal spread"),
    "classify overflowing normal": (_huge_normal, "offset spread"),
}


@pytest.mark.parametrize("case", list(SPREAD_FAILURES))
def test_spread_failure_reports(capsys, tmp_path, case):
    # a failed spread gate of the hyperplane route is a SamplesOffSurface
    # report, with the residual and the tolerance that applied, not an error
    edit, gate = SPREAD_FAILURES[case]
    code, out, err = run_cli(capsys, "classify", "--in", _samples_file(tmp_path, edit))
    assert (code, err) == (4, "")
    doc = json.loads(out)
    assert doc["verdict"] == "SamplesOffSurface" and "recovered" not in doc
    assert doc["totally_geodesic"] is True and doc["containment_residual"] is None
    note, = doc["notes"]
    assert re.fullmatch(f"no single HolomorphicHyperplane holds the samples: {gate} "
                        r"\d\.\d{3}e[+-]\d+ > tol \d\.\d{3}e[+-]\d+", note)


def test_one_error_type_per_exit_code():
    # NordenError exits 2 (4 under classify), FormatError 3, NotHDiagonalizable 4
    assert {name for name, x in vars(errors).items() if isinstance(x, type)} == {
        "NordenError", "FormatError", "NotHDiagonalizable"}


def _non_number_argv(tmp_path, where, value):
    """argv of a command that reads `value` as the last entry of a numeric
    array: a centre point, a matrix, or a field of the last sample record."""
    f = tmp_path / "bad.json"
    if where == "center":
        f.write_text(json.dumps({"version": 1, "m": 4, "kind": "points",
                                 "points": [[0.5] * 7 + [value]]}))
        return ["sample", "--a", "3", "--b", "4", "--center-file", str(f)]
    if where == "matrix":
        f.write_text(json.dumps({"matrix": [[2.0, 0.0], [0.0, value]]}))
        return ["decompose", "--in", str(f)]

    def edit(i, rec):
        if i == 29:
            row = rec[where][-1] if isinstance(rec[where][-1], list) else rec[where]
            row[-1] = value

    return ["classify", "--in", _samples_file(tmp_path, edit)]


@pytest.mark.parametrize("value", ["1", True, False], ids=["string", "true", "false"])
@pytest.mark.parametrize("where", ["center", "matrix", "point", "xi", "tangent_basis", "A"])
def test_non_number_in_array_exit_3(capsys, tmp_path, where, value):
    # the float conversion would take "1" as 1.0 and true as 1.0
    code, out, err = run_cli(capsys, *_non_number_argv(tmp_path, where, value))
    assert code == 3
    assert not out
    assert err == f"nordenhs: non-numeric entry {json.dumps(value)} in input\n"


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


REPEATED = [
    ["verify", "curvature", "--fd", "--points", "2"],
    ["verify", "curvature", "--points", "2", "--tol=-1"],
    ["verify", "curvature", "--points", "2"],
    ["sample", "--b", "1"],
    ["verify", "curvature", "--points", "2", "--planes", "3"],
]


def test_one_parser_per_process(capsys):
    # main parses with one parser, and a call leaves nothing in it for the
    # next: the same calls with a parser built afresh for each give the same
    # exit codes and the same text, usage errors included
    assert build_parser() is build_parser()
    reused = [_outcome(argv, capsys) for argv in REPEATED]
    fresh = []
    for argv in REPEATED:
        build_parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0]
    assert json.loads(reused[2][1])["params"] == {"points": 2, "seed": 0, "fd": False}
    assert "the following arguments are required: --a" in reused[3][2]
