"""Tests for the command-line interface and the JSON wire format."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nordenhs
from nordenhs import jsonio
from nordenhs.cli import main
from nordenhs.core import complex_op_to_real, NordenSpace
from nordenhs.errors import FormatError
from nordenhs.hypersurface import (
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
            assert np.array_equal(a.point, b.point)
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
        code, out, _ = run_cli(capsys, "verify", "metrics", "--a", "3", "--m", "3")
        assert code == 0
        assert json.loads(out)["params"] == {"m": 3, "seed": 0}
        code, out, _ = run_cli(capsys, "verify", "all", "--a", "3", "--planes", "4")
        assert code == 0
        assert json.loads(out)["params"] == {"a": 3.0, "planes": 4, "seed": 0, "fd": False}

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

    def test_points_file_rejected(self, capsys, tmp_path):
        f = tmp_path / "pts.json"
        jsonio.write_json(str(f), jsonio.points_to_doc(4, [np.zeros(8)]))
        code, _, _ = run_cli(capsys, "classify", "--in", str(f))
        assert code == 3


class TestDecompose:
    def test_scalar_plus_j(self, capsys, tmp_path):
        f = tmp_path / "op.json"
        S = 0.4 * np.eye(8) + 0.2 * NordenSpace(4).j_matrix()
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

    @pytest.mark.parametrize("bad", ["NaN", "-Infinity", "1e999"])
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


def test_python_dash_m(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(nordenhs.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nordenhs", "sphere", "info", "--a", "3", "--b", "4"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "sphere info"
