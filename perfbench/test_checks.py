"""The output checks accept the program's output and reject planted faults.

    python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import copy
import io
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
from nordenhs import cli  # noqa: E402

COUNT = 8


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module", params=["pipeline", "fd_frames"])
def sampled(request, tmp_path_factory):
    """(spec, fd, sample document, classify exit code, classify report)."""
    workload = request.param
    spec = jobs.corpus()[jobs.ROUND[0]]
    tmp = tmp_path_factory.mktemp(workload)
    center = tmp / "center.json"
    center.write_text(jobs.center_doc(spec["center"]))
    out = tmp / "samples.json"
    sample, classify = jobs.argvs(workload, spec, str(center), str(out))
    sample[sample.index("--count") + 1] = str(COUNT)
    assert run_cli(sample)[0] == 0
    code, report = run_cli(classify)
    return spec, workload == "fd_frames", json.loads(out.read_text()), code, report


def sample_problems(sampled, doc=None, center=None):
    spec, fd, good, _, _ = sampled
    return checks.check_samples(doc or good, spec["a"], spec["b"],
                                spec["center"] if center is None else center, COUNT, fd)


def classify_problems(sampled, code=None, report=None):
    spec, _, _, good_code, good = sampled
    return checks.check_classify(good_code if code is None else code,
                                 good if report is None else report,
                                 spec["a"], spec["b"], spec["center"])


def planted(sampled, edit):
    doc = copy.deepcopy(sampled[2])
    edit(doc["samples"])
    return doc


def test_program_output_passes(sampled):
    assert sample_problems(sampled) == []
    assert classify_problems(sampled) == []


def test_shifted_centre_is_rejected(sampled):
    shifted = np.asarray(sampled[0]["center"]) + 5.0 * np.eye(2 * jobs.M)[0]
    assert any("quadric" in p for p in sample_problems(sampled, center=shifted))
    report = copy.deepcopy(sampled[4])
    report["recovered"]["center"][0] += 1e-3
    assert any("centre" in p for p in classify_problems(sampled, report=report))


def test_perturbed_a_is_rejected(sampled):
    def edit(recs):
        recs[3]["A"][0][1] += 1e-5
    assert any("lambda I + mu J" in p for p in sample_problems(sampled, planted(sampled, edit)))


def test_a_of_another_sphere_is_rejected(sampled):
    def edit(recs):
        recs[0]["A"] = [[1.01 * x for x in row] for row in recs[0]["A"]]
    assert any("relations" in p for p in sample_problems(sampled, planted(sampled, edit)))


def test_bad_frame_is_rejected(sampled):
    def edit(recs):
        recs[2]["xi"] = [1.001 * x for x in recs[2]["xi"]]
    assert any("g-unit" in p for p in sample_problems(sampled, planted(sampled, edit)))


def test_non_tangent_vector_is_rejected(sampled):
    def edit(recs):
        recs[1]["tangent_basis"][0] = [t + 1e-3 * x for t, x in
                                       zip(recs[1]["tangent_basis"][0], recs[1]["xi"])]
    assert any("orthogonal" in p for p in sample_problems(sampled, planted(sampled, edit)))


def test_rank_deficient_basis_is_rejected(sampled):
    def edit(recs):
        recs[4]["tangent_basis"][1] = list(recs[4]["tangent_basis"][0])
    assert any("rank" in p for p in sample_problems(sampled, planted(sampled, edit)))


def test_missing_record_is_rejected(sampled):
    assert sample_problems(sampled, planted(sampled, lambda recs: recs.pop()))


def test_wrong_verdict_or_exit_is_rejected(sampled):
    report = dict(sampled[4], verdict="NotHUmbilical")
    assert classify_problems(sampled, report=report)
    assert classify_problems(sampled, code=4)
    report = copy.deepcopy(sampled[4])
    report["recovered"]["a"] += 1e-3
    assert any("(a, b)" in p for p in classify_problems(sampled, report=report))


@pytest.fixture(scope="module")
def verified():
    spec = jobs.corpus()[jobs.ROUND[0]]
    code, report = run_cli(jobs.argvs("oracles", spec)[0])
    return spec, code, report


def verify_problems(verified, report=None, a=None):
    spec, code, good = verified
    return checks.check_verify(code, report or good, spec["a"] if a is None else a, spec["b"])


def test_verify_output_passes(verified):
    assert verify_problems(verified) == []


def test_residual_above_tolerance_is_rejected(verified):
    report = copy.deepcopy(verified[2])
    result = report["results"][7]
    result["residual"] = 2.0 * result["tol"] + 1e-300
    assert any("above tolerance" in p for p in verify_problems(verified, report))
    report["results"][7]["residual"] = float("nan")
    assert any("above tolerance" in p for p in verify_problems(verified, report))


def test_missing_check_is_rejected(verified):
    report = copy.deepcopy(verified[2])
    del report["results"][4]
    assert any("missing" in p for p in verify_problems(verified, report))


def test_curvature_of_another_sphere_is_rejected(verified):
    assert any("missing" in p for p in verify_problems(verified, a=verified[0]["a"] + 0.5))


def test_failed_verify_is_rejected(verified):
    assert verify_problems(verified, dict(verified[2], passed=False))
    spec, _, report = verified
    assert checks.check_verify(1, report, spec["a"], spec["b"])
