"""Compare the CLI output of two nordenhs source trees on a fixed corpus.

    python3 tools/compare_outputs.py OLD_ROOT NEW_ROOT [--quick]

OLD_ROOT and NEW_ROOT are repository roots, each holding src/nordenhs.  The
package of each tree is imported in turn into this process, and every call
of the corpus runs through that tree's nordenhs.cli.main inside a fresh
temporary directory.  The file names are relative, so the reports of the two
trees name the same files.

Per call the script records the exit code, the stderr text and the sha256
of stdout and of each file the call writes.  For a `verify` report that
differs, it also gives the largest move of each residual.  For a JSON
stdout or file that differs, it gives the largest move of its numbers
relative to max(1, max |x|) over the old document, and the largest move
|x_new - x_old| / |x_old| of one number over the old numbers x_old != 0,
with that number's old and new value, when both documents have the same
structure (the text with every number, inside strings too, read as #), and
says so when they do not.  It prints one line per call that differs, then
a summary, and exits 0 when every call is identical and 1 otherwise.  --quick runs a small subset of the corpus.

The corpus:
- the round specs of each perfbench workload (perfbench/jobs.py), as the
  benchmark runs them;
- `sphere info` and `verify all` over m = 2..6 and six (a, b), and
  `verify umbilic` over m = 2..6 and seeds 1..20;
- `sample --with-frames`, with and without --fd, and `classify` of each file;
- (a, b) edge cases at extreme scales, among them `sphere info`, `sample
  --with-frames` with `classify`, and `verify curvature` at (1e30, -1e29),
  where mu is of the sign of b although lambda is about 1e-15;
- `sample --with-frames` with `classify` at (1e-10, 0), (1e-11, 0.5e-11) and
  (2e-12, -1e-12), where nu + i nut is of size 1e10 and above and the
  constancy gate is relative to it;
- `sample --with-frames` with `classify` at (1e10, 0) and (1e12, 0), large
  spheres with |kappa| of 1e-5 and 1e-6 whose route is set by the
  scale-free |kappa| R, not by |kappa| against a fixed threshold;
- sample files at (-1, 0) and (-1, -0.0), on the branch cut of sqrt(a + ib);
- `verify codazzi` at m = 4, |c| = 64, theta = 7 pi/4, seed 2, a case that
  fixed steps put near the order check's bound;
- `sample --with-frames --fd` with `classify` at (1, 0) and (0, -1), where
  the default FD step is 1e-5 (1 + |p - z0|), and at (1e-6, 0), where it
  is relative to the sphere, and `verify curvature --fd` at (1e-6, 0);
- `verify ricci` at (1e-8, 0), m = 5, and `verify sigma` at (-2e-12, 0),
  whose tolerances scale with 1/|c| and 1/sqrt|c|;
- `verify curvature --step 5` with and without --fd, which takes the step
  only with --fd;
- `sample --with-frames --fd` at (1e150, 0) and (1e-11, 0.5e-11), and
  points-only `sample` at (1e150, 0) and (1e-11, 0): numbers of size 1e75
  and 1e-6 and FD A entries far below them, with exponents of three digits,
  all through the writer's kernel; and `decompose` of an operator with the
  eigenvalue 1e-300 - 3·2^-24 i, whose arrays hold 1e-300, below the
  kernel's range, and 3·2^-24, a rounding tie: both go to format();
- `verify` calls whose flags are taken by some suites only, so the `params`
  echo lists the parameters each suite takes;
- hyperplane sample files, with unit and scaled normals;
- a file with an umbilicity defect of 1e-5, classified with and without --tol;
- verdicts that must not depend on the units of the samples: an umbilicity
  defect of 0.1 % of |kappa| on one sample at (1e8, 0) and (1e10, 0)
  (NotHUmbilical), one sample 0.1 % radially off the (1e-11, 5e-12) sphere
  (SamplesOffSurface), `classify --tol 1e-3` of a (1e8, 0) file, whose
  samples are not totally geodesic, and `classify` of a one-sample file
  (exit 4);
- a (3, 4) sphere file with every tangent basis scaled by 0.1 (A unchanged);
- a file merging two (3, 4) spheres with centres 0 and 5 e1, which no single
  sphere holds (SamplesOffSurface), and a hyperplane file whose records
  have two offsets;
- (3, 4) sphere files whose text is edited around the A that every record
  shares: another A in the first or the last record, a duplicate "A" key in
  either order, null outside the arrays, and a boolean inside the shared A;
- hyperplane files away from unit scale: one point 0.5 off a plane at
  d = 1e6, and one 1e-7 (2.8 % of R) off a plane of radius R = 3.5e-6
  (SamplesOffSurface: the offset spread is held against tol R); an honest
  plane at d = 1e12, whose offsets carry round-off far above tol R; and a
  plane whose points are of size 1e200 (no overflow warning on stderr);
- `decompose` of h-symmetric, non-h-symmetric, nilpotent and odd matrices,
  and of a complex-symmetric operator R D R^T with a threefold eigenvalue,
  R a product of complex Givens rotations, so that the eigenvectors of the
  repeated eigenvalue go through the bilinear Gram-Schmidt of a group;
  `decompose` of 1e-9 diag(1, 3, 2 - i, 5), whose eigenvalues are 1e-9 apart,
  and of 1e-12 times a random matrix (exit 2): the gates are relative to
  max|S|;
- inputs that exit 2, 3, 4 and 5, among them a negative --seed to `sample`,
  `verify all`, `verify frame` and `verify curvature`, `sample --fd` without
  --with-frames, and `sample --center-file` of a file with two points.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import re
import sys
import tempfile
from collections import Counter
from types import SimpleNamespace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import jobs  # noqa: E402

AB = [(3.0, 4.0), (1.0, 0.0), (0.0, 1.0), (-1.137, 1.885), (0.5, -2.25), (7.0, 0.0)]
NORMAL = (1.0, 0.3)  # leading entries of the hyperplane normals, padded with zeros
SCALES = (1e-3, 1.0, 1e10, 1e12, 1e100, 1e200)


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _numbers(data):
    """(sha256 of the structure, the numbers) of a JSON text, or None when it
    is not JSON.  The structure is the document with every number, inside
    strings too, read as #."""
    nums = []

    def walk(x):
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, list):
            return [walk(v) for v in x]
        if isinstance(x, str):
            nums.extend(NUMBER.findall(x))
            return NUMBER.sub("#", x)
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            nums.append(x)
            return "#"
        return x

    try:
        skeleton = json.dumps(walk(json.loads(data)))
        return _sha(skeleton.encode()), np.array(nums, dtype=float)
    except (ValueError, OverflowError, RecursionError):
        return None


def _text(name, text):
    """A step writing a fixed input file."""
    def write(lib):
        with open(name, "w") as f:
            f.write(text)
    return (f"write {name}", write, [])


def _real_form(C):
    """The real 2m x 2m form of a complex m x m operator, which commutes with J."""
    C = np.asarray(C, dtype=complex)
    return np.block([[C.real, -C.imag], [C.imag, C.real]])


def _givens(m, p, q, theta):
    """The complex-orthogonal rotation by the complex angle theta in the (p, q) plane."""
    R = np.eye(m, dtype=complex)
    R[p, p] = R[q, q] = np.cos(theta)
    R[p, q], R[q, p] = -np.sin(theta), np.sin(theta)
    return R


def _matrix(name, S):
    return _text(name, json.dumps({"matrix": np.asarray(S, dtype=float).tolist()}))


def _samples(name, m, stack_of):
    """A step writing the sample file of stack_of(lib) with the tree's own writer."""
    def write(lib):
        lib.jsonio.write_json(name, lib.jsonio.samples_to_doc(m, stack_of(lib)))
    return (f"write {name}", write, [name])


def _hyperplane(m, scale, count=30, seed=4, d=1.5):
    def stack_of(lib):
        xi = np.zeros(2 * m)
        xi[:2] = NORMAL
        st = lib.hypersurface.hyperplane_samples(
            lib.hypersurface.make_hyperplane(xi, d, 0.5), count, seed)
        return dataclasses.replace(st, xi=scale * st.xi)
    return stack_of


def _moved_plane(d, scale=1.0, shift=0.0):
    """stack_of: 12 samples of the m = 4 hyperplane of _hyperplane at offset
    d + 0.5 i, every point times scale, then sample 3 moved by shift along
    its g-unit normal."""
    def stack_of(lib):
        st = _hyperplane(4, 1.0, count=12, d=d)(lib)
        P = scale * st.points
        P[3] += shift * st.xi[3]
        return dataclasses.replace(st, points=P)
    return stack_of


def _sphere(a, b, count, seed, m=4, edit=None):
    def stack_of(lib):
        hs = lib.hypersurface
        st = hs.make_surface_samples(hs.make_h_sphere(np.zeros(2 * m), a, b), count, seed)
        return st if edit is None else edit(st)
    return stack_of


def _umbilicity_defect(st):
    # keeps tr A and tr(A o J): only the umbilicity residual moves
    return dataclasses.replace(st, A=st.A + np.kron(np.eye(2), np.diag([0.0, 1e-5, -1e-5])))


def _relative_defect(st):
    # 0.1 % of max|A| = |kappa| (b = 0) on sample 3; traces kept, as above
    A = st.A.copy()
    A[3] += 1e-3 * np.max(np.abs(A[3])) * np.kron(np.eye(2), np.diag([0.0, 1.0, -1.0]))
    return dataclasses.replace(st, A=A)


def _radially_off(st):
    # sample 3 moved 0.1 % away from the centre 0
    P = st.points.copy()
    P[3] *= 1.001
    return dataclasses.replace(st, points=P)


def _scaled_bases(st):
    # A in basis coordinates is unchanged when every basis vector is scaled alike
    return dataclasses.replace(st, tangent_bases=0.1 * st.tangent_bases)


def _shifted(st):
    # the samples of the same sphere with its centre moved to 5 e1
    return dataclasses.replace(st, points=st.points + 5.0 * np.eye(st.points.shape[-1])[0])


def _a_text(text):
    """The first '"A": value' text of a sample file."""
    start = text.index('"A": ')
    return text[start:json.JSONDecoder().raw_decode(text, start + 5)[1]]


def _moved(a):
    """'"A": value' text with the first entry of the value moved by 1e-3."""
    value = json.loads(a[5:])
    value[0][0] += 1e-3
    return '"A": ' + json.dumps(value)


# edits of a sample file's text t whose records all share the A text a
EDITS = {
    "a_first": lambda t, a: t.replace(a, _moved(a), 1),
    "a_last": lambda t, a: _moved(a).join(t.rsplit(a, 1)),
    "dup_a_moved_first": lambda t, a: t.replace(a, f"{_moved(a)}, {a}", 1),
    "dup_a_moved_last": lambda t, a: t.replace(a, f"{a}, {_moved(a)}", 1),
    "null_elsewhere": lambda t, a: t.replace('"version": 1', '"note": null, "version": 1')
                                    .replace('"point": ', '"label": null, "point": '),
    "bool_in_a": lambda t, a: t.replace(a, '"A": [[true' + a[a.index(","):]),
}


def _edited(name, edit):
    """A step writing a (3, 4) sphere file with the tree's own writer, its text edited."""
    def write(lib):
        st = _sphere(3.0, 4.0, 20, 5)(lib)
        text = lib.jsonio.dumps_canonical(lib.jsonio.samples_to_doc(4, st))
        with open(name, "w") as f:
            f.write(edit(text, _a_text(text)))
    return (f"write {name}", write, [name])


def _merged(*stacks_of):
    """stack_of concatenating the stacks of stacks_of, in order."""
    def stack_of(lib):
        stacks = [s(lib) for s in stacks_of]
        return type(stacks[0])(*map(np.concatenate, zip(*(vars(s).values() for s in stacks))))
    return stack_of


def _cli(*argv, out=None):
    argv = [str(x) for x in argv]
    return (" ".join(argv), argv, [out] if out else [])


def _sample_and_classify(name, *flags):
    return [_cli("sample", *flags, "--with-frames", "--out", name, out=name),
            _cli("classify", "--in", name)]


def _quick():
    return [
        _cli("sphere", "info", "--a", 3, "--b", 4),
        _cli("verify", "metrics", "--m", 3),
        *_sample_and_classify("q.json", "--a", 3, "--b", 4, "--count", 5),
        _samples("hq.json", 4, _hyperplane(4, 1.0, count=5)),
        _cli("classify", "--in", "hq.json"),
        _matrix("sj.json", _real_form(np.diag([0.4 - 0.2j] * 4))),
        _cli("decompose", "--in", "sj.json"),
        _cli("sphere", "info", "--a", 0, "--b", 0),
        _cli("classify", "--in", "missing.json"),
    ]


def _perfbench():
    steps, specs = [], jobs.corpus()
    for workload in jobs.WORKLOADS:
        for k in jobs.ROUND:
            center, out = f"c{k}.json", f"{workload}_{k}.json"
            steps.append(_text(center, jobs.center_doc(specs[k]["center"])))
            steps += [_cli(*argv, out=out if argv[0] == "sample" else None)
                      for argv in jobs.argvs(workload, specs[k], center, out)]
    return steps


def _spheres():
    steps = []
    for m in range(2, 7):
        for a, b in AB:
            steps.append(_cli("sphere", "info", "--a", a, "--b", b, "--m", m))
            steps.append(_cli("verify", "all", "--a", a, "--b", b, "--m", m, "--seed", m))
        steps += [_cli("verify", "umbilic", "--m", m, "--seed", seed) for seed in range(1, 21)]
    for m in range(3, 7):
        for a, b in AB[:4]:
            steps.append(_cli("sample", "--a", a, "--b", b, "--m", m, "--count", 7,
                              "--seed", m, "--with-frames"))
            for fd in ([], ["--fd"]):
                name = f"s{m}_{a}_{b}{'_fd' if fd else ''}.json"
                steps += _sample_and_classify(name, "--a", a, "--b", b, "--m", m,
                                              "--count", 25, "--seed", m, *fd)
    steps.append(_cli("sample", "--a", 3, "--b", 4, "--count", 10, "--seed", 1))
    return steps


def _edge_cases():
    return [
        _cli("verify", "codazzi", "--a", 1e4, "--b", 0),
        _cli("verify", "all", "--a", 1e150),
        _cli("verify", "curvature", "--a", 1e-11, "--b", 0),
        _cli("verify", "gauss", "--a", 1e-12, "--b", 1e-12),
        _cli("verify", "curvature", "--fd"),
        _cli("verify", "curvature", "--tol", 1e-30),
        _cli("verify", "codazzi", "--m", 6, "--step", 1e-3),
        _cli("verify", "all", "--m", 3, "--points", 3, "--planes", 4, "--step", 1e-3, "--fd",
             "--tol", 1e-4, "--seed", 2),
        _cli("verify", "metrics", "--a", 3, "--planes", 4, "--step", 0.5),
        _cli("verify", "codazzi", "--points", 3, "--step", 1e-3),
        *_sample_and_classify("e1.json", "--a", 1e-11, "--b", 0.5e-11, "--count", 50,
                              "--seed", 3),
        *_sample_and_classify("e4.json", "--a", 1e-10, "--b", 0, "--count", 50, "--seed", 3),
        *_sample_and_classify("e5.json", "--a", 2e-12, "--b=-1e-12", "--count", 50,
                              "--seed", 3),
        *_sample_and_classify("e2.json", "--a", 1e150, "--b", 0, "--count", 50, "--seed", 3),
        *_sample_and_classify("e6.json", "--a", 1e12, "--b", 0, "--count", 50, "--seed", 3),
        *_sample_and_classify("e7.json", "--a", 1e10, "--b", 0, "--count", 50, "--seed", 3),
        _cli("sphere", "info", "--a", 1e30, "--b=-1e29"),
        *_sample_and_classify("e3.json", "--a", 1e30, "--b=-1e29", "--count", 50, "--seed", 3),
        _cli("verify", "curvature", "--a", 1e30, "--b=-1e29"),
        _cli("sample", "--a=-1", "--b=0", "--count", 20, "--seed", 4, "--with-frames",
             "--out", "cut_plus.json", out="cut_plus.json"),
        _cli("sample", "--a=-1", "--b=-0.0", "--count", 20, "--seed", 4, "--with-frames",
             "--out", "cut_minus.json", out="cut_minus.json"),
        _cli("verify", "codazzi", f"--a={float(64 * np.cos(7 * np.pi / 4))!r}",
             f"--b={float(64 * np.sin(7 * np.pi / 4))!r}", "--seed", 2),
        *_sample_and_classify("fd1.json", "--a", 1, "--b", 0, "--count", 20, "--fd"),
        *_sample_and_classify("fd2.json", "--a", 0, "--b=-1", "--count", 20, "--fd"),
        *_sample_and_classify("fd3.json", "--a", 1e-6, "--b", 0, "--count", 20, "--fd"),
        _cli("verify", "curvature", "--fd", "--a", 1e-6, "--b", 0),
        _cli("verify", "ricci", "--a", 1e-8, "--b", 0, "--m", 5),
        _cli("verify", "sigma", "--a=-2e-12", "--b=0"),
        _cli("verify", "curvature", "--step", 5, "--points", 2, "--planes", 3),
        _cli("verify", "curvature", "--step", 5, "--points", 2, "--planes", 3, "--fd"),
        _cli("sample", "--a", 1e150, "--b", 0, "--count", 20, "--seed", 3, "--with-frames",
             "--fd", "--out", "w1.json", out="w1.json"),
        _cli("sample", "--a", 1e-11, "--b", 0.5e-11, "--count", 20, "--seed", 3,
             "--with-frames", "--fd", "--out", "w2.json", out="w2.json"),
        _cli("sample", "--a", 1e150, "--b", 0, "--count", 20, "--seed", 3,
             "--out", "w3.json", out="w3.json"),
        _cli("sample", "--a", 1e-11, "--b", 0, "--count", 20, "--seed", 3,
             "--out", "w4.json", out="w4.json"),
        _matrix("w5.json", _real_form(np.diag([1e-300 - 3 * 2.0**-24 * 1j] * 4))),
        _cli("decompose", "--in", "w5.json"),
    ]


def _files():
    steps = []
    for m in (3, 4, 6):
        for scale in SCALES:
            name = f"h{m}_{scale:g}.json"
            steps += [_samples(name, m, _hyperplane(m, scale)), _cli("classify", "--in", name)]
    steps += [
        _samples("defect.json", 4, _sphere(3.0, 4.0, 30, 2, edit=_umbilicity_defect)),
        _cli("classify", "--in", "defect.json"),
        _cli("classify", "--in", "defect.json", "--tol", 1e-4),
        _samples("defect_1e8.json", 4, _sphere(1e8, 0.0, 30, 2, edit=_relative_defect)),
        _cli("classify", "--in", "defect_1e8.json"),
        _samples("defect_1e10.json", 4, _sphere(1e10, 0.0, 30, 2, edit=_relative_defect)),
        _cli("classify", "--in", "defect_1e10.json"),
        _samples("off_small.json", 4, _sphere(1e-11, 5e-12, 30, 2, edit=_radially_off)),
        _cli("classify", "--in", "off_small.json"),
        *_sample_and_classify("e8.json", "--a", 1e8, "--b", 0, "--count", 50, "--seed", 3),
        _cli("classify", "--in", "e8.json", "--tol", 1e-3),
        *_sample_and_classify("one.json", "--a", 3, "--b", 4, "--count", 1),
        _samples("mixed.json", 4, _merged(_sphere(1.0, 0.0, 4, 0), _sphere(3.0, 4.0, 4, 0))),
        _cli("classify", "--in", "mixed.json"),
        _cli("classify", "--in", "mixed.json", "--tol", 0),
        _samples("scaled_bases.json", 4, _sphere(3.0, 4.0, 50, 3, edit=_scaled_bases)),
        _cli("classify", "--in", "scaled_bases.json"),
        _samples("two_centres.json", 4,
                 _merged(_sphere(3.0, 4.0, 4, 0), _sphere(3.0, 4.0, 4, 0, edit=_shifted))),
        _cli("classify", "--in", "two_centres.json"),
        _samples("two_offsets.json", 4,
                 _merged(_hyperplane(4, 1.0, count=5), _hyperplane(4, 1.0, count=5, d=2.5))),
        _cli("classify", "--in", "two_offsets.json"),
    ]
    planes = {
        "plane_far_off": _moved_plane(1e6, shift=0.5),
        "plane_small_off": _moved_plane(0.0, scale=1e-6, shift=1e-7),
        "plane_far": _moved_plane(1e12),
        "plane_huge": _moved_plane(1.5, scale=1e200),
    }
    for name, stack_of in planes.items():
        steps += [_samples(f"{name}.json", 4, stack_of), _cli("classify", "--in", f"{name}.json")]
    for name, edit in EDITS.items():
        steps += [_edited(f"{name}.json", edit), _cli("classify", "--in", f"{name}.json")]
    rng = np.random.default_rng(16)
    C = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    R = _givens(4, 0, 1, 0.7 + 0.3j) @ _givens(4, 1, 2, -0.4 + 0.9j) @ _givens(4, 2, 3, 1.1 - 0.2j)
    matrices = {
        "sj": _real_form(np.diag([0.4 - 0.2j] * 4)),
        "sym": _real_form(C + C.T),  # complex symmetric: h-symmetric
        "repeated": _real_form(R @ np.diag([0.4 - 0.2j] * 3 + [1.5 + 0.5j]) @ R.T),
        "nonsym": np.eye(8) + 0.5 * np.eye(8, k=1),
        "nilpotent": _real_form([[1.0, 1j], [1j, -1.0]]),
        "small_diag": _real_form(1e-9 * np.diag([1.0, 3.0, 2.0 - 1.0j, 5.0])),
        "small_random": 1e-12 * np.random.default_rng(30).standard_normal((8, 8)),
    }
    for name, S in matrices.items():
        steps += [_matrix(f"{name}.json", S), _cli("decompose", "--in", f"{name}.json")]
    steps += [_matrix("odd.json", np.eye(3)), _cli("decompose", "--in", "odd.json")]
    return steps


def _failures():
    points = json.dumps({"version": 1, "m": 4, "kind": "points", "points": [[0.0] * 8]})
    two_points = json.dumps({"version": 1, "m": 4, "kind": "points",
                             "points": [[0.0] * 8, [1.0] + [0.0] * 7]})
    return [
        _cli("sphere", "info", "--a", 0, "--b", 0),
        _cli("sphere", "info", "--a", 1e200, "--b", 0),
        _cli("sphere", "info", "--a", "nan", "--b", 1),
        _cli("sphere", "info", "--b", 1),
        _cli("sample", "--a", 3, "--b", 4, "--count", 0),
        _cli("sample", "--a", 3, "--b", 4, "--m", 0),
        _cli("sample", "--a", 1, "--b", 0, "--seed", -1),
        _cli("sample", "--a", 3, "--b", 4, "--count", 2, "--fd", "--out", "no_frames.json",
             out="no_frames.json"),
        _cli("verify", "all", "--seed", -1),
        _cli("verify", "frame", "--seed", -1),
        _cli("verify", "curvature", "--seed", -2000),
        _cli("verify", "curvature", "--m", 2),
        _cli("verify", "nope"),
        _cli("verify", "all", "--a", "inf"),
        _cli("verify", "codazzi", "--step", 0),
        _cli("classify", "--in", "q.json", "--tol", -1),
        _text("points.json", points),
        _text("bad.json", '{"version": 1, "m": 4, "kind": "samples", "samples": [}'),
        _cli("classify", "--in", "missing.json"),
        _cli("classify", "--in", "bad.json"),
        _cli("classify", "--in", "points.json"),
        _cli("decompose", "--in", "missing.json"),
        _cli("sample", "--a", 3, "--b", 4, "--center-file", "bad.json"),
        _text("two_points.json", two_points),
        _cli("sample", "--a", 3, "--b", 4, "--center-file", "two_points.json"),
        _cli("sample", "--a", 3, "--b", 4, "--out", "missing/x.json"),
    ]


def corpus(quick=False):
    """The steps, in order: (label, argv or a function of the tree, files written)."""
    if quick:
        return _quick()
    return _quick() + _perfbench() + _spheres() + _edge_cases() + _files() + _failures()


def _run(lib, label, action, files):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = action(lib) if callable(action) else lib.cli.main(action)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    texts = {"stdout": out.getvalue().encode()}
    for name in files:
        with contextlib.suppress(OSError), open(name, "rb") as f:
            texts[name] = f.read()
    rec = {"exit": code, "stderr": err.getvalue().strip()}
    for key, data in texts.items():
        rec[key], rec["_numbers " + key] = _sha(data), _numbers(data)
    if label.startswith("verify") and code in (0, 1):
        rec["_residuals"] = {c["name"]: c["residual"] for c in json.loads(out.getvalue())["results"]}
    return rec


def run_tree(root, steps):
    """The record of every step run against the tree at root."""
    def ours():
        return [k for k in sys.modules if k == "nordenhs" or k.startswith("nordenhs.")]

    saved = {k: sys.modules.pop(k) for k in ours()}
    src, cwd = os.path.join(os.path.abspath(root), "src"), os.getcwd()
    sys.path.insert(0, src)
    try:
        lib = SimpleNamespace(**{name: importlib.import_module(f"nordenhs.{name}")
                                 for name in ("cli", "jsonio", "hypersurface")})
        if not lib.cli.__file__.startswith(src):
            raise RuntimeError(f"nordenhs imported from {lib.cli.__file__}, not {src}")
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            return [_run(lib, *step) for step in steps]
    finally:
        os.chdir(cwd)
        sys.path.remove(src)
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


def _compared(rec):
    """The fields of a record that must match: all but the _residuals and
    _numbers details."""
    return {k: v for k, v in rec.items() if k[0] != "_"}


def differences(steps, old, new):
    """(label, old record, new record) of every step whose records differ."""
    return [(label, a, b) for (label, _, _), a, b in zip(steps, old, new)
            if _compared(a) != _compared(b)]


def _describe(label, a, b):
    parts = []
    a_, b_ = _compared(a), _compared(b)
    for key in a_.keys() | b_.keys():
        x, y = a_.get(key), b_.get(key)
        if x == y:
            continue
        if key not in ("exit", "stderr"):  # a sha256: its first 12 digits
            x, y = (v[:12] if isinstance(v, str) else v for v in (x, y))
            na, nb = a.get("_numbers " + key), b.get("_numbers " + key)
            if na and nb and na[0] == nb[0]:
                old, new = na[1], nb[1]
                nonzero = np.flatnonzero(old)
                with np.errstate(invalid="ignore", over="ignore"):
                    moves = np.abs(new - old)
                    each = moves[nonzero] / np.abs(old[nonzero])
                scale = max(1.0, float(np.max(np.abs(old), initial=0.0)))
                parts.append(f"{key} numbers moved by up to "
                             f"{np.max(moves, initial=0.0) / scale:.3e} relative, "
                             f"by up to {np.max(each, initial=0.0):.3e} per number")
                if nonzero.size:
                    # its values tell a round-off move of a zero from a
                    # change of a number of size 1
                    i = nonzero[np.argmax(each)]
                    parts[-1] += f" ({float(old[i])!r} -> {float(new[i])!r})"
            elif na and nb:
                parts.append(f"{key} structure differs")
        parts.append(f"{key}: {x!r} -> {y!r}")
    ra, rb = a.get("_residuals", {}), b.get("_residuals", {})
    for name in ra.keys() & rb.keys():
        if ra[name] != rb[name]:
            parts.append(f"residual {name!r} moved by {abs(ra[name] - rb[name]):.3e}")
    return f"DIFF {label}: " + "; ".join(sorted(parts))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--quick", action="store_true", help="run a small subset of the corpus")
    args = ap.parse_args(argv)
    steps = corpus(args.quick)
    old, new = run_tree(args.old, steps), run_tree(args.new, steps)
    diffs = differences(steps, old, new)
    for diff in diffs:
        print(_describe(*diff))
    codes = Counter(str(r["exit"]) for (label, _, _), r in zip(steps, old)
                    if not label.startswith("write "))
    print(f"{len(steps)} steps ({sum(codes.values())} CLI calls; old exit codes "
          f"{dict(sorted(codes.items()))}): {len(steps) - len(diffs)} identical, "
          f"{len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
