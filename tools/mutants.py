"""Run the tests against one-line mutants of the library.

    python3 tools/mutants.py [LABEL ...]

Each entry of MUTANTS is (file, old text, new text, label): a sign or
convention error, a dropped check, or a tolerance or threshold moved by a
factor of 100.  The script exports the committed tree (`git archive HEAD`)
into a temporary directory, and for each mutant, in turn, replaces the one
occurrence of its old text, runs `python -m pytest -x tests` there against
that copy's src/ (all but tests/test_mutants.py, which reads the mutated
file), and restores the file.  A mutant is killed when the tests
fail, and the first failing test is printed; it survives when they pass.
Each mutant takes about as long as the test suite up to its first failure
(15 s for a survivor).  Given labels, only those mutants run.  The script
exits 0 when every mutant it ran was killed and 1 otherwise.

tests/test_mutants.py checks that each old text occurs exactly once in the
tree, so the list cannot drift from the code silently.
"""

import os
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = "src/nordenhs/"

MUTANTS = [
    # signs and conventions
    (SRC + "hypersurface.py", "return float(k.real), 0.0 - float(k.imag)",
     "return float(k.real), float(k.imag)", "mu sign in lambda_mu"),
    (SRC + "classify.py", "k = complex(lam, -mu)", "k = complex(lam, mu)",
     "conj(kappa) in reconstruct_sphere"),
    (SRC + "curvature.py", "return (p1 - p2) - 1j * p3", "return (p1 - p2) + 1j * p3",
     "pi3 sign in W"),
    (SRC + "classify.py", "lam * lam - mu * mu, -2.0 * lam * mu]",
     "lam * lam - mu * mu, 2.0 * lam * mu]", "nut sign in shape_invariants"),
    (SRC + "hypersurface.py", "return c1 * sample.A - c2 * (J_rep @ sample.A)",
     "return c1 * sample.A + c2 * (J_rep @ sample.A)", "J term of shape_operator_wrt"),
    (SRC + "curvature.py", "dual = coords * np.repeat([1.0, -1.0],",
     "dual = coords * np.repeat([1.0, 1.0],", "Ricci dual basis"),
    (SRC + "verify.py", "complex(lam * lam - mu * mu, -2.0 * lam * mu)",
     "complex(lam * lam - mu * mu, 2.0 * lam * mu)", "nut of the gauss oracle"),
    # dropped checks
    (SRC + "curvature.py", "    ok &= np.abs(det_q) ** 2 >= 1e-10 * scale ** 4\n", "",
     "is_totally_real without the transversality test"),
    (SRC + "classify.py", "if (dim := stack.points.shape[-1]) < 8:",
     "if (dim := stack.points.shape[-1]) < 6:", "classify dimension gate at 6"),
    # tolerances and thresholds x100 or /100
    (SRC + "hypersurface.py", "return 1e-5 * (np.sqrt(abs(complex(s.a, s.b))) + norm)",
     "return 1e-3 * (np.sqrt(abs(complex(s.a, s.b))) + norm)", "FD default step x100"),
    (SRC + "classify.py", "(nu, nut)))), tol * s * s)]", "(nu, nut)))), 100 * tol * s * s)]",
     "constancy gate x100"),
    (SRC + "classify.py", 'Check("umbilicity residual", float(np.max(devs)), tol * s)',
     'Check("umbilicity residual", float(np.max(devs)), 100 * tol * s)', "umbilicity gate x100"),
    (SRC + "classify.py", 'normal = Check("normal spread", spread, tol * float(',
     'normal = Check("normal spread", spread, 100 * tol * float(', "normal spread gate x100"),
    (SRC + "classify.py", "max(spread, 0.0), tol * radius)",
     "max(spread, 0.0), 100 * tol * radius)", "offset spread gate x100"),
    (SRC + "classify.py", "roundoff = 4 * np.finfo(float).eps",
     "roundoff = 400 * np.finfo(float).eps", "offset round-off x100"),
    (SRC + "classify.py", "roundoff = 4 * np.finfo(float).eps",
     "roundoff = 0.04 * np.finfo(float).eps", "offset round-off /100"),
    (SRC + "classify.py", "float(np.max(scaled_containment_residual(recovered, P))), tol))",
     "float(np.max(scaled_containment_residual(recovered, P))), 100 * tol))",
     "containment gate x100"),
    (SRC + "classify.py", "flat = kappa <= tol / radius",
     "flat = kappa <= 100 * tol / radius", "flatness rule x100"),
    (SRC + "hypersurface.py", "roundoff = 4 * np.finfo(float).eps",
     "roundoff = 400 * np.finfo(float).eps", "containment round-off x100"),
    (SRC + "hypersurface.py", "roundoff = 4 * np.finfo(float).eps",
     "roundoff = 0.04 * np.finfo(float).eps", "containment round-off /100"),
    (SRC + "hypersurface.py", "return scaled_containment_residual(s, p) <= 1e-8",
     "return scaled_containment_residual(s, p) <= 1e-6", "contains at 1e-6"),
    (SRC + "curvature.py", "PLANE_DEGENERACY_THRESHOLD = 1e-8",
     "PLANE_DEGENERACY_THRESHOLD = 1e-10", "PLANE_DEGENERACY_THRESHOLD /100"),
    (SRC + "curvature.py", "(r <= 1e-6 * a * b)", "(r <= 1e-4 * a * b)",
     "both h-symmetry gates of gauss_curvature_from_shape x100"),
    (SRC + "curvature.py", "if off(A @ J_rep - J_rep @ A, J_rep):",
     "if off(1e-2 * (A @ J_rep - J_rep @ A), J_rep):", "commutator gate x100"),
    (SRC + "curvature.py", "if off(Gt @ A - np.swapaxes(A, -1, -2) @ Gt, Gt):",
     "if off(1e-2 * (Gt @ A - np.swapaxes(A, -1, -2) @ Gt), Gt):", "self-adjointness gate x100"),
    (SRC + "core.py", "if r_comm > DEFAULT_TOL * s or r_sym > DEFAULT_TOL * s:",
     "if r_comm > 100 * DEFAULT_TOL * s or r_sym > 100 * DEFAULT_TOL * s:",
     "decompose h-symmetry gate x100"),
    (SRC + "core.py", "abs(evals[j] - evals[i]) <= 1e-8 * s:",
     "abs(evals[j] - evals[i]) <= 1e-6 * s:", "decompose grouping x100"),
    (SRC + "core.py", "if recon_err > 1e-8 * s:", "if recon_err > 1e-6 * s:",
     "decompose reconstruction gate x100"),
    (SRC + "hypersurface.py", "(off <= 1e-8 * np.max(np.abs(eta))",
     "(off <= 1e-6 * np.max(np.abs(eta))", "shape_operator_wrt normality x100"),
    (SRC + "hypersurface.py", "    tol = 1e-8\n    eta = np.asarray(eta, dtype=float)",
     "    tol = 1e-6\n    eta = np.asarray(eta, dtype=float)", "normalize_normal_frame tol x100"),
    (SRC + "verify.py", "(1e-5 if fd else 1e-9)", "(1e-5 if fd else 1e-7)",
     "verify curvature tolerance x100"),
    (SRC + "verify.py", 'Check("Gauss tensor equals space form", r_eq, 1e-9 * s)',
     'Check("Gauss tensor equals space form", r_eq, 1e-7 * s)', "verify gauss tolerance x100"),
    (SRC + "verify.py", "1e-8 / abs(complex(a, b)))]", "1e-6 / abs(complex(a, b)))]",
     "verify ricci tolerance x100"),
    (SRC + "verify.py", 'return [Check(f"Codazzi residual at h={step:g}", r_at, 1e-4 / c), order]',
     'return [Check(f"Codazzi residual at h={step:g}", r_at, 1e-2 / c), order]',
     "verify codazzi tolerance x100"),
    # the reader's guards around orjson
    (SRC + "jsonio.py", "        if copies == len(held):", "        if copies >= len(held):",
     "shared-A copies check == to >="),
    (SRC + "jsonio.py", 'if b"\\\\" in data or _depth(data) > _DEPTH:', "if _depth(data) > _DEPTH:",
     "texts with a backslash parsed by orjson"),
    (SRC + "jsonio.py", "return check(*_read(path, fast=False))", "return check(*_read(path))",
     "no stdlib retry after a FormatError"),
    (SRC + "jsonio.py", "_DEPTH = 64\n", "_DEPTH = 6400\n", "depth bound x100"),
    (SRC + "jsonio.py", """steps[np.logical_xor.accumulate(marks == ord('"'))] = 0""", "pass",
     "depth count with the brackets of strings"),
    # the writer's guards around orjson, which writes NaN as null
    (SRC + "jsonio.py", "    if not all(np.isfinite(f).all() for f in fields):\n"
     "        raise FormatError(\"non-finite number in output\")\n", "",
     "sample records written without the non-finite check"),
    (SRC + "jsonio.py", "        if not math.isfinite(x):\n"
     "            raise FormatError(f\"non-finite number {x!r} in output\")\n", "",
     "scalars written without the non-finite check"),
    (SRC + "jsonio.py", "bits = np.asarray(stack.A, dtype=float).reshape(n, -1).view(np.int64)",
     "bits = np.asarray(stack.A, dtype=float).reshape(n, -1)", "shared A tested by value"),
    (SRC + "hypersurface.py", "root = np.sqrt(complex(g, gt))", "root = np.sqrt(complex(g, 0.0))",
     "hyperplane normal divided by sqrt(g) only"),
    (SRC + "classify.py", "return make_hyperplane(xi_mean, _mean(ds), _mean(dts))",
     "return make_hyperplane(xi_mean, float(np.mean(ds)), float(np.mean(dts)))",
     "hyperplane offsets averaged unscaled"),
]

FAILED = re.compile(r"^FAILED (.+?)(?: - |$)", re.MULTILINE)


def _export(dest):
    """The files of HEAD, as git archive writes them, under dest."""
    data = subprocess.run(["git", "-C", ROOT, "archive", "HEAD"], check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run(tree, mutant):
    """(killed, first failing test or None, seconds) of one mutant applied in tree."""
    path, old, new, _ = mutant
    full = os.path.join(tree, path)
    with open(full) as f:
        text = f.read()
    if text.count(old) != 1:
        raise SystemExit(f"{path}: the old text of {mutant[3]!r} occurs {text.count(old)} times")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        with open(full, "w") as f:
            f.write(text.replace(old, new))
        # test_mutants.py reads the mutated file too: it would kill every mutant
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rf",
                               "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py",
                               "tests"],
                              cwd=tree, env=env, capture_output=True, text=True)
    finally:
        with open(full, "w") as f:
            f.write(text)
    first = FAILED.search(proc.stdout)
    return proc.returncode != 0, first.group(1) if first else None, time.perf_counter() - start


def main(argv=None):
    labels = sys.argv[1:] if argv is None else argv
    chosen = [m for m in MUTANTS if not labels or m[3] in labels]
    if unknown := set(labels) - {m[3] for m in MUTANTS}:
        raise SystemExit(f"unknown mutant labels: {sorted(unknown)}")
    survivors = 0
    with tempfile.TemporaryDirectory() as tree:
        _export(tree)
        for mutant in chosen:
            killed, first, seconds = run(tree, mutant)
            survivors += not killed
            verdict = f"killed by {first or 'an error outside a test'}" if killed else "survived"
            print(f"{mutant[3]}: {verdict} ({seconds:.0f} s)", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
