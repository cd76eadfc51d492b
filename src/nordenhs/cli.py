"""Command-line interface with JSON reports on stdout.

Exit codes: 0 success / all checks pass; 1 verification failure;
2 invalid parameters; 3 I/O or malformed file; 4 negative classification
or non-diagonalizable input; 5 dimension too small.

The commands return 0, 1, 4 or 5 from their results and raise on every
failure; `main` alone turns a failure into one stderr line and its code:
a flag out of range is 2, a FormatError or OSError 3, NotHDiagonalizable
4, and any other library error 2, except under `classify`, where it is a
negative classification (4).
"""

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__, jsonio, verify
from .classify import (
    VERDICT_DIM_TOO_SMALL,
    VERDICT_HYPERPLANE,
    VERDICT_SPHERE,
    classify,
)
from .core import h_proper_decomposition
from .errors import FormatError, NordenError, NotHDiagonalizable
from .hypersurface import (
    lambda_mu,
    make_h_sphere,
    make_surface_samples,
    sample,
    theoretical_curvatures,
)


# written into every report (not into point or sample documents)
VERSIONS = {"version": __version__, "numpy": np.__version__}


def _emit(doc):
    sys.stdout.write(jsonio.dumps_canonical(doc))
    sys.stdout.write("\n")


def _err(msg):
    sys.stderr.write(f"nordenhs: {msg}\n")


def cmd_sphere_info(args):
    sph = make_h_sphere(np.zeros(2 * args.m), args.a, args.b)
    nu = theoretical_curvatures(sph)
    lam, mu = lambda_mu(sph)
    _emit(
        {
            "command": "sphere info",
            **VERSIONS,
            "a": sph.a,
            "b": sph.b,
            "m": args.m,
            "nu": nu.real,
            "nut": nu.imag,
            "lambda": lam,
            "mu": mu,
            "gHH": nu.real,
            "gtHH": nu.imag,
        }
    )
    return 0


def cmd_sample(args):
    if args.fd and not args.with_frames:
        raise NordenError("--fd needs --with-frames: points carry no shape operator")
    center = np.zeros(2 * args.m)
    if args.center_file:
        m, kind, pts = jsonio.load_pointcloud(args.center_file)
        if kind != "points" or len(pts) != 1 or m != args.m:
            raise FormatError("center file must hold exactly one point")
        center = pts[0]
    sph = make_h_sphere(center, args.a, args.b)
    if args.with_frames:
        samples = make_surface_samples(sph, args.count, args.seed, fd=args.fd)
        doc = jsonio.samples_to_doc(args.m, samples)
    else:
        doc = jsonio.points_to_doc(args.m, sample(sph, args.count, args.seed))
    if not args.out:
        _emit(doc)
        return 0
    jsonio.write_json(args.out, doc)
    _emit(
        {
            "command": "sample",
            **VERSIONS,
            "a": sph.a,
            "b": sph.b,
            "m": args.m,
            "count": args.count,
            "seed": args.seed,
            "with_frames": bool(args.with_frames),
            "fd": bool(args.fd),
            "out": args.out,
        }
    )
    return 0


def cmd_verify(args):
    if args.suite == "curvature" and args.step is not None and not args.fd:
        raise NordenError("--step needs --fd: verify curvature runs no FD step without it")
    # the parameters of the run's suites: none for an unknown suite, which run_suite rejects
    taken = set().union(*(p for k, p in verify.SUITE_PARAMS.items() if args.suite in (k, "all")))
    unused = [f"--{k}" for k, v in vars(args).items() if v is not None and v is not False
              and k not in taken and any(k in p for p in verify.SUITE_PARAMS.values())]
    if taken and unused:
        raise NordenError(f"no suite of verify {args.suite} takes {', '.join(unused)}")
    checks, applied = verify.run_suite(args.suite, **vars(args))
    results = [{"name": c.name, "residual": c.residual, "tol": c.tol, "passed": c.passed}
               for c in checks]
    ok = all(c.passed for c in checks)
    _emit(
        {
            "command": f"verify {args.suite}",
            **VERSIONS,
            "seed": args.seed,
            "params": applied,
            "results": results,
            "passed": ok,
        }
    )
    if not ok:
        first = next(c for c in checks if not c.passed)
        _err(f"first failing invariant: {first.name} "
             f"(residual {first.residual:.3e} > tol {first.tol:.3e})")
        return 1
    return 0


def cmd_classify(args):
    _, kind, samples = jsonio.load_pointcloud(args.input)
    if kind != "samples":
        raise FormatError('classification requires kind="samples"')
    result = classify(samples, args.tol)

    def _opt(name):
        # a gate's residual is NaN until the gate runs
        x = result.residual(name)
        return float(x) if np.isfinite(x) else None

    doc = {
        "command": "classify",
        **VERSIONS,
        "input": args.input,
        "verdict": result.verdict,
        "constancy_spread": _opt("constancy spread"),
        "umbilicity_residual": _opt("umbilicity residual"),
        "containment_residual": _opt("containment residual"),
        "totally_geodesic": result.totally_geodesic,
        "notes": list(result.notes),
    }
    rec = result.recovered
    if result.verdict == VERDICT_SPHERE:
        doc["recovered"] = {
            "kind": "h-sphere",
            "center": list(map(float, rec.center)),
            "a": rec.a,
            "b": rec.b,
        }
    elif result.verdict == VERDICT_HYPERPLANE:
        doc["recovered"] = {
            "kind": "hyperplane",
            "xi": list(map(float, rec.xi)),
            "d": rec.d,
            "dt": rec.dt,
        }
    _emit(doc)
    if result.verdict in (VERDICT_SPHERE, VERDICT_HYPERPLANE):
        return 0
    if result.verdict == VERDICT_DIM_TOO_SMALL:
        return 5
    return 4


def cmd_decompose(args):
    dec = h_proper_decomposition(jsonio.load_matrix(args.input))
    _emit({"command": "decompose", **VERSIONS, "pairs": [[lam, mu] for lam, mu in dec.pairs],
           "basis": [list(map(float, x)) for x in dec.basis]})
    return 0


@functools.cache
def build_parser():
    """The parser of every command, built once per process: parse_args leaves
    it unchanged and gives each call a new Namespace."""
    ap = argparse.ArgumentParser(
        prog="nordenhs",
        description="h-spheres and holomorphic hyperplanes of flat "
        "Kahler-Norden space: construction, verification, classification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sphere = sub.add_parser("sphere", help="h-sphere queries")
    sphere_sub = sphere.add_subparsers(dest="subcommand", required=True)
    info = sphere_sub.add_parser("info", help="curvatures and frame data")
    info.add_argument("--a", type=float, required=True)
    info.add_argument("--b", type=float, required=True)
    info.add_argument("--m", type=int, default=4)
    info.set_defaults(fn=cmd_sphere_info)

    smp = sub.add_parser("sample", help="sample points or full records")
    smp.add_argument("--a", type=float, required=True)
    smp.add_argument("--b", type=float, required=True)
    smp.add_argument("--m", type=int, default=4)
    smp.add_argument("--count", type=int, default=20)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--center-file", default=None)
    smp.add_argument("--with-frames", action="store_true")
    smp.add_argument("--fd", action="store_true",
                     help="finite-difference shape operator")
    smp.add_argument("--out", default=None)
    smp.set_defaults(fn=cmd_sample)

    ver = sub.add_parser("verify", help="run a numerical invariant suite")
    ver.add_argument("suite", help="metrics|frame|curvature|gauss|sigma|"
                     "ricci|codazzi|umbilic|all")
    ver.add_argument("--a", type=float, default=None)
    ver.add_argument("--b", type=float, default=None)
    ver.add_argument("--m", type=int, default=None)
    ver.add_argument("--points", type=int, default=None)
    ver.add_argument("--planes", type=int, default=None)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--step", type=float, default=None)
    ver.add_argument("--tol", type=float, default=None)
    ver.add_argument("--fd", action="store_true")
    ver.set_defaults(fn=cmd_verify)

    cls = sub.add_parser("classify", help="classify a sample file")
    cls.add_argument("--in", dest="input", required=True)
    cls.add_argument("--tol", type=float, default=1e-6,
                     help="tolerance of every classify gate")
    cls.set_defaults(fn=cmd_classify)

    dec = sub.add_parser("decompose", help="adapted eigen-decomposition")
    dec.add_argument("--in", dest="input", required=True)
    dec.set_defaults(fn=cmd_decompose)
    return ap


# each flag's range, checked wherever the subcommand has the flag and it is given
RANGES = (
    ("tol", lambda x: math.isfinite(x) and x >= 0, "must be finite and >= 0"),
    ("step", lambda x: math.isfinite(x) and x > 0, "must be finite and > 0"),
    ("count", lambda x: x >= 1, "must be at least 1"),
    ("m", lambda x: x >= 1, "must be at least 1"),
    ("seed", lambda x: x >= 0, "must be at least 0"),
)

# exit code of a library error that is neither a FormatError nor
# NotHDiagonalizable: invalid parameters, or a negative classification
LIBRARY_ERROR_EXIT = {"classify": 4}


def _range_error(args):
    """The message for the first flag given out of its range, or None."""
    for flag, ok, rule in RANGES:
        x = getattr(args, flag, None)
        if x is not None and not ok(x):
            return f"--{flag} {rule}, got {x!r}"
    return None


def main(argv=None):
    args = build_parser().parse_args(argv)
    msg = _range_error(args)
    if msg:
        _err(msg)
        return 2
    try:
        return args.fn(args)
    except (FormatError, OSError) as exc:
        code, msg = 3, str(exc)
    except NotHDiagonalizable as exc:
        code, msg = 4, str(exc)
    except NordenError as exc:
        code, msg = LIBRARY_ERROR_EXIT.get(args.command, 2), str(exc)
    _err(msg)
    return code
