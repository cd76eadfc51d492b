"""Command-line interface with JSON reports on stdout.

Exit codes: 0 success / all checks pass; 1 verification failure;
2 invalid parameters; 3 I/O or malformed file; 4 negative classification
or non-diagonalizable input; 5 dimension too small.
"""

import argparse
import sys

import numpy as np

from . import __version__, jsonio, verify
from .classify import (
    SampleSet,
    Tolerances,
    VERDICT_DIM_TOO_SMALL,
    VERDICT_HYPERPLANE,
    VERDICT_SPHERE,
    classify,
)
from .core import NordenSpace, h_proper_decomposition
from .errors import (
    FormatError,
    NordenError,
    NotHDiagonalizable,
    NotHSymmetric,
)
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
    try:
        sph = make_h_sphere(np.zeros(2 * args.m), args.a, args.b)
    except NordenError as exc:
        _err(str(exc))
        return 2
    params = theoretical_curvatures(sph)
    lam, mu = lambda_mu(sph)
    _emit(
        {
            "command": "sphere info",
            **VERSIONS,
            "a": sph.a,
            "b": sph.b,
            "m": args.m,
            "nu": params.nu,
            "nut": params.nut,
            "lambda": lam,
            "mu": mu,
            "gHH": params.nu,
            "gtHH": params.nut,
        }
    )
    return 0


def cmd_sample(args):
    if args.count < 1:
        _err(f"--count must be at least 1, got {args.count}")
        return 2
    try:
        center = np.zeros(2 * args.m)
        if args.center_file:
            m, kind, pts = jsonio.load_pointcloud(args.center_file)
            if kind != "points" or len(pts) != 1 or m != args.m:
                raise FormatError("center file must hold exactly one point")
            center = pts[0]
        sph = make_h_sphere(center, args.a, args.b)
    except FormatError as exc:
        _err(str(exc))
        return 3
    except NordenError as exc:
        _err(str(exc))
        return 2
    try:
        if args.with_frames:
            samples = make_surface_samples(
                sph, args.count, args.seed, fd=args.fd
            )
            doc = jsonio.samples_to_doc(args.m, samples)
        else:
            pts = sample(sph, args.count, args.seed)
            doc = jsonio.points_to_doc(args.m, pts)
        if args.out:
            jsonio.write_json(args.out, doc)
        else:
            _emit(doc)
    except OSError as exc:
        _err(str(exc))
        return 3
    except NordenError as exc:
        _err(str(exc))
        return 2
    report = {
        "command": "sample",
        **VERSIONS,
        "a": sph.a,
        "b": sph.b,
        "m": args.m,
        "count": args.count,
        "seed": args.seed,
        "with_frames": bool(args.with_frames),
        "fd": bool(args.fd),
        "out": args.out or "",
    }
    if args.out:
        _emit(report)
    return 0


def cmd_verify(args):
    params = dict(
        a=args.a,
        b=args.b,
        m=args.m,
        points=args.points,
        planes=args.planes,
        seed=args.seed,
        step=args.step,
        tol=args.tol,
        fd=args.fd,
    )
    try:
        checks = verify.run_suite(args.suite, **params)
    except (KeyError, NordenError) as exc:
        _err(str(exc))
        return 2
    results = [
        {
            "name": c.name,
            "residual": c.residual,
            "tol": c.tol,
            "passed": c.passed,
        }
        for c in checks
    ]
    ok = all(c.passed for c in checks)
    _emit(
        {
            "command": f"verify {args.suite}",
            **VERSIONS,
            "seed": args.seed,
            "params": verify.applied_params(args.suite, params),
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
    try:
        m, kind, samples = jsonio.load_pointcloud(args.input)
        if kind != "samples":
            raise FormatError('classification requires kind="samples"')
    except FormatError as exc:
        _err(str(exc))
        return 3
    tols = Tolerances(
        constancy=args.tol,
        umbilicity=args.tol,
        containment=args.tol,
        normal_spread=args.tol,
    ) if args.tol is not None else Tolerances()
    try:
        result = classify(
            SampleSet(space=NordenSpace(m), samples=samples, provenance=args.input),
            tols,
        )
    except NordenError as exc:
        _err(str(exc))
        return 4
    def _opt(x):
        # residual fields are NaN until the corresponding stage runs
        return float(x) if np.isfinite(x) else None

    doc = {
        "command": "classify",
        **VERSIONS,
        "input": args.input,
        "verdict": result.verdict,
        "constancy_spread": _opt(result.constancy_spread),
        "umbilicity_residual": _opt(result.umbilicity_residual),
        "containment_residual": _opt(result.containment_residual),
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
    try:
        S = jsonio.load_matrix(args.input)
    except FormatError as exc:
        _err(str(exc))
        return 3
    try:
        dec = h_proper_decomposition(S)
    except NotHSymmetric as exc:
        _err(str(exc))
        return 2
    except NotHDiagonalizable as exc:
        _err(str(exc))
        return 4
    _emit(
        {
            "command": "decompose",
            **VERSIONS,
            "pairs": [[lam, mu] for lam, mu in dec.pairs],
            "basis": [list(map(float, x)) for x in dec.basis],
        }
    )
    return 0


def build_parser():
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
    cls.add_argument("--tol", type=float, default=None)
    cls.set_defaults(fn=cmd_classify)

    dec = sub.add_parser("decompose", help="adapted eigen-decomposition")
    dec.add_argument("--in", dest="input", required=True)
    dec.set_defaults(fn=cmd_decompose)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
