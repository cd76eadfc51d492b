"""JSON wire format: point-cloud files, sample files and reports.

Floats are written with 17 significant digits so files round-trip doubles
exactly and repeated runs are byte-identical.
"""

import functools
import json
import math
import os

import numpy as np

from .errors import FormatError
from .hypersurface import SampleStack

VERSION = 1


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if not math.isfinite(x):
            raise FormatError(f"non-finite number {x!r} in output")
        return format(float(x), ".17g")
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    raise FormatError(f"unsupported scalar {type(x)}")


@functools.lru_cache(maxsize=64)
def _array_template(shape, indent):
    """printf template of a float array of this shape, laid out as
    dumps_canonical lays out the equal nested lists."""
    if not shape[0]:
        return "[]"
    if len(shape) == 1:
        return "[" + ", ".join(["%.17g"] * shape[0]) + "]"
    row = "  " * (indent + 1) + _array_template(shape[1:], indent + 1)
    return "[\n" + ",\n".join([row] * shape[0]) + "\n" + "  " * indent + "]"


@functools.lru_cache(maxsize=256)
def _key(k):
    return json.dumps(str(k))


def _write(obj, indent, write):
    """Pass the canonical text of obj, in pieces, to write()."""
    pad = "  " * indent
    pad1 = "  " * (indent + 1)
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim:
        if not np.isfinite(obj).all():
            raise FormatError("non-finite number in output")
        write(_array_template(obj.shape, indent) % tuple(obj.ravel().tolist()))
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        sep = "{\n"
        for k, v in obj.items():
            write(f"{sep}{pad1}{_key(k)}: ")
            _write(v, indent + 1, write)
            sep = ",\n"
        write("\n" + pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if all(isinstance(v, (int, float, np.integer, np.floating)) and
               not isinstance(v, bool) for v in seq):
            write("[" + ", ".join(_fmt(v) for v in seq) + "]")
        else:
            sep = "[\n"
            for v in seq:
                write(sep + pad1)
                _write(v, indent + 1, write)
                sep = ",\n"
            write("\n" + pad + "]")
    else:
        write(_fmt(obj))


def dumps_canonical(obj, indent=0):
    """Deterministic JSON writer (17-significant-digit floats)."""
    parts = []
    _write(obj, indent, parts.append)
    return "".join(parts)


def write_json(path, obj):
    """Write the canonical text of obj and a newline, piece by piece; a
    document that cannot be written leaves no file behind."""
    try:
        with open(path, "w") as fh:
            _write(obj, 0, fh.write)
            fh.write("\n")
    except FormatError:
        os.remove(path)
        raise


def points_to_doc(m, points):
    return {
        "version": VERSION,
        "m": int(m),
        "kind": "points",
        "points": np.asarray(points, dtype=float).reshape(-1, 2 * m),
    }


def samples_to_doc(m, stack):
    """Sample document of a SampleStack."""
    recs = [
        {"point": p, "xi": xi, "tangent_basis": t, "A": A}
        for p, xi, t, A in zip(stack.points, stack.xi, stack.tangent_bases, stack.A)
    ]
    return {"version": VERSION, "m": int(m), "kind": "samples", "samples": recs}


def _require(cond, msg):
    if not cond:
        raise FormatError(msg)


def _reject_constant(name):
    raise FormatError(f"non-finite number {name} in input")


def _read(path):
    """Parse a UTF-8 JSON file; NaN and Infinity are rejected, and so are
    undecodable bytes and nesting too deep for the parser."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError, RecursionError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _floats(rows, shape, msg):
    """rows as a finite float array of shape (len(rows), *shape)."""
    try:
        arr = np.array(rows, dtype=float)
        if not rows:
            arr = arr.reshape((0, *shape))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{msg}: {exc}") from exc
    _require(arr.shape[1:] == shape, msg)
    _require(np.isfinite(arr).all(), "non-finite number in input")
    return arr


def load_pointcloud(path):
    """Read and validate a PointCloudFile; returns (m, kind, payload).

    kind "points" yields an (N, 2m) array; kind "samples" yields a
    SampleStack.
    """
    doc = _read(path)
    _require(isinstance(doc, dict), "top level must be an object")
    version, m = doc.get("version"), doc.get("m")
    # JSON true and false load as bool, a subclass of int
    _require(version == VERSION and not isinstance(version, bool),
             "unsupported or missing version")
    _require(isinstance(m, int) and not isinstance(m, bool) and m >= 1,
             "missing complex dimension m")
    kind = doc.get("kind")
    dim = 2 * m
    if kind == "points":
        pts = doc.get("points")
        _require(isinstance(pts, list), "missing points array")
        return m, kind, _floats(pts, (dim,), f"point length must be {dim}")
    if kind == "samples":
        recs = doc.get("samples")
        _require(isinstance(recs, list), "missing samples array")
        _require(recs, "empty samples array")
        shapes = {"point": (dim,), "xi": (dim,), "tangent_basis": (dim - 2, dim),
                  "A": (dim - 2, dim - 2)}
        _require(all(isinstance(r, dict) and shapes.keys() <= r.keys() for r in recs),
                 f"every sample must be an object with fields {', '.join(shapes)}")
        return m, kind, SampleStack(*(
            _floats([r[key] for r in recs], shape, f"{key} must have shape {shape}")
            for key, shape in shapes.items()
        ))
    raise FormatError(f"unknown kind {kind!r}")


def load_matrix(path):
    """Read a square matrix from JSON ({"matrix": [[...]]} or a bare array)."""
    doc = _read(path)
    raw = doc.get("matrix") if isinstance(doc, dict) else doc
    msg = "matrix must be square with even size"
    _require(isinstance(raw, list) and raw and len(raw) % 2 == 0, msg)
    return _floats(raw, (len(raw),), msg)
