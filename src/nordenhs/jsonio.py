"""JSON wire format: point-cloud files, sample files and reports.

Every float is written as orjson writes it, the shortest text that reads
back as the same double (-0.0 keeps its sign, 3.0 its point), so repeated
runs are byte-identical; a scalar, a list and an array row spell a number
alike.  A float array is one orjson pass whose rows fill a cached template,
a line per row.  A sample document is written in blocks of records, each
block one pass, and an A equal in every record bit for bit is formatted
once.  orjson writes NaN as null, so a non-finite number is rejected before
anything is written.  orjson is imported on the first float written or file
read.  The reader parses with orjson, and a repeated A text once; a text with
a backslash or nested beyond _DEPTH, and any file that fails a check, are
read by json, so that arrays and errors are json's.  Numeric arrays read
from a file must hold JSON numbers, not strings or booleans.  A reader runs
with the cyclic garbage collector paused, from the parse until the parsed
document is freed: that document holds no reference cycles, and reference
counting frees it.
"""

import contextlib
import functools
import gc
import json
import math
import operator
import os

import numpy as np

from .errors import FormatError
from .hypersurface import SampleStack

VERSION = 1

# keys of a sample record, in the order of the SampleStack fields they hold
SAMPLE_KEYS = ("point", "xi", "tangent_basis", "A")

# records per block of a written sample document; 256 was no faster and
# raised the peak RSS of a sample-then-classify process
BLOCK = 64


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if not math.isfinite(x):
            raise FormatError(f"non-finite number {x!r} in output")
        import orjson  # the first float written or file read loads it

        return orjson.dumps(float(x)).decode()
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    raise FormatError(f"unsupported scalar {type(x)}")


def _lines(x):
    """The rows along the last axis of the finite float array x, each the
    text of its numbers joined by ", "."""
    if not x.size:
        return []
    import orjson

    rows = np.ascontiguousarray(x, dtype=np.float64).reshape(-1, x.shape[-1])
    text = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]
    return text.replace(b",", b", ").decode().split("], [")


@functools.lru_cache(maxsize=64)
def _array_template(shape, indent):
    """Template of a float array of this shape, laid out as dumps_canonical
    lays out the equal nested lists, with a %s for the text of each row."""
    if not shape[0]:
        return "[]"
    if len(shape) == 1:
        return "[%s]"
    row = "  " * (indent + 1) + _array_template(shape[1:], indent + 1)
    return "[\n" + ",\n".join([row] * shape[0]) + "\n" + "  " * indent + "]"


def _array_text(arr, indent):
    """The canonical text of a float array of finite numbers."""
    return _array_template(arr.shape, indent) % tuple(_lines(arr))


@functools.lru_cache(maxsize=256)
def _key(k):
    return json.dumps(str(k))


@functools.lru_cache(maxsize=8)
def _records_plan(shapes, count, indent, shared):
    """(template, get) of `count` records laid out as by _write, less the
    brackets.  get picks the template's values from the rows of a block's
    points, xi and bases, record by record, then the rows of its A's, or
    A's text if shared."""
    pad, pad1 = "  " * indent, "  " * (indent + 1)
    arrays = [_array_template(s, indent + 1) for s in shapes]
    if shared:
        arrays[3] = "%s"
    fields = ",\n".join(f"{pad1}{_key(k)}: {a}" for k, a in zip(SAMPLE_KEYS, arrays))
    size = 2 + shapes[2][0]  # lines of a record's point, xi and basis
    k = 1 if shared else shapes[3][0]  # A's text, or its lines after every record's
    rec = np.arange(count)[:, None]
    order = np.concatenate([size * rec + np.arange(size),
                            count * size + (0 if shared else k) * rec + np.arange(k)], 1)
    return ((",\n" + pad).join(["{\n" + fields + "\n" + pad + "}"] * count),
            operator.itemgetter(*order.ravel().tolist()))


def _write_records(stack, indent, write):
    """Pass the canonical text of the SampleStack's list of records, block by
    block, to write(); a non-finite number raises before anything is passed."""
    fields = (stack.points, stack.xi, stack.tangent_bases, stack.A)
    if not all(np.isfinite(f).all() for f in fields):
        raise FormatError("non-finite number in output")
    if not (n := len(stack)):
        write("[]")
        return
    shapes = tuple(f.shape[1:] for f in fields)
    bits = np.asarray(stack.A, dtype=float).reshape(n, -1).view(np.int64)
    shared = bool((bits == bits[0]).all())
    a_text = [_array_text(stack.A[0], indent + 2)]
    pad1, sep = "  " * (indent + 1), "[\n"
    for start in range(0, n, BLOCK):
        block = [f[start:start + BLOCK] for f in fields]
        template, get = _records_plan(shapes, len(block[0]), indent + 1, shared)
        rows = np.concatenate([f.reshape(len(f), -1, shapes[0][0]) for f in block[:3]], axis=1)
        write(sep + pad1 + template % get(_lines(rows) + (a_text if shared else _lines(block[3]))))
        sep = ",\n"
    write("\n" + "  " * indent + "]")


def _write(obj, indent, write):
    """Pass the canonical text of obj, in pieces, to write()."""
    pad, pad1 = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, np.ndarray) and not obj.ndim:  # a 0-d array is its scalar
        obj = obj.item()
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        if not np.isfinite(obj).all():
            raise FormatError("non-finite number in output")
        write(_array_text(obj, indent))
    elif isinstance(obj, SampleStack):
        _write_records(obj, indent, write)
    elif isinstance(obj, dict):
        sep = "{\n"
        for k, v in obj.items():
            write(f"{sep}{pad1}{_key(k)}: ")
            _write(v, indent + 1, write)
            sep = ",\n"
        write("\n" + pad + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else [
            v.item() if isinstance(v, np.ndarray) and not v.ndim else v for v in obj]
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


def dumps_canonical(obj):
    """Deterministic JSON writer (shortest round-trip floats)."""
    parts = []
    _write(obj, 0, parts.append)
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
    """Sample document of a SampleStack; the stack is written as the list of
    its records."""
    return {"version": VERSION, "m": int(m), "kind": "samples", "samples": stack}


def _require(cond, msg):
    if not cond:
        raise FormatError(msg)


def _reject_constant(name):
    raise FormatError(f"non-finite number {name} in input")


# orjson's recursive conversion overflows the C stack: deeper texts go to json
_DEPTH = 64
_NOT_MARKS = bytes(range(256)).translate(None, b'"[]{}')  # deleted by _depth
_STEPS = np.zeros(256, np.int8)  # +1 at an opening bracket, -1 at a closing one
_STEPS[list(b"[{")], _STEPS[list(b"]}")] = 1, -1
_NUL_A = b'"A": "\\u0000"'


def _depth(data):
    """The nesting depth of the JSON text data, which has no backslash, exact up
    to its first syntax error: a bracket after an odd number of quotes is in a
    string, and dropping two adjacent quotes keeps that parity."""
    marks = np.frombuffer(data.translate(None, _NOT_MARKS).replace(b'""', b""), np.uint8)
    steps = _STEPS.take(marks)
    steps[np.logical_xor.accumulate(marks == ord('"'))] = 0  # in a string
    return int(np.cumsum(steps, dtype=np.int32).max(initial=0))


def _first_a(data):
    """(text, value) of the first '"A": value' of the JSON text data, if that text
    is longer than _NUL_A and the next '"A": ' starts with it.  json parses the
    value from the bytes up to that one, which must be ASCII: characters are bytes."""
    start = data.find(b'"A": ') + 5
    if (nxt := data.find(b'"A": ', start)) > 0:
        with contextlib.suppress(ValueError):
            value, end = json.JSONDecoder(parse_constant=_reject_constant).raw_decode(
                data[start:nxt].decode("ascii"))
            if len(a := data[start - 5:start + end]) > len(_NUL_A) and data.startswith(a, nxt):
                return a, value


def _fast_read(path):
    """(document, quotes) of the JSON file at path by orjson; FormatError for a text
    with a backslash or nested beyond _DEPTH.  Each copy of _first_a's text is read
    as "\\u0000", which a text without a backslash cannot hold otherwise, then as its
    value if every copy is a record's A.  quotes is the count of '"', or None when
    the file has a "u" or an "f", as every true and every false has."""
    import orjson

    with open(path, "rb") as fh:
        data = fh.read()
    quotes = None if b"u" in data or b"f" in data else data.count(b'"')
    if b"\\" in data or _depth(data) > _DEPTH:
        raise FormatError("for the stdlib parse")
    if first := _first_a(data):
        a, value = first
        size, data = len(data), data.replace(a, _NUL_A)  # the file's bytes are freed
        copies = (size - len(data)) // (len(a) - len(_NUL_A))
        doc = orjson.loads(data)
        recs = doc.get("samples") if isinstance(doc, dict) else None
        recs = recs if isinstance(recs, list) else ()
        held = [r for r in recs if isinstance(r, dict) and r.get("A") == "\0"]
        if copies == len(held):
            for r in held:
                r["A"] = value
            return doc, quotes
        data = data.replace(_NUL_A, a)  # each "\\u0000" is a copy: the file's bytes
    return orjson.loads(data), quotes


def _read(path, fast=True):
    """(document, quotes) of a UTF-8 JSON file by _fast_read, or by json with quotes
    None; NaN, Infinity, undecodable bytes and too deep a nesting are rejected."""
    try:
        if fast:
            return _fast_read(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return json.loads(text, parse_constant=_reject_constant), None
    except (OSError, ValueError, RecursionError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _load(path, check):
    """check(document, quotes) of the fast read of path, or after any FormatError of
    json's, with the cyclic collector paused: the parse makes no reference cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with contextlib.suppress(FormatError):
            return check(*_read(path))
        return check(*_read(path, fast=False))
    finally:
        if enabled:
            gc.enable()


def _numbers_only(quotes, doc, records=()):
    """True when the quote count of _read shows that no array holds a string
    or a boolean: each string has two quotes, and the keys of doc and of the
    records and doc's string values are strings outside the arrays.  False
    means only that the arrays must be checked entry by entry."""
    strings = (len(doc) + sum(isinstance(v, str) for v in doc.values())
               + sum(map(len, records)))
    return quotes == 2 * strings


def _floats(rows, shape, msg, numbers_only):
    """rows as a finite float array of shape (len(rows), *shape).  Unless
    numbers_only, every entry is checked to be a JSON number, since the float
    conversion takes numeric strings and booleans.  Rows that are all one
    object, as a shared A is after _fast_read, are converted once."""
    if len(rows) > 1 and all(r is rows[0] for r in rows):
        return np.repeat(_floats(rows[:1], shape, msg, numbers_only), len(rows), axis=0)
    try:
        arr = np.array(rows, dtype=float)
        if not rows:
            arr = arr.reshape((0, *shape))
    except OverflowError as exc:  # an integer literal beyond the float range
        raise FormatError("non-finite number in input") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{msg}: {exc}") from exc
    _require(arr.shape[1:] == shape, msg)
    _require(np.isfinite(arr).all(), "non-finite number in input")
    if not numbers_only:
        bad = [x for x in np.array(rows, dtype=object).ravel().tolist()
               if type(x) not in (int, float)]
        if bad:
            raise FormatError(f"non-numeric entry {json.dumps(bad[0])} in input")
    return arr


def load_pointcloud(path):
    """Read and validate a PointCloudFile; returns (m, kind, payload), payload an
    (N, 2m) array for kind "points" and a SampleStack for kind "samples"."""
    return _load(path, _pointcloud)


def _pointcloud(doc, quotes):
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
        return m, kind, _floats(pts, (dim,), f"point length must be {dim}",
                                _numbers_only(quotes, doc))
    if kind == "samples":
        recs = doc.get("samples")
        _require(isinstance(recs, list), "missing samples array")
        _require(recs, "empty samples array")
        shapes = dict(zip(SAMPLE_KEYS, [(dim,), (dim,), (dim - 2, dim), (dim - 2, dim - 2)]))
        _require(all(isinstance(r, dict) and shapes.keys() <= r.keys() for r in recs),
                 f"every sample must be an object with fields {', '.join(shapes)}")
        numbers_only = _numbers_only(quotes, doc, recs)
        return m, kind, SampleStack(*(
            _floats([r[key] for r in recs], shape, f"{key} must have shape {shape}",
                    numbers_only)
            for key, shape in shapes.items()
        ))
    raise FormatError(f"unknown kind {kind!r}")


def load_matrix(path):
    """Read a square matrix from JSON ({"matrix": [[...]]} or a bare array)."""
    return _load(path, _matrix)


def _matrix(doc, quotes):
    raw = doc.get("matrix") if isinstance(doc, dict) else doc
    msg = "matrix must be square with even size"
    _require(isinstance(raw, list) and raw and len(raw) % 2 == 0, msg)
    return _floats(raw, (len(raw),), msg,
                   _numbers_only(quotes, doc if isinstance(doc, dict) else {}))
