"""JSON wire format: point-cloud files, sample files and reports.

Floats are written with 17 significant digits, so the text holds each double
exactly (-0.0 as -0, which the reader reads as 0), and repeated runs are
byte-identical.  A sample document is written in blocks of records, each
block one printf of a cached template, with the bytes of the list of record
objects written one by one.  An A equal in every record bit for bit is
formatted once, into the template, and a basis whose second half is J of its
first half bit for bit reuses that half's text, -x by its sign.  The reader
parses and converts a repeated A text once, and gives the same arrays.
Numeric arrays read from a file must hold JSON numbers, not strings or booleans.
A reader runs with the cyclic garbage collector paused, from the parse until
the parsed document is freed: that document holds no reference cycles, and
reference counting frees it.
"""

import contextlib
import functools
import gc
import json
import math
import operator
import os

import numpy as np

from .core import apply_J
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


@functools.lru_cache(maxsize=8)
def _records_plan(shapes, count, indent, shared, jhalf):
    """(template, fmt, get) of `count` records laid out as by _write, less the
    brackets.  fmt gives one line per half row of the basis (its first half
    if jhalf); get picks the template's values from the records' points, xi
    and A (unless shared), those lines, the negated x lines and A's text."""
    pad, pad1 = "  " * indent, "  " * (indent + 1)
    (n2, w), lead = shapes[2], shapes[0][0] + shapes[1][0]
    arrays = [_array_template(s, indent + 1) for s in (*shapes[:2], (n2, 2), shapes[3])]
    arrays[2:] = arrays[2].replace("%.17g", "%s"), "%s" if shared else arrays[3]
    fields = ",\n".join(f"{pad1}{_key(k)}: {a}" for k, a in zip(SAMPLE_KEYS, arrays))
    size, rows = lead + (0 if shared else math.prod(shapes[3])), n2 // (1 + jhalf)
    cut = np.cumsum([count * size, count * 2 * rows])
    f, xy, nx = (a.reshape(count, -1) for a in np.split(np.arange(cut[1] + count * rows), cut))
    jrows = np.stack([xy[:, 1::2], nx], -1).reshape(count, -1)  # J(x; y) = (y; -x)
    order = np.concatenate([f[:, :lead], xy, jrows[:, :jhalf * n2], f[:, lead:],
                            np.full((count, int(shared)), -1)], 1)
    return ((",\n" + pad).join(["{\n" + fields + "\n" + pad + "}"] * count),
            "\n".join([", ".join(["%.17g"] * (w // 2))] * (2 * rows * count)),
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
    T, A = (np.asarray(f, dtype=float) for f in fields[2:])
    h, bits = T.shape[1] // 2, A.reshape(n, -1).view(np.int64)
    jhalf = bool((T[:, h:].view(np.int64) == apply_J(T[:, :h]).view(np.int64)).all())
    shared = bool((bits == bits[0]).all())
    a_text = _array_template(shapes[3], indent + 2) % tuple(A[0].ravel().tolist())
    rows = [f.reshape(n, -1) for f in (*fields[:2], A)][:2 if shared else 3]
    basis = (T[:, :h] if jhalf else T).reshape(n, -1)
    pad1, sep = "  " * (indent + 1), "[\n"
    for start in range(0, n, BLOCK):
        block = np.concatenate([r[start:start + BLOCK] for r in rows], axis=1)
        template, fmt, get = _records_plan(shapes, len(block), indent + 1, shared, jhalf)
        lines = (fmt % tuple(basis[start:start + BLOCK].ravel().tolist())).split("\n")
        neg = ("-" + "\n-".join(lines[::2])).replace(", ", ", -").replace("--", "").split("\n")
        write(sep + pad1 + template % get(block.ravel().tolist() + lines + neg + [a_text]))
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
        write(_array_template(obj.shape, indent) % tuple(obj.ravel().tolist()))
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
    """Deterministic JSON writer (17-significant-digit floats)."""
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


def _no_cyclic_gc(reader):
    """reader with the cyclic collector paused until it returns, by which time
    the lists and dicts its parse made are freed, so that their allocation
    triggers no collection before or after.  A collector that was disabled
    stays disabled."""
    @functools.wraps(reader)
    def read(path):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return reader(path)
        finally:
            if enabled:
                gc.enable()
    return read


def _require(cond, msg):
    if not cond:
        raise FormatError(msg)


def _reject_constant(name):
    raise FormatError(f"non-finite number {name} in input")


def _shared_a_doc(text):
    """text's document, each copy of its first "A": value text read as "A": NaN and
    each NaN as the value; None unless the parse met no other NaN or Infinity."""
    met = []
    with contextlib.suppress(ValueError, RecursionError):
        start = text.index('"A": ') + 5
        value, end = json.JSONDecoder(parse_constant=met.append).raw_decode(text, start)
        if not text.startswith(a := text[start - 5:end], text.index('"A": ', end)):
            return None  # the next record's A differs, as in an FD file: parse in full
        parts = text.split(a)
        copies, text = len(parts) - 1, '"A": NaN'.join(parts)
        del parts  # held through the parse, the pieces raised the peak RSS
        doc = json.loads(text, parse_constant=lambda c: met.append(c) or value)
        if len(met) == copies:
            return doc


def _read(path):
    """Parse a UTF-8 JSON file into (document, quotes); NaN and Infinity are
    rejected, and so are undecodable bytes and nesting too deep for the
    parser.  quotes is the number of '"' in the text, or None when the text
    has a "u" or an "f", as every true and every false has.  A repeated
    first "A": text is parsed once, by _shared_a_doc, to the same document."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        doc = _shared_a_doc(text) or json.loads(text, parse_constant=_reject_constant)
    except (OSError, ValueError, RecursionError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return doc, None if "u" in text or "f" in text else text.count('"')


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
    object, as a shared A is after _shared_a_doc, are converted once."""
    if len(rows) > 1 and all(r is rows[0] for r in rows):
        with contextlib.suppress(FormatError):  # the full conversion words the error
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


@_no_cyclic_gc
def load_pointcloud(path):
    """Read and validate a PointCloudFile; returns (m, kind, payload).

    kind "points" yields an (N, 2m) array; kind "samples" yields a
    SampleStack.
    """
    doc, quotes = _read(path)
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


@_no_cyclic_gc
def load_matrix(path):
    """Read a square matrix from JSON ({"matrix": [[...]]} or a bare array)."""
    doc, quotes = _read(path)
    raw = doc.get("matrix") if isinstance(doc, dict) else doc
    msg = "matrix must be square with even size"
    _require(isinstance(raw, list) and raw and len(raw) % 2 == 0, msg)
    return _floats(raw, (len(raw),), msg,
                   _numbers_only(quotes, doc if isinstance(doc, dict) else {}))
