"""JSON wire format: point-cloud files, sample files and reports.

Floats are written as %.17g writes them, 17 significant digits, so the text
holds each double exactly (-0.0 as -0, which the reader reads as 0), and
repeated runs are byte-identical.  Float arrays and sample records go through
one numpy kernel (_text), which gives the bytes of format(x, ".17g") a chunk
of numbers at a time; a number whose inexact product lies within its error
bound of a rounding tie, and |x| outside [1e-291, 1e308), go to format()
itself.  A sample document is written in blocks of records, each block one
kernel pass whose lines fill a cached template.  An A equal in every record
bit for bit is formatted once, and a basis whose second half is J of its
first half bit for bit reuses that half's text, -x by its sign.  The reader
parses with orjson, and a repeated A text once; a text with a backslash or
nested beyond _DEPTH, and any file that fails a check, are read by json, so
that arrays and errors are json's.  Numeric arrays read from a file must hold
JSON numbers, not strings or booleans.  A reader runs with the cyclic garbage
collector paused, from the parse until the parsed document is freed: that
document holds no reference cycles, and reference counting frees it.
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


# The %.17g kernel.  A double x != 0 is written as the 17 digits of
# D = round-half-even(|x|·10^(16-d)), d = floor(log10|x|), and the exponent
# X = d (X = d + 1 and D = 10^16 when D rounds up to 10^17), laid out as %g
# lays them out.  10^(16-d) is held as H + L, H the nearest double and L the
# double nearest to the rest (L = 0 for 0 <= 16 - d <= 22), and the product
# as p + t: p = fl(|x|·H), t = its exact error (Dekker) + fl(|x|·L).  As
# 10^16 <= |x|·10^(16-d) < 2^57, p + t is off by less than 2^-49 (from
# 10^(16-d) - H - L, at most 2^-106·H) + 2^-50 (rounding |x|·L) + 2^-49
# (rounding the sum) < 2^-47.  A number whose t lies within _BOUND of a
# rounding tie goes to format(), as does |x| outside [10^_DMIN, 10^(_DMAX+1)).
_DMIN, _DMAX = -291, 307  # 10^(16-d) and 10^(d+1) are normal doubles
_BOUND = 2.0 ** -46
_CHUNK = 4096  # numbers per pass: its temporaries stay in the cache
# A number takes a 48-byte slot, 6 little-endian words: byte 0 the sign,
# 1-5 the lead "0.000" of 0.000ddd, 6-39 the 17 digits, each followed by a
# point slot, 40-44 the exponent, 45-47 the separator.  _PAD fills the bytes
# a layout drops, and one bytes.translate deletes it.  _PAD | c == _PAD for
# every ASCII c, so digits ORed onto a dropped slot, the stripped trailing
# zeros among them, drop too.
_PAD, _PAD_BYTE = 0x7F, b"\x7f"
_COMMA, _NEWLINE = np.frombuffer(b"\0\0\0\0\0, \x7f\0\0\0\0\0\n\x7f\x7f", np.uint64)


def _split(a):
    """a as a1 + a2, each with at most 26 significant bits, a1 being a
    rounded at its 27th bit."""
    a1 = ((a.view(np.int64) + (1 << 26)) & -(1 << 27)).view(np.float64)
    return a1, a - a1


def _decimal(k):
    """10^k as (H, L, C): the double H nearest to it, the double L nearest to
    10^k - H, and the least double C >= 10^k."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den  # int true division rounds correctly
    hn, hd = hi.as_integer_ratio()
    rest = num * hd - hn * den
    return hi, rest / (den * hd), hi if rest <= 0 else math.nextafter(hi, math.inf)


@functools.cache
def _tables():
    """The kernel's tables.  Indexed by d - _DMIN + 1: ceil (the least double
    >= 10^d), pow (H, H's two halves and L of 10^(16-d)) and lay (the mask
    row of X = d, less one).  words: the digit words of 0..9999, of each
    leading digit, and of each exponent.  sig[j]: n of D's group j + 1 of 4
    digits, where it is D's last nonzero group.  masks: a row per (sign, %f
    form with X = -4..16 or exponent form, digits n = 1..17 kept), then +0
    and -0."""
    ds = range(_DMIN - 1, _DMAX + 2)
    hi, lo, ceil = np.array([_decimal(d) for d in ds]).T
    hi, lo = hi[::-1], lo[::-1]  # k = 16 - d runs over ds backwards
    X = np.array(ds)
    lay = np.where((X >= -4) & (X <= 16), X + 4, 21) * 17 - 1
    g = np.arange(10000)
    digits = g[:, None] // [1000, 100, 10, 1] % 10
    tz = np.argmax(digits[:, ::-1] != 0, axis=1)
    sig = [np.where(g > 0, 4 * j + 5 - tz, 1).astype(np.int8) for j in range(4)]
    words = np.concatenate([
        np.stack([digits + 48, 0 * digits], 2).reshape(-1, 8).astype(np.uint8).view(np.uint64).ravel(),
        (np.arange(48, 58, dtype=np.uint64) << np.uint64(48)),
        np.frombuffer(b"".join((b"e%+03d" % d).ljust(5, _PAD_BYTE).ljust(8, b"\0") for d in ds),
                      np.uint64)])
    neg, form, n = np.indices((2, 22, 17)).reshape(3, -1)
    n, X, sci = n + 1, form - 4, form == 21
    kept = np.where(sci | (X < 0), n, np.maximum(n, X + 1))
    point = np.where(sci, 0, X)
    point[kept <= point + 1] = -1
    masks = np.full((len(n) + 2, 48), _PAD, np.uint8)
    masks[:-2, 0] = np.where(neg, ord("-"), _PAD)
    masks[:-2, 1:6] = np.where(np.arange(5) < np.where(~sci & (X < 0), 1 - X, 0)[:, None],
                               np.frombuffer(b"0.000", np.uint8), _PAD)
    masks[:-2, 6:40:2] = np.where(np.arange(17) < kept[:, None], 0, _PAD)
    masks[:-2, 7:41:2] = np.where(np.arange(17) == point[:, None], ord("."), _PAD)
    masks[:-2, 40:45] = np.where(sci, 0, _PAD)[:, None]
    masks[-2:, :2] = [[_PAD, ord("0")], [ord("-"), ord("0")]]
    masks[:, 45:] = 0
    return ceil, np.stack([hi, *_split(hi), lo], 1), lay, words, sig, masks.view(np.uint64)


def _text(x, sep):
    """The %.17g text of the finite doubles x, each followed by the separator
    word (_COMMA or _NEWLINE) of the same index in sep."""
    ceil, pow10, lay, words, sig, masks = _tables()
    a = np.abs(x)
    ok = (a >= ceil[1]) & (a < ceil[-1])
    zero = a == 0
    a = np.where(ok, a, 1.0)
    # d - _DMIN + 1: for a in [2^E, 2^(E+1)), floor(E·log10 2), exact for
    # every double's E, is d or d - 1
    d = ((a.view(np.int64) >> 52) - 1023) * 78913 >> 18
    d += 1 - _DMIN
    d += a >= ceil.take(d + 1)
    h, h1, h2, lo = pow10.take(d, axis=0).T
    a1, a2 = _split(a)
    p = a * h
    t = ((((a1 * h1 - p) + a1 * h2) + a2 * h1) + a2 * h2) + a * lo
    r = np.rint(t)
    fallback = np.flatnonzero(~(ok | zero) | (np.abs(t - r) > 0.5 - _BOUND))
    D = p.astype(np.int64) + r.astype(np.int64)  # p >= 10^16 is an integer
    carry = D == 10 ** 17
    d += carry
    D -= carry * (9 * 10 ** 16)
    # indices into words: D's leading digit, its 4 groups of 4 digits, X
    idx = np.empty((len(x), 6), np.intp)
    q, g1, g2, g3, g4, e = idx.T
    hi = D // 10 ** 8
    np.subtract(D, hi * 10 ** 8, out=g4)
    np.floor_divide(hi, 10 ** 8, out=q)
    hi -= q * 10 ** 8
    np.floor_divide(hi, 10 ** 4, out=g1)
    np.subtract(hi, g1 * 10 ** 4, out=g2)
    np.floor_divide(g4, 10 ** 4, out=g3)
    g4 -= g3 * 10 ** 4
    case = np.maximum(np.maximum(sig[0].take(g1), sig[1].take(g2)),
                      np.maximum(sig[2].take(g3), sig[3].take(g4))) + lay.take(d)
    neg = np.signbit(x)
    case += neg * (len(masks) // 2 - 1)
    case[zero] = len(masks) - 2 + neg[zero]
    q += 10000
    np.add(d, 10010, out=e)
    out = masks.take(case, axis=0)
    out |= words.take(idx)
    out[:, 5] |= sep
    for i in fallback.tolist():
        s = format(x[i], ".17g").encode()
        out[i].view(np.uint8)[:45] = np.frombuffer(s.ljust(45, _PAD_BYTE), np.uint8)
    return out.tobytes().translate(None, _PAD_BYTE).decode()


def _lines(x, sep):
    """The lines of the %.17g text of the finite doubles x, joined by ", "
    and ended after each index where sep is _NEWLINE."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    text = "".join(_text(x[i:i + _CHUNK], sep[i:i + _CHUNK]) for i in range(0, len(x), _CHUNK))
    return text.split("\n")[:-1]


def _row_seps(shape):
    """The separator words of an array of this shape: a line per row."""
    row = np.full(shape[-1], _COMMA)
    row[-1:] = _NEWLINE
    return np.tile(row, math.prod(shape[:-1]))


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
    return _array_template(arr.shape, indent) % tuple(_lines(arr, _row_seps(arr.shape)))


@functools.lru_cache(maxsize=256)
def _key(k):
    return json.dumps(str(k))


@functools.lru_cache(maxsize=8)
def _records_plan(shapes, count, indent, shared, jhalf):
    """(template, sep, xs, get) of `count` records laid out as by _write,
    less the brackets.  A block holds the records' points, xi and A (unless
    shared), record by record, then their bases (the first halves if jhalf);
    sep makes a line of each point, xi and row of A and of each half row of a
    basis, and xs slices the x lines out of those lines.  get picks the
    template's values from the lines, the negated x lines and A's text."""
    pad, pad1 = "  " * indent, "  " * (indent + 1)
    n2, w = shapes[2]
    arrays = [_array_template(s, indent + 1) for s in shapes]
    arrays[2:] = arrays[2].replace("%s", "%s, %s"), "%s" if shared else arrays[3]
    fields = ",\n".join(f"{pad1}{_key(k)}: {a}" for k, a in zip(SAMPLE_KEYS, arrays))
    size, rows = 2 + (0 if shared else n2), n2 // (1 + jhalf)
    cut = np.cumsum([count * size, count * 2 * rows])
    f, xy, nx = (a.reshape(count, -1) for a in np.split(np.arange(cut[1] + count * rows), cut))
    jrows = np.stack([xy[:, 1::2], nx], -1).reshape(count, -1)  # J(x; y) = (y; -x)
    order = np.concatenate([f[:, :2], xy, jrows[:, :jhalf * n2], f[:, 2:],
                            np.full((count, int(shared)), -1)], 1)
    record = np.concatenate([_row_seps(s) for s in shapes[:2] + shapes[3:] * (not shared)])
    sep = np.concatenate([np.tile(record, count), _row_seps((2 * rows * count, w // 2))])
    return ((",\n" + pad).join(["{\n" + fields + "\n" + pad + "}"] * count), sep,
            slice(count * size, None, 2), operator.itemgetter(*order.ravel().tolist()))


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
    a_text = _array_text(A[0], indent + 2)
    rows = [f.reshape(n, -1) for f in (*fields[:2], A)][:2 if shared else 3]
    basis = (T[:, :h] if jhalf else T).reshape(n, -1)
    pad1, sep = "  " * (indent + 1), "[\n"
    for start in range(0, n, BLOCK):
        block = np.concatenate([r[start:start + BLOCK] for r in rows], axis=1)
        template, seps, xs, get = _records_plan(shapes, len(block), indent + 1, shared, jhalf)
        lines = _lines(np.concatenate([block.ravel(), basis[start:start + BLOCK].ravel()]), seps)
        neg = ("-" + "\n-".join(lines[xs])).replace(", ", ", -").replace("--", "").split("\n")
        write(sep + pad1 + template % get(lines + neg + [a_text]))
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
    import orjson  # only a read loads it

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
