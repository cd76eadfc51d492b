"""The reader parses with orjson, and a repeated "A" text once: every file,
edited or not, must load exactly as the stdlib parse loads it.

The reference below is the reader before both, kept here: the whole text
through json.loads, then load_pointcloud's own checks and _floats.  Each
case compares the two bit for bit, or by the text of the FormatError.
Where the fast read gives a document at all, it is json's document, number
types and key order included, but for integer literals outside
[-2^63, 2^64), which orjson reads as floats; the stdlib read, which the
reader falls back to on any FormatError, reads them as ints.

Every finite double the writer writes, signed zeros included, reads back
bit for bit, and so does a file written by the %.17g writer of earlier
versions (where -0 reads as 0).
"""

import decimal
import gc
import json
import math
import re

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nordenhs import jsonio
from nordenhs.errors import FormatError
from nordenhs.hypersurface import (
    hyperplane_samples,
    make_h_sphere,
    make_hyperplane,
    make_surface_samples,
)


def _read_in_full(path, fast=False):
    """jsonio._read as it was before the fast parse; fast is ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text, parse_constant=jsonio._reject_constant)
    except (OSError, ValueError, RecursionError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return doc, None if "u" in text or "f" in text else text.count('"')


def _long_ints_as_floats(x):
    """x with each int outside [-2^63, 2^64) as a float, as orjson reads its
    literal (inf beyond the float range, where orjson fails)."""
    if isinstance(x, dict):
        return {k: _long_ints_as_floats(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_long_ints_as_floats(v) for v in x]
    if type(x) is int and not -2**63 <= x < 2**64:
        return float(x) if abs(x) < 2**1024 else math.copysign(math.inf, x)
    return x


def _typed(doc):
    """doc's JSON text: 1 and 1.0, 0 and -0.0, and key order all differ in it."""
    return json.dumps(doc)


def _outcome(path):
    """(m, kind, (dtype, shape, bytes) of each array), or the FormatError text."""
    try:
        m, kind, payload = jsonio.load_pointcloud(path)
    except FormatError as exc:
        return f"FormatError: {exc}"
    arrays = [payload] if kind == "points" else list(vars(payload).values())
    return m, kind, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _assert_same_as_full_parse(monkeypatch, path, load=None):
    """Assert that the reader loads path as the stdlib parse does; returns the
    outcome.  load: the loader compared, by default _outcome."""
    load = load or _outcome
    got = load(path)
    with monkeypatch.context() as mp:
        mp.setattr(jsonio, "_read", _read_in_full)
        want = load(path)
    assert got == want
    try:
        doc = jsonio._read(path)[0]
    except FormatError:
        return got  # the stdlib read decides
    ref = _read_in_full(path)[0]  # raises where the fast read took what json rejects
    if _typed(doc) != _typed(ref):  # only a long integer may read otherwise
        assert _typed(_long_ints_as_floats(doc)) == _typed(_long_ints_as_floats(ref))
    return got


def _sphere_text(m=4, count=6, seed=3, a=3.0, b=4.0, fd=False):
    st = make_surface_samples(make_h_sphere(np.zeros(2 * m), a, b), count, seed, fd=fd)
    return jsonio.dumps_canonical(jsonio.samples_to_doc(m, st))


def _a_text(text):
    """The first '"A": value' text of a sample file."""
    start = text.index('"A": ')
    _, end = json.JSONDecoder().raw_decode(text, start + 5)
    return text[start:end]


def _other_a(a_text):
    """'"A": value' with its first entry moved by 1e-3, written as json.dumps writes it."""
    value = json.loads(a_text[5:])
    value[0][0] += 1e-3
    return '"A": ' + json.dumps(value)


def _join(text, a_text, junctions):
    """text with the k-th copy of a_text replaced by junctions[k], where given."""
    parts = text.split(a_text)
    out = parts[0]
    for k, part in enumerate(parts[1:]):
        out += junctions.get(k, a_text) + part
    return out


def _write(tmp_path, text):
    f = tmp_path / "s.json"
    f.write_text(text, encoding="utf-8")
    return str(f)


def _a_parsed_once(path):
    recs = jsonio._read(path)[0]["samples"]
    return all(r["A"] is recs[0]["A"] for r in recs)


@pytest.mark.parametrize("m", range(2, 7))
def test_model_surface_files(monkeypatch, tmp_path, m):
    sphere = _write(tmp_path, _sphere_text(m=m, count=9, seed=m))
    assert isinstance(_assert_same_as_full_parse(monkeypatch, sphere), tuple)
    assert _a_parsed_once(sphere)
    xi = np.zeros(2 * m)
    xi[:2] = 1.0, 0.3
    st = hyperplane_samples(make_hyperplane(xi, 1.5, 0.5), 9, m)
    plane = _write(tmp_path, jsonio.dumps_canonical(jsonio.samples_to_doc(m, st)))
    assert isinstance(_assert_same_as_full_parse(monkeypatch, plane), tuple)
    assert _a_parsed_once(plane)


def test_shared_a_array_owns_its_memory(monkeypatch, tmp_path):
    # the shared A is converted once and repeated into a fresh array, not a
    # broadcast view of one record: writing to one record leaves the others
    path = _write(tmp_path, _sphere_text(count=40))
    assert _a_parsed_once(path)
    A = jsonio.load_pointcloud(path)[2].A
    with monkeypatch.context() as mp:
        mp.setattr(jsonio, "_read", _read_in_full)
        want = jsonio.load_pointcloud(path)[2].A
    assert A.shape == want.shape == (40, 6, 6) and A.tobytes() == want.tobytes()
    assert A.base is None and A.flags.writeable and A.flags.c_contiguous
    A[0] += 1.0
    assert np.array_equal(A[1:], want[1:])


def test_fd_file(monkeypatch, tmp_path):
    # the FD shape operator varies from record to record
    path = _write(tmp_path, _sphere_text(count=8, fd=True))
    assert isinstance(_assert_same_as_full_parse(monkeypatch, path), tuple)
    assert not _a_parsed_once(path)


@pytest.mark.parametrize("which", ["first", "last"])
def test_a_shared_by_every_record_but_one(monkeypatch, tmp_path, which):
    text = _sphere_text()
    a = _a_text(text)
    k = 0 if which == "first" else text.count(a) - 1
    path = _write(tmp_path, _join(text, a, {k: _other_a(a)}))
    assert isinstance(_assert_same_as_full_parse(monkeypatch, path), tuple)


@pytest.mark.parametrize("record", [0, 2, 5])
@pytest.mark.parametrize("order", ["other first", "shared first"])
def test_duplicate_a_keys(monkeypatch, tmp_path, record, order):
    # the last of two "A" keys is the one a JSON parser keeps
    text = _sphere_text()
    a = _a_text(text)
    pair = [_other_a(a), a] if order == "other first" else [a, _other_a(a)]
    path = _write(tmp_path, _join(text, a, {record: ", ".join(pair)}))
    assert isinstance(_assert_same_as_full_parse(monkeypatch, path), tuple)
    path = _write(tmp_path, _join(text, a, {record: f"{a}, {a}"}))
    assert isinstance(_assert_same_as_full_parse(monkeypatch, path), tuple)


@pytest.mark.parametrize("spelling", ['"A": null', '"A":null', '"A" : null', '"\\u0041": null'])
@pytest.mark.parametrize("record", [0, 3])
def test_a_that_is_null(monkeypatch, tmp_path, spelling, record):
    text = _sphere_text()
    a = _a_text(text)
    path = _write(tmp_path, _join(text, a, {record: spelling}))
    assert _assert_same_as_full_parse(monkeypatch, path).startswith("FormatError: A must")


@pytest.mark.parametrize("spelling", ['"A":null', '"A" : NaN'])
def test_null_a_beside_a_swallowed_copy(monkeypatch, tmp_path, spelling):
    # record 1's duplicate key hides one copy of the shared text, and record
    # 4's A is null or NaN in a spelling other than a copy's: a reader that
    # counted only the records whose A it gave back would miss both
    text = _sphere_text()
    a = _a_text(text)
    path = _write(tmp_path, _join(text, a, {1: f"{a}, {_other_a(a)}", 4: spelling}))
    assert _assert_same_as_full_parse(monkeypatch, path).startswith("FormatError: ")


@pytest.mark.parametrize("where", ["top", "record", "both"])
def test_null_elsewhere(monkeypatch, tmp_path, where):
    text = _sphere_text()
    if where in ("top", "both"):
        text = text.replace('"version": 1', '"note": null, "version": 1', 1)
    if where in ("record", "both"):
        text = text.replace('"point": ', '"label": null, "point": ')
    path = _write(tmp_path, text)
    assert isinstance(_assert_same_as_full_parse(monkeypatch, path), tuple)
    assert _a_parsed_once(path)


@pytest.mark.parametrize("where", ["before", "after"])
def test_a_text_inside_a_string_or_key(monkeypatch, tmp_path, where):
    text = _sphere_text()
    a = _a_text(text)
    # the text of A as a string value, and as the value of a key ending in \"A
    extra = f'"note": {json.dumps(a)}, "x\\{a}, '
    if where == "before":
        text = text.replace('"version": 1', extra + '"version": 1', 1)
    else:
        text = text.replace('"point": ', extra + '"point": ', 1)
    path = _write(tmp_path, text)
    assert isinstance(_assert_same_as_full_parse(monkeypatch, path), tuple)


@pytest.mark.parametrize("entry, error", [
    ('"1"', 'non-numeric entry "1" in input'),
    ("true", "non-numeric entry true in input"),
    ("1" + "0" * 400, "non-finite number in input"),
    ("1e999", "non-finite number in input"),
    ("NaN", "non-finite number NaN in input"),
    ("-Infinity", "non-finite number -Infinity in input"),
])
def test_bad_entry_in_the_shared_a(monkeypatch, tmp_path, entry, error):
    text = _sphere_text()
    a = _a_text(text)
    bad = '"A": [[' + entry + a[a.index(","):]  # the first entry replaced
    path = _write(tmp_path, text.replace(a, bad))
    assert _assert_same_as_full_parse(monkeypatch, path) == "FormatError: " + error


def test_wrong_shape_shared_a(monkeypatch, tmp_path):
    text = _sphere_text()
    a = _a_text(text)
    value = json.loads(a[5:])
    for bad in (value[:-1], [row[:-1] for row in value], value[0]):
        path = _write(tmp_path, text.replace(a, '"A": ' + json.dumps(bad)))
        assert _assert_same_as_full_parse(monkeypatch, path) == \
            "FormatError: A must have shape (6, 6)"


@pytest.mark.parametrize("zero", ["-0", "-0.0", "0", "-0e0"])
def test_negative_zero_in_a(monkeypatch, tmp_path, zero):
    # -0 is the integer 0 to json.loads, -0.0 keeps its sign: both as before
    text = _sphere_text()
    a = _a_text(text)
    path = _write(tmp_path, text.replace(a, '"A": [[' + zero + a[a.index(","):]))
    got = _assert_same_as_full_parse(monkeypatch, path)
    A = np.frombuffer(got[2][3][2]).reshape(-1, 6, 6)
    assert np.signbit(A[:, 0, 0]).all() == (zero in ("-0.0", "-0e0"))


@pytest.mark.parametrize("text", [
    '{"A": [1], "version": 1, "m": 2, "kind": "points", "points": [[1, 0, 0, 0.5]]}',
    '[{"A": [1]}, {"A": [1]}]',
    '{"A": [1], "A": [1]}',
    '{"version": 1, "m": 2, "kind": "samples", "samples": [{"A": [1], "A": [1]',
    '{"A": [1, {"A": [1]}]}',
    '{"A": ',
    '{"A": [1] "A": [1]}',
    '{"x": "\\"A\\": [1]", "A": [1]}',
    '\ufeff{"A": [1]}',
    '{"version": 1, "m": 2, "kind": "points", "points": [[1, 0, 0, 0.5]],'
    ' "samples": [{"A": "\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9"},'
    ' {"A": "\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9"}]}',
])
def test_other_documents(monkeypatch, tmp_path, text):
    _assert_same_as_full_parse(monkeypatch, _write(tmp_path, text))


def test_truncated_file_names_the_same_position(monkeypatch, tmp_path):
    text = _sphere_text()
    for cut in (len(text) // 2, len(text) - 3, text.rindex('"A": ') + 9):
        got = _assert_same_as_full_parse(monkeypatch, _write(tmp_path, text[:cut]))
        assert got.startswith("FormatError: cannot read") and "(char " in got


def test_deep_nesting_in_a(monkeypatch, tmp_path):
    text = _sphere_text()
    path = _write(tmp_path, text.replace(_a_text(text), '"A": ' + "[" * 100000 + "]" * 100000))
    assert "cannot read" in _assert_same_as_full_parse(monkeypatch, path)


def test_load_matrix_with_an_a_key(tmp_path):
    f = tmp_path / "op.json"
    f.write_text('{"A": [1, 2], "matrix": [[1.0, 0.0], [0.0, 1.0]], "B": {"A": [1, 2]}}')
    assert jsonio.load_matrix(str(f)).tolist() == [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("text", [
    '{"A": [1.5, 2.5, 3.5], "B": {"A": [1.5, 2.5, 3.5]}, "matrix": [[1, 0], [0, 1]]}',
    '{"matrix": [[1, 0], [0, 1]], "samples": [{"A": [1.5, 2.5, 3.5]}, {"A": [1.5, 2.5, 3.5]}]}',
])
def test_load_matrix_with_shared_a_texts(monkeypatch, tmp_path, text):
    # the copies are no sample records' A, or no matrix file's: the document
    # keeps every value
    _assert_same_as_full_parse(monkeypatch, _write(tmp_path, text), _matrix_outcome)


@pytest.mark.parametrize("where", ["top", "nested", "list"])
def test_a_copy_outside_the_records_a(monkeypatch, tmp_path, where):
    # a copy of the shared text that is no record's A stays as it is written,
    # and so does every other copy
    text = _sphere_text()
    a = _a_text(text)
    place = {"top": ('"version"', f'{a}, "version"'),
             "nested": ('"point"', f'"label": {{{a}}}, "point"'),
             "list": ('"point"', f'"labels": [{{{a}}}], "point"')}[where]
    path = _write(tmp_path, text.replace(*place, 1))
    assert isinstance(_assert_same_as_full_parse(monkeypatch, path), tuple)


def test_numeric_string_beside_a_copy_outside_the_records_a(monkeypatch, tmp_path):
    # a top-level copy of the shared text left as "\u0000" would be one string
    # more than its quotes show, and would balance the quotes of the string in
    # a point: the quote count would hide it
    text = _sphere_text()
    text = text.replace('"version"', f'{_a_text(text)}, "version"', 1)
    path = _write(tmp_path, re.sub(r'("point": \[)[^,]*', r'\g<1>"0.5"', text, count=1))
    assert _assert_same_as_full_parse(monkeypatch, path) == \
        'FormatError: non-numeric entry "0.5" in input'


def test_a_string_beside_a_swallowed_copy(monkeypatch, tmp_path):
    # record 1's duplicate key hides one copy of the shared text, and record
    # 4's A is the string "\u0000" that a copy is parsed as: counted by the
    # records alone, they would balance, so a text with a backslash, which
    # \u0000 needs, goes to json
    text = _sphere_text()
    a = _a_text(text)
    path = _write(tmp_path, _join(text, a, {1: f"{a}, {_other_a(a)}", 4: '"A": "\\u0000"'}))
    assert _assert_same_as_full_parse(monkeypatch, path).startswith(
        "FormatError: A must have shape (6, 6)")


@pytest.mark.parametrize("note, fast", [
    ("[" * 63 + "]" * 63, True),  # 64 deep with the document's object
    ("[" * 64 + "]" * 64, False),
    ('"\\u00e9"', False),
    ('"\\"[\\""', False),
], ids=["64-deep", "65-deep", "escape", "escaped-quote"])
def test_deep_or_escaped_texts_go_to_the_stdlib(monkeypatch, tmp_path, note, fast):
    # orjson converts a document recursively: only a text nested at most 64
    # deep, and without a backslash, whose quotes all delimit strings,
    # reaches it; the rest is read as json reads it
    path = _write(tmp_path, _sphere_text().replace('"version"', f'"note": {note}, "version"', 1))
    calls = []
    with monkeypatch.context() as mp:
        mp.setattr(orjson, "loads", lambda data: calls.append(1) or json.loads(data))
        assert jsonio.load_pointcloud(path)
    assert bool(calls) == fast
    _assert_same_as_full_parse(monkeypatch, path)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.recursive(
    st.none() | st.integers() | st.text(alphabet="[]{}ax\u00e9", max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(alphabet="[]{}b", max_size=4), inner, max_size=3),
    max_leaves=12))
def test_depth_counts_no_bracket_of_a_string(value):
    # strings full of brackets, in a text without a backslash
    def depth(x):
        if isinstance(x, (list, dict)):
            return 1 + max(map(depth, x.values() if isinstance(x, dict) else x), default=0)
        return 0

    assert jsonio._depth(json.dumps(value, ensure_ascii=False).encode()) == depth(value)


def test_brackets_in_strings_hide_no_nesting():
    # a count of every bracket, those of strings included, reads this text as
    # 1 deep: each "]" closes the level its "[" opened
    assert jsonio._depth(('["]", ' * 5000 + "1" + "]" * 5000).encode()) == 5000


def test_fast_read_round_trips_the_kernel_sweep(tmp_path):
    # every finite double that write_json writes is read back bit for bit by
    # both reads, orjson's and json's: bits, log-uniform magnitudes,
    # subnormals, rounding ties, scaled normals, signed zeros and the extremes
    rng = np.random.default_rng(31201)
    n = 320_000
    bits = rng.integers(0, 2**63, n).view(np.float64)
    magnitudes = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), n))
    subnormals = rng.integers(1, 2**52, n // 5).view(np.float64)
    ties = np.ldexp([1.0, 3.0, 5.0, 7.0], np.arange(-1074, 1021)[:, None]).ravel()
    scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 21, n)
    tiny, huge = np.finfo(float).smallest_subnormal, np.finfo(float).max
    extremes = np.repeat([0.0, tiny, np.finfo(float).smallest_normal, huge, 1e16, 1e-5], 8)
    x = np.concatenate([bits, magnitudes, subnormals, ties, scaled, extremes])
    x = x[np.isfinite(x)]
    x *= rng.choice([-1.0, 1.0], len(x))
    assert len(x) >= 10**6 and np.signbit(x[x == 0]).any() and not np.signbit(x[x == 0]).all()
    x = x[: len(x) // 8 * 8]
    path = str(tmp_path / "s.json")
    for chunk in np.split(x, np.arange(8 * 40_000, len(x), 8 * 40_000)):
        jsonio.write_json(path, jsonio.points_to_doc(4, chunk.reshape(-1, 8)))
        for fast in (True, False):
            got = np.array(jsonio._read(path, fast)[0]["points"])
            assert got.dtype == np.float64 and got.tobytes() == chunk.tobytes()


def test_files_of_the_17_digit_writer_still_read(monkeypatch, tmp_path):
    # earlier versions wrote format(x, ".17g"): 17 digits, integral values
    # without a point and -0.0 as -0, which reads as the integer 0
    x = np.random.default_rng(32001).standard_normal((50, 8)) * 10.0 ** np.arange(-3, 5)
    x[:, 0], x[0, 1:4] = -0.0, (3.0, 1e22, 5e-324)
    text = ('{\n  "version": 1,\n  "m": 4,\n  "kind": "points",\n  "points": [\n'
            + ",\n".join("    [" + ", ".join(format(v, ".17g") for v in row) + "]"
                         for row in x.tolist()) + "\n  ]\n}\n")
    assert "[-0, 3, 1e+22, 4.9406564584124654e-324, " in text
    path = _write(tmp_path, text)
    got = _assert_same_as_full_parse(monkeypatch, path)[2][0]
    assert got[2] == (x + 0.0).tobytes()


def test_hyperplane_negative_zeros_round_trip(tmp_path):
    # the bases of a plane with normal e2 hold 9 negative zeros a record
    st = hyperplane_samples(make_hyperplane(np.eye(8)[1], 1.5, 0.5), 100, 3)
    assert sum(int((np.signbit(a) & (a == 0)).sum()) for a in vars(st).values()) == 900
    path = str(tmp_path / "s.json")
    jsonio.write_json(path, jsonio.samples_to_doc(4, st))
    got = jsonio.load_pointcloud(path)[2]
    for field, arr in vars(st).items():
        assert getattr(got, field).tobytes() == arr.tobytes(), field


def _midpoints(rng, count):
    """Decimal texts of 25 to 60 digits at, just below and just above the
    midpoint of a double and the next one up."""
    texts = []
    for x in np.exp(rng.uniform(math.log(1e-300), math.log(1e300), count)).tolist():
        mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
        digits = int(rng.integers(25, 61))
        for rounding in (decimal.ROUND_HALF_EVEN, decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
            with decimal.localcontext(prec=digits, rounding=rounding):
                texts.append(str(+mid))
    # exact midpoints, which have at most 60 digits for these exponents
    m = rng.integers(2**52, 2**53, count // 4)
    e = rng.integers(-60, 140, count // 4)
    texts += [str((2 * int(mi) + 1) * decimal.Decimal(2) ** int(ei - 1))
              for mi, ei in zip(m.tolist(), e.tolist())]
    return texts


def test_midpoint_decimals_parse_as_float_does():
    texts = _midpoints(np.random.default_rng(31202), 20_000)
    assert max(len(t.replace(".", "").replace("-", "").split("E")[0]) for t in texts) > 17
    got = np.array(orjson.loads(("[" + ", ".join(texts) + "]").encode()))
    want = np.array([float(t) for t in texts])
    assert got.tobytes() == want.tobytes()


def _matrix_outcome(path):
    try:
        return jsonio.load_matrix(path).tobytes()
    except FormatError as exc:
        return f"FormatError: {exc}"


def _points_text():
    pts = np.random.default_rng(7).standard_normal((3, 4))
    return jsonio.dumps_canonical(jsonio.points_to_doc(2, pts))


def _matrix_text():
    return json.dumps({"note": "op", "matrix": np.arange(16.0).reshape(4, 4).tolist()})


# what the property below puts into a file, each an edge of the parse: a
# value in place of a number, a member at the start of an object, or bytes
# anywhere
_VALUES = [
    b"NaN", b"-Infinity", b"1e400", b"-0", b"-0.0", b"1.5", b"0.1000000000000000055511151231257827",
    b"1" + b"0" * 25, b"-123456789012345678901234567890", b"18446744073709551616",
    b"-9223372036854775809", b"123456789012345678", b'"\\ud800"', b'"\\udc00x"',
    b'"\\u0000"', b'"\\\\u0000"', b'"x"', b"null", b"true", b"[1.5]", b"[[[[]]]]",
]
_MEMBERS = [
    b'"note": "\\ud800", ', b'"note": "\\u0000", ', b'"A": "\\u0000", ', b'"A": null, ',
    b'"A":null, ', b'"label": "x\\"A\\": [1]", ', b'"note": "\xc3\xa9\\"[", ', b'"m": 2, ',
]
_BYTES = [b"\xef\xbb\xbf", b"\r\n", b"\r", b"\xff", b"\xed\xa0\x80", b"[", b"]", b'"', b"\\",
          b",", b" "]
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _edit(data, kind, where, which, extra):
    """data with one edit: kind 0 puts _VALUES or extra[0] in place of a
    number, kind 1 puts _MEMBERS or extra[1] after an "{", kind 2 puts
    _BYTES at a byte, kind 3 deletes up to 8 bytes, kind 4 sets a byte."""
    if kind == 0 and (spans := [m.span() for m in _NUMBER.finditer(data)]):
        (i, j), values = spans[int(where * len(spans)) % len(spans)], _VALUES + extra[0]
        return data[:i] + values[which % len(values)] + data[j:]
    if kind == 1 and (starts := [i + 1 for i, c in enumerate(data) if c == ord("{")]):
        i, members = starts[int(where * len(starts)) % len(starts)], _MEMBERS + extra[1]
        return data[:i] + members[which % len(members)] + data[i:]
    i = int(where * len(data))
    if kind == 3:
        return data[:i] + data[i + 1 + which % 8:]
    if kind == 4:
        return data[:i] + bytes([which % 256]) + data[i + 1:]
    return data[:i] + _BYTES[which % len(_BYTES)] + data[i:]


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["sphere", "plane", "points", "matrix"]), st.booleans(),
       st.lists(st.tuples(st.sampled_from([0, 0, 1, 1, 2, 3, 4]), st.floats(0, 1),
                          st.integers(0, 255)), min_size=1, max_size=3))
def test_mutated_files_load_as_the_stdlib_parse_loads_them(tmp_path, base, crlf, edits):
    if base in ("sphere", "plane"):
        if base == "sphere":
            text = _sphere_text(m=2, count=3, seed=1)
        else:
            stack = hyperplane_samples(make_hyperplane(np.eye(4)[0], 1.5, 0.5), 3, 2)
            text = jsonio.dumps_canonical(jsonio.samples_to_doc(2, stack))
        a = _a_text(text)
        extra = [a[5:].encode()], [f"{a}, ".encode(), f"{_other_a(a)}, ".encode()]
    else:
        text = _points_text() if base == "points" else _matrix_text()
        extra = [], [b'"A": [1.5, 2.5, 3.5], ', b'"B": {"A": [1.5, 2.5, 3.5]}, ']
    data = (text.replace("\n", "\r\n") if crlf else text).encode()
    for edit in edits:
        data = _edit(data, *edit, extra)
    path = tmp_path / "f.json"
    path.write_bytes(data)
    load = _matrix_outcome if base == "matrix" else _outcome
    _assert_same_as_full_parse(pytest.MonkeyPatch, str(path), load)


@pytest.fixture
def gc_state():
    """Leaves the cyclic collector enabled or disabled as it found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("cut", [None, -3], ids=["whole", "truncated"])
def test_reader_restores_the_collector(gc_state, tmp_path, enabled, cut):
    # paused while the file is read; then as before, after a FormatError too
    path = _write(tmp_path, _sphere_text()[:cut])
    (gc.enable if enabled else gc.disable)()
    if cut is None:
        jsonio.load_pointcloud(path)
    else:
        with pytest.raises(FormatError, match="cannot read"):
            jsonio.load_pointcloud(path)
    assert gc.isenabled() is enabled


def test_no_collection_while_reading(gc_state, tmp_path):
    # 300 records are some 5000 lists and dicts, about 7 times the allocations
    # that trigger a young-generation collection; all are freed by the return
    path = _write(tmp_path, _sphere_text(count=300))
    matrix = tmp_path / "op.json"
    matrix.write_text(json.dumps({"matrix": np.eye(800).tolist()}))
    starts = []

    def count(phase, info):
        starts.append(phase == "start")

    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        jsonio.load_pointcloud(path)
        jsonio.load_matrix(str(matrix))
        jsonio.load_pointcloud(path)
    finally:
        gc.callbacks.remove(count)
    assert not any(starts)
