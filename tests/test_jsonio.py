"""The sample reader parses a repeated "A" text once: every file, edited or
not, must load exactly as the full parse loads it.

The reference below is the reader without that path, kept here: the whole
text through json.loads, then load_pointcloud's own checks and _floats.  Each
case compares the two bit for bit, or by the text of the FormatError.

The writer's %.17g kernel must give the bytes of format(x, ".17g") for every
finite double; its reference is that call, row by row.
"""

import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nordenhs import jsonio
from nordenhs.errors import FormatError
from nordenhs.hypersurface import (
    hyperplane_samples,
    make_h_sphere,
    make_hyperplane,
    make_surface_samples,
)


def _read_in_full(path):
    """jsonio._read as it was before the shared-A path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text, parse_constant=jsonio._reject_constant)
    except (OSError, ValueError, RecursionError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return doc, None if "u" in text or "f" in text else text.count('"')


def _outcome(path):
    """(m, kind, (dtype, shape, bytes) of each array), or the FormatError text."""
    try:
        m, kind, payload = jsonio.load_pointcloud(path)
    except FormatError as exc:
        return f"FormatError: {exc}"
    arrays = [payload] if kind == "points" else list(vars(payload).values())
    return m, kind, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _assert_same_as_full_parse(monkeypatch, path):
    """Assert that the reader loads path as the full parse does; returns the outcome."""
    got = _outcome(path)
    with monkeypatch.context() as mp:
        mp.setattr(jsonio, "_read", _read_in_full)
        want = _outcome(path)
    assert got == want
    # the documents are the same too, number types and key order included
    try:
        doc = json.dumps(jsonio._read(path)[0])
    except FormatError as exc:
        doc = str(exc)
    try:
        ref = json.dumps(_read_in_full(path)[0])
    except FormatError as exc:
        ref = str(exc)
    assert doc == ref
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


# ---------------------------------------------------------------------------
# the writer's %.17g kernel
# ---------------------------------------------------------------------------

def _assert_rows_formatted(x):
    """Each row of the 2-d array x is written as format(v, ".17g") joined by ", "."""
    lines = jsonio._lines(x, jsonio._row_seps(x.shape))
    want = [", ".join(format(v, ".17g") for v in row) for row in x.tolist()]
    assert len(lines) == len(want)
    bad = [(got, ref) for got, ref in zip(lines, want) if got != ref]
    assert not bad, bad[:5]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=24))
def test_kernel_matches_format_on_any_finite_double(values):
    _assert_rows_formatted(np.array(values).reshape(1, -1))


def test_kernel_matches_format_on_a_sweep():
    rng = np.random.default_rng(20281)
    n = 335_000
    bits = rng.integers(0, 2**63, n).view(np.float64)  # NaN and inf are dropped below
    magnitudes = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), n))
    ties = np.ldexp([1.0, 3.0, 5.0, 7.0], np.arange(-1074, 1021)[:, None]).ravel()
    scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    x = np.concatenate([bits, magnitudes, ties, scaled])
    x = x[np.isfinite(x)]
    x *= rng.choice([-1.0, 1.0], len(x))
    assert len(x) >= 10**6
    _assert_rows_formatted(x[: len(x) // 8 * 8].reshape(-1, 8))


def test_kernel_matches_format_at_the_edges():
    tens = np.array([float(f"1e{k}") for k in range(-307, 308)])
    edges = np.array([9.999999999999999e16, 1e16, 1e17, 1e-4, 1e-5, 1e308, 5e-324,
                      2.2250738585072014e-308, 2.2250738585072009e-308,
                      1.7976931348623157e308, 0.0, 1.0, 0.5, 1e22, 1e23])
    x = np.concatenate([tens, edges])
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.finfo(float).max)])
    x = np.concatenate([x, -x])
    _assert_rows_formatted(x.reshape(-1, 6))


def test_kernel_tables_are_exact():
    # at index d - _DMIN + 1, for each d the kernel serves: H + L is 10^(16-d)
    # within 2^-106·H, the bound its tie test rests on, H's halves add up to
    # H, and C is the least double >= 10^d
    ceil, pow10 = jsonio._tables()[:2]

    def ratio(k):
        return (10**k, 1) if k >= 0 else (1, 10**-k)

    for i, d in enumerate(range(jsonio._DMIN - 1, jsonio._DMAX + 2)):
        num, den = ratio(d)
        (cn, cd), (bn, bd) = (float(c).as_integer_ratio() for c in (ceil[i], np.nextafter(ceil[i], 0)))
        assert cn * den >= num * cd and bn * den < num * bd
        hi, h1, h2, lo = pow10[i].tolist()
        assert h1 + h2 == hi
        if jsonio._DMIN <= d <= jsonio._DMAX:
            num, den = ratio(16 - d)
            (hn, hd), (ln, ld) = hi.as_integer_ratio(), lo.as_integer_ratio()
            err = abs(num * hd * ld - hn * den * ld - ln * den * hd)  # |10^k - H - L|·den·hd·ld
            assert err * 2**106 <= hn * den * ld


def test_model_sample_files_need_no_fallback(monkeypatch):
    # every number of a model surface's sample file, closed form and FD, comes
    # from the kernel: format() is only its fallback
    calls = []
    monkeypatch.setattr(jsonio, "format", lambda *a: calls.append(a) or format(*a), raising=False)
    for fd in (False, True):
        _sphere_text(count=40, fd=fd)
    assert not calls
    jsonio._lines(np.array([5e-324]), np.array([jsonio._NEWLINE]))
    assert calls == [(5e-324, ".17g")]
