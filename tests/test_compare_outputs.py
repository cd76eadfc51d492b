"""The output-comparison script finds a source tree identical to itself."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", os.path.join(ROOT, "tools", "compare_outputs.py"))
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_tree_matches_itself():
    steps = compare_outputs.corpus(quick=True)
    old, new = (compare_outputs.run_tree(ROOT, steps) for _ in range(2))
    assert compare_outputs.differences(steps, old, new) == []
    assert {r["exit"] for r in old} == {None, 0, 2, 3}
    assert all(len(r["q.json"]) == 64 for r in old if "q.json" in r)


def test_a_changed_record_is_reported():
    steps = compare_outputs.corpus(quick=True)[:1]
    old = compare_outputs.run_tree(ROOT, steps)
    new = [dict(old[0], exit=1, _residuals={})]
    (label, a, b), = compare_outputs.differences(steps, old, new)
    assert label == "sphere info --a 3 --b 4"
    assert "exit: 0 -> 1" in compare_outputs._describe(label, a, b)


def test_number_moves_are_reported():
    old_text = b'{"x": [1.0, 2.5], "note": "a=0.5", "passed": true}'
    old = {"exit": 0, "stdout": "0", "_numbers stdout": compare_outputs._numbers(old_text)}

    def describe(new_text):
        new = dict(old, stdout="1", **{"_numbers stdout": compare_outputs._numbers(new_text)})
        return compare_outputs._describe("label", old, new)

    # relative to max(1, max |x|) of the old document; numbers in strings count
    assert "stdout numbers moved by up to 4.000e-11 relative" in describe(
        b'{"x": [1.0, 2.5000000001], "note": "a=0.5", "passed": true}')
    assert "stdout numbers moved by up to 4.000e-02 relative" in describe(
        b'{"x": [1.0, 2.5], "note": "a=0.6", "passed": true}')
    for other in (b'{"x": [1.0, 2.5], "note": "a=0.5", "passed": false}',
                  b'{"x": [1.0], "note": "a=0.5", "passed": true}'):
        assert "stdout structure differs" in describe(other)
    assert compare_outputs._numbers(b"not json") is None


def test_per_number_moves_are_reported():
    # a sign flip of a tiny number hides under the document's largest one;
    # a number that was 0 has no relative move
    old_text = b'{"big": 1e30, "mu": 4.969e-17, "zero": 0}'
    old = {"exit": 0, "stdout": "0", "_numbers stdout": compare_outputs._numbers(old_text)}
    new_text = b'{"big": 1e30, "mu": -4.969e-17, "zero": 1e-47}'
    new = dict(old, stdout="1", **{"_numbers stdout": compare_outputs._numbers(new_text)})
    text = compare_outputs._describe("label", old, new)
    assert "stdout numbers moved by up to 9.938e-47 relative" in text
    assert "by up to 2.000e+00 per number" in text
    assert "(4.969e-17 -> -4.969e-17)" in text
