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
