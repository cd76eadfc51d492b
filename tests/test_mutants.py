"""The mutant list of tools/mutants.py matches the code it mutates."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "mutants", os.path.join(ROOT, "tools", "mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_labels_are_unique():
    labels = [label for *_, label in mutants.MUTANTS]
    assert len(set(labels)) == len(labels)


@pytest.mark.parametrize("path,old,new,label", mutants.MUTANTS,
                         ids=[m[3] for m in mutants.MUTANTS])
def test_old_text_occurs_once(path, old, new, label):
    with open(os.path.join(ROOT, path)) as f:
        assert f.read().count(old) == 1
    assert new != old
