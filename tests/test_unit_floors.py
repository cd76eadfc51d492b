"""No gate of the library holds a residual against a hidden unit length.

Every residual is compared with tol times the size of what it compares.
A floor of 1, max(1.0, x) or np.maximum(1.0, x), stays only where that
size is 1 by construction; ALLOWED names each such function with the
reason.  The test reads the calls from the syntax tree of every module
of src/nordenhs, so comments and docstrings do not count.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "nordenhs")

ALLOWED = {
    "core.is_adapted_basis": "the basis must be g-orthonormal: its Gram relations are delta_ij",
    "hypersurface.normalize_normal_frame": "eta must be g-unit, so max|eta| >= 1/sqrt(m)",
    "verify.suite_metrics": "its own draws, entries and c uniform in [-2, 2]",
    "verify.suite_gauss": "its own draws, coefficients uniform in [-1, 1] of a unit basis",
    "verify.suite_sigma": "its own draws, coefficients uniform in [-1, 1] of a unit basis",
}


def _is_floor(node):
    """A call max(1, ...) or np.maximum(1, ...), with 1 or 1.0."""
    if not isinstance(node, ast.Call) or not node.args:
        return False
    f = node.func
    name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
    first = node.args[0]
    return (name in ("max", "maximum") and isinstance(first, ast.Constant)
            and type(first.value) in (int, float) and first.value == 1)


def _owners(node, owner, module):
    """The owner of every unit floor under node: the innermost function
    that holds it, or the module."""
    if isinstance(node, ast.FunctionDef):
        owner = f"{module}.{node.name}"
    found = [owner] if _is_floor(node) else []
    for child in ast.iter_child_nodes(node):
        found += _owners(child, owner, module)
    return found


def floors(src=SRC):
    """module.function of every unit floor in the modules of src, one per call."""
    found = []
    for name in sorted(n for n in os.listdir(src) if n.endswith(".py")):
        with open(os.path.join(src, name)) as f:
            found += _owners(ast.parse(f.read()), f"{name[:-3]}.<module>", name[:-3])
    return found


def test_every_unit_floor_is_allowed():
    assert sorted(set(floors()) - set(ALLOWED)) == []


def test_no_allowlist_entry_is_stale():
    assert sorted(set(ALLOWED) - set(floors())) == []


@pytest.mark.parametrize("code,hits", [
    ("def f(x):\n    return max(1.0, x)\n", ["m.f"]),
    ("import numpy as np\ndef g(x):\n    return np.maximum(1, x)\n", ["m.g"]),
    ("def f(x):\n    def g(y):\n        return max(1.0, y)\n    return g(x)\n", ["m.g"]),
    ("S = max(1.0, 2.0)\n", ["m.<module>"]),
    ("def f(x):\n    return max(2.0, x), max(x, 1.0), max(True, x)  # max(1.0, x)\n", []),
])
def test_floors_are_found(tmp_path, code, hits):
    (tmp_path / "m.py").write_text(code)
    assert floors(str(tmp_path)) == hits
