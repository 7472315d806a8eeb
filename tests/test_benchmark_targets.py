"""The benchmark's traced runs patch library names; each must still exist."""

import ast
import importlib
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def traced_targets():
    """TARGETS of perfbench/child.py, read from its source without running it."""
    tree = ast.parse(CHILD.read_text(), filename=str(CHILD))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {CHILD}")


@pytest.mark.parametrize("span,module,attribute", traced_targets())
def test_traced_target_resolves(span, module, attribute):
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span
