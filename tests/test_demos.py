"""The demo scripts import only names the package exports.

The demos are parsed, not run: this catches an import left behind by a
removed or renamed public name without paying for the computations.
"""

import ast
from pathlib import Path

import pytest

import gnyamabe

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_exported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "gnyamabe"
                for alias in node.names}
    assert imported - set(gnyamabe.__all__) == set()
