"""The package exports exactly the names the demos and the README quick
start import.

The demos and the quick start are parsed, not run: this catches an import
left behind by a removed or renamed public name, and an export nothing
uses, without paying for the computations.
"""

import ast
import re
from pathlib import Path

import pytest

import gnyamabe

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _quick_start() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _top_level_imports(source: str, filename: str) -> set[str]:
    tree = ast.parse(source, filename=filename)
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "gnyamabe"
            for alias in node.names}


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_exported(path):
    imported = _top_level_imports(path.read_text(), str(path))
    assert imported - set(gnyamabe.__all__) == set()


def test_exports_are_what_demos_and_quick_start_import():
    used = _top_level_imports(_quick_start(), "README.md")
    assert used
    for path in DEMOS:
        used |= _top_level_imports(path.read_text(), str(path))
    assert set(gnyamabe.__all__) == used
    assert len(gnyamabe.__all__) == len(used)
    assert all(hasattr(gnyamabe, name) for name in gnyamabe.__all__)
