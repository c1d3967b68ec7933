"""Only the circle-factor module imports scipy.

The package sources are parsed, not imported, so the test sees every
import statement, including those inside functions.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "gnyamabe"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "periodic.py")


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_modules_found():
    assert PACKAGE / "functional.py" in MODULES


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_scipy_import(path):
    scipy = {name for name in _imported_modules(path)
             if name == "scipy" or name.startswith("scipy.")}
    assert scipy == set()
