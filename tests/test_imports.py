"""The package imports no scipy; only the tests use it, as a referee.
And it defines no public function or method that only the tests call.

The sources are parsed, not imported, so the static tests see every
import statement, including those inside functions: no module imports
scipy anywhere, not even the circle-factor time integrations, which run
on the package's own Dormand-Prince stepper. A subprocess then checks
that importing the package, running each subcommand (the orbit dump
included), time-integrating an orbit and taking its Yamabe quotient load
no scipy module at all, and no OpenSSL through `_hashlib` either: only
`functional.bundled_test_function`, which no subcommand calls, hashes.
The last test parses the package, the demos and the benchmark: every
public function and method must be named outside its own definition.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "gnyamabe"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "periodic.py")
# the functions allowed to import scipy inside their bodies: none since
# the time integrations stopped using solve_ivp and simpson
SCIPY_REFEREES = set()


def _imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, outermost enclosing function or None) for every absolute
    import statement in `path`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, owner) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.module, owner))
            inner = owner
            if owner is None and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            visit(child, inner)

    visit(tree, None)
    return found


def _scipy_owners(path: Path) -> set[str | None]:
    return {owner for name, owner in _imports(path)
            if name == "scipy" or name.startswith("scipy.")}


def test_modules_found():
    assert PACKAGE / "functional.py" in MODULES


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_scipy_import(path):
    assert _scipy_owners(path) == set()


def test_periodic_imports_scipy_only_in_referees():
    assert _scipy_owners(PACKAGE / "periodic.py") == SCIPY_REFEREES


_CHILD = """
import contextlib, io, json, sys
from importlib import resources

def unwanted_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "_hashlib")

import gnyamabe
loaded = {"import gnyamabe": unwanted_modules()}
import gnyamabe.cli
profile = str(resources.files("gnyamabe.data").joinpath("testfn_2_2.dat"))
dump = sys.argv[1]
for argv in (["constants"], ["bound", profile, "2", "2"],
             ["ground-state", "2", "2"], ["table", "--max-dim", "4"],
             ["periodic", "4", "3", "--dump", dump]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = gnyamabe.cli.main(argv)
    loaded[argv[0]] = unwanted_modules() if code == 0 else code
from gnyamabe.periodic import return_time
return_time(4, 0.9)
gnyamabe.circle_quotient(4, 0.9)
loaded["return_time, circle_quotient"] = unwanted_modules()
print(json.dumps(loaded))
"""


def test_default_paths_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path / "orbit.dat")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert list(loaded) == ["import gnyamabe", "constants", "bound",
                            "ground-state", "table", "periodic",
                            "return_time, circle_quotient"]
    assert all(mods == [] for mods in loaded.values()), loaded


def _references(node, names: bool) -> Counter:
    """How often each identifier is referred to under `node`: as an
    attribute, an imported name or a string constant (the benchmark's
    tracer names its targets in strings) and, when `names` is set, as a
    plain name too."""
    found = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            found[child.attr] += 1
        elif isinstance(child, ast.alias):
            found[child.name] += 1
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            found[child.value] += 1
        elif names and isinstance(child, ast.Name):
            found[child.id] += 1
    return found


def test_every_public_function_is_used_outside_the_tests():
    """Each public function and method of the package is referred to
    somewhere in the package, the demos or the benchmark outside its own
    definition; dunder methods are exempt. The benchmark's plain names
    are its local variables and do not count: its `run.py` has a local
    `scale`."""
    used = Counter()
    defined = []
    for path in [*PACKAGE.rglob("*.py"), *(ROOT / "demos").glob("*.py")]:
        tree = ast.parse(path.read_text(), filename=str(path))
        used += _references(tree, names=True)
        classes = [cls for cls in tree.body if isinstance(cls, ast.ClassDef)]
        for body in [tree.body] + [cls.body for cls in classes]:
            defined += [node for node in body
                        if isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")]
    for path in (ROOT / "perfbench").glob("*.py"):
        used += _references(ast.parse(path.read_text(), filename=str(path)),
                            names=False)
    unused = [node.name for node in defined
              if used[node.name] <= _references(node, names=True)[node.name]]
    assert unused == [], unused
