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
One fresh subprocess per case checks that the package and each
subcommand load only the modules they run: `import gnyamabe` loads no
submodule and no numpy, `constants` only `cli` and `geometry`, `bound`
only `cli`, `functional` and `geometry`, no numpy either, `ground-state`
neither `periodic` nor `numpy.polynomial`, and `periodic` neither
`functional`, `products` nor `numpy.polynomial`. The package's exports
resolve on first access to their submodules' objects.
The last tests parse the package, the demos and the benchmark: every
public function and method must be named outside its own definition,
every field of a public dataclass read as an attribute outside its
class, and every defaulted parameter of a public function or method
passed by some call outside its definition.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "gnyamabe"
MODULES = sorted(PACKAGE.rglob("*.py"))


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


def _run_child(code: str, *args: str):
    """What the fresh interpreter running `code` prints last, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_default_paths_load_no_scipy(tmp_path):
    loaded = _run_child(_CHILD, str(tmp_path / "orbit.dat"))
    assert list(loaded) == ["import gnyamabe", "constants", "bound",
                            "ground-state", "table", "periodic",
                            "return_time, circle_quotient"]
    assert all(mods == [] for mods in loaded.values()), loaded


# `python -m gnyamabe ARGV...` (a bare `import gnyamabe` when ARGV is
# empty), then the package modules, numpy and numpy.polynomial it has
# loaded
_LOADS_CHILD = """
import contextlib, io, json, runpy, sys
argv = sys.argv[1:]
import gnyamabe
if argv:
    sys.argv = ["gnyamabe", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("gnyamabe", run_name="__main__")
        except SystemExit as exc:
            assert exc.code == 0, exc.code
print(json.dumps(sorted(m for m in sys.modules
                        if m in ("numpy", "numpy.polynomial")
                        or m.split(".")[0] == "gnyamabe")))
"""


@pytest.mark.parametrize("argv, loaded", [
    ([], ["gnyamabe"]),
    (["constants"], ["gnyamabe", "gnyamabe.cli", "gnyamabe.geometry"]),
    (["bound", str(PACKAGE / "data" / "testfn_2_2.dat"), "2", "2"],
     ["gnyamabe", "gnyamabe.cli", "gnyamabe.functional",
      "gnyamabe.geometry"]),
], ids=["import", "constants", "bound"])
def test_loads_only_these(argv, loaded):
    assert _run_child(_LOADS_CHILD, *argv) == loaded


@pytest.mark.parametrize("argv, skipped", [
    (["ground-state", "2", "2"], {"gnyamabe.periodic", "numpy.polynomial"}),
    (["periodic", "4", "3"], {"gnyamabe.functional", "gnyamabe.products",
                              "numpy.polynomial"}),
], ids=["ground-state", "periodic"])
def test_subcommand_skips_what_it_does_not_run(argv, skipped):
    loaded = _run_child(_LOADS_CHILD, *argv)
    assert "numpy" in loaded
    assert skipped & set(loaded) == set()


def test_submodule_resolves_after_bare_import():
    code = """
import json, sys
import gnyamabe
before = "gnyamabe.periodic" in sys.modules
print(json.dumps([before, gnyamabe.periodic.__name__]))
"""
    assert _run_child(code) == [False, "gnyamabe.periodic"]


def test_exports_are_their_submodules_objects():
    import gnyamabe

    assert len(gnyamabe.__all__) == len(set(gnyamabe.__all__)) == 21
    for name in gnyamabe.__all__:
        obj = getattr(gnyamabe, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("gnyamabe.")
        assert obj is getattr(module, name)


def test_unknown_attribute_raises():
    import gnyamabe

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        gnyamabe.nope


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


def _sources():
    """(path, tree) of every module of the package, the demos and the
    benchmark."""
    paths = [*PACKAGE.rglob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in paths]


def _public_functions(tree):
    """(def, is_method) of every public function and method of a module:
    its top-level ones and those of its top-level classes."""
    found = [(node, False) for node in tree.body]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            found += [(node, True) for node in cls.body]
    return [(node, method) for node, method in found
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


def _name(node) -> str | None:
    """The last identifier of a name or an attribute chain."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_every_public_function_is_used_outside_the_tests():
    """Each public function and method of the package is referred to
    somewhere in the package, the demos or the benchmark outside its own
    definition; dunder methods are exempt. The benchmark's plain names
    are its local variables and do not count: its `run.py` has a local
    `scale`."""
    used = Counter()
    defined = []
    for path, tree in _sources():
        benchmark = path.parent.name == "perfbench"
        used += _references(tree, names=not benchmark)
        if not benchmark:
            defined += [node for node, _ in _public_functions(tree)]
    unused = [node.name for node in defined
              if used[node.name] <= _references(node, names=True)[node.name]]
    assert unused == [], unused


def _attribute_reads(node) -> Counter:
    """How often each attribute is read (`obj.attr`) under `node`."""
    return Counter(child.attr for child in ast.walk(node)
                   if isinstance(child, ast.Attribute)
                   and isinstance(child.ctx, ast.Load))


def test_every_dataclass_field_is_read_outside_the_tests():
    """Each field of a public dataclass of the package is read as an
    attribute somewhere in the package, the demos or the benchmark
    outside its own class body: a field that only the tests read is a
    value the program carries for nothing."""
    read = Counter()
    fields = []
    for path, tree in _sources():
        read += _attribute_reads(tree)
        if path.is_relative_to(PACKAGE):
            fields += [(cls, node.target.id) for cls in tree.body
                       if isinstance(cls, ast.ClassDef)
                       and not cls.name.startswith("_")
                       and any(_name(dec) == "dataclass"
                               for dec in cls.decorator_list)
                       for node in cls.body
                       if isinstance(node, ast.AnnAssign)]
    unread = [f"{cls.name}.{name}" for cls, name in fields
              if read[name] <= _attribute_reads(cls)[name]]
    assert unread == [], unread


def _passes(call, param: str, position: int | None) -> bool:
    """Whether `call` passes `param`, whose place among the positional
    arguments is `position` (None for a keyword-only one): by keyword,
    by position or through a `*` or `**` splat."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return position is not None and (
        position < len(call.args)
        or any(isinstance(arg, ast.Starred) for arg in call.args))


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """Each defaulted parameter of a public function or method of the
    package is passed by some call in the package, the demos or the
    benchmark outside its own definition, calls matched by the callee's
    name: a default that no caller overrides is a constant, and a
    parameter that only the tests set is a setting the program does not
    use. A method's positions do not count `self`."""
    trees = _sources()
    calls = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_name(node), []).append(node)
    unset = []
    for path, tree in trees:
        if not path.is_relative_to(PACKAGE):
            continue
        for fn, method in _public_functions(tree):
            args = fn.args
            positional = [arg.arg for arg in args.posonlyargs + args.args]
            first = len(positional) - len(args.defaults)
            defaulted = [(name, i - method) for i, name
                         in enumerate(positional) if i >= first]
            defaulted += [(arg.arg, None) for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            own = {id(node) for node in ast.walk(fn)}
            unset += [f"{fn.name}({name})" for name, position in defaulted
                      if not any(_passes(call, name, position)
                                 for call in calls.get(fn.name, ())
                                 if id(call) not in own)]
    assert unset == [], unset
