"""Every name a kronjl module exports through __all__ exists, no module
or test imports a name it never reads, and the command line uses only the
harness's public names and holds no default and no family, baseline or
report-kind name of its own."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import kronjl
from kronjl import harness

TESTS = Path(__file__).resolve().parent
SRC = Path(kronjl.__file__).resolve().parent


def test_every_exported_name_exists():
    checked = 0
    for info in pkgutil.iter_modules(kronjl.__path__):
        module = importlib.import_module(f"kronjl.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"kronjl.{info.name}.{name}"
            checked += 1
    assert checked > 0


def _imported_names(tree):
    """(name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def _read_names(tree):
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        # a name listed in __all__ is read by whoever imports it
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {ast.literal_eval(e) for e in node.value.elts}
    return names


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = []
    for path in paths:
        if path == SRC / "__init__.py":
            continue  # the package's imports are its re-exports
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read_names(tree)
        unused += [f"{path.parent.name}/{path.name}:{line}: {name}"
                   for name, line in _imported_names(tree) if name not in read]
    assert len(paths) > 20
    assert unused == []


def test_library_imports_at_module_level():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(n) for n in tree.body}
        local = [n.lineno for n in ast.walk(tree)
                 if isinstance(n, (ast.Import, ast.ImportFrom))
                 and id(n) not in top]
        assert local == [], f"{path.name}: imports inside a function at {local}"


def test_cli_reads_no_private_harness_name():
    tree = ast.parse((SRC / "cli.py").read_text())
    private = [f"{n.lineno}: harness.{n.attr}" for n in ast.walk(tree)
               if isinstance(n, ast.Attribute) and n.attr.startswith("_")
               and isinstance(n.value, ast.Name) and n.value.id == "harness"]
    assert private == []


def test_cli_names_no_choice_and_no_default():
    # choices come from the harness's tuples and defaults from its
    # builders' signatures, so none may be written out in cli.py
    tree = ast.parse((SRC / "cli.py").read_text())
    names = set(harness.FAMILIES + harness.BASELINES + harness.REPORT_KINDS)
    named = [f"{n.lineno}: {n.value!r}" for n in ast.walk(tree)
             if isinstance(n, ast.Constant) and isinstance(n.value, str)
             and names & set(re.findall(r"[a-z]+", n.value))]
    assert named == []
    defaults = [n.lineno for n in ast.walk(tree)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "get" and len(n.args) + len(n.keywords) > 1]
    assert defaults == []
