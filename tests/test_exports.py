"""Every name a kronjl module exports through __all__ exists, no module
or test imports a name it never reads, and the command line uses only the
harness's public names and holds no default and no family, baseline or
report-kind name of its own. No public function takes a private
parameter. One byte budget, indexing._BLOCK_BYTES, sizes every blocked
loop, one check refuses every oversized array, one function reads the
clock, one lays out grouped axes, one builds Kronecker products, one
counter holds the failure rule, and one function starts a thread. Every
top-level definition serves a command or waits on one list."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import kronjl
from kronjl import harness, indexing, transforms

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


def _public_callables(module):
    """(name, callable) for each function, class and public method or
    classmethod of a class named in the module's __all__."""
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def test_no_public_parameter_is_private():
    # a parameter only callers inside the package may set is not public
    private, checked = [], 0
    for info in pkgutil.iter_modules(kronjl.__path__):
        module = importlib.import_module(f"kronjl.{info.name}")
        for name, fn in _public_callables(module):
            params = inspect.signature(fn).parameters
            private += [f"{info.name}.{name}.{p}" for p in params
                        if p.startswith("_")]
            checked += 1
    assert checked > 50
    assert private == []


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
    # one exception: harness.load_config imports PyYAML, so a run without
    # a config never loads it (test_cli pins that in a fresh process)
    allowed = {("harness.py", "yaml")}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(n) for n in tree.body}
        local = [n.lineno for n in ast.walk(tree)
                 if isinstance(n, (ast.Import, ast.ImportFrom))
                 and id(n) not in top
                 and {(path.name, a.name) for a in n.names} - allowed]
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


def _bound_names(node):
    """Names a top-level statement binds."""
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    return []


def _module_names(tree):
    """Names a module binds at its top level."""
    for node in tree.body:
        yield from _bound_names(node)


def test_one_block_budget():
    # every blocked loop takes its size from indexing._blocks; the one
    # other size, rip._PAIR_CHUNK, is the pruning's lead set, not a block
    allowed = {("indexing", "_BLOCK_BYTES"), ("rip", "_PAIR_CHUNK")}
    knobs, readers = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        knobs |= {(path.stem, name) for name in _module_names(tree)
                  if re.search("CHUNK|BLOCK", name)}
        if path.stem != "indexing":
            readers += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                        if "_BLOCK_BYTES" in (getattr(n, "id", None),
                                              getattr(n, "attr", None),
                                              getattr(n, "name", None))]
    assert knobs == allowed
    assert readers == []
    # a span's size comes from the budget alone: the kernel gives a row
    # the same bytes in a block of any size, so no floor is needed
    assert list(inspect.signature(indexing._blocks).parameters) == [
        "count", "item_bytes"]


def _sites(node, where, hit):
    """Where each node for which hit(node) holds sits: (module, innermost
    function)."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (where[0], child.name)
        if hit(child):
            yield inner
        yield from _sites(child, inner, hit)


def _src_sites(hit):
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += _sites(tree, (path.stem, None), hit)
    return sites


def test_one_cell_timer():
    # every wall_ms comes from one timer, where a span timer can hook in
    readers = _src_sites(lambda n: "perf_counter" in (
        getattr(n, "id", None), getattr(n, "attr", None)))
    assert set(readers) == {("harness", "_timed")}


def test_one_thread_site():
    # one function starts a thread, and it sits beside the import-time
    # reads of the CPU affinity and the BLAS thread variables that decide
    # when it may
    def hit(n):
        names = (getattr(n, "id", None), getattr(n, "attr", None))
        return ("Thread" in names or "sched_getaffinity" in names
                or "NUM_THREADS" in str(getattr(n, "value", None)))
    sites = set(_src_sites(hit))
    assert {fn for _, fn in sites if fn} == {"hadamard_rows"}
    assert {module for module, _ in sites} == {"transforms"}


def test_one_kronecker_builder_and_one_sign_form():
    # every Kronecker product in transforms comes from kron_materialize,
    # which writes into `out` where given, and hadamard_rows always takes
    # sign factors
    tree = ast.parse((SRC / "transforms.py").read_text())
    krons = {n.name: {c.func.id for c in ast.walk(n) if isinstance(c, ast.Call)
                      and isinstance(c.func, ast.Name)}
             for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
             and "kron" in n.name}
    assert set(krons) == {"kron_materialize"}
    builder = inspect.signature(transforms.kron_materialize).parameters
    assert list(builder) == ["factors", "out"]
    rows = inspect.signature(transforms.hadamard_rows).parameters
    assert list(rows) == ["xs", "rows0", "factors"]
    assert rows["factors"].default is inspect.Parameter.empty


def test_one_layout_builder():
    # every fiber, slice and matricization is laid out by one function:
    # any other that transposes an np.arange builds a layout of its own
    def reads(name):
        return lambda n: name in (getattr(n, "id", None),
                                  getattr(n, "attr", None))
    builders = set(_src_sites(reads("arange"))) & set(
        _src_sites(reads("transpose")))
    assert builders == {("indexing", "_group_positions")}


def test_one_memory_refusal():
    # every BudgetError over bytes is raised by the one check behind the
    # two caps; the others are count and time budgets
    raises = _src_sites(lambda n: isinstance(n, ast.Raise) and any(
        getattr(c, "id", None) == "BudgetError" for c in ast.walk(n)))
    assert set(raises) == {
        ("indexing", "_check_bytes"), ("rip", "_support_array"),
        ("chaos", "check_partition_counting")}


def test_one_failure_rule():
    # every Monte Carlo cell is a source of ratios scored by one counter:
    # the only comparison against eps is its rule
    compares = _src_sites(lambda n: isinstance(n, ast.Compare) and any(
        isinstance(side, ast.Name) and side.id == "eps"
        for side in (n.left, *n.comparators)))
    assert compares == [("harness", "_failures")]


_PERFBENCH = "ROADMAP item 1: perfbench calls it"

# the top-level definitions no command reaches yet: each names the ROADMAP
# item that frees it, by giving it a command or by lifting the perfbench
# call that keeps it in src. An entry leaves the list when a command
# reaches it or it moves out of src, and a new definition no command
# reaches fails until it is listed; a helper only tests call belongs in
# tests/, not on this list
_NO_COMMAND_YET = {
    "adversarial._TRACED_BINDINGS": _PERFBENCH,
    "fwht.active_backend": _PERFBENCH,
    **dict.fromkeys(
        ["rip.SubmatrixReport", "rip._block_norms", "rip.check_submatrix_bound"],
        "ROADMAP item 6: the orbit form of report --kind rip"),
    **dict.fromkeys(
        ["sparsify.MAX_SUM_REL_TOL", "sparsify.MaxSumReport",
         "sparsify.check_max_sum_inequalities"],
        _PERFBENCH),
    **dict.fromkeys(["transforms.apply_dense_mat", "transforms.apply_factored"],
                    "ROADMAP item 5: kronjl embed"),
}


def _command_reach():
    """Every top-level definition of src/kronjl as "module.name", and those
    the command line reaches: cli.py's statements, which run every
    command and selftest, then each definition they read, and so on. A
    name resolves to its module's own top-level definition or to the one
    it imports from kronjl, and `module.name` through an imported kronjl
    module. Names are matched, not bindings, so a local that shadows a
    top-level name counts as a use of it."""
    defs, scopes, trees = {}, {}, {}
    for path in sorted(SRC.glob("*.py")):
        tree = trees[path.stem] = ast.parse(path.read_text(), filename=str(path))
        scope = scopes[path.stem] = {}  # name -> "module.name", or a module
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    scope[alias.asname or alias.name] = ".".join(
                        filter(None, (node.module, alias.name)))
            for name in _bound_names(node):
                if not name.startswith("__"):
                    scope[name] = f"{path.stem}.{name}"
                    defs[scope[name]] = (path.stem, node)

    def reads(module, node):
        scope = scopes[module]
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield scope.get(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                target = scope.get(n.value.id)
                if target in scopes:  # an imported kronjl module
                    yield f"{target}.{n.attr}"

    reached, todo = set(), [("cli", node) for node in trees["cli"].body]
    while todo:
        for key in reads(*todo.pop()):
            if key in defs and key not in reached:
                reached.add(key)
                todo.append(defs[key])
    return set(defs), reached


def test_every_definition_serves_a_command_or_is_listed():
    defs, reached = _command_reach()
    commands = {f"harness.{build.__name__}" for build in harness.COMMANDS.values()}
    assert commands | {"harness.selftest", "harness._rip_report"} <= reached
    unreached = defs - reached
    assert sorted(unreached - set(_NO_COMMAND_YET)) == []
    # the list only shrinks: a reached or deleted definition leaves it
    assert sorted(set(_NO_COMMAND_YET) - unreached) == []
    assert all(re.match(r"ROADMAP item \d+[a-z]?: \S", why)
               for why in _NO_COMMAND_YET.values())
