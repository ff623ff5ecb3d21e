"""Module-boundary guard: package modules import each other at module level
only, so the dependency order between them is visible in their headers."""

import ast
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "rclkit"


def test_no_function_local_relative_import():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.ImportFrom) and inner.level > 0:
                        found.append("%s:%d in %s()" % (path.name, inner.lineno, node.name))
    assert found == []


FUNCTOR_SLOT_NAMES = {"i_up", "i_lo", "i_bang", "j_bang", "j_up", "j_lo"}


def test_slot_names_only_in_recollement_tables():
    """The recollement's shape is spelled out once, in recollement.py; any
    other module reads it from there instead of listing the slots again."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "recollement.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Tuple, ast.List)):
                continue
            names = {inner.value for inner in ast.walk(node)
                     if isinstance(inner, ast.Constant) and inner.value in FUNCTOR_SLOT_NAMES}
            if len(names) >= 3:
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def _imports_of(node, top):
    """The modules an import node names whose top-level package is top."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        modules = []
    return [m for m in modules if m.split(".")[0] == top]


def test_no_sampler_in_the_engine():
    """Every search decides exactly: no module imports random, and no
    function takes a seed or a try budget."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            found += ["%s:%d imports %s" % (path.name, node.lineno, m)
                      for m in _imports_of(node, "random")]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                found += ["%s:%d %s(%s)" % (path.name, node.lineno, node.name, a.arg)
                          for a in args.posonlyargs + args.args + args.kwonlyargs
                          if a.arg in ("seed", "max_tries")]
    assert found == []


def test_morphisms_are_built_by_init_and_read_flat():
    """A morphism is its flat coordinate vector: nothing calls `__new__` to
    build one past `Morphism.__init__`'s length check, and nothing reads a
    nested `.blocks` view, in the package or its tests."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("__new__", "blocks"):
                found.append("%s:%d .%s" % (path.name, node.lineno, node.attr))
    assert found == []


def test_an_object_is_a_plain_tuple():
    """An object is the tuple of its generator names: no module of the
    package or its tests names an `ObjectExpr` wrapper or loads a
    `.summands` attribute off one."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = {getattr(node, field, None) for field in ("id", "name", "attr")}
            if "ObjectExpr" in names or (isinstance(node, ast.Attribute)
                                         and node.attr == "summands"
                                         and isinstance(node.ctx, ast.Load)):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def _attribute_loads(tree, attr, scope=()):
    """The dotted scope (classes and functions) of every load of `.attr`."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (node.name,)
        elif (isinstance(node, ast.Attribute) and node.attr == attr
              and isinstance(node.ctx, ast.Load)):
            yield ".".join(scope)
        yield from _attribute_loads(node, attr, inner)


def test_structure_constants_read_in_one_place():
    """Composition is read off `cat.comp` by `_composition_blocks` alone;
    besides it only the constructor, `comp_vec` and the three functions
    that copy a presentation's tables touch them."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {"%s.%s" % (path.stem, scope) for scope in _attribute_loads(tree, "comp")}
    assert found == {
        "category.FinLinCategory.__init__", "category.FinLinCategory.comp_vec",
        "category._composition_blocks", "category.restrict_category",
        "workspace._write_category", "fixture_gen._component_category"}


def test_cli_import_stays_light():
    """`import rclkit.cli` in a fresh isolated interpreter loads neither
    `dataclasses` nor the `inspect` module it pulls in, nor `argparse`,
    which only `cli.main` needs; and no package module imports
    `dataclasses`."""
    probe = ("import sys; sys.path.insert(0, 'src'); import rclkit.cli; "
             "print(sorted({'argparse', 'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", probe], cwd=TESTS.parent,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if _imports_of(node, "dataclasses")]
    assert found == []


def _loaded_names(tree):
    """Every name the module loads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def _engine_defs(tree):
    """The top-level defs and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield from (inner.name for inner in node.body
                        if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_every_engine_def_has_an_engine_reader():
    """The package keeps only code that a check depends on: every top-level
    def and method of a package module is loaded by name in some package
    module other than the fixture generator and `__init__`, and every name a
    module imports from a sibling is loaded in it.  `workspace.serialize`,
    the writer the fixture generator and the round-trip tests call, is the
    one def read from outside."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    loaded = {stem: _loaded_names(tree) for stem, tree in trees.items()}
    engine_loads = set().union(*(names for stem, names in loaded.items()
                                 if stem not in ("fixture_gen", "__init__")))
    unread = ["%s.%s" % (stem, name) for stem, tree in trees.items()
              if stem != "fixture_gen"
              for name in _engine_defs(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and name not in engine_loads]
    assert unread == ["workspace.serialize"]
    stale = ["%s:%d %s" % (stem, node.lineno, alias.asname or alias.name)
             for stem, tree in trees.items() if stem != "__init__"
             for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level > 0
             for alias in node.names
             if (alias.asname or alias.name) not in loaded[stem]]
    assert stale == []


def test_only_close_records_a_pass():
    """`Report.close` is the one way a check passes: `Report` has no `ok`,
    and no package module but report.py calls `.ok(` or hands `.add(` the
    pass status."""
    from rclkit.report import Report
    assert not hasattr(Report, "ok")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "report.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            passes = [a for a in node.args if (isinstance(a, ast.Constant) and a.value == "pass")
                      or (isinstance(a, ast.Name) and a.id == "PASS")]
            if node.func.attr == "ok" or (node.func.attr == "add" and passes):
                found.append("%s:%d .%s" % (path.name, node.lineno, node.func.attr))
    assert found == []
