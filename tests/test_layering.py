"""The package's module layering: every import sits at module level, the
internal import graph has no cycle, and every module-level name is used."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

import bilevelbench as bb

SRC = Path(__file__).resolve().parent.parent / "src" / "bilevelbench"
MODULES = {p.stem: ast.parse(p.read_text(), filename=str(p))
           for p in sorted(SRC.glob("*.py"))}


def _imports(tree):
    """(import node, enclosing function or class name or None), every one."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, scope
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                else scope)
            yield from walk(child, inner)
    return walk(tree, None)


def _internal_targets(node):
    """The package modules an import statement names."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
        return {n.split(".")[1] if "." in n else "__init__"
                for n in names if n.split(".")[0] == "bilevelbench"}
    if node.level == 0 and (node.module or "").split(".")[0] != "bilevelbench":
        return set()
    if node.level > 1:
        raise AssertionError("no module of the package sits below another")
    module = (node.module or "").removeprefix("bilevelbench").lstrip(".")
    if module:
        return {module.split(".")[0]}
    # "from . import x": x is a module, or a name from the package itself
    return {a.name if a.name in MODULES else "__init__" for a in node.names}


def _graph():
    return {name: set().union(*(_internal_targets(n) for n, _ in _imports(tree)))
            - {name}
            for name, tree in MODULES.items()}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_import_inside_a_function_or_class(module):
    nested = [f"line {node.lineno} in {scope}"
              for node, scope in _imports(MODULES[module]) if scope is not None]
    assert nested == [], f"{module}.py imports inside a body: {nested}"


def test_internal_import_graph_is_acyclic():
    graph = _graph()
    assert set().union(*graph.values()) <= set(graph)
    state: dict[str, str] = {}

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(graph[name]):
            if state.get(dep) == "open":
                cycle = path[path.index(dep):] + [dep]
                raise AssertionError(f"import cycle: {' -> '.join(cycle)}")
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name, [name])


def test_verify_depends_on_neither_runs_nor_instances():
    # the checkers read what a problem states and what a run produced
    assert not _graph()["verify"] & {"algorithms", "harness", "synthetic"}


def test_only_problem_names_the_pointwise_lower_level_maps():
    # every other module reads the lower level through det.lower_at(x)(y),
    # and the two Hessian-vector products have no pointwise map at all
    def naming(pattern):
        return sorted(path.stem for path in SRC.glob("*.py")
                      if re.search(pattern, path.read_text()))
    assert naming(r"\bgrad_y_g\b") == ["problem"]
    assert naming(r"\b(hvp_xy_g|hvp_yy_g)\b") == []


def test_all_names_the_package_imports_once():
    # a name deleted from a module but left in __all__ fails here
    imported = [alias.asname or alias.name
                for node in MODULES["__init__"].body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert len(set(bb.__all__)) == len(bb.__all__)
    assert sorted(bb.__all__) == sorted(imported)
    for name in bb.__all__:
        assert getattr(bb, name) is not None


def _module_level_names(tree):
    """(name, line) of every function, class and name assigned at module
    level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield name.id, name.lineno


def test_every_module_level_name_is_referenced():
    # a name that no other line of src/ mentions is unreachable code
    lines = defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for number, text in enumerate(path.read_text().splitlines(), 1):
            for word in re.findall(r"\w+", text):
                lines[word].add((path.stem, number))
    unreferenced = [f"{module}.{name}"
                    for module, tree in MODULES.items()
                    for name, line in _module_level_names(tree)
                    if not (name.startswith("__") and name.endswith("__"))
                    and lines[name] <= {(module, line)}]
    assert unreferenced == []


def _names_in_code(tree):
    """Every identifier, attribute and imported name a module's code uses;
    docstrings and comments do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def test_src_defines_no_test_only_code():
    # a function or class that only tests reach belongs in the tests: code
    # in src/, perfbench/ or tools/ must name it, or the package export it
    root = SRC.parent.parent
    used = set()
    for path in [*SRC.glob("*.py"), *(root / "perfbench").glob("*.py"),
                 *(root / "tools").glob("*.py")]:
        used.update(_names_in_code(ast.parse(path.read_text(), filename=str(path))))
    test_only = [f"{module}.{node.name}"
                 for module, tree in MODULES.items()
                 for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                 and node.name not in used and node.name not in bb.__all__]
    assert test_only == []
