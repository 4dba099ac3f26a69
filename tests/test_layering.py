"""The package's module layering: every import sits at module level, and the
internal import graph has no cycle."""

import ast
from pathlib import Path

import pytest

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
    assert not _graph()["verify"] & {"harness", "synthetic"}
