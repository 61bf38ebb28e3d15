"""Every module-level import in src/geowidth is used by its module.

Exempt: ``from __future__`` imports, and the relative imports of ``__init__.py``,
which re-export the public names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "geowidth"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree: ast.Module, reexports: bool):
    """(bound name, line) for each module-level import, less the exempt ones."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__" and not (reexports and node.level):
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


def used_names(tree: ast.Module) -> set:
    """Every name the module reads, quoted annotations included."""
    nodes = list(ast.walk(tree))
    annotations = [n.annotation for n in nodes if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
    annotations += [n.returns for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns]
    for a in annotations:
        if isinstance(a, ast.Constant) and isinstance(a.value, str):
            nodes += ast.walk(ast.parse(a.value, mode="eval"))
    return {n.id for n in nodes if isinstance(n, ast.Name)}


def test_modules_found():
    assert SRC / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree, path.name == "__init__.py") if name not in used]
    assert not unused, f"{path.name} imports what it never uses: {', '.join(unused)}"
