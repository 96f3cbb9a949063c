"""Checks on the source of src/apalm itself, made with the stdlib alone."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "apalm"


def unused_imports(tree: ast.Module) -> list[str]:
    """The names that tree imports at any depth and never reads: not as a
    name, not as the base of an attribute, not in `__all__`. `from
    __future__` imports bind no name."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport sys as system\n"
                     "from math import inf, pi\n"
                     "__all__ = ['pi']\n"
                     "def f(x: inf): return os.sep\n")
    assert unused_imports(tree) == ["system (line 3)"]
