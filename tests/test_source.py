"""Source hygiene of the package modules: every imported name is read."""

import ast
from pathlib import Path

import pytest

import kfglab

MODULES = sorted(p for p in Path(kfglab.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.  `import a.b` binds `a`;
    `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from a import b as c, d\nprint(sys, d)\n")
    assert unused_imports(source) == ["os (line 2)", "c (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
