"""Source hygiene of the package modules: every imported name is read, and
every module-level definition is read somewhere in the package, the tests
or the benchmark."""

import ast
from pathlib import Path

import pytest

import kfglab

MODULES = sorted(p for p in Path(kfglab.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent
# the re-exports of kfglab/__init__.py are not reads
READERS = [*MODULES, *sorted(TESTS.glob("*.py")),
           *sorted((TESTS.parent / "perfbench").glob("*.py"))]


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


def definitions(source: str) -> list[str]:
    """The module-level functions, classes and constants a module defines,
    dunder names aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def reads(source: str) -> set[str]:
    """Every name a module loads, every attribute it reads, and every string
    that is an identifier: the CLI's handler table and the benchmark
    tracer's hook list look definitions up by name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_unread_definitions_are_found():
    source = ("import x\nA = 1\nB: int = 2\n__all__ = []\n"
              "def f():\n    return A\ndef g():\n    pass\nclass C:\n    pass\n"
              "x.C\nx['g']\n")
    assert [name for name in definitions(source) if name not in reads(source)] == ["B", "f"]


@pytest.fixture(scope="module")
def read_anywhere() -> set[str]:
    return set().union(*(reads(path.read_text(encoding="utf-8")) for path in READERS))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_definition_is_read(path, read_anywhere):
    assert [name for name in definitions(path.read_text(encoding="utf-8"))
            if name not in read_anywhere] == []


def fork_sites(source: str) -> list[str]:
    """The function around each `os.fork()` call of a module, or
    "<module>" at module level."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "fork" and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "os"):
                sites.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_fork_sites_are_found():
    source = ("import os\nos.fork()\ndef f():\n    if os.fork() == 0:\n"
              "        pass\n    def g():\n        return os.fork\n")
    assert fork_sites(source) == ["<module>", "f"]


def test_only_the_verify_map_forks():
    package = sorted(Path(kfglab.__file__).parent.glob("*.py"))
    sites = [(path.name, where) for path in package
             for where in fork_sites(path.read_text(encoding="utf-8"))]
    assert sites == [("verify.py", "_map")]
