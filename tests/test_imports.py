"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "distparse"


def unused_imports(source: str) -> list:
    """Names bound by imports in ``source`` that nothing else mentions."""
    module = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used.add(node.value)  # a quoted annotation or an __all__ entry
    return sorted(f"line {imported[name]}: {name}"
                  for name in imported.keys() - used)


def test_finds_an_unused_import():
    assert unused_imports("import re\nimport os\nos.sep\n") == ["line 1: re"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
