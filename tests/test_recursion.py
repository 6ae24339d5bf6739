"""No function in the package calls itself.

Tree readers, builders and decoders use explicit stacks, so input depth
is bounded by memory, never by Python's recursion limit.  A call by the
function's bare name anywhere in its body, nested functions included,
counts; attribute calls such as ``np.load`` or ``super().__init__`` do
not.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "distparse"


def self_calls(source: str) -> list:
    """Functions in ``source`` that call themselves by their bare name."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == fn.name):
                found.append(f"line {fn.lineno}: {fn.name}")
                break
    return found


def test_finds_a_self_call():
    source = (
        "def count(n):\n"
        "    return 0 if n == 0 else 1 + count(n - 1)\n"
        "def outer(t):\n"
        "    def walk(x):\n"
        "        return [walk(c) for c in x]\n"
        "    return walk(t)\n"
        "class Model:\n"
        "    def load(self, np):\n"
        "        super().load()\n"
        "        return np.load(self)\n")
    assert self_calls(source) == ["line 1: count", "line 4: walk"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    assert self_calls(path.read_text(encoding="utf-8")) == []
