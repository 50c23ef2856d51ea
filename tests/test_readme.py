"""The README quick tour runs, and each commented expression in it gives
the value its comment states."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The first python block of README.md."""
    return re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)


def test_quick_tour_runs_as_documented():
    source = quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2]
        assert repr(value) == comment.split(" — ")[0].strip(), ast.unparse(node)
        checked += 1
    assert checked >= 4
