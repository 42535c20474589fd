"""The exactness lint: no float enters the library's source.

An AST walk of every module of ``symbic`` refuses float literals, calls to
``float``, and the ``math`` functions that return floats, whether called
through ``math.`` or imported by name.  A permitted use is listed below by
file and line, and every listed use must still be there.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "symbic"

FLOAT_MATH = frozenset({"sqrt", "log", "log2", "log10", "exp", "pow", "fsum"})

# The shape sampler of ``random_regular_tree`` branches on
# ``rng.random() < p``; the draws pick a shape and never reach a value.
PERMITTED = [
    ("counting.py", 547, "float literal 0.6"),
    ("counting.py", 556, "float literal 0.5"),
    ("counting.py", 558, "float literal 0.5"),
]


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """Each float literal, ``float(...)`` call and float-returning ``math``
    function of a module, as (line, what)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float":
                found.append((node.lineno, "call to float"))
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH:
            if isinstance(node.value, ast.Name) and node.value.id == "math":
                found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_MATH or alias.name == "*":
                    found.append((node.lineno, f"from math import {alias.name}"))
    return found


def test_float_uses_are_caught():
    source = (
        "import math\n"
        "from math import sqrt\n"
        "x = 1.5\n"
        "y = float(3)\n"
        "z = math.log(2) + math.lcm(2, 3)\n"
        "w = 2j\n"
    )
    assert sorted(float_uses(ast.parse(source))) == [
        (2, "from math import sqrt"),
        (3, "float literal 1.5"),
        (4, "call to float"),
        (5, "math.log"),
        (6, "float literal 2j"),
    ]


def test_no_float_enters_the_source():
    modules = sorted(SOURCE.glob("*.py"))
    assert {path.name for path in modules} >= {"tropical.py", "counting.py", "correspond.py"}
    found = sorted(
        (path.name, line, what)
        for path in modules
        for line, what in float_uses(ast.parse(path.read_text(), filename=str(path)))
    )
    assert found == PERMITTED
