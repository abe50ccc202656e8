"""Source-level rules for the package itself.

`python -O` strips every `assert` statement, so no invariant of the
package may rest on one: library code raises explicitly instead.

Arithmetic is exact: no float literal and no `float(...)` call appears
in the package, so that no stray inexact value can enter the integer
and rational code.  Integral entries are stored as ints, and `/` on two
ints is a float, so every true division has a direct `Fraction(...)` call
as one operand; floor division `//` is exact on ints and exempt.

The package may import only itself, the standard library and the
dependencies declared in pyproject.toml: a module that is merely
installed here (scipy, sympy) would pass every test and break a clean
install.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import g2verify

PACKAGE_DIR = Path(g2verify.__file__).parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_package_has_no_assert_statements() -> None:
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_has_no_float_literals_or_float_calls() -> None:
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            literal = isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)
            )
            call = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            )
            if literal or call:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_division_has_a_fraction_operand() -> None:
    def is_fraction_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction"
        )

    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                operands = (node.value,)
            else:
                continue
            if not any(map(is_fraction_call, operands)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_imports_only_declared_dependencies() -> None:
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    allowed = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}
    allowed |= set(sys.stdlib_module_names) | {g2verify.__name__}
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    imported = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported, sources
    assert sorted(imported - allowed) == []
