"""Source-level rules for the package itself.

`python -O` strips every `assert` statement, so no invariant of the
package may rest on one: library code raises explicitly instead.
"""

import ast
from pathlib import Path

import g2verify

PACKAGE_DIR = Path(g2verify.__file__).parent


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
