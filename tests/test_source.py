"""Source-level guards on the package itself."""

import ast
from pathlib import Path

import ttpar


def test_package_has_no_assert_statements():
    """Every guard is an explicit raise, so none disappears under python -O."""
    files = sorted(Path(ttpar.__file__).parent.rglob("*.py"))
    assert "ops.py" in {f.name for f in files}
    found = [
        f"{f.name}:{node.lineno}"
        for f in files
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"), filename=str(f)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
