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


def _unused_imports(path: Path) -> list:
    """Module-level imports of ``path`` that nothing in it reads, that
    ``__all__`` does not list, and whose alias line carries no
    ``# noqa: F401`` marker."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in used or name in exported or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            found.append(f"{path.name}:{alias.lineno} {name}")
    return found


def test_package_has_no_unused_imports():
    """Every module-level import is read in its module, re-exported through
    ``__all__``, or marked ``# noqa: F401`` on its own alias line."""
    files = sorted(Path(ttpar.__file__).parent.rglob("*.py"))
    assert "verify.py" in {f.name for f in files}
    assert [hit for f in files for hit in _unused_imports(f)] == []


#: What a layout rule reads of an array.
_LAYOUT_READS = {"strides", "f_contiguous", "c_contiguous", "aligned", "isfortran"}


def test_kernels_have_one_layout_rule():
    """In `ttpar._kernels` only `_operand` reads an array's strides or
    contiguity flags, so every raw BLAS/LAPACK call takes what it reads and
    writes, and the leading dimension, from that one rule: a second rule
    that hands a raw call a wrong leading dimension reads the wrong memory
    without an error."""
    path = Path(ttpar.__file__).parent / "_kernels.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rule = [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_operand"]
    assert len(rule) == 1
    inside = {id(node) for node in ast.walk(rule[0])}
    found = [
        f"_kernels.py:{node.lineno} .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _LAYOUT_READS
        and id(node) not in inside
    ]
    assert found == []
