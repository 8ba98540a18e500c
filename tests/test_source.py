"""Source-level guards on the package itself."""

import ast
import importlib.util
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


def test_only_enter_tells_the_tensor_flavors_apart():
    """In `ttpar` only `parallel._enter` calls ``isinstance`` on `TTTensor`
    or `DistTTTensor`, so every op takes either flavor by one rule and
    returns its result in the flavor it was given."""
    flavors = {"TTTensor", "DistTTTensor"}
    found = []
    for f in sorted(Path(ttpar.__file__).parent.rglob("*.py")):
        tree = ast.parse(f.read_text(encoding="utf-8"), filename=str(f))
        inside = set()
        if f.name == "parallel.py":
            rule = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_enter"]
            assert len(rule) == 1
            inside = {id(node) for node in ast.walk(rule[0])}
        found += [
            f"{f.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and id(node) not in inside
            and flavors & {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
        ]
    assert found == []


_FIXTURE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment keeps the line

# a comment-only line


class A:
    """Class docstring."""

    x = """not a docstring:
# this line is string, not comment
"""

    def f(self):
        """Function docstring."""
        return os.sep
'''


def _tool(name: str):
    """The module ``tools/<name>.py``, loaded from its file."""
    path = Path(__file__).parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_code_lines_counts_code_outside_docstrings():
    """`tools/code_lines.py` counts the lines of the fixture that carry
    code: not blank, not comment-only, outside the three docstrings; a
    non-docstring string's lines count, a '#' inside it included."""
    assert _tool("code_lines").count(_FIXTURE) == 7


def test_grid_digests_repeat_in_process():
    """`tools/grid.py` gives a rounding case and a TSQR case the same digest
    on a second run, and another seed a different one."""
    grid = _tool("grid")
    names = ["mixed-b/s1/P2/round-LRLI-1e-08-capNone", "tsqr-41x6/binomial/s1/P3"]
    assert set(names) <= set(grid.cases())
    first = [grid.digest(n) for n in names]
    assert [grid.digest(n) for n in names] == first
    assert grid.digest(names[0].replace("/s1/", "/s2/")) != first[0]
