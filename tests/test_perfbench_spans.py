"""The benchmark's traced run wraps functions of ttpar by name; a refactor
that moves one of them must fail here, not only under ``--trace 1``."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_span_targets_are_defined_where_spans_looks(monkeypatch):
    """Every ``(owner, attr)`` that ``perfbench/spans.py`` wraps is an entry
    of ``owner.__dict__``, which is where `spans.tracing` reads it from."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    try:
        spans = importlib.import_module("spans")
        assert Path(spans.__file__).resolve() == PERFBENCH / "spans.py"
        targets = spans._targets()
    finally:
        sys.modules.pop("spans", None)
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, _ in targets if attr not in owner.__dict__]
    assert not missing, missing
