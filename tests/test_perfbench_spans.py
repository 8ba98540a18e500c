"""The benchmark's traced run wraps functions of ttpar by name; a refactor
that moves one of them must fail here, not only under ``--trace 1``."""

import importlib
import sys
from pathlib import Path

import pytest

from ttpar.parallel import DistTTTensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    """``perfbench/spans.py``, imported from its own directory."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    try:
        module = importlib.import_module("spans")
        assert Path(module.__file__).resolve() == PERFBENCH / "spans.py"
        yield module
    finally:
        sys.modules.pop("spans", None)


def test_span_targets_are_defined_where_spans_looks(spans):
    """Every ``(owner, attr)`` that ``perfbench/spans.py`` wraps is an entry
    of ``owner.__dict__``, which is where `spans.tracing` reads it from."""
    targets = spans._targets()
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, _ in targets if attr not in owner.__dict__]
    assert not missing, missing


def test_tracing_restores_every_wrapped_attribute(spans):
    """Entering `spans.tracing` replaces each target and ``DistTTTensor.random``
    by a wrapper; leaving it puts back the identical objects."""
    owners = [(owner, attr) for owner, attr, _ in spans._targets()]
    owners.append((DistTTTensor, "random"))
    before = [owner.__dict__[attr] for owner, attr in owners]
    with spans.tracing():
        during = [owner.__dict__[attr] for owner, attr in owners]
    after = [owner.__dict__[attr] for owner, attr in owners]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
