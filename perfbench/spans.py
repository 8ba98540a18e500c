"""Spans around ttpar's public functions, installed from outside the package.

`tracing()` replaces module and class attributes of ``tsqr``, ``parallel``,
``comm``, ``ops`` and ``core`` with wrappers that record one span per call
(rank, name, start, end, parent) and puts the originals back on exit.  Names
that one module imports from another are bound twice, so both bindings are
wrapped.  Only threads that called `bind_rank` record; others pass through.

`layer_times` turns one rank's spans into self times per layer: a span's
self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

_local = threading.local()


@dataclass
class Span:
    """One call of a wrapped function on one rank; ``child_s`` sums the
    durations of its direct children."""

    name: str
    rank: int
    start: float
    parent: "Span | None"
    end: float = 0.0
    child_s: float = 0.0
    qr_calls: int = 0
    flops: float = 0.0
    leaf: bool = False

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def bind_rank(log: dict | None, rank: int) -> None:
    """Make the calling thread append its spans to ``log[rank]`` (None: stop)."""
    _local.log, _local.rank, _local.stack = log, rank, []


def _geqrf_flops(m: int, b: int) -> float:
    m, b = max(m, b), min(m, b)
    return 2.0 * m * b * b - (2.0 / 3.0) * b**3


def _wrap(name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        log = getattr(_local, "log", None)
        if log is None:
            return fn(*args, **kwargs)
        stack = _local.stack
        parent = stack[-1] if stack else None
        span = Span(name, _local.rank, 0.0, parent)
        if name == "tsqr.local_qr":
            # the first QR inside a factorization is the leaf, later ones
            # are tree nodes (stacked triangles)
            span.leaf = parent is None or parent.qr_calls == 0
            if parent is not None:
                parent.qr_calls += 1
            span.flops = _geqrf_flops(*args[0].shape)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += span.end - span.start
            log[span.rank].append(span)

    return traced


def _targets():
    """(owner, attribute, span name) for every wrapped public function."""
    from ttpar import comm, ops, parallel, tsqr

    out = [(tsqr, "local_qr", "tsqr.local_qr"),
           (tsqr.LocalQR, "apply", "tsqr.LocalQR.apply"),
           (tsqr.LocalQR, "explicit_q", "tsqr.LocalQR.explicit_q")]
    for mod in (tsqr, parallel):
        out += [(mod, "tsqr_factor", "tsqr.tsqr_factor"),
                (mod, "tsqr_apply_q", "tsqr.tsqr_apply_q")]
    for mod in (parallel, ops):
        out += [(mod, "orthonormalize", "parallel.orthonormalize"),
                (mod, "round_tt", "parallel.round_tt")]
    out.append((parallel, "truncated_svd", "parallel.truncated_svd"))
    out += [(comm.SimComm, m, f"comm.{m}") for m in ("sendrecv", "allreduce_sum", "broadcast")]
    out += [(ops, f, f"ops.{f}")
            for f in ("add", "scale", "hadamard", "inner_product", "norm", "apply_operator")]
    return out


@contextmanager
def tracing():
    """Install the wrappers for the duration of the block."""
    from ttpar.parallel import DistTTTensor

    saved = []
    try:
        for owner, attr, name in _targets():
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, _wrap(name, orig))
        orig = DistTTTensor.__dict__["random"]
        saved.append((DistTTTensor, "random", orig))
        DistTTTensor.random = classmethod(_wrap("core.random", orig.__func__))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


#: Span name -> the layer its self time is charged to.
_LAYER = {
    "tsqr.tsqr_factor": "tsqr.self_s",
    "tsqr.tsqr_apply_q": "tsqr.apply_s",
    "tsqr.LocalQR.apply": "tsqr.apply_s",
    "tsqr.LocalQR.explicit_q": "tsqr.apply_s",
    "parallel.truncated_svd": "parallel.svd_s",
    "parallel.round_tt": "parallel.self_s",
    "parallel.orthonormalize": "parallel.self_s",
    "comm.sendrecv": "comm.blocked_s",
    "comm.allreduce_sum": "comm.blocked_s",
    "comm.broadcast": "comm.blocked_s",
    "core.random": "core.random_s",
}


#: Every layer a self time can be charged to.
LAYERS = tuple(sorted(set(_LAYER.values()) | {
    "tsqr.leaf_qr_s", "tsqr.node_qr_s", "ops.self_s"}))


def layer_times(spans) -> dict:
    """Self seconds per layer (plus leaf QR flops) for one rank's spans."""
    out = defaultdict(float, dict.fromkeys(LAYERS, 0.0))
    for s in spans:
        if s.name == "tsqr.local_qr":
            out["tsqr.leaf_qr_s" if s.leaf else "tsqr.node_qr_s"] += s.self_s
            if s.leaf:
                out["tsqr.leaf_flops"] += s.flops
        elif s.name.startswith("ops."):
            out["ops.self_s"] += s.self_s
        else:
            out[_LAYER[s.name]] += s.self_s
    return out
