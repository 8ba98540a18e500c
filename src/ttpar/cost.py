"""Closed-form alpha-beta-gamma cost predictions for TT kernels and TSQR.

`estimate` prints the familiar uniform-rank leading terms (every mode size I,
every bond rank R): inner product 4 N I R^3 / P, Gram-based norm half that,
orthonormalization 5 N I R^3 / P, rounding N I R (3R^2 + 6RL + 4L^2) / P with
the implicit-factor strategy, Hadamard N I R^4 / P, and TSQR 2 m b^2 / P.
Communication terms are order-of-magnitude estimates with unit constants
(flagged ``order_estimate``) since the tree constants depend on the reduction
algorithm; they vanish at P = 1 where no exchange happens at all.

`chain_estimate` evaluates the same per-mode polynomials on an actual
(dims, ranks) chain.  End bonds have rank 1, so for short trains the uniform
formulas overshoot real instrumented counters by 20-30%; the chain form is
what counter validation compares against, phase by phase.  Its sweep shapes
come from the orientation objects `ttpar.parallel`'s sweeps run on; its norm
also counts each mode's replicated Cholesky of the r x r carry (r^3 / 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from .comm import CostModelParams, _check_count, _log2_ceil
from .core import _check_chain
from .errors import ContractError
from ._kernels import SVD_FLOPS_PER_MN2
from .ops import _cholesky_flops
from .parallel import _BACKWARD, _check_variant, _sweeps

OP_KINDS = (
    "summation",
    "hadamard",
    "inner_product",
    "norm",
    "orthonormalization",
    "rounding",
    "tsqr",
)

_ALIASES = {
    "add": "summation",
    "sum": "summation",
    "dot": "inner_product",
    "inner": "inner_product",
    "ortho": "orthonormalization",
    "round": "rounding",
}


@dataclass(frozen=True)
class PhaseCost:
    """Per-phase totals; ``order_estimate`` marks unit-constant O(.) terms."""

    phase: str
    flops: float = 0.0
    words: float = 0.0
    messages: float = 0.0
    order_estimate: bool = False


@dataclass(frozen=True)
class CostReport:
    op_kind: str
    flops: float
    words: float
    messages: float
    breakdown: tuple

    def seconds(self, params: CostModelParams) -> float:
        return params.seconds(self.flops, self.words, self.messages)


def _canon(op_kind: str) -> str:
    kind = _ALIASES.get(str(op_kind).lower(), str(op_kind).lower())
    if kind not in OP_KINDS:
        raise ContractError(f"unknown op_kind {op_kind!r}; pick from {OP_KINDS}")
    return kind


def _report(kind, phases) -> CostReport:
    phases = tuple(p for p in phases)
    for p in phases:
        if min(p.flops, p.words, p.messages) < 0:
            raise ContractError(f"negative cost in phase {p.phase}")
    return CostReport(
        kind,
        sum(p.flops for p in phases),
        sum(p.words for p in phases),
        sum(p.messages for p in phases),
        phases,
    )


def estimate(op_kind, N, I, R, P=1, L=None, m=None, b=None) -> CostReport:
    """Leading-term cost of one operation at uniform mode size and rank.

    ``N``, ``I`` and ``R`` are each >= 1 (else, NaN included,
    `ContractError`).  ``L`` is the output rank for ``rounding`` (default
    R/2, the halved-rank regime).  ``m``/``b`` override the panel shape for
    ``tsqr`` (default I*R and R, the shape orthonormalization sweeps feed it).
    """
    kind = _canon(op_kind)
    P = _check_count("P", P)
    N, I, R = float(N), float(I), float(R)
    if not (N >= 1 and I >= 1 and R >= 1):  # NaN fails the test too
        raise ContractError(f"N, I, and R must all be positive, got {N}, {I} and {R}")
    if L is not None and not 1 <= L <= R:
        raise ContractError(f"L must satisfy 1 <= L <= R, got L={L}, R={R}")
    lg = _log2_ceil(P)

    if kind == "summation":
        return _report(kind, [PhaseCost("Other")])
    if kind == "hadamard":
        return _report(kind, [PhaseCost("Other", flops=N * I * R**4 / P)])
    if kind == "inner_product":
        return _report(kind, [
            PhaseCost("Other", flops=4 * N * I * R**3 / P,
                      words=N * R * R * (P > 1), messages=N * lg,
                      order_estimate=True),
        ])
    if kind == "norm":
        return _report(kind, [
            PhaseCost("Other", flops=2 * N * I * R**3 / P,
                      words=N * R * R * (P > 1), messages=N * lg,
                      order_estimate=True),
        ])
    if kind == "orthonormalization":
        return _report(kind, [
            PhaseCost("TSQR", flops=2 * N * I * R**3 / P + N * R**3 * lg,
                      words=N * R * R * lg, messages=N * lg,
                      order_estimate=True),
            PhaseCost("AppQ", flops=2 * N * I * R**3 / P),
            PhaseCost("Other", flops=N * I * R**3 / P),
        ])
    if kind == "rounding":
        L = R / 2 if L is None else float(L)
        return _report(kind, [
            PhaseCost("TSQR", flops=N * I * R * (2 * R**2 + 2 * R * L) / P
                      + N * R**3 * lg,
                      words=N * R * R * lg, messages=N * lg,
                      order_estimate=True),
            PhaseCost("AppQ", flops=N * I * R * (4 * R * L + 4 * L**2) / P),
            PhaseCost("Other", flops=N * I * R * R**2 / P),
        ])
    # tsqr: one panel factorization
    m = I * R if m is None else float(m)
    b = R if b is None else float(b)
    return _report(kind, [
        PhaseCost("TSQR", flops=2 * m * b**2 / P + b**3 * lg,
                  words=b * b * lg, messages=lg, order_estimate=True),
    ])


def chain_estimate(op_kind, dims, ranks, P=1, out_ranks=None,
                   variant="LRLI", other_ranks=None) -> CostReport:
    """Leading-term cost on an actual rank chain, phase-aligned with the
    instrumented sweeps.

    ``ranks`` is the input bond chain; ``out_ranks`` the post-truncation
    chain for ``rounding`` (defaults to no truncation), none of its entries
    above ``ranks`` (else `ContractError`).  The rounding ``variant`` matters
    because explicit sweeps form Q on wide panels while implicit ones apply
    stored factors to narrow carries.  ``other_ranks`` is the chain of
    ``hadamard``'s second operand (defaults to ``ranks``): one flop per entry
    of the product, whose bond ranks are the products of the two chains'.
    Each chain obeys the tensors' rule (`core._check_chain`: `ShapeError`),
    ``P`` `comm._check_count`'s and ``variant`` `RoundingOptions`'s (both
    `ContractError`).
    """
    kind = _canon(op_kind)
    P = _check_count("P", P)
    dims, ranks = _check_chain(dims, ranks)
    out = ranks if out_ranks is None else _check_chain(dims, out_ranks)[1]
    if any(o > r for o, r in zip(out, ranks)):
        raise ContractError("out_ranks cannot exceed the input ranks")
    other = ranks if other_ranks is None else _check_chain(dims, other_ranks)[1]
    N = len(dims)
    lg = _log2_ceil(P)
    f = {"TSQR": 0.0, "AppQ": 0.0, "Other": 0.0}
    words = messages = 0.0

    if kind == "summation":
        pass
    elif kind == "hadamard":
        f["Other"] = sum(
            d * ranks[n] * other[n] * ranks[n + 1] * other[n + 1] for n, d in enumerate(dims)
        ) / P
    elif kind in ("inner_product", "norm"):
        scale = 2.0 if kind == "inner_product" else 1.0
        f["Other"] = scale * sum(
            d * ranks[n] ** 2 * ranks[n + 1] + d * ranks[n] * ranks[n + 1] ** 2
            for n, d in enumerate(dims)
        ) / P
        if kind == "norm":  # each mode's replicated dpotrf of its r x r carry
            f["Other"] += sum(_cholesky_flops(r, r) for r in ranks[:-1])
        words = sum(r * r for r in ranks[1:]) * (P > 1)
        messages = N * lg
    else:  # orthonormalization (a right sweep) or rounding
        orth, trunc, implicit = _BACKWARD, None, False
        if kind == "rounding":
            variant = _check_variant(variant)
            orth, trunc = _sweeps(variant)
            implicit = variant.endswith("I")
        # panel rows m and bond rank b of each step, and the rows of the next
        # core that R or the carry folds into, by the sweeps' own index rules
        for n in orth.steps(N):
            m, b, nxt = dims[n] * ranks[orth.outer(n)], ranks[orth.bond(n)], n + orth.step
            f["TSQR"] += 2 * m * b * b / P + b**3 * lg
            if not implicit:
                f["AppQ"] += 2 * m * b * b / P
            f["Other"] += dims[nxt] * ranks[orth.other.outer(nxt)] * b * b / P
            words += b * b * lg
            messages += lg
        for n in trunc.steps(N) if trunc else ():
            m, b, nxt = dims[n] * out[trunc.outer(n)], ranks[trunc.bond(n)], n + trunc.step
            keep, carry_m = out[trunc.bond(n)], dims[nxt] * ranks[trunc.other.outer(nxt)]
            f["TSQR"] += 2 * m * b * b / P + b**3 * lg
            f["Other"] += SVD_FLOPS_PER_MN2 * b**3  # replicated, not divided
            f["AppQ"] += 4 * m * keep * b / P
            if implicit:  # stored factor applied to the narrow carry
                f["AppQ"] += 4 * carry_m * keep * b / P
            else:  # explicit neighbor slab folds the carry by gemm
                f["Other"] += 2 * carry_m * keep * b / P
            words += b * b * lg
            messages += lg

    order = P > 1
    return _report(kind, [
        PhaseCost("TSQR", flops=f["TSQR"], words=words, messages=messages,
                  order_estimate=order),
        PhaseCost("AppQ", flops=f["AppQ"]),
        PhaseCost("Other", flops=f["Other"]),
    ])
