"""Independent output checks for every timed operation.

The oracle is a plain numpy Gram recurrence over the per-rank slabs,

    W_0 = [[1]],   W_n = sum_i X_n(i)^T W_{n-1} Y_n(i),   <x, y> = W_N,

summed over ranks mode by mode.  Every rank holds the same rows of mode n
for both operands, so the per-rank terms add up to the global recurrence
without gathering anything and without calling into ttpar.
"""

from __future__ import annotations

from math import isfinite, sqrt

import numpy as np

from workloads import EPS0

#: Relative agreement asked of dot and the three norms.
VALUE_RTOL = 1e-10
#: Largest entry of H H^T - I allowed for an orthonormalized core.
ORTHO_ATOL = 1e-12


def gram(xs, ys) -> float:
    """<x, y> from per-rank slab lists ``xs[p][n]`` and ``ys[p][n]``."""
    w = np.ones((1, 1))
    for n in range(len(xs[0])):
        acc = 0.0
        for xp, yp in zip(xs, ys):
            z = np.tensordot(w, yp[n], axes=(1, 0))
            acc = acc + np.tensordot(xp[n], z, axes=([0, 1], [0, 1]))
        w = acc
    return float(w[0, 0])


class Oracle:
    """Reference values for one set of inputs; ``check`` judges one output.

    ``xs``/``ys`` are the per-rank slab lists of the inputs ``x`` and ``y``;
    ``h_ranks`` the bond ranks of hadamard's second operand.
    """

    def __init__(self, xs, ys, x_ranks, y_ranks, h_ranks):
        self.xs = xs
        self.x_ranks = tuple(x_ranks)
        self.dot = gram(xs, ys)
        self.norm = sqrt(gram(xs, xs))
        self.expect_ranks = {
            "add": (1,) + tuple(a + b for a, b in zip(x_ranks[1:-1], y_ranks[1:-1])) + (1,),
            "hadamard": tuple(a * b for a, b in zip(x_ranks, h_ranks)),
            "ortho": self.x_ranks,
            "round_lrli": self.x_ranks,
            "round_rlr": self.x_ranks,
        }

    def check(self, op: str, outs) -> str | None:
        """None when ``outs`` (one result per rank) is right, else why not.

        A scalar op's result is its value; a tensor op's result is the tuple
        ``(ranks, slabs, error_bound_violated)``.
        """
        if op in ("dot", "norm", "norm_sym", "norm_ortho"):
            ref = self.dot if op == "dot" else self.norm
            for v in outs:
                if not isfinite(v) or abs(v - ref) > VALUE_RTOL * abs(ref):
                    return f"{op} = {v!r}, oracle {ref!r}"
            return None
        ranks = outs[0][0]
        if ranks != self.expect_ranks[op]:
            return f"{op} output ranks {ranks}, expected {self.expect_ranks[op]}"
        if op.startswith("round"):
            return self._check_round(outs)
        if op == "ortho":
            return _check_orthonormal([slabs for _, slabs, _ in outs])
        return None

    def _check_round(self, outs) -> str | None:
        if any(violated for _, _, violated in outs):
            return "rounding reports error_bound_violated"
        ys = [slabs for _, slabs, _ in outs]
        nx2 = self.norm * self.norm
        along = abs(gram(ys, self.xs) / nx2 - 1.0)
        size = abs(sqrt(gram(ys, ys)) / self.norm - 1.0)
        if not (along <= EPS0 and size <= EPS0):
            return f"rounded |<y,x>/|x|^2 - 1| = {along:.3e}, ||y|/|x| - 1| = {size:.3e}"
        return None


def _check_orthonormal(per_rank) -> str | None:
    """Cores 2..N of a right-orthonormalized train: H(X_n) H(X_n)^T = I."""
    for n in range(1, len(per_rank[0])):
        g = sum(np.einsum("aib,cib->ac", slabs[n], slabs[n]) for slabs in per_rank)
        err = float(np.max(np.abs(g - np.eye(g.shape[0]))))
        if not err <= ORTHO_ATOL:
            return f"core {n} unfolding is off orthonormal by {err:.3e}"
    return None
