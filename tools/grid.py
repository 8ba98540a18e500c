"""The bitwise grid: one SHA-256 per case over every output's bytes and every
rank's per-phase flops, words and messages.

    python3 tools/grid.py                 # one line per case: digest, name
    python3 tools/grid.py --against REV   # the same grid on REV's source too

Without ``--against`` the grid runs on the ``src`` of the checkout this file
lies in.  ``--against REV`` checks REV out into a temporary local ``git
worktree``, runs the grid once on each source in its own process (one
OpenBLAS thread each), prints every case whose digest differs or that only
one side has, and exits 1 if there is any.  ``--src DIR`` runs the grid on
the ttpar package below DIR instead.

A case is one op on one input at one rank count P, run on simulated ranks.
Its digest reads each rank's output (slabs, ranks, the scalar or matrix it
returns, and the numeric ``meta`` of a rounding) and that rank's counters,
every float written as ``float.hex``.  Over seeds 1-2 and P = 1-4 the grid
covers five chains (one mode, rank 1, a mode shorter than P so that ranks
idle, two mixed-rank chains) with ``add`` of 1-3 operands, ``scale``,
``hadamard``, ``inner_product``, the three norms, ``orthonormalize`` both
ways, ``round_tt`` in every variant at eps0 0 and 1e-8 with and without a
rank cap, and ``apply_operator`` with and without rounding; and TSQR factor
plus apply-Q on four panels on both trees.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEEDS = (1, 2)
NRANKS = (1, 2, 3, 4)
#: name -> (dims, ranks of x, ranks of y)
CHAINS = {
    "one-mode": ((7,), (1, 1), (1, 1)),
    "rank-1": ((4, 5, 3), (1, 1, 1, 1), (1, 1, 1, 1)),
    "short-mode": ((5, 1, 6, 2), (1, 3, 3, 2, 1), (1, 2, 2, 3, 1)),
    "mixed-a": ((4, 5, 6, 3), (1, 3, 5, 2, 1), (1, 2, 3, 3, 1)),
    "mixed-b": ((8, 3, 7), (1, 6, 4, 1), (1, 2, 5, 1)),
}
#: TSQR panels, rows x columns: tall, shorter than its width, wider, and one
#: whose leaves take dgeqrt with gemms past `_kernels.GIL_FREE_FLOPS`
PANELS = ((30, 4), (5, 4), (41, 6), (2400, 48))
VARIANTS = ("RLR", "RLRI", "LRL", "LRLI")


def _tensor_ops():
    """name -> f(x, y, w, op) on one rank's distributed inputs; ``w = x + x``
    is the redundant sum that rounding truncates."""
    from ttpar import (RoundingOptions, add, apply_operator, hadamard, inner_product, norm,
                       orthonormalize, round_tt, scale)

    out = {
        "add1": lambda x, y, w, op: add(x),
        "add2": lambda x, y, w, op: add(x, y),
        "add3": lambda x, y, w, op: add(x, y, x),
        "scale": lambda x, y, w, op: scale(x, -1.5),
        "hadamard": lambda x, y, w, op: hadamard(x, y),
        "inner_product": lambda x, y, w, op: inner_product(x, y),
        "ortho-left": lambda x, y, w, op: orthonormalize(x, "left"),
        "ortho-right": lambda x, y, w, op: orthonormalize(x, "right"),
        "apply": lambda x, y, w, op: apply_operator(op, x),
        "apply-round": lambda x, y, w, op: apply_operator(op, x, round_eps=1e-8),
    }
    for method in ("innerprod", "innerprod_sym", "ortho"):
        out[f"norm-{method}"] = lambda x, y, w, op, m=method: norm(x, m)
    for v in VARIANTS:
        for eps0 in (0.0, 1e-8):
            for cap in (None, 2):
                opts = RoundingOptions(eps0, v, max_rank=cap)
                out[f"round-{v}-{eps0:g}-cap{cap}"] = lambda x, y, w, op, o=opts: round_tt(w, o)
    return out


def _operator(dims):
    """A two-term Kronecker sum: a 1-D Laplacian on the first and last mode."""
    import scipy.sparse as sp
    from ttpar import KroneckerOperator

    def lap(d):
        return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(d, d), format="csr")

    eye = [sp.identity(d, format="csr") for d in dims]
    return KroneckerOperator(dims, [[lap(d) if n == m else e for n, (d, e) in
                                     enumerate(zip(dims, eye))] for m in (0, len(dims) - 1)])


def cases() -> list:
    """Every case's name, in the order the grid runs them."""
    names = [f"{c}/s{s}/P{p}/{op}" for c in CHAINS for s in SEEDS for p in NRANKS
             for op in _tensor_ops()]
    names += [f"tsqr-{m}x{b}/{tree}/s{s}/P{p}" for m, b in PANELS
              for tree in ("butterfly", "binomial") for s in SEEDS for p in NRANKS]
    return names


def _feed(h, obj) -> None:
    """Write ``obj``'s bytes, tagged with its kind and shape, into ``h``."""
    import numpy as np
    from ttpar import DistTTTensor

    if isinstance(obj, DistTTTensor):
        _feed(h, ("tt", obj.ranks, obj.local))
        for key in ("norm", "eps_bond", "output_ranks", "error_bound_violated", "zero"):
            if key in obj.meta:
                _feed(h, (key, obj.meta[key]))
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.asfortranarray(obj).tobytes(order="F"))
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    else:  # None, bool, int, str
        h.update(repr(obj).encode())


def _counters(trace) -> tuple:
    """Per-phase flops, words and messages of one rank, as float hex."""
    return tuple((name, tuple((ph, float(v).hex()) for ph, v in sorted(getattr(trace, name).items())))
                 for name in ("flops", "words", "messages"))


def digest(name: str) -> str:
    """Run case ``name`` and return its SHA-256."""
    import numpy as np
    from ttpar import block_bounds, distribute, random_tt, run_spmd, tsqr_apply_q, tsqr_factor

    if name.startswith("tsqr-"):
        panel, tree, seed, nranks = name[5:].split("/")
        m, b = map(int, panel.split("x"))
        a = np.random.default_rng(int(seed[1:])).standard_normal((m, b))

        def body(comm):
            lo, hi = block_bounds(m, comm.size, comm.rank)
            comm.trace.reset()
            fac, r = tsqr_factor(np.asfortranarray(a[lo:hi]), comm, variant=tree)
            q = tsqr_apply_q(fac, np.eye(b), comm)
            return (r, q), _counters(comm.trace)
    else:
        chain, seed, nranks, op_name = name.split("/")
        dims, rx, ry = CHAINS[chain]
        s = int(seed[1:])
        x, y = random_tt(dims, rx, s), random_tt(dims, ry, s + 10)
        op, fn = _operator(dims), _tensor_ops()[op_name]

        def body(comm):
            from ttpar import add

            dx, dy = distribute(x, comm), distribute(y, comm)
            dw = add(dx, dx)
            comm.trace.reset()
            return fn(dx, dy, dw, op), _counters(comm.trace)

    h = hashlib.sha256()
    for out, counters in run_spmd(int(nranks[1:]), body, timeout=60.0).results:
        _feed(h, (out, counters))
    return h.hexdigest()


def _lines(src: Path) -> dict:
    """name -> digest of every case, run on ``src`` in a child process."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, __file__, "--src", str(src)], env=env,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return {name: d for d, name in (line.split(maxsplit=1) for line in out.splitlines())}


def against(rev: str) -> int:
    """Compare this checkout's grid with REV's; 1 if any case differs."""
    with tempfile.TemporaryDirectory(prefix="ttpar-grid-") as tmp:
        tree = Path(tmp) / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), rev], check=True)
        try:
            theirs = _lines(tree / "src")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
    ours = _lines(ROOT / "src")
    differ = [n for n in ours.keys() | theirs.keys() if ours.get(n) != theirs.get(n)]
    for n in sorted(differ):
        print(f"differs  {n}")
    same = sum(ours[n] == theirs.get(n) for n in ours)
    print(f"{len(ours)} cases against {rev}: {same} identical, {len(differ)} differ")
    return 1 if differ else 0


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against)
    sys.path.insert(0, str(args.src.resolve()))
    for name in cases():
        print(digest(name), name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
