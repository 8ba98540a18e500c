"""Benchmark and verification command line front end.

Four subcommands (installed as ``ttpar``, also ``python -m ttpar``):

* ``gen``    -- write a seeded random TT tensor for a built-in synthetic
  model to a file.
* ``run``    -- execute one operation (add, hadamard, dot, norm, ortho,
  round) on a synthetic model under the simulated or the MPI backend and
  report per-phase counters.
* ``cost``   -- print the analytic cost table for given (N, I, R, P, L).
* ``verify`` -- run the independent-oracle check suite at desk scale.

``run`` and ``cost`` emit one CSV schema,

    model,op,variant,P,phase,seconds,flops,words,messages

so measured traces and analytic predictions join on (op, P, phase) for
plotting.  Exit codes: 0 success, 1 contract violation (bad arguments,
capacity guards, backend misuse), 2 numeric failure (oracle mismatch,
non-finite data).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass

from . import __version__
from .comm import CostModelParams, MPICommunicator, run_spmd
from .core import random_tt, save_tt
from .cost import OP_KINDS, estimate
from .errors import CapacityError, ContractError, NumericError, TTError
from .ops import NORM_METHODS, add, hadamard, inner_product, norm, scale
from .parallel import DistTTTensor, ROUNDING_VARIANTS, RoundingOptions, orthonormalize, round_tt
from .verify import run_checks

RUN_OPS = ("add", "hadamard", "dot", "norm", "ortho", "round")

CSV_HEADER = ("model", "op", "variant", "P", "phase",
              "seconds", "flops", "words", "messages")

#: default cap on the estimated resident footprint of a run, in GiB
MEM_GUARD_GIB = 2.0


@dataclass(frozen=True)
class SyntheticModel:
    """A named benchmark shape.  Mode sizes scale; ranks never do."""

    name: str
    dims: tuple
    ranks: tuple

    def scaled_dims(self, factor: float) -> tuple:
        # Shrinking only the mode sizes (floor, never below 4) keeps the
        # tall-skinny regime I >> R that the kernels are shaped for.
        if factor <= 0:
            raise ContractError(f"--scale must be positive, got {factor}")
        return tuple(max(4, math.floor(d * factor)) for d in self.dims)


def _flat_ranks(n_modes: int, r: int) -> tuple:
    return (1,) + (r,) * (n_modes - 1) + (1,)


MODELS = {
    1: SyntheticModel("model1", (2000,) * 50, _flat_ranks(50, 50)),
    2: SyntheticModel("model2", (10**8,) + (50_000,) * 14 + (10**6,), _flat_ranks(16, 30)),
    3: SyntheticModel("model3", (2_000_000,) * 30, _flat_ranks(30, 30)),
}


def _tensor_doubles(dims, ranks) -> int:
    return sum(rl * d * rr for d, rl, rr in zip(dims, ranks[:-1], ranks[1:]))


def _footprint_doubles(op: str, dims, ranks) -> int:
    """Float64 count of inputs plus output; transient workspace excluded."""
    base = _tensor_doubles(dims, ranks)
    if op == "gen":  # the one tensor it writes
        return base
    doubled = (1,) + tuple(2 * r for r in ranks[1:-1]) + (1,)
    if op == "round":
        # x, the redundant input 2x - x, and an output at most that large
        return base + 2 * _tensor_doubles(dims, doubled)
    if op == "add":
        return 2 * base + _tensor_doubles(dims, doubled)
    if op == "hadamard":
        # each product core is written once, in place: no full-core temporary is left out
        product = tuple(r * r for r in ranks)
        return 2 * base + _tensor_doubles(dims, product)
    return 2 * base  # dot: two operands; norm, ortho: the tensor and one working copy


def _check_footprint(op: str, dims, ranks, guard_gib: float) -> None:
    need = _footprint_doubles(op, dims, ranks) * 8 / 2**30
    if need > guard_gib:
        raise CapacityError(
            f"estimated footprint {need:.2f} GiB exceeds the {guard_gib:.2f} GiB "
            "guard; lower --scale or raise --mem-guard"
        )


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# run


def _run_body(args, dims, ranks):
    """Build the per-rank closure; returns (trace row snapshot, summary).
    The rounding options are checked here, before any rank generates x."""
    opts = (RoundingOptions(eps0=args.eps0, variant=args.variant, max_rank=args.rank_cap)
            if args.op == "round" else None)

    def body(comm):
        x = DistTTTensor.random(comm, dims, ranks, args.seed)
        if args.op == "round":
            # 2x - x doubles every interior bond while representing the same
            # tensor, so rounding has real redundancy to remove
            work = add(scale(x, 2.0), scale(x, -1.0))
        elif args.op in ("add", "hadamard", "dot"):
            other = DistTTTensor.random(comm, dims, ranks, args.seed + 1)
        comm.trace.reset()
        t0 = time.perf_counter()
        if args.op == "add":
            out = add(x, other)
            summary = {"output_ranks": out.ranks}
        elif args.op == "hadamard":
            out = hadamard(x, other, max_rank_product=args.rank_cap)
            summary = {"output_ranks": out.ranks}
        elif args.op == "dot":
            summary = {"value": inner_product(x, other)}
        elif args.op == "norm":
            summary = {"value": norm(x, method=args.norm_method)}
        elif args.op == "ortho":
            out = orthonormalize(x, direction="right")
            summary = {"output_ranks": out.ranks}
        else:
            out = round_tt(work, opts)
            summary = {
                "input_ranks": work.ranks,
                "output_ranks": out.ranks,
                "error_bound_violated": out.meta["error_bound_violated"],
            }
        comm.trace.freeze()
        summary["wall_seconds"] = time.perf_counter() - t0
        # snapshot now: anything traced later (gathers, prints) stays out
        return comm.trace.rows(), summary

    return body


def _aggregate(rows_per_rank):
    """Critical-path view: per phase, the max of each counter over ranks."""
    agg = {}
    for rows in rows_per_rank:
        for ph, sec, fl, wo, ms in rows:
            cur = agg.setdefault(ph, [0.0, 0.0, 0.0, 0.0])
            for i, v in enumerate((sec, fl, wo, ms)):
                cur[i] = max(cur[i], v)
    return [(ph, *agg[ph]) for ph in sorted(agg)]


def _print_run_report(prefix, rows, summary) -> None:
    model, op, variant, P = prefix
    head = f"{model} {op} P={P}" + (f" variant={variant}" if variant != "-" else "")
    print(head)
    for key in ("value", "input_ranks", "output_ranks", "error_bound_violated"):
        if key in summary:
            val = summary[key]
            if key.endswith("ranks"):
                val = f"max {max(val)}"
            elif isinstance(val, float):
                val = repr(val)
            print(f"  {key}: {val}")
    print(f"  wall_seconds: {summary['wall_seconds']:.6f}")
    print(f"  {'phase':<8}{'seconds':>12}{'flops':>16}{'words':>14}{'messages':>10}")
    tot = [0.0, 0.0, 0.0, 0.0]
    for ph, sec, fl, wo, ms in rows:
        print(f"  {ph:<8}{sec:>12.6f}{fl:>16.6g}{wo:>14.6g}{ms:>10.6g}")
        for i, v in enumerate((sec, fl, wo, ms)):
            tot[i] += v
    print(f"  {'total':<8}{tot[0]:>12.6f}{tot[1]:>16.6g}{tot[2]:>14.6g}{tot[3]:>10.6g}")


def _cmd_run(args) -> int:
    model = MODELS[args.model]
    dims = model.scaled_dims(args.scale)
    _check_footprint(args.op, dims, model.ranks, args.mem_guard)
    body = _run_body(args, dims, model.ranks)

    if args.comm == "sim":
        P = 1 if args.P is None else args.P
        spmd = run_spmd(P, body, timeout=args.timeout)
        per_rank = [r for r, _ in spmd.results]
        rows = _aggregate(per_rank)
        summary = spmd.results[0][1]
        is_root = True
    else:
        if args.trace_csv:
            raise ContractError("--trace-csv needs the simulated backend")
        comm = MPICommunicator()
        if args.P is not None and args.P != comm.size:
            raise ContractError(
                f"--P {args.P} disagrees with the launched world size {comm.size}"
            )
        P = comm.size
        snapshot, summary = body(comm)
        rows = [tuple(r) for r in snapshot]  # rank 0's counters verbatim
        per_rank = None
        is_root = comm.rank == 0

    if not is_root:
        return 0
    variant = args.variant if args.op == "round" else "-"
    prefix = (model.name, args.op, variant, P)
    _print_run_report(prefix, rows, summary)
    if args.csv:
        _write_csv(args.csv, CSV_HEADER, [prefix + row for row in rows])
        print(f"wrote {args.csv}")
    if args.trace_csv:
        header = CSV_HEADER[:4] + ("rank",) + CSV_HEADER[4:]
        out = [prefix + (p,) + row for p, rws in enumerate(per_rank) for row in rws]
        _write_csv(args.trace_csv, header, out)
        print(f"wrote {args.trace_csv}")
    return 0


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> int:
    model = MODELS[args.model]
    dims = model.scaled_dims(args.scale)
    _check_footprint("gen", dims, model.ranks, args.mem_guard)
    t = random_tt(dims, model.ranks, args.seed)
    out = args.out or f"{model.name}.tt"
    save_tt(out, t)
    print(f"wrote {out}: {model.name} N={len(dims)} "
          f"dims {min(dims)}..{max(dims)} max rank {max(model.ranks)}")
    return 0


# ---------------------------------------------------------------------------
# cost


def _cmd_cost(args) -> int:
    params = CostModelParams(gamma=args.gamma, beta=args.beta, alpha=args.alpha)
    kinds = [args.op] if args.op else list(OP_KINDS)
    csv_rows = []
    print(f"analytic costs at N={args.N} I={args.I} R={args.R} P={args.P}"
          + (f" L={args.L}" if args.L is not None else ""))
    for kind in kinds:
        rep = estimate(kind, args.N, args.I, args.R, P=args.P, L=args.L,
                       m=args.m, b=args.b)
        print(f"{rep.op_kind}: flops={rep.flops:.6g} words={rep.words:.6g} "
              f"messages={rep.messages:.6g} seconds={rep.seconds(params):.6g}")
        for ph in rep.breakdown:
            sec = params.seconds(ph.flops, ph.words, ph.messages)
            tag = "  [order estimate]" if ph.order_estimate else ""
            print(f"  {ph.phase:<6} flops={ph.flops:<12.6g} words={ph.words:<10.6g} "
                  f"messages={ph.messages:<8.6g} seconds={sec:.6g}{tag}")
            csv_rows.append(("-", rep.op_kind, "-", args.P, ph.phase,
                             sec, ph.flops, ph.words, ph.messages))
    if args.csv:
        _write_csv(args.csv, CSV_HEADER, csv_rows)
        print(f"wrote {args.csv}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    results = run_checks(quick=not args.full)
    all_ok = True
    for name, ok, detail in results:
        print(f"[verify] {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
        all_ok &= ok
    print(f"[verify] {'all checks passed' if all_ok else 'FAILURES present'}")
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ttpar",
        description="tensor-train kernel benchmarks, cost tables, and checks",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def model_flags(p):
        p.add_argument("--model", type=int, choices=sorted(MODELS), required=True,
                       help="synthetic model id")
        p.add_argument("--scale", type=float, default=0.01,
                       help="mode-size factor (floored, min 4); ranks never scale")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mem-guard", type=float, default=MEM_GUARD_GIB, metavar="GIB",
                       help="refuse jobs whose estimated footprint exceeds this")

    g = sub.add_parser("gen", help="write a seeded random model tensor to a file")
    model_flags(g)
    g.add_argument("--out", help="output path (default <model>.tt)")
    g.set_defaults(func=_cmd_gen)

    r = sub.add_parser("run", help="run one operation and report per-phase counters")
    r.add_argument("--op", required=True, choices=RUN_OPS)
    model_flags(r)
    r.add_argument("--P", type=int, default=None,
                   help="rank count (simulated backend; MPI takes it from the launcher)")
    r.add_argument("--comm", choices=("sim", "runtime"), default="sim",
                   help="sim = in-process threads, runtime = mpi4py under mpirun")
    r.add_argument("--variant", default="LRLI", type=str.upper, choices=ROUNDING_VARIANTS,
                   help="rounding sweep order (round only)")
    r.add_argument("--eps0", type=float, default=1e-8,
                   help="relative rounding accuracy (round only)")
    r.add_argument("--rank-cap", type=int, default=None,
                   help="max output rank for round / rank-product guard for hadamard")
    r.add_argument("--norm-method", default="innerprod", choices=NORM_METHODS)
    r.add_argument("--csv", help="write aggregated per-phase rows here")
    r.add_argument("--trace-csv",
                   help="write per-rank per-phase rows here (simulated backend only)")
    r.add_argument("--timeout", type=float, default=600.0,
                   help="simulated-backend rendezvous timeout in seconds")
    r.set_defaults(func=_cmd_run)

    c = sub.add_parser("cost", help="print the analytic cost table")
    c.add_argument("--op", default=None,
                   help="one op kind (default: every kind); aliases like dot work")
    c.add_argument("--N", type=int, required=True, help="number of modes")
    c.add_argument("--I", type=int, required=True, help="mode size")
    c.add_argument("--R", type=int, required=True, help="bond rank")
    c.add_argument("--P", type=int, default=1, help="rank count")
    c.add_argument("--L", type=int, default=None,
                   help="rounded output rank (rounding only; default R/2)")
    c.add_argument("--m", type=int, default=None, help="tsqr panel rows (default I*R)")
    c.add_argument("--b", type=int, default=None, help="tsqr panel columns (default R)")
    defaults = CostModelParams()
    c.add_argument("--gamma", type=float, default=defaults.gamma,
                   help="seconds per flop")
    c.add_argument("--beta", type=float, default=defaults.beta,
                   help="seconds per word")
    c.add_argument("--alpha", type=float, default=defaults.alpha,
                   help="seconds per message")
    c.add_argument("--csv", help="write the same rows as CSV here")
    c.set_defaults(func=_cmd_cost)

    v = sub.add_parser("verify", help="run the independent-oracle check suite")
    mx = v.add_mutually_exclusive_group()
    mx.add_argument("--quick", action="store_true",
                    help="small shapes and few rank counts (the default)")
    mx.add_argument("--full", action="store_true",
                    help="wider shapes and more rank counts")
    v.set_defaults(func=_cmd_verify)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        # argparse exits 2 on usage errors; fold into the contract exit code
        code = 0 if e.code is None else e.code
        return 0 if code == 0 else 1
    except NumericError as e:
        print(f"ttpar: numeric failure: {e}", file=sys.stderr)
        return 2
    except TTError as e:
        print(f"ttpar: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"ttpar: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
