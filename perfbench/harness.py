"""Set-up, the closed measuring loop, and the end-to-end and per-layer metrics.

Every op call is its own simulated SPMD group (`run_spmd`), so a call that
raises cannot wedge the next one.  Ranks meet at a barrier before and after
the call; the time between the two is the call's wall time.  Outputs are
checked against `oracle.Oracle` after the second barrier, outside the timed
region.  A call that raises or fails its check counts as failed.

The first measuring cycle calls every op of `workloads.OPS`, each repeatedly
until it has used `MIN_OP_S`; later cycles interleave the short ops between
the long ones (`_interleaved_plan`).  Cycles repeat until the run's seconds
are used.
With tracing, every untraced call is paired with a traced one, which gives
both the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import threading
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from ttpar import cost, ops, parallel
from ttpar.comm import run_spmd
from ttpar.parallel import DistTTTensor, RoundingOptions

import machine
import spans
from oracle import Oracle
from workloads import COMM_OPS, EPS0, OPS, TSQR_OPS, flat_ranks, workload

BLAS_THREADS = 1
#: Within one cycle each op is called until it has used this many seconds.
MIN_OP_S = 0.25
#: Set-up runs in this many fresh processes; `setup_s` is their median.
SETUP_REPEATS = 3
#: Rendezvous and barrier timeout of one call, in seconds.
CALL_TIMEOUT = 120.0
PHASES = ("TSQR", "AppQ", "Other")

RUN_PY = Path(__file__).resolve().parent / "run.py"

OP_FN = {
    "round_lrli": lambda t: parallel.round_tt(t["w"], RoundingOptions(eps0=EPS0, variant="LRLI")),
    "round_rlr": lambda t: parallel.round_tt(t["w"], RoundingOptions(eps0=EPS0, variant="RLR")),
    "ortho": lambda t: parallel.orthonormalize(t["x"], "right"),
    "norm_ortho": lambda t: ops.norm(t["x"], method="ortho"),
    "dot": lambda t: ops.inner_product(t["x"], t["y"]),
    "norm": lambda t: ops.norm(t["x"]),
    "norm_sym": lambda t: ops.norm(t["x"], method="innerprod_sym"),
    "add": lambda t: ops.add(t["x"], t["y"]),
    "hadamard": lambda t: ops.hadamard(t["x"], t["h"]),
}

#: (cost-model kind, rounding variant) each op is reconciled against.
COST_KIND = {
    "round_lrli": ("rounding", "LRLI"),
    "round_rlr": ("rounding", "RLR"),
    "ortho": ("orthonormalization", "LRLI"),
    "norm_ortho": ("orthonormalization", "LRLI"),
    "dot": ("inner_product", "LRLI"),
    "norm": ("inner_product", "LRLI"),
    "norm_sym": ("norm", "LRLI"),
}


def end_to_end_metrics() -> list:
    """(name, unit, better) of every untraced metric."""
    return ([("setup_s", "s", "lower")]
            + [(f"{op}_s", "s", "lower") for op in OPS]
            + [("peak_rss_mb", "MiB", "lower")])


def _cost_phases(op: str) -> tuple:
    return PHASES if op in TSQR_OPS else ("Other",)


def per_layer_metrics() -> list:
    """(name, unit, better) of every traced metric."""
    out = []
    for op in TSQR_OPS:
        out += [(f"{op}.tsqr.leaf_qr_s", "s", "lower"),
                (f"{op}.tsqr.leaf_gflops", "GF/s", "higher"),
                (f"{op}.tsqr.leaf_of_gemm", "ratio", "higher"),
                (f"{op}.tsqr.node_qr_s", "s", "lower"),
                (f"{op}.tsqr.apply_s", "s", "lower"),
                (f"{op}.tsqr.self_s", "s", "lower"),
                (f"{op}.parallel.self_s", "s", "lower")]
        if op.startswith("round"):
            out.append((f"{op}.parallel.svd_s", "s", "lower"))
        out += [(f"{op}.phase.{ph}_s", "s", "lower") for ph in PHASES]
    for op in COMM_OPS:
        out += [(f"{op}.comm.blocked_s", "s", "lower"),
                (f"{op}.comm.messages", "count", "lower"),
                (f"{op}.comm.words", "count", "lower"),
                (f"{op}.cost.messages", "count", "lower"),
                (f"{op}.cost.words", "count", "lower")]
        out += [(f"{op}.cost.flops_ratio.{ph}", "ratio", "lower") for ph in _cost_phases(op)]
    for op in ("dot", "norm", "norm_sym", "norm_ortho", "add", "hadamard"):
        out.append((f"{op}.ops.self_s", "s", "lower"))
    for op in ("dot", "norm", "norm_sym", "hadamard"):
        out.append((f"{op}.ops.gflops", "GF/s", "higher"))
    for op in OPS:
        out += [(f"{op}.ops.warnings", "count", "lower"),
                (f"{op}.trace.covered", "ratio", "higher")]
    out += [("setup.core.random_s", "s", "lower"),
            ("calib.gemm_gflops", "GF/s", "higher"),
            ("calib.geqrf_gflops", "GF/s", "higher"),
            ("trace.overhead", "ratio", "lower")]
    return out


# ---------------------------------------------------------------------------
# inputs


def make_inputs(comm, wl, seed: int) -> dict:
    """x, y, the redundant rounding input w = 2x - x, and hadamard's operand."""
    x = DistTTTensor.random(comm, wl.dims, wl.ranks, 3 * seed)
    y = DistTTTensor.random(comm, wl.dims, wl.ranks, 3 * seed + 1)
    w = ops.add(ops.scale(x, 2.0), ops.scale(x, -1.0))
    if wl.hadamard_rank is None:
        h = y
    else:
        h = DistTTTensor.random(comm, wl.dims, flat_ranks(wl.dims, wl.hadamard_rank),
                                3 * seed + 2)
    return {"x": x, "y": y, "w": w, "h": h}


def setup_probe(name: str, seed: int, smoke: bool) -> None:
    """Body of one set-up process: build the inputs, print when they are ready."""
    machine.steady_allocator()
    machine.pin_blas_threads(BLAS_THREADS)
    wl = workload(name, smoke)
    run_spmd(wl.P, lambda comm: make_inputs(comm, wl, seed), timeout=CALL_TIMEOUT)
    print(repr(time.monotonic()))


def setup_seconds(name: str, seed: int, smoke: bool) -> float:
    """Median over fresh processes of process start to inputs ready."""
    samples = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(RUN_PY), "--setup-probe", "--workload", name,
               "--seed", str(seed)] + (["--smoke"] if smoke else [])
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


class Inputs:
    """Per-rank slabs of the inputs, rebuilt onto each call's communicator."""

    def __init__(self, per_rank: list):
        self.ranks = {k: t.ranks for k, t in per_rank[0].items()}
        self.dims = per_rank[0]["x"].dims
        self.slabs = {k: [r[k].local for r in per_rank] for k in self.ranks}

    def on(self, comm) -> dict:
        return {k: DistTTTensor(comm, self.dims, self.ranks[k], self.slabs[k][comm.rank])
                for k in self.ranks}


# ---------------------------------------------------------------------------
# one call


class WarningCounter:
    """Counts every warning a rank thread raises; shows each message once.

    `counting()` runs in the main thread around the calls: the filter must
    say "always", or repeated warnings would be neither shown nor counted.
    """

    def __init__(self):
        self._local = threading.local()
        self._seen = set()
        self._show = warnings.showwarning

    @contextmanager
    def counting(self):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            self._show = warnings.showwarning
            warnings.showwarning = self._count
            yield self

    def _count(self, message, category, filename, lineno, file=None, line=None):
        if getattr(self._local, "n", None) is not None:
            self._local.n += 1
        key = (category, str(message))
        if key not in self._seen:
            self._seen.add(key)
            self._show(message, category, filename, lineno, file, line)

    def start(self) -> None:
        self._local.n = 0

    def stop(self) -> int:
        n, self._local.n = self._local.n, None
        return n


def _summary(out):
    if isinstance(out, DistTTTensor):
        return out.ranks, out.local, bool(out.meta.get("error_bound_violated", False))
    return float(out)


def call(op: str, inputs: Inputs, P: int, counter: WarningCounter, traced: bool):
    """Run ``op`` once on P simulated ranks.

    Returns ``(per-rank summaries, wall seconds, per-rank extras)`` where an
    extra is ``(trace rows, warnings, layer times or None)``.
    """
    barrier = threading.Barrier(P)
    log = defaultdict(list) if traced else None

    def body(comm):
        t = inputs.on(comm)
        spans.bind_rank(log, comm.rank)
        counter.start()
        try:
            barrier.wait(CALL_TIMEOUT)
            comm.trace.reset()
            t0 = time.perf_counter()
            out = OP_FN[op](t)
            comm.trace.freeze()
            barrier.wait(CALL_TIMEOUT)
            wall = time.perf_counter() - t0
        except BaseException:
            barrier.abort()
            raise
        finally:
            spans.bind_rank(None, comm.rank)
            n_warn = counter.stop()
        return _summary(out), wall, comm.trace.rows(), n_warn

    with spans.tracing() if traced else nullcontext():
        res = run_spmd(P, body, timeout=CALL_TIMEOUT).results
    extras = [(rows, n_warn, spans.layer_times(log[p]) if traced else None)
              for p, (_, _, rows, n_warn) in enumerate(res)]
    return [r[0] for r in res], res[0][1], extras


def layer_sample(wall: float, extras: list, gemm_gflops: float) -> dict:
    """Per-layer values of one traced call: each is the max over ranks."""
    vals = defaultdict(float)

    def put(key, v):
        vals[key] = max(vals[key], v)

    for rows, n_warn, lt in extras:
        for key, v in lt.items():
            put(key, v)
        if lt["tsqr.leaf_qr_s"] > 0:
            put("tsqr.leaf_gflops", lt["tsqr.leaf_flops"] / lt["tsqr.leaf_qr_s"] / 1e9)
        flops = sum(r[2] for r in rows)
        if lt["ops.self_s"] > 0:
            put("ops.gflops", flops / lt["ops.self_s"] / 1e9)
        for ph, sec, fl, _, _ in rows:
            put(f"phase.{ph}_s", sec)
            put(f"flops.{ph}", fl)
        put("comm.words", sum(r[3] for r in rows))
        put("comm.messages", sum(r[4] for r in rows))
        put("ops.warnings", float(n_warn))
    vals["tsqr.leaf_of_gemm"] = vals["tsqr.leaf_gflops"] / gemm_gflops
    vals["trace.covered"] = sum(vals[k] for k in spans.LAYERS) / wall
    return vals


def cost_sample(op: str, inputs: Inputs, outs, P: int, measured: dict) -> dict:
    """Model predictions for one call, and measured over predicted flops."""
    kind, variant = COST_KIND[op]
    src = "w" if kind == "rounding" else "x"
    out_ranks = outs[0][0] if kind == "rounding" else None
    rep = cost.chain_estimate(kind, inputs.dims, inputs.ranks[src], P=P,
                              out_ranks=out_ranks, variant=variant)
    vals = {"cost.messages": rep.messages, "cost.words": rep.words}
    for ph in rep.breakdown:
        if ph.flops > 0:
            vals[f"cost.flops_ratio.{ph.phase}"] = measured.get(f"flops.{ph.phase}", 0.0) / ph.flops
    return vals


# ---------------------------------------------------------------------------
# a run


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    malloc = machine.steady_allocator()
    blas_threads = machine.pin_blas_threads(BLAS_THREADS)
    wl = workload(name, smoke)
    env = dict(machine.environment(), workload=name, seed=seed, P=wl.P,
               blas_threads_read_back=blas_threads, malloc=malloc)
    m, b = machine.largest_panel(wl.dims, wl.ranks, wl.P)
    calib = machine.calibrate(m, b)
    env["calibration"] = calib
    print(json.dumps({"environment": env}), flush=True)

    setup_s = None if traced else setup_seconds(name, seed, smoke)
    counter = WarningCounter()
    with counter.counting():
        setup_log = defaultdict(list) if traced else None

        def build(comm):
            spans.bind_rank(setup_log, comm.rank)
            try:
                return make_inputs(comm, wl, seed)
            finally:
                spans.bind_rank(None, comm.rank)

        with spans.tracing() if traced else nullcontext():
            inputs = Inputs(run_spmd(wl.P, build, timeout=CALL_TIMEOUT).results)
        oracle = Oracle(inputs.slabs["x"], inputs.slabs["y"], inputs.ranks["x"],
                        inputs.ranks["y"], inputs.ranks["h"])
        res = _measure(wl, inputs, oracle, counter, seconds, traced, calib["gemm_gflops"])
        if traced:
            res["layers"]["setup.core.random_s"] = max(
                spans.layer_times(s)["core.random_s"] for s in setup_log.values())

    if traced:
        metrics = dict(res["layers"])
        metrics["calib.gemm_gflops"] = calib["gemm_gflops"]
        metrics["calib.geqrf_gflops"] = calib["geqrf_gflops"]
        catalog = per_layer_metrics()
    else:
        metrics = {f"{op}_s": _median(res["walls"][op]) for op in OPS}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        catalog = end_to_end_metrics()
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": metrics.get(n), "unit": u} for n, u, _ in catalog},
    }


def _median(xs):
    return statistics.median(xs) if xs else None


def _interleaved_plan(walls) -> list:
    """One call of each long op, each followed by a slice of every short op.

    The machine's speed drifts over seconds, so short ops are sampled after
    every long call rather than in one window per cycle.
    """
    long_ops = [op for op in OPS if walls[op] and statistics.median(walls[op]) >= MIN_OP_S]
    short = [op for op in OPS if op not in long_ops]
    if not long_ops:
        return [(op, MIN_OP_S) for op in OPS]
    quantum = MIN_OP_S / len(long_ops)
    return [step for op in long_ops for step in [(op, 0.0)] + [(s, quantum) for s in short]]


def _measure(wl, inputs, oracle, counter, seconds, traced, gemm_gflops) -> dict:
    walls = defaultdict(list)
    traced_walls = defaultdict(list)
    samples = defaultdict(lambda: defaultdict(list))
    attempted = failed = 0

    def one(op, with_spans):
        nonlocal attempted, failed
        attempted += 1
        try:
            outs, wall, extras = call(op, inputs, wl.P, counter, with_spans)
        except Exception as e:  # any raise is a failed call; report and go on
            failed += 1
            print(f"perfbench: {op} raised {type(e).__name__}: {e}", file=sys.stderr)
            return
        why = oracle.check(op, outs)
        if why is not None:
            failed += 1
            print(f"perfbench: {op} check failed: {why}", file=sys.stderr)
            return
        if not with_spans:
            walls[op].append(wall)
            return
        traced_walls[op].append(wall)
        vals = layer_sample(wall, extras, gemm_gflops)
        if op in COST_KIND:
            vals.update(cost_sample(op, inputs, outs, wl.P, vals))
        for key, v in vals.items():
            samples[op][key].append(v)

    start = time.perf_counter()
    plan = [(op, MIN_OP_S) for op in OPS]
    while True:
        for op, quantum in plan:
            t0 = time.perf_counter()
            while True:
                one(op, False)
                if traced:
                    one(op, True)
                if time.perf_counter() - t0 >= quantum:
                    break
        if time.perf_counter() - start >= seconds:
            break
        plan = _interleaved_plan(walls)

    layers = {}
    if traced:
        for name, _, _ in per_layer_metrics():
            op, key = name.split(".", 1)
            if op in samples:  # a layer an op never entered reads 0
                layers[name] = statistics.median(samples[op].get(key, [0.0]))
        untraced = sum(_median(walls[op]) or 0.0 for op in OPS)
        if untraced > 0:
            layers["trace.overhead"] = (sum(_median(traced_walls[op]) or 0.0 for op in OPS)
                                        / untraced - 1)
    return {"walls": walls, "layers": layers, "attempted": attempted, "failed": failed}
