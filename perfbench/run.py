"""Benchmark of ttpar's public tensor-train operations.

    python3 perfbench/run.py --workload m1-p1 --seed 1 --seconds 20 --trace 0

Run from the repository root; ttpar is imported from ``src/`` next to this
directory, never from an installed copy.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end times with ``--trace 0``, the traced per-layer
breakdown with ``--trace 1``.  The line before it records the environment
and the kernel calibration.  ``--smoke`` instead runs every workload at a
tiny shape, traced and untraced, with all output checks, and exits 1 if any
call failed.  Each simulated rank gets exactly one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# before numpy or scipy load their BLAS, so no thread pool is oversized
os.environ["OPENBLAS_NUM_THREADS"] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def import_source() -> None:
    """Put the checkout's ``src`` first on the path; fail if it is missing."""
    if not (SRC / "ttpar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ttpar sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import ttpar

    if Path(ttpar.__file__).resolve().parent != SRC / "ttpar":
        raise SystemExit(f"perfbench: imported ttpar from {ttpar.__file__}, not {SRC}")


def main(argv=None) -> int:
    from workloads import WORKLOAD_NAMES

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at a tiny shape, with all checks")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None and not args.smoke:
        ap.error("--workload is required")
    import_source()
    import harness

    if args.setup_probe:
        harness.setup_probe(args.workload, args.seed, args.smoke)
        return 0
    if args.smoke:
        results = {f"{name}/trace{t}": harness.run_workload(name, args.seed, 0.0, bool(t), True)
                   for name in WORKLOAD_NAMES for t in (0, 1)}
        print(json.dumps({"smoke": results}))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:<40} {m['value']!s:>24} {m['unit']}")
    print(f"ops_failed {result['failed']} of {result['attempted']} calls")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
