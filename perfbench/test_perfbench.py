"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

run.import_source()
import harness  # noqa: E402  (needs the source path set above)


def test_smoke_runs_every_workload_with_all_checks():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "2"],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.splitlines()[-1])["smoke"]
    assert len(results) == 6
    for key, res in results.items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, key
        assert all(m["value"] is not None for m in res["metrics"].values()), key


def test_injected_wrong_result_counts_as_failed(monkeypatch):
    from ttpar import ops

    right = ops.inner_product
    monkeypatch.setattr(ops, "inner_product", lambda x, y: right(x, y) * (1 + 1e-6))
    res = harness.run_workload("m1-p2", 1, 0.0, traced=False, smoke=True)
    # dot and norm (innerprod) both go through the patched function
    assert not res["correct"]
    assert 2 <= res["failed"] < res["attempted"]


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == harness.end_to_end_metrics()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == harness.per_layer_metrics()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path, trace):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "m1-p1", "--seed", "1",
                           "--seconds", "1", "--trace", trace],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
