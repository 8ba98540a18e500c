"""Command-line front end: subcommands, determinism, exit codes."""

import csv
import subprocess
import sys

import pytest

from tests_support import child_env
from ttpar import hadamard, random_tt
from ttpar.cli import MODELS, build_parser, main
from ttpar.errors import ContractError, NumericError


def run_cli(argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def drop_seconds(rows):
    # header + data share the schema; seconds is the only nondeterministic column
    i = rows[0].index("seconds")
    return [r[:i] + r[i + 1:] for r in rows]


# ------------------------------------------------------------------ models


def test_model_table_is_verbatim():
    assert MODELS[1].dims == (2000,) * 50
    assert MODELS[1].ranks == (1,) + (50,) * 49 + (1,)
    assert MODELS[2].dims[0] == 10**8 and MODELS[2].dims[-1] == 10**6
    assert MODELS[2].dims[1:-1] == (50_000,) * 14
    assert MODELS[2].ranks[1:-1] == (30,) * 15
    assert MODELS[3].dims == (2_000_000,) * 30
    assert MODELS[3].ranks[1:-1] == (30,) * 29


def test_scale_floors_dims_but_never_ranks():
    dims = MODELS[2].scaled_dims(1e-4)
    assert dims == (10_000,) + (5,) * 14 + (100,)
    # far below the floor: every mode clamps to 4
    assert set(MODELS[3].scaled_dims(1e-9)) == {4}
    assert MODELS[3].ranks[1] == 30  # untouched by scaling


# --------------------------------------------------------------------- gen


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.tt", tmp_path / "b.tt"
    for out in (a, b):
        assert run_cli(["gen", "--model", 2, "--scale", "2e-4", "--seed", 7,
                        "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_respects_memory_guard(tmp_path, capsys):
    code = run_cli(["gen", "--model", 3, "--scale", 1.0,
                    "--out", tmp_path / "huge.tt"])
    assert code == 1
    assert "guard" in capsys.readouterr().err


# --------------------------------------------------------------------- run


@pytest.mark.parametrize("op", ["add", "hadamard", "dot", "norm", "ortho", "round"])
def test_run_every_op(op, tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(["run", "--op", op, "--model", 2, "--scale", "1e-4",
                    "--P", 2, "--seed", 3, "--csv", out])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == list(("model", "op", "variant", "P", "phase",
                            "seconds", "flops", "words", "messages"))
    assert all(r[0] == "model2" and r[1] == op and r[3] == "2" for r in rows[1:])
    assert "wall_seconds" in capsys.readouterr().out


def test_run_round_reports_sweep_phases(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli(["run", "--op", "round", "--model", 1, "--scale", 0.004,
                    "--P", 2, "--eps0", "1e-8", "--csv", out]) == 0
    phases = {r[4] for r in read_csv(out)[1:]}
    assert phases == {"TSQR", "AppQ", "Other"}
    assert run_cli(["run", "--op", "round", "--model", 1, "--scale", 0.004,
                    "--P", 2, "--variant", "rlri", "--csv", out]) == 0
    assert {r[2] for r in read_csv(out)[1:]} == {"RLRI"}


def test_run_counters_are_deterministic(tmp_path):
    csvs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        assert run_cli(["run", "--op", "round", "--model", 1, "--scale", 0.004,
                        "--P", 3, "--seed", 11, "--csv", out]) == 0
        csvs.append(read_csv(out))
    assert drop_seconds(csvs[0]) == drop_seconds(csvs[1])


def test_run_trace_csv_has_all_ranks(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli(["run", "--op", "dot", "--model", 2, "--scale", "1e-4",
                    "--P", 3, "--trace-csv", out]) == 0
    rows = read_csv(out)
    assert rows[0][4] == "rank"
    assert {r[4] for r in rows[1:]} == {"0", "1", "2"}


def test_run_rounding_halves_the_doubled_ranks(tmp_path, capsys):
    # input 2x - x carries doubled bonds; rounding must recover the originals
    assert run_cli(["run", "--op", "round", "--model", 2, "--scale", "1e-4",
                    "--P", 1, "--eps0", "1e-10"]) == 0
    text = capsys.readouterr().out
    assert "input_ranks: max 60" in text
    assert "output_ranks: max 30" in text


def test_run_memory_guard_blocks_unscaled_models(capsys):
    assert run_cli(["run", "--op", "round", "--model", 3, "--scale", 1.0]) == 1
    assert "guard" in capsys.readouterr().err


def cli_subprocess(argv):
    # the runtime backend initializes MPI, which must never happen inside the
    # pytest process: OpenMPI's fork protection silently kills any mpirun the
    # suite spawns afterwards.  The child imports the same ttpar as this
    # process, installed or not.
    return subprocess.run([sys.executable, "-m", "ttpar", *map(str, argv)],
                          capture_output=True, text=True, timeout=300, env=child_env())


def test_runtime_backend_single_process(tmp_path):
    # without mpirun, COMM_WORLD has one rank; the run must still work
    pytest.importorskip("mpi4py")
    out = tmp_path / "rt.csv"
    proc = cli_subprocess(["run", "--op", "norm", "--model", 2, "--scale", "1e-4",
                           "--comm", "runtime", "--csv", out])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = read_csv(out)
    assert rows[1][3] == "1"


def test_runtime_backend_rejects_wrong_p():
    pytest.importorskip("mpi4py")
    proc = cli_subprocess(["run", "--op", "norm", "--model", 2, "--scale", "1e-4",
                           "--comm", "runtime", "--P", 5])
    assert proc.returncode == 1


def test_trace_csv_needs_sim_backend(tmp_path):
    code = run_cli(["run", "--op", "dot", "--model", 1, "--scale", 0.004,
                    "--comm", "runtime", "--trace-csv", tmp_path / "x.csv"])
    assert code == 1


# -------------------------------------------------------------------- cost


def test_cost_single_op_pin(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli(["cost", "--op", "dot", "--N", 3, "--I", 4, "--R", 2,
                    "--csv", out]) == 0
    rows = read_csv(out)
    assert rows[1][1] == "inner_product"
    assert float(rows[1][6]) == 384.0


def test_cost_all_ops_table(capsys):
    assert run_cli(["cost", "--N", 8, "--I", 256, "--R", 32, "--P", 4,
                    "--L", 16]) == 0
    text = capsys.readouterr().out
    for kind in ("summation", "hadamard", "inner_product", "norm",
                 "orthonormalization", "rounding", "tsqr"):
        assert kind in text
    assert "[order estimate]" in text


def test_cost_seconds_use_given_machine_parameters(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli(["cost", "--op", "norm", "--N", 3, "--I", 4, "--R", 2,
                    "--gamma", "2.0", "--beta", 0, "--alpha", 0,
                    "--csv", out]) == 0
    row = read_csv(out)[1]
    assert float(row[5]) == 2.0 * float(row[6])


# ------------------------------------------------------------------ verify


def test_verify_quick_via_module_entry_point():
    proc = cli_subprocess(["verify", "--quick"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("[verify]")]
    assert len(lines) >= 8
    assert all("PASS" in ln for ln in lines[:-1])


def test_verify_reports_failures_with_exit_2(monkeypatch, capsys):
    from ttpar import cli

    monkeypatch.setattr(
        cli, "run_checks",
        lambda quick=True: [("made-up", False, "forced failure")],
    )
    assert run_cli(["verify"]) == 2
    assert "FAIL" in capsys.readouterr().out

    def diverge(quick=True):
        raise NumericError("forced divergence")

    monkeypatch.setattr(cli, "run_checks", diverge)
    assert run_cli(["verify"]) == 2
    assert capsys.readouterr().err == "ttpar: numeric failure: forced divergence\n"


# ------------------------------------------------------------- exit codes


def test_usage_errors_exit_1():
    assert run_cli(["run", "--op", "frobnicate", "--model", 1]) == 1
    assert run_cli(["run", "--op", "dot"]) == 1  # --model is required
    assert run_cli(["nonsense"]) == 1


def test_contract_errors_exit_1():
    assert run_cli(["run", "--op", "dot", "--model", 1, "--scale", 0.004,
                    "--P", 0]) == 1
    assert run_cli(["cost", "--op", "nonsense", "--N", 2, "--I", 2, "--R", 2]) == 1
    assert run_cli(["run", "--op", "dot", "--model", 1, "--scale", -1]) == 1
    for eps0 in ("nan", "-1"):
        assert run_cli(["run", "--model", 2, "--scale", "1e-5", "--op", "round",
                        "--P", 2, "--eps0", eps0]) == 1


def test_os_error_exits_1(tmp_path, capsys):
    assert run_cli(["gen", "--model", 2, "--scale", "1e-5",
                    "--out", tmp_path / "missing" / "x.tt"]) == 1
    assert capsys.readouterr().err.startswith("ttpar: [Errno")


def test_hadamard_rank_cap_below_one_is_a_contract_error(capsys):
    x = random_tt((4, 4), (1, 3, 1), seed=5)
    for cap in (0, -2):
        with pytest.raises(ContractError, match=f"max_rank_product must be >= 1, got {cap}"):
            hadamard(x, x, max_rank_product=cap)
    assert run_cli(["run", "--op", "hadamard", "--model", 2, "--scale", "1e-4",
                    "--P", 2, "--rank-cap", 0]) == 1
    assert capsys.readouterr().err.strip() == "ttpar: max_rank_product must be >= 1, got 0"


@pytest.mark.parametrize("cmd", ["gen", "run"])
def test_bad_seed_exits_1_with_one_line(cmd, tmp_path):
    out = tmp_path / "x.tt"
    argv = (["gen", "--out", out] if cmd == "gen" else ["run", "--op", "dot", "--P", 2])
    proc = cli_subprocess(argv + ["--model", 1, "--scale", 0.002, "--seed", -1])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "ttpar: seed must be a nonnegative integer, got -1"
    ], proc.stderr
    assert not out.exists()


def test_help_and_version_exit_0(capsys):
    assert run_cli(["--help"]) == 0
    assert run_cli(["--version"]) == 0
    capsys.readouterr()


def test_parser_builds_once():
    # the parser is rebuilt per call; building must not mutate module state
    p1, p2 = build_parser(), build_parser()
    assert p1 is not p2
