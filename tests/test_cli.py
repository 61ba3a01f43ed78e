from pathlib import Path

import pytest

from qorch.cli import cli_main

BELL = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
"""


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qasm"
    path.write_text(BELL, encoding="utf-8")
    return path


def test_backends_list(capsys):
    assert cli_main(["backends", "list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    assert out[0].startswith("statevec ")
    assert out[1].startswith("mock-hw ")


def test_submit_writes_report(tmp_path, bell_file):
    out_dir = tmp_path / "run"
    code = cli_main(
        [
            "submit", str(bell_file), "--shots", "100", "--seed", "7",
            "--model", "per_job", "--app-nodes", "1", "--sim-nodes", "2",
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "report.txt").exists()
    assert (out_dir / "events.log").exists()
    assert (out_dir / "config.ini").exists()
    text = (out_dir / "report.txt").read_text()
    assert "scenario submit" in text
    assert "status ok" in text


def test_unknown_flag_exits_one(capsys):
    assert cli_main(["submit", "x.qasm", "--bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_file_exits_two(capsys, tmp_path):
    assert cli_main(["submit", str(tmp_path / "none.qasm")]) == 2


def test_scenario_report_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "sc"
    code = cli_main(
        ["scenario", "single_circuit", "--n", "3", "--shots", "500",
         "--seed", "3", "--out", str(out_dir)]
    )
    assert code == 0
    capsys.readouterr()
    assert cli_main(["report", str(out_dir)]) == 0
    rendered = capsys.readouterr().out
    assert "scenario: single_circuit" in rendered
    assert "answer:" in rendered


def test_scenario_determinism_two_invocations(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for out in (a_dir, b_dir):
        assert cli_main(
            ["scenario", "ensemble", "--k", "3", "--n", "3", "--layers", "1",
             "--shots", "400", "--seed", "11", "--out", str(out)]
        ) == 0
    a = (a_dir / "report.txt").read_bytes()
    b = (b_dir / "report.txt").read_bytes()
    assert a == b
    assert (a_dir / "events.log").read_bytes() == (b_dir / "events.log").read_bytes()


def test_workflow_command(tmp_path, bell_file):
    flow = tmp_path / "flow.ini"
    flow.write_text(
        "[stage:prepare]\nkind = quantum\nqasm = bell.qasm\nshots = 400\n\n"
        "[stage:check]\nkind = classical\nop = threshold_count\nargs = 11, 0.4\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "wf"
    assert cli_main(["workflow", str(flow), "--out", str(out_dir)]) == 0
    text = (out_dir / "report.txt").read_text()
    assert "stage check" in text
    assert "value=True" in text


def test_workflow_with_missing_stage_file_writes_failed_run(tmp_path, capsys):
    flow = tmp_path / "flow.ini"
    flow.write_text("[stage:broken]\nkind = quantum\nqasm = missing.qasm\n", encoding="utf-8")
    out_dir = tmp_path / "wf"
    assert cli_main(["workflow", str(flow), "--out", str(out_dir)]) == 2
    assert "status failed\n" in (out_dir / "report.txt").read_text()
    assert (out_dir / "events.log").read_text() == ""
    assert capsys.readouterr().err.startswith(
        "execution failed: stage 'broken': FileNotFoundError: ")


def test_custom_config_flag(tmp_path, bell_file):
    cfg = tmp_path / "sys.ini"
    cfg.write_text(
        "[cluster]\nnodes = 4\ndevice = sv\n\n"
        "[backend:sv]\nkind = state_vector\nmax_qubits = 20\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "run"
    code = cli_main(
        ["--config", str(cfg), "submit", str(bell_file), "--shots", "50",
         "--out", str(out_dir)]
    )
    assert code == 0
    assert "backend=sv" in (out_dir / "report.txt").read_text()


def test_config_with_a_kind_without_engine_exits_two(tmp_path, capsys, bell_file):
    cfg = tmp_path / "sys.ini"
    cfg.write_text("[backend:sv]\nkind = state_vector\n\n[backend:tn]\nkind = tensor_network\n",
                   encoding="utf-8")
    out_dir = tmp_path / "run"
    code = cli_main(["--config", str(cfg), "submit", str(bell_file), "--out", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "execution failed: [backend:tn] kind: 'tensor_network' is not a valid ")
    assert not out_dir.exists()


@pytest.mark.parametrize("model, error", [("per_job", "NoFeasibleBackend"),
                                          ("single_qc", "IncompatiblePreference")])
def test_ghz25_submit_is_refused_under_both_models(tmp_path, capsys, model, error):
    # the default statevec's max_qubits is the one width bound routing checks
    path = tmp_path / "ghz25.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[25];\ncreg c[25];\nh q[0];\n"
                    + "".join(f"cx q[0],q[{i}];\n" for i in range(1, 25))
                    + "measure q -> c;\n", encoding="utf-8")
    code = cli_main(["submit", str(path), "--shots", "10", "--model", model,
                     "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"execution failed: {error}: ")
    assert err.endswith("circuit has 25 qubits, backend 'statevec' supports at most 24\n")


def test_in_sequence_scenario_cli(tmp_path):
    out_dir = tmp_path / "seq"
    code = cli_main(
        ["scenario", "in_sequence", "--theta", "1.5707963267948966",
         "--shots", "4000", "--seed", "5", "--out", str(out_dir)]
    )
    assert code == 0
    assert "iteration 0" in (out_dir / "report.txt").read_text()


def _task_lines(out_dir):
    lines = (out_dir / "report.txt").read_text().splitlines()
    return [line for line in lines if line.startswith("task ")]


def test_single_qc_single_circuit_scenario(tmp_path):
    out_dir = tmp_path / "sc"
    code = cli_main(
        ["scenario", "single_circuit", "--model", "single_qc", "--sim-nodes", "0",
         "--out", str(out_dir)]
    )
    assert code == 0
    assert len(_task_lines(out_dir)) == 1


def test_single_qc_submit(tmp_path, bell_file):
    out_dir = tmp_path / "run"
    code = cli_main(
        ["submit", str(bell_file), "--shots", "100", "--model", "single_qc",
         "--out", str(out_dir)]
    )
    assert code == 0
    assert len(_task_lines(out_dir)) == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--backend", "mock-hw", "single_qc jobs execute on the cluster device 'statevec'; "
                             "use per_job for backend overrides"),
    ("--workers", "2", "single_qc jobs execute with workers=1, got workers=2; "
                       "use per_job for worker overrides"),
], ids=["backend", "workers"])
def test_single_qc_submit_refuses_an_override(tmp_path, capsys, bell_file, flag, value, message):
    out_dir = tmp_path / "run"
    code = cli_main(["submit", str(bell_file), "--model", "single_qc", "--sim-nodes", "0",
                     flag, value, "--out", str(out_dir)])
    assert code == 2
    assert "status failed\n" in (out_dir / "report.txt").read_text()
    assert capsys.readouterr().err == f"execution failed: ValueError: {message}\n"
    # refused at admission: no job was submitted, so nothing was granted
    assert (out_dir / "events.log").read_text() == ""


def test_single_qc_one_circuit_ensemble(tmp_path):
    out_dir = tmp_path / "ens"
    code = cli_main(
        ["scenario", "ensemble", "--k", "1", "--model", "single_qc",
         "--out", str(out_dir)]
    )
    assert code == 0
    assert len(_task_lines(out_dir)) == 1


def test_ghz20_single_circuit_scenario(tmp_path):
    out_dir = tmp_path / "ghz20"
    code = cli_main(
        ["scenario", "single_circuit", "--n", "20", "--shots", "10000",
         "--out", str(out_dir)]
    )
    assert code == 0
    (line,) = _task_lines(out_dir)
    dist = line.split("dist=", 1)[1].split()[0]
    keys = {entry.split(":")[0] for entry in dist.split(";")}
    assert keys == {"0" * 20, "1" * 20}


CORPUS = Path(__file__).parent / "corpus"


@pytest.mark.parametrize("model", ["per_job", "single_qc"])
def test_failed_submit_says_why(tmp_path, capsys, model):
    out_dir = tmp_path / "run"
    code = cli_main(
        ["submit", str(CORPUS / "invalid" / "zero_denominator.qasm"),
         "--model", model, "--out", str(out_dir)]
    )
    assert code == 2
    assert (out_dir / "report.txt").exists()
    err = capsys.readouterr().err
    assert err.startswith("execution failed: QasmSyntaxError: line 4, column 7: ")
    assert "division by zero" in err


@pytest.mark.parametrize("model", ["per_job", "single_qc"])
def test_unparsable_submit_queues_no_job(tmp_path, capsys, model):
    out_dir = tmp_path / "run"
    code = cli_main(
        ["submit", str(CORPUS / "invalid" / "zero_denominator.qasm"),
         "--model", model, "--out", str(out_dir)]
    )
    assert code == 2
    assert (out_dir / "events.log").read_text() == ""
    assert (out_dir / "report.txt").read_text() == (
        f"qorch-report 1\nscenario submit\nseed 0\nmodel {model}\nstatus failed\n"
        "answer error\nmetric makespan 0\nmetric mean_queue_wait 0\n"
        "metric utilization 0\n"
    )
    assert capsys.readouterr().err == (
        "execution failed: QasmSyntaxError: line 4, column 7: division by zero\n"
    )


def test_failed_scenario_says_why(tmp_path, capsys):
    code = cli_main(
        ["scenario", "single_circuit", "--n", "30", "--shots", "10",
         "--out", str(tmp_path / "sc")]
    )
    assert code == 2
    assert "execution failed: NoFeasibleBackend: " in capsys.readouterr().err


@pytest.mark.parametrize("model", ["per_job", "single_qc"])
def test_nonconvergence_writes_failed_run(tmp_path, capsys, model):
    out_dir = tmp_path / "run"
    code = cli_main(
        ["scenario", "in_sequence", "--max-iterations", "2", "--tolerance", "0.0001",
         "--model", model, "--out", str(out_dir)]
    )
    assert code == 2
    assert "status failed\n" in (out_dir / "report.txt").read_text()
    assert len(_task_lines(out_dir)) == 2
    assert capsys.readouterr().err == (
        "execution failed: NonConvergence: no convergence after 2 iterations\n"
    )


@pytest.mark.parametrize("model", ["per_job", "single_qc"])
def test_zero_shot_submit_refused_at_admission(tmp_path, capsys, bell_file, model):
    out_dir = tmp_path / "run"
    code = cli_main(["submit", str(bell_file), "--shots", "0", "--model", model,
                     "--out", str(out_dir)])
    assert code == 2
    assert (out_dir / "events.log").read_text() == ""
    assert "status failed\n" in (out_dir / "report.txt").read_text()
    assert capsys.readouterr().err == "execution failed: ValueError: shots must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ["single_circuit", "--n", "1"],
    ["ensemble", "--k", "0"],
    ["in_sequence", "--theta", "7"],
    ["in_sequence", "--tolerance", "0"],
    ["in_sequence", "--max-iterations", "0"],
    ["single_circuit", "--shots", "0"],
    ["ensemble", "--app-nodes", "0"],
])
def test_bad_scenario_parameter_writes_nothing(tmp_path, capsys, argv):
    out_dir = tmp_path / "run"
    assert cli_main(["scenario", *argv, "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    assert capsys.readouterr().err.startswith("execution failed: ")


def test_single_circuit_wider_than_partition_runs_at_partition_width(tmp_path):
    # 22 qubits route to 4 workers; the 2-node partition runs the task as gang(2)
    out_dir = tmp_path / "ghz22"
    code = cli_main(["scenario", "single_circuit", "--n", "22", "--shots", "100",
                     "--out", str(out_dir)])
    assert code == 0
    (line,) = _task_lines(out_dir)
    assert "error=" not in line


def test_explicit_workers_beyond_partition_fail(tmp_path, capsys, bell_file):
    out_dir = tmp_path / "run"
    code = cli_main(["submit", str(bell_file), "--workers", "4", "--sim-nodes", "2",
                     "--out", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == (
        "execution failed: WorkersExceedPartition: task wants 4 workers, "
        "state_vector partition has 2 nodes\n"
    )


@pytest.mark.parametrize("model", ["per_job", "single_qc"])
def test_program_without_qubits_reads_its_cregs_as_zeros(tmp_path, model):
    path = tmp_path / "empty.qasm"
    path.write_text("OPENQASM 2.0;\ncreg c[2];\n", encoding="utf-8")
    out_dir = tmp_path / "run"
    code = cli_main(["submit", str(path), "--shots", "64", "--model", model,
                     "--out", str(out_dir)])
    assert code == 0
    (line,) = _task_lines(out_dir)
    assert " dist=00:64" in line
