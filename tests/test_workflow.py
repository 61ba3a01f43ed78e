from pathlib import Path

import pytest

from qorch.circuit import ValidationError
from qorch.qasm import parse_qasm
from qorch.qtm import TaskManager
from qorch.system import System
from qorch.workflow import UnknownBuiltin, parse_workflow, run_workflow

BELL = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
"""

GHZ3 = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
measure q -> c;
"""

X1 = """OPENQASM 2.0;
qreg q[1];
creg c[1];
x q[0];
measure q -> c;
"""

ID1 = """OPENQASM 2.0;
qreg q[1];
creg c[1];
measure q -> c;
"""


@pytest.fixture(scope="module")
def system():
    return System()


def write_workflow(tmp_path, text, files):
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    path = tmp_path / "flow.ini"
    path.write_text(text, encoding="utf-8")
    return path


def test_threshold_on_bell(tmp_path, system):
    path = write_workflow(
        tmp_path,
        "[stage:prepare]\nkind = quantum\nqasm = bell.qasm\nshots = 2000\n\n"
        "[stage:check]\nkind = classical\nop = threshold_count\nargs = 11, 0.4\n",
        {"bell.qasm": BELL},
    )
    report = run_workflow(path, system, seed=3)
    assert report.answer == "value=True"
    assert report.stages[0]["placement"] == "statevec"
    assert report.stages[1]["placement"] == "classical"


def test_empty_workflow_rejected(tmp_path, system):
    path = tmp_path / "flow.ini"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValidationError):
        run_workflow(path, system)


def test_select_max_matches_oracle_ranking(tmp_path, system):
    # all-zeros frequency: identity (1.0) beats X (0.0) and Bell (~0.5)
    path = write_workflow(
        tmp_path,
        "[stage:a]\nkind = quantum\nqasm = x.qasm\nshots = 500\n\n"
        "[stage:b]\nkind = quantum\nqasm = id.qasm\nshots = 500\n\n"
        "[stage:c]\nkind = quantum\nqasm = bell.qasm\nshots = 500\n\n"
        "[stage:pick]\nkind = classical\nop = select_max\n",
        {"x.qasm": X1, "id.qasm": ID1, "bell.qasm": BELL},
    )
    report = run_workflow(path, system, seed=1)
    assert report.answer == "value=1"


def test_mean_probability(tmp_path, system):
    path = write_workflow(
        tmp_path,
        "[stage:a]\nkind = quantum\nqasm = id.qasm\nshots = 100\n\n"
        "[stage:b]\nkind = quantum\nqasm = x.qasm\nshots = 100\n\n"
        "[stage:mean]\nkind = classical\nop = mean_probability\nargs = 0\n",
        {"x.qasm": X1, "id.qasm": ID1},
    )
    report = run_workflow(path, system, seed=1)
    assert report.answer == "value=0.5"


def test_unknown_builtin(tmp_path, system):
    path = write_workflow(
        tmp_path,
        "[stage:a]\nkind = classical\nop = fancy_op\n",
        {},
    )
    with pytest.raises(UnknownBuiltin):
        run_workflow(path, system)


def test_stage_failure_carries_name(tmp_path, system, monkeypatch):
    path = write_workflow(
        tmp_path,
        "[stage:broken]\nkind = quantum\nqasm = missing.qasm\nshots = 10\n",
        {},
    )
    calls = []
    monkeypatch.setattr(TaskManager, "execute_task", lambda self, *a, **k: calls.append(a))
    report = run_workflow(path, system)
    assert report.status == "failed"
    assert report.failure.startswith("stage 'broken': FileNotFoundError: ")
    assert report.event_lines == ""
    assert report.tasks == [] and report.stages == []
    assert calls == []


def test_bad_stage_fails_before_any_stage_runs(tmp_path, system, monkeypatch):
    bad = Path(__file__).parent / "corpus" / "invalid" / "zero_denominator.qasm"
    path = write_workflow(
        tmp_path,
        "[stage:a]\nkind = quantum\nqasm = bell.qasm\nshots = 10\n"
        f"[stage:b]\nkind = quantum\nqasm = {bad}\nshots = 10\n",
        {"bell.qasm": BELL},
    )
    calls = []
    monkeypatch.setattr(TaskManager, "execute_task", lambda self, *a, **k: calls.append(a))
    report = run_workflow(path, system)
    with pytest.raises(Exception) as parse_error:
        parse_qasm(bad.read_text("utf-8"))
    assert report.status == "failed"
    assert report.failure == (
        f"stage 'b': {type(parse_error.value).__name__}: {parse_error.value}"
    )
    assert report.event_lines == ""
    assert calls == []


def test_classical_without_window_fails(tmp_path):
    path = write_workflow(
        tmp_path,
        "[stage:check]\nkind = classical\nop = mean_probability\nargs = 0\n",
        {},
    )
    with pytest.raises(ValidationError, match="^stage 'check': no quantum stage"):
        parse_workflow(path)


def test_failed_stage_ends_the_run(tmp_path, system):
    # 25 qubits is past sv_max, so the task of stage 'big' fails at routing
    wide = "OPENQASM 2.0;\nqreg q[25];\ncreg c[25];\nmeasure q -> c;\n"
    path = write_workflow(
        tmp_path,
        "[stage:a]\nkind = quantum\nqasm = bell.qasm\nshots = 100\n\n"
        "[stage:check]\nkind = classical\nop = threshold_count\nargs = 11, 0.4\n\n"
        "[stage:big]\nkind = quantum\nqasm = wide.qasm\nshots = 100\n\n"
        "[stage:after]\nkind = quantum\nqasm = bell.qasm\nshots = 100\n",
        {"bell.qasm": BELL, "wide.qasm": wide},
    )
    report = run_workflow(path, system)
    assert report.status == "failed"
    assert report.failure.startswith("stage 'big': NoFeasibleBackend: ")
    assert [line["name"] for line in report.stages] == ["a", "check"]
    assert [t.error is None for t in report.tasks] == [True, False]


def test_workflow_is_one_per_job_job(tmp_path, system):
    path = write_workflow(
        tmp_path,
        "[stage:a]\nkind = quantum\nqasm = bell.qasm\nshots = 100\n\n"
        "[stage:b]\nkind = quantum\nqasm = ghz.qasm\nshots = 100\n",
        {"bell.qasm": BELL, "ghz.qasm": GHZ3},
    )
    report = run_workflow(path, system)
    assert report.model == "per_job"
    events = [line.split()[1:3] for line in report.event_lines.splitlines()]
    assert events == [["submit", "job-0001"], ["grant", "job-0001"],
                      ["complete", "job-0001"]]
    # the cluster clock is the makespan: the stages run one after another
    end = float(report.event_lines.splitlines()[-1].split()[0])
    assert end == pytest.approx(report.metrics["makespan"])
    assert report.metrics["makespan"] == pytest.approx(sum(t.service_time for t in report.tasks))


def test_duplicate_stage_names_rejected(tmp_path, system):
    path = tmp_path / "flow.ini"
    path.write_text(
        "[stage:a]\nkind = quantum\nqasm = x.qasm\n\n[stage:a]\nkind = classical\nop = select_max\n",
        encoding="utf-8",
    )
    with pytest.raises(Exception):  # configparser duplicate or ValidationError
        parse_workflow(path)


def test_quantum_stages_route_and_time(tmp_path, system):
    path = write_workflow(
        tmp_path,
        "[stage:a]\nkind = quantum\nqasm = ghz.qasm\nshots = 300\n\n"
        "[stage:keep]\nkind = classical\nop = threshold_count\nargs = 111, 0.3\n",
        {"ghz.qasm": GHZ3},
    )
    report = run_workflow(path, system, seed=2)
    assert report.metrics["makespan"] > 0
    assert report.tasks[0].backend_id == "statevec"
    assert report.answer in ("value=True", "value=False")


@pytest.mark.parametrize("stage, message", [
    ("[stage:late]\nkind = quantum\nqasm = bell.qasm\nshots = ten\n",
     "stage 'late': shots: expected int, got 'ten'"),
    ("[stage:late]\nkind = classical\nop = threshold_count\nargs = 11, abc\n",
     "stage 'late': args: <fraction> must be a number, got 'abc'"),
    ("[stage:late]\nkind = classical\nop = threshold_count\nargs = 11\n",
     "stage 'late': args: threshold_count takes <bitstring>, <fraction>, got 1 arguments"),
    ("[stage:late]\nkind = classical\nop = select_max\nargs = 00, 11\n",
     "stage 'late': args: select_max takes [<bitstring>], got 2 arguments"),
    ("[stage:late]\nkind = quantum\nqasm = bell.qasm\nshots = 0\n",
     "stage 'late': shots: must be >= 1, got 0"),
    ("[stage:pick]\nkind = classical\nop = select_max\n\n"
     "[stage:late]\nkind = classical\nop = select_max\n",
     "stage 'late': no quantum stage since the previous classical stage"),
    ("[stage:late]\nkind = classical\nop = threshold_count\nargs = 11, nan\n",
     "stage 'late': args: <fraction> must be in [0, 1], got 'nan'"),
    ("[stage:late]\nkind = classical\nop = threshold_count\nargs = 11, inf\n",
     "stage 'late': args: <fraction> must be in [0, 1], got 'inf'"),
    ("[stage:late]\nkind = classical\nop = threshold_count\nargs = 11, 1.5\n",
     "stage 'late': args: <fraction> must be in [0, 1], got '1.5'"),
    ("[stage:late]\nkind = classical\nop = threshold_count\nargs = 11, -0.2\n",
     "stage 'late': args: <fraction> must be in [0, 1], got '-0.2'"),
    ("[stage:late]\nkind = classical\nop = mean_probability\nargs = 1x\n",
     "stage 'late': args: <bitstring> must be groups of 0 and 1 separated by single "
     "spaces, got '1x'"),
    ("[stage:late]\nkind = classical\nop = threshold_count\nargs = 0  1, 0.5\n",
     "stage 'late': args: <bitstring> must be groups of 0 and 1 separated by single "
     "spaces, got '0  1'"),
    ("[stage:late]\nkind = classical\nop = select_max\nargs = 2\n",
     "stage 'late': args: [<bitstring>] must be groups of 0 and 1 separated by single "
     "spaces, got '2'"),
], ids=["shots", "fraction", "count", "optional-count", "zero-shots", "empty-window",
        "fraction-nan", "fraction-inf", "fraction-above-one", "fraction-negative",
        "bitstring-letter", "bitstring-double-space", "optional-bitstring"])
def test_bad_stage_value_fails_at_parse(tmp_path, system, monkeypatch, stage, message):
    path = write_workflow(
        tmp_path,
        "[stage:first]\nkind = quantum\nqasm = bell.qasm\nshots = 10\n\n" + stage,
        {"bell.qasm": BELL},
    )
    calls = []
    monkeypatch.setattr(TaskManager, "execute_task", lambda self, *a, **k: calls.append(a))
    with pytest.raises(ValidationError) as err:
        run_workflow(path, system)
    assert str(err.value) == message
    assert calls == []
