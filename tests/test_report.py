"""Task lines: the digest and the dist field come from one canonical line,
and the answer and stage lines carry the digest of their task."""
import hashlib

import pytest

from qorch.report import TaskRecord, counts_fields
from qorch.scenarios import run_submitted_circuit
from qorch.statevec import Counts
from qorch.system import System
from qorch.workflow import run_workflow

TELEPORT = """OPENQASM 2.0;
qreg q[3];
creg m0[1];
creg m1[1];
creg out[1];
ry(0.7) q[0];
h q[1];
cx q[1],q[2];
cx q[0],q[1];
h q[0];
measure q[0] -> m0[0];
measure q[1] -> m1[0];
if(m1==1) x q[2];
if(m0==1) z q[2];
measure q[2] -> out[0];
"""


def _line_fields(counts):
    """The digest and dist of the report format, each built on its own."""
    line = ";".join(f"{k}:{counts[k]}" for k in sorted(counts))
    dist = ";".join(f"{k.replace(' ', '.')}:{counts[k]}" for k in sorted(counts)) or "-"
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16], dist


def test_dist_is_digest_line_with_dots():
    # inserted out of order, keys of three cregs
    counts = Counts({"1 0 11": 3, "0 1 00": 5, "0 0 01": 2})
    digest, dist = counts_fields(counts)
    assert dist == counts.canonical_line().replace(" ", ".")
    assert dist == "0.0.01:2;0.1.00:5;1.0.11:3"
    assert (digest, dist) == _line_fields(counts)
    assert counts_fields(Counts()) == (_line_fields(Counts())[0], "-")
    assert counts_fields(None) == ("-", "-")


def test_task_line_fields():
    counts = Counts({"01": 7, "10": 1})
    record = TaskRecord("t0", "statevec", 0.0, 1.0, counts)
    digest, dist = _line_fields(counts)
    assert record.to_line() == (f"task t0 backend=statevec queue_wait=0 service_time=1 "
                                f"counts={digest} dist={dist}")
    assert TaskRecord("t1", "-", 0.0, 0.0, None, "Boom: x y").to_line().endswith(
        "counts=- dist=- error=Boom:_x_y")


def test_answer_and_task_line_share_the_digest():
    report = run_submitted_circuit(TELEPORT, 500, 3, System())
    (record,) = report.tasks
    digest, dist = _line_fields(record.counts)
    assert " " in next(iter(record.counts))
    assert report.answer == f"counts={digest}"
    assert f"counts={digest} dist={dist}" in record.to_line()


def test_stage_lines_carry_their_task_digest(tmp_path):
    (tmp_path / "tp.qasm").write_text(TELEPORT, encoding="utf-8")
    path = tmp_path / "flow.ini"
    path.write_text("[stage:a]\nkind = quantum\nqasm = tp.qasm\nshots = 300\n\n"
                    "[stage:b]\nkind = quantum\nqasm = tp.qasm\nshots = 200\n", encoding="utf-8")
    report = run_workflow(path, System(), seed=4)
    assert report.status == "ok"
    assert [stage["counts"] for stage in report.stages] == [
        _line_fields(record.counts)[0] for record in report.tasks]


@pytest.mark.parametrize("stages", [1, 3])
def test_each_task_line_is_built_once(tmp_path, monkeypatch, stages):
    built = []
    line = Counts.canonical_line
    monkeypatch.setattr(Counts, "canonical_line", lambda self: built.append(1) or line(self))
    if stages == 1:
        report = run_submitted_circuit(TELEPORT, 500, 3, System())
    else:
        (tmp_path / "tp.qasm").write_text(TELEPORT, encoding="utf-8")
        path = tmp_path / "flow.ini"
        path.write_text("".join(f"[stage:s{k}]\nkind = quantum\nqasm = tp.qasm\nshots = 100\n\n"
                                for k in range(stages)), encoding="utf-8")
        report = run_workflow(path, System(), seed=4)
    text = report.to_text()
    assert report.status == "ok" and len(report.tasks) == stages
    assert len(built) == stages
    for record in report.tasks:
        assert f"counts={_line_fields(record.counts)[0]} " in text
