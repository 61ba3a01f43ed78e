import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from helpers import product_circuit
from oracle import oracle_probabilities
from qorch.circuit import Circuit, Gate, Measure
from qorch.qasm import serialize_qasm
from qorch.qpm import BackendRegistry, StateVectorBackend
from qorch.qtm import Preferences, TaskManager, piece_requests, task_service_time
from qorch.resman import Model
from qorch.scenarios import (
    QuantumBatch,
    ghz,
    random_layered_circuit,
    run_ensemble,
    run_in_sequence,
    run_single_circuit,
    run_submitted_circuit,
    teleport_circuit,
)
from qorch.simenv import assess, configure
from qorch.statevec import run
from qorch.system import System
from qorch.workflow import run_workflow


@pytest.fixture(scope="module")
def system():
    return System()


@pytest.fixture
def batches(monkeypatch):
    """Every QuantumBatch made while the test runs."""
    made = []
    init = QuantumBatch.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(QuantumBatch, "__init__", keep)
    return made


# -- circuits ----------------------------------------------------------------


def test_ghz_two_is_bell():
    c = ghz(2)
    gates = [i for i in c.instructions if isinstance(i, Gate)]
    assert len(gates) == 2


def test_random_layered_circuit_deterministic():
    a = random_layered_circuit(3, 2, seed=5)
    b = random_layered_circuit(3, 2, seed=5)
    assert a == b
    c = random_layered_circuit(3, 2, seed=6)
    assert a != c


def test_identical_seeds_identical_frequencies():
    circuits = [random_layered_circuit(3, 2, seed=9) for _ in range(8)]
    freqs = {run(c, 500, seed=1)[0].frequency("000") for c in circuits}
    assert len(freqs) == 1


# -- single_circuit -------------------------------------------------------------


def test_single_circuit_ghz_distribution(system):
    report = run_single_circuit(3, 10000, seed=1, system=system)
    dist = report.tasks[0].counts
    assert set(dist) <= {"000", "111"}
    for v in dist.values():
        assert 4700 <= v <= 5300


def test_single_circuit_bell_case(system):
    report = run_single_circuit(2, 2000, seed=2, system=system)
    assert set(report.tasks[0].counts) <= {"00", "11"}


def test_single_circuit_infeasible_reported(system):
    report = run_single_circuit(25, 10, seed=0, system=system)
    assert report.status == "failed"
    assert "NoFeasibleBackend" in (report.tasks[0].error or "")


# -- ensemble ---------------------------------------------------------------------


def test_ensemble_identity_circuit_all_zeros(system):
    report = run_ensemble(1, 3, 0, 500, seed=4, system=system)
    assert report.answer == "mean_zero_frequency=1.000000"


def test_ensemble_mean_matches_oracle(system):
    k, n, layers, shots = 4, 3, 2, 20000
    report = run_ensemble(k, n, layers, shots, seed=8, system=system)
    from qorch.seeds import derive_seed

    expected = []
    for i in range(k):
        c = random_layered_circuit(n, layers, derive_seed(8, "circuit", i))
        gate_only = Circuit(
            c.num_qubits, (),
            tuple(x for x in c.instructions if isinstance(x, Gate)),
        )
        expected.append(oracle_probabilities(gate_only)[0])
    mean_expected = float(np.mean(expected))
    reported = float(report.answer.split("=")[1])
    # three-sigma binomial band around the exact mean
    sigma = math.sqrt(mean_expected * (1 - mean_expected) / (k * shots))
    assert abs(reported - mean_expected) <= max(3 * sigma, 0.01)


def test_ensemble_concurrent_under_per_job(system):
    report = run_ensemble(4, 3, 1, 300, seed=3, system=system, sim_nodes=4)
    waits = [t.queue_wait for t in report.tasks]
    assert waits == [0.0, 0.0, 0.0, 0.0]  # all four start together


def test_ensemble_serializes_on_single_device(system):
    report = run_ensemble(4, 3, 1, 300, seed=3, system=system,
                          model=Model.SINGLE_QC, sim_nodes=0)
    waits = [t.queue_wait for t in report.tasks]
    assert waits[0] == 0.0
    assert all(b > a for a, b in zip(waits, waits[1:]))


# -- in_sequence ---------------------------------------------------------------------


def test_in_sequence_theta_pi_first_iteration_exact(system):
    report = run_in_sequence(math.pi, 2000, seed=6, system=system)
    assert report.iterations[0]["p1"] == "1.000000"


def test_in_sequence_theta_half_pi_converges_first(system):
    report = run_in_sequence(math.pi / 2, 10000, seed=2, system=system)
    assert len(report.iterations) == 1
    p1 = float(report.iterations[0]["p1"])
    assert 0.48 <= p1 <= 0.52


def test_in_sequence_converges_near_half_pi(system):
    report = run_in_sequence(0.3, 10000, seed=1, system=system)
    final_theta = float(report.answer.split()[0].split("=")[1])
    assert abs(final_theta - math.pi / 2) < 0.05


def test_in_sequence_uses_feedforward(system):
    c = teleport_circuit(0.3)
    conditioned = [
        i for i in c.instructions if isinstance(i, Gate) and i.condition is not None
    ]
    assert len(conditioned) == 2
    mid = [i for i, x in enumerate(c.instructions) if isinstance(x, Measure)]
    assert mid[0] < len(c.instructions) - 1  # mid-circuit, not terminal


BAD_PARAMETERS = {
    "single_circuit-n1": lambda system: run_single_circuit(1, 100, 0, system),
    "single_circuit-shots0": lambda system: run_single_circuit(3, 0, 0, system),
    "ensemble-k0": lambda system: run_ensemble(0, 3, 2, 100, 0, system),
    "ensemble-n0": lambda system: run_ensemble(2, 0, 2, 100, 0, system),
    "ensemble-layers-1": lambda system: run_ensemble(2, 3, -1, 100, 0, system),
    "ensemble-shots0": lambda system: run_ensemble(2, 3, 2, 0, 0, system),
    "in_sequence-theta7": lambda system: run_in_sequence(7.0, 100, 0, system),
    "in_sequence-shots0": lambda system: run_in_sequence(0.3, 0, 0, system),
    "in_sequence-tolerance0": lambda system: run_in_sequence(0.3, 100, 0, system, tolerance=0.0),
    "in_sequence-cap0": lambda system: run_in_sequence(0.3, 100, 0, system, max_iterations=0),
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMETERS))
def test_drivers_reject_bad_parameters(system, case):
    with pytest.raises(ValueError):
        BAD_PARAMETERS[case](system)


def test_pattern_coverage():
    # the three drivers jointly cover: multinomial sampling of one static
    # circuit, mid-circuit measurement + conditionals, and concurrent
    # multi-task execution (asserted via the zero waits in
    # test_ensemble_concurrent_under_per_job)
    from qorch.circuit import is_static

    assert is_static(ghz(3))
    assert not is_static(teleport_circuit(0.5))


def test_in_sequence_nonconvergence(system):
    report = run_in_sequence(0.3, 1000, seed=1, system=system, tolerance=0.0001,
                             max_iterations=3)
    assert report.status == "failed"
    assert report.failure == "NonConvergence: no convergence after 3 iterations"
    assert len(report.iterations) == 3


# -- submit -----------------------------------------------------------------------


def test_submit_qasm_source(system):
    src = 'OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nh q[0];\nmeasure q -> c;\n'
    report = run_submitted_circuit(src, 400, seed=9, system=system)
    assert report.status == "ok"
    assert report.tasks[0].counts.total() == 400


def test_submit_with_backend_preference(system):
    src = 'OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nh q[0];\nmeasure q -> c;\n'
    report = run_submitted_circuit(
        src, 400, seed=9, system=system, backend_id="mock-hw"
    )
    assert report.tasks[0].backend_id == "mock-hw"


def test_separable_task_same_under_both_models(system):
    src = serialize_qasm(product_circuit([2, 2], 1, seed=21))
    per_job = run_submitted_circuit(src, 500, seed=4, system=system, sim_nodes=1)
    single = run_submitted_circuit(
        src, 500, seed=4, system=system, model=Model.SINGLE_QC, sim_nodes=0
    )
    tm = system.task_manager()
    task = tm.normalize(src, 500, 4)
    direct = tm.execute_task(task)
    service = task_service_time(system.registry, task, tm.route(task))
    for report in (per_job, single):
        (line,) = report.tasks
        assert line.counts == direct.counts
        assert line.service_time == service


@dataclass(frozen=True)
class _CountingStateVector(StateVectorBackend):
    """A state-vector engine that notes the width of each circuit it prices."""

    priced: list = field(default_factory=list, compare=False)

    def service_time(self, circuit, shots, workers):
        self.priced.append(circuit.num_qubits)
        return super().service_time(circuit, shots, workers)


@pytest.mark.parametrize("model", [Model.PER_JOB, Model.SINGLE_QC])
def test_each_piece_is_priced_once(model):
    system = System()
    descriptor = system.registry.descriptor("statevec")
    engine = _CountingStateVector()
    system.registry = BackendRegistry()
    system.registry.register(descriptor, engine)
    src = serialize_qasm(product_circuit([2, 2, 1], 1, seed=5))
    report = run_submitted_circuit(src, 200, seed=4, system=system, model=model)
    assert report.status == "ok"
    assert sorted(engine.priced) == [1, 2, 2]


def test_task_lines_report_the_price_of_their_pieces(system):
    src = serialize_qasm(product_circuit([2, 2, 1], 1, seed=5))
    tm = system.task_manager()

    # per_job: the line's wait and service time are its assignment's start and duration
    report = run_submitted_circuit(src, 200, seed=4, system=system, sim_nodes=4, workers=4)
    task = tm.normalize(src, 200, 4, Preferences(workers=4))
    decision = tm.route(task)
    assert len(decision.cut.subtasks) == 3
    plan = assess([(task, decision)], configure(4, system.config.partitions), system.registry)
    (assignment,) = plan.assignments
    (line,) = report.tasks
    assert (line.queue_wait, line.service_time) == (assignment.start, assignment.duration)
    assert f"service_time={assignment.duration:.9g} " in line.to_line()

    # single_qc: the line's service time is the device's price of each piece, summed
    report = run_submitted_circuit(src, 200, seed=4, system=system, model=Model.SINGLE_QC)
    task = tm.normalize(src, 200, 4, Preferences(backend_id="statevec", workers=1))
    requests = piece_requests(task, tm.route(task))
    assert len(requests) == 3
    (line,) = report.tasks
    assert line.service_time == sum(system.registry.service_time("statevec", r) for r in requests)
    assert f"service_time={line.service_time:.9g} " in line.to_line()


def test_single_qc_task_that_fails_to_route_names_the_device(system):
    report = run_single_circuit(30, 10, seed=0, system=system, model=Model.SINGLE_QC,
                                sim_nodes=0)
    (line,) = report.tasks
    assert line.to_line().startswith("task task-0001 backend=statevec queue_wait=0 ")
    assert line.error.startswith("IncompatiblePreference: ")


# -- one record per task -------------------------------------------------------------


def _same_records(report, batch):
    assert len(report.tasks) == len(batch.outcomes) > 0
    assert all(line is record for line, record in zip(report.tasks, batch.outcomes))
    assert all(record.record() is record for record in batch.outcomes)


@pytest.mark.parametrize("model", [Model.PER_JOB, Model.SINGLE_QC])
def test_batch_outcomes_are_the_report_tasks(system, batches, model):
    sim = 0 if model is Model.SINGLE_QC else 2
    report = run_ensemble(3, 2, 1, 100, seed=2, system=system, model=model, sim_nodes=sim)
    assert report.status == "ok"
    (batch,) = batches
    _same_records(report, batch)


def test_workflow_stage_lines_read_the_task_records(tmp_path, system, batches):
    (tmp_path / "bell.qasm").write_text(serialize_qasm(ghz(2)), encoding="utf-8")
    flow = tmp_path / "flow.ini"
    flow.write_text(
        "[stage:a]\nkind = quantum\nqasm = bell.qasm\nshots = 100\n\n"
        "[stage:b]\nkind = quantum\nqasm = bell.qasm\nshots = 50\n",
        encoding="utf-8",
    )
    report = run_workflow(flow, system)
    assert report.status == "ok"
    (batch,) = batches
    _same_records(report, batch)
    assert [stage["counts"] for stage in report.stages] == [r.digest() for r in report.tasks]


def test_per_job_task_that_fails_in_execution_keeps_zero_times(system, monkeypatch):
    # three tasks planned onto one node; the last one's start and duration are not 0
    execute_task = TaskManager.execute_task
    calls = []

    def third_fails(self, task, decision=None):
        calls.append(task.task_id)
        if len(calls) == 3:
            raise RuntimeError("engine down")
        return execute_task(self, task, decision)

    monkeypatch.setattr(TaskManager, "execute_task", third_fails)
    report = run_ensemble(3, 2, 1, 100, seed=2, system=system, sim_nodes=1)
    assert report.status == "failed"
    first, second, failed = report.tasks
    assert failed.task_id == calls[2]
    assert second.queue_wait > 0 and second.service_time > 0
    assert failed.error == "RuntimeError: engine down"
    assert failed.backend_id == "statevec" and failed.counts is None
    assert (failed.queue_wait, failed.service_time) == (0, 0)


# -- determinism --------------------------------------------------------------------


@pytest.mark.parametrize("model", [Model.PER_JOB, Model.SINGLE_QC])
def test_reports_byte_identical(system, model):
    sim = 0 if model is Model.SINGLE_QC else 2
    a = run_single_circuit(3, 3000, seed=5, system=system, model=model, sim_nodes=sim)
    b = run_single_circuit(3, 3000, seed=5, system=system, model=model, sim_nodes=sim)
    assert a.to_text() == b.to_text()
    assert a.event_lines == b.event_lines
