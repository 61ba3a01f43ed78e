"""The benchmark's tracer patches qorch names from outside the package.

Installing it over runs that reach every patched name fails here, rather
than only in a benchmark run, when one of those names is renamed or its call
shape changes.
"""
import importlib.util
from pathlib import Path

import pytest

from helpers import product_circuit
from qorch.circuit import CircuitBuilder
from qorch.config import default_config_text, parse_config
from qorch.qasm import serialize_qasm
from qorch.qtm import TaskManager
from qorch.resman import Model
from qorch.scenarios import run_ensemble, run_in_sequence, run_submitted_circuit
from qorch.system import System

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_tracer_patches_every_layer_it_names():
    route = TaskManager.route
    mock_hw = System(parse_config(
        default_config_text().replace("device = statevec", "device = mock-hw")))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cut = run_submitted_circuit(serialize_qasm(product_circuit([2, 1], 1, seed=3)),
                                    100, seed=1, system=System())
        loop = run_in_sequence(1.0, 200, seed=2, system=System(), model=Model.SINGLE_QC,
                               sim_nodes=0)
        ensemble = run_ensemble(2, 3, 1, 100, seed=3, system=mock_hw,
                                model=Model.SINGLE_QC, sim_nodes=0)
    finally:
        tracer.uninstall()
    assert TaskManager.route is route
    assert [r.status for r in (cut, loop, ensemble)] == ["ok"] * 3
    assert {span[tracing.NAME] for span in tracer.spans} >= {
        "qasm.parse", "qtm.route", "qtm.aggregate", "qpm.readout", "simenv.plan",
        "simenv.execute", "scenarios.batch", "statevec.run",
    }


@pytest.mark.parametrize("last", ["cx", "u"])
def test_tracer_times_fused_gates_as_kernel_work(last):
    # on 16 qubits one-qubit gates are held and applied in blocks; the
    # tracer's kernel fold and amplitude-gate count still see every gate,
    # also when a layer of held gates comes right before the measures
    b = CircuitBuilder(16, (("c", 16),))
    for layer in range(3):
        for q in range(16):
            b.u(0.3 * q, 0.1 * layer, 0.7, q)
        for q in range(layer % 2, 15, 2):
            b.cx(q, q + 1)
    gates = 3 * (16 + 8) - 1
    if last == "u":
        for q in range(16):
            b.h(q)
        gates += 16
    circuit = b.measure_all("c").build()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = run_submitted_circuit(serialize_qasm(circuit), 1000, seed=5, system=System())
    finally:
        tracer.uninstall()
    assert report.status == "ok"
    (run,) = [span for span in tracer.spans if span[tracing.NAME] == "statevec.run"]
    assert run[tracing.ATTRS]["gates"] == gates
    assert run[tracing.ATTRS]["statevec.kernel"] > 0
    assert tracer.counters["statevec.amp_gates"] == gates * 2**16


def test_tracer_times_small_state_gates_as_kernel_work():
    # below 9 qubits every gate runs at once through State.apply, dense
    # one-qubit gates as the small-state update; the tracer must see each
    b = CircuitBuilder(4, (("c", 4),))
    for layer in range(3):
        for q in range(4):
            b.u(0.3 * q, 0.1 * layer, 0.7, q)
            b.ry(0.2 + 0.1 * q, q)
        for q in range(layer % 2, 3, 2):
            b.cx(q, q + 1)
    circuit = b.h(0).measure_all("c").build()
    gates = 3 * 8 + 5 + 1  # u and ry per qubit and layer, five cx, the last h
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = run_submitted_circuit(serialize_qasm(circuit), 1000, seed=5, system=System())
    finally:
        tracer.uninstall()
    assert report.status == "ok"
    (run,) = [span for span in tracer.spans if span[tracing.NAME] == "statevec.run"]
    assert run[tracing.ATTRS]["gates"] == gates
    assert run[tracing.ATTRS]["statevec.kernel"] > 0
    assert tracer.counters["statevec.amp_gates"] == gates * 2**4
