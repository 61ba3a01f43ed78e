"""The benchmark's tracer patches qorch names from outside the package.

Installing it over runs that reach every patched name fails here, rather
than only in a benchmark run, when one of those names is renamed or its call
shape changes.
"""
import importlib.util
from pathlib import Path

from helpers import product_circuit
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
