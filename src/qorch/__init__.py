"""qorch: desk-scale hybrid quantum/classical orchestration.

Layers, bottom to top:

- circuit / qasm / gates: portable gate-level IR with OpenQASM 2.0 parsing,
  structural metrics, and separability splitting.
- statevec: exact chunked state-vector execution with mid-circuit collapse.
- qpm: the platform manager; a uniform backend plugin contract with shipped
  state-vector and mock-hardware backends.
- qtm: the task manager; routing to the first backend that accepts a
  circuit, circuit cutting, and northbound result aggregation.
- resman: a discrete-event cluster with co-allocated hybrid jobs and a
  shared-device queue (single-QC and per-job integration models).
- simenv: simulation-partition planning with gang and throughput run modes.
- scenarios / workflow / cli: end-to-end drivers and the command line.
"""

from .circuit import (
    Barrier,
    Circuit,
    CircuitBuilder,
    Gate,
    Measure,
    Reset,
    ValidationError,
    depth,
    gate_count,
    interaction_components,
    split_circuit,
)
from .gates import GateKind, gate_unitary
from .qasm import QasmSyntaxError, UnsupportedFeature, parse_qasm, serialize_qasm
from .statevec import Counts, ExecutionTrace, State, exchange_cost, probabilities, run

__all__ = [
    "Barrier",
    "Circuit",
    "CircuitBuilder",
    "Counts",
    "ExecutionTrace",
    "Gate",
    "GateKind",
    "Measure",
    "QasmSyntaxError",
    "Reset",
    "State",
    "UnsupportedFeature",
    "ValidationError",
    "depth",
    "exchange_cost",
    "gate_count",
    "gate_unitary",
    "interaction_components",
    "parse_qasm",
    "probabilities",
    "run",
    "serialize_qasm",
    "split_circuit",
]

__version__ = "0.1.0"
