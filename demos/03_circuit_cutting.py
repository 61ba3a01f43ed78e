"""
Circuit cutting and result aggregation
======================================

A circuit whose interaction graph is disconnected splits into independent
subcircuits; executing the pieces and recombining their shot lists gives the
same distribution as the uncut circuit.  Each piece prints keys in the
circuit's layout, so one merged shot is the bitwise OR of one shot per piece.
"""
from qorch import CircuitBuilder, Measure, interaction_components, split_circuit
from qorch.config import load_config
from qorch.qtm import TaskManager
from qorch.statevec import run

# Two disjoint Bell pairs: the interaction graph has two components.
circuit = (
    CircuitBuilder(4, (("c", 4),))
    .h(0)
    .cx(0, 1)
    .h(2)
    .cx(2, 3)
    .measure_all("c")
    .build()
)
# Piece k holds the qubits of interaction component k, smallest first.  Every
# piece keeps the circuit's creg layout and writes only its own bits.
for qubits, piece in zip(interaction_components(circuit), split_circuit(circuit)):
    writes = sorted((i.creg, i.bit) for i in piece.instructions if isinstance(i, Measure))
    print("piece qubits:", sorted(qubits), " writes:", writes)

# The task manager routes, cuts southbound, and aggregates northbound.
system_config = load_config()
tm = TaskManager(system_config.build_registry(), system_config.routing)
task = tm.normalize(circuit, shots=20000, seed=5)
decision = tm.route(task)
print("\nrouted to:", decision.backend_id, " pieces:", len(decision.requests))

result = tm.execute_task(task)
uncut, _ = run(circuit, 20000, seed=5)

keys = sorted(set(result.counts) | set(uncut))
tv = 0.5 * sum(
    abs(result.counts.get(k, 0) - uncut.get(k, 0)) / 20000 for k in keys
)
print("total variation cut vs uncut:", round(tv, 4))

# Feed-forward makes qubits inseparable: no cut is possible.
feedforward = (
    CircuitBuilder(2, (("c", 1),))
    .h(0)
    .measure(0, "c", 0)
    .x(1, condition=("c", 1))
    .build()
)
print("feed-forward pieces:", len(split_circuit(feedforward)))
