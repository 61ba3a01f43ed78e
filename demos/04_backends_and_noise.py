"""
Backend plugins and mock-hardware noise
=======================================

The platform manager exposes every backend through one execute/calibration
contract.  The mock hardware backend reuses the ideal simulation and flips
readout bits with its calibrated probability; with p=0 it is bit-identical
to the state-vector backend.  Routing asks the backends: a task goes to the
first simulator whose descriptor accepts the circuit, and when none does the
error lists each refusal.
"""
from qorch.circuit import CircuitBuilder
from qorch.qpm import (
    BackendDescriptor,
    BackendKind,
    BackendRegistry,
    ExecuteRequest,
    MockHardwareBackend,
    StateVectorBackend,
)
from qorch.qtm import NoFeasibleBackend, TaskManager

registry = BackendRegistry()
registry.register(
    BackendDescriptor("statevec", BackendKind.STATE_VECTOR, max_qubits=26),
    StateVectorBackend(),
)
registry.register(
    BackendDescriptor(
        "noisy-hw", BackendKind.HARDWARE, max_qubits=12,
        supports_mid_circuit=False, supports_conditionals=False,
    ),
    MockHardwareBackend(readout_flip_probability=0.1, alpha_q=1.0, beta_q=1e-6),
)
for desc in registry.list():
    cal = registry.get_calibration(desc.id)
    print(f"{desc.id:10s} kind={desc.kind.value:15s} p={cal.readout_flip_probability}")

bell = (
    CircuitBuilder(2, (("c", 2),))
    .h(0)
    .cx(0, 1)
    .measure(0, "c", 0)
    .measure(1, "c", 1)
    .build()
)

ideal = registry.execute("statevec", ExecuteRequest("t1", bell, 10000, seed=3))
request = ExecuteRequest("t2", bell, 10000, seed=3)
noisy = registry.execute("noisy-hw", request)
print("\nideal distribution:", dict(sorted(ideal.counts.items())))
print("noisy distribution:", dict(sorted(noisy.counts.items())))

odd = noisy.counts.frequency("01") + noisy.counts.frequency("10")
print("odd-parity rate:", round(odd, 4), " (2p(1-p) = 0.18 expected)")
print("hardware service time:", registry.service_time("noisy-hw", request), "s (logical)")

# Hardware takes only tasks that name it, so a 30-qubit circuit has one
# candidate, statevec, and its refusal is the error.
tm = TaskManager(registry)
try:
    tm.route(tm.normalize(CircuitBuilder(30).h(0).build(), 10, seed=0))
except NoFeasibleBackend as exc:
    print("\nno feasible backend:", exc)
