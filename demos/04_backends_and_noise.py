"""
Backend plugins and mock-hardware noise
=======================================

The platform manager exposes every backend through one execute/calibration
contract.  The mock hardware backend reuses the ideal simulation and flips
readout bits with its calibrated probability; with p=0 it is bit-identical
to the state-vector backend.
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
# A tensor-network slot can be declared now and implemented by a plugin later.
registry.register(BackendDescriptor("tn", BackendKind.TENSOR_NETWORK, max_qubits=40))

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

try:
    registry.execute("tn", ExecuteRequest("t3", bell, 10, seed=0))
except NotImplementedError as exc:
    print("tensor-network slot:", exc)
