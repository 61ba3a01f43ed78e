"""
State-vector execution
======================

Exact simulation with measurement sampling, mid-circuit collapse with
feed-forward corrections, and the worker-chunk model used for gang-mode
accounting.
"""
import math

from qorch import CircuitBuilder, State, exchange_cost, probabilities, run
from qorch.gates import GateKind
from qorch.circuit import Gate

# A Bell pair, sampled 10000 times.
bell = (
    CircuitBuilder(2, (("c", 2),))
    .h(0)
    .cx(0, 1)
    .measure(0, "c", 0)
    .measure(1, "c", 1)
    .build()
)
counts, trace = run(bell, shots=10000, seed=7)
print("bell counts:        ", dict(sorted(counts.items())))
print("gates applied:      ", trace.gates_applied)

# Teleportation uses mid-circuit measurement plus conditioned corrections;
# teleporting ry(pi)|0> = |1> gives P(out=1) = 1 for every seed.
theta = math.pi
teleport = (
    CircuitBuilder(3, (("m0", 1), ("m1", 1), ("out", 1)))
    .ry(theta, 0)
    .h(1)
    .cx(1, 2)
    .cx(0, 1)
    .h(0)
    .measure(0, "m0", 0)
    .measure(1, "m1", 0)
    .x(2, condition=("m1", 1))
    .z(2, condition=("m0", 1))
    .measure(2, "out", 0)
    .build()
)
counts, _ = run(teleport, shots=2000, seed=1)
ones = sum(v for k, v in counts.items() if k.split()[2] == "1")
print("teleported P(1):    ", ones / 2000)

# The amplitude array is stored as equal worker chunks; results never depend
# on the worker count, only the exchange accounting does.
state = State(3, workers=2)
print("chunks:             ", [list(c) for c in state.chunks])
state.apply(Gate(GateKind.H, (), (0,), None))
print("post-h probabilities:", probabilities(state)[:2])

local = CircuitBuilder(3).h(0).cx(0, 1).build()
nonlocal_ = CircuitBuilder(3).h(2).build()
print("exchange, local gates:    ", exchange_cost(local, 3, 2))
print("exchange, top-qubit gate: ", exchange_cost(nonlocal_, 3, 2))

for w in (1, 2, 4):
    counts, _ = run(bell, shots=500, seed=42, workers=w)
    print(f"w={w} counts:        ", dict(sorted(counts.items())))
