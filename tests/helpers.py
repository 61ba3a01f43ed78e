"""Shared circuit generators for the test suite."""
import numpy as np
from hypothesis import strategies as st

from qorch.circuit import CircuitBuilder
from qorch.gates import GateKind

_ALL_GATES = [
    GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S, GateKind.SDG,
    GateKind.T, GateKind.TDG, GateKind.RX, GateKind.RY, GateKind.RZ,
    GateKind.U, GateKind.CX, GateKind.CZ, GateKind.SWAP, GateKind.ID,
]


def random_gate_circuit(n, layers, seed, measure=False):
    """Random circuit over the full gate vocabulary, one gate per qubit-slot."""
    rng = np.random.default_rng(seed)
    cregs = (("c", n),) if measure else ()
    b = CircuitBuilder(n, cregs)
    for _ in range(layers):
        order = rng.permutation(n)
        used = set()
        for q in order:
            q = int(q)
            if q in used:
                continue
            kind = _ALL_GATES[int(rng.integers(len(_ALL_GATES)))]
            if kind.num_qubits == 2:
                free = [p for p in range(n) if p not in used and p != q]
                if not free:
                    kind = GateKind.H
                    b.gate(kind, (q,))
                    used.add(q)
                    continue
                partner = int(free[int(rng.integers(len(free)))])
                b.gate(kind, (q, partner))
                used.update((q, partner))
            else:
                params = tuple(rng.uniform(0, 2 * np.pi, kind.num_params))
                b.gate(kind, (q,), params)
                used.add(q)
    if measure:
        b.measure_all("c")
    return b.build()


def product_circuit(component_sizes, layers, seed, measure=True):
    """Independent random blocks on disjoint qubit groups (cuttable)."""
    rng = np.random.default_rng(seed)
    n = sum(component_sizes)
    cregs = (("c", n),) if measure else ()
    b = CircuitBuilder(n, cregs)
    offset = 0
    for size in component_sizes:
        local = list(range(offset, offset + size))
        for _ in range(layers):
            for q in local:
                b.u(*rng.uniform(0, 2 * np.pi, 3), q)
            if size >= 2:
                pairs = rng.permutation(size)
                for i in range(0, size - 1, 2):
                    b.cx(local[int(pairs[i])], local[int(pairs[i + 1])])
        offset += size
    if measure:
        b.measure_all("c")
    return b.build()


@st.composite
def feed_forward_programs(draw):
    """Gates, conditioned gates, mid-circuit measures and resets in any order
    over 1-4 qubits and two 1-2 bit cregs, ending with a measure."""
    n = draw(st.integers(1, 4))
    cregs = (("a", draw(st.integers(1, 2))), ("b", draw(st.integers(1, 2))))
    qubit = st.integers(0, n - 1)
    kinds = [GateKind.H, GateKind.X, GateKind.RY] + ([GateKind.CX] if n > 1 else [])
    b = CircuitBuilder(n, cregs)
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(["gate", "if", "measure", "reset"]))
        q = draw(qubit)
        name, size = draw(st.sampled_from(cregs))
        if op == "measure":
            b.measure(q, name, draw(st.integers(0, size - 1)))
        elif op == "reset":
            b.reset(q)
        else:
            kind = draw(st.sampled_from(kinds))
            qubits = (q, draw(qubit.filter(lambda p: p != q))) if kind.num_qubits == 2 else (q,)
            params = (draw(st.floats(0, 2 * np.pi)),) if kind is GateKind.RY else ()
            condition = (name, draw(st.integers(0, 2**size - 1))) if op == "if" else None
            b.gate(kind, qubits, params, condition)
    b.measure(draw(qubit), "b", 0)
    return b.build()


@st.composite
def cuttable_programs(draw):
    """Programs over qubit groups with 2-qubit gates only inside a group, so
    they usually cut: up to three cregs, partial and repeated writes, the
    same bit written from two groups, ``if`` on written and unwritten cregs,
    resets and barriers."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    n = sum(sizes)
    order = draw(st.permutations(range(n)))
    groups = [order[sum(sizes[:i]):sum(sizes[:i + 1])] for i in range(len(sizes))]
    cregs = tuple((f"c{i}", draw(st.integers(1, 6)))
                  for i in range(draw(st.integers(0, 3))))
    ops = ["gate", "gate", "barrier", "reset"] + (["measure", "measure", "if"] if cregs else [])
    b = CircuitBuilder(n, cregs)
    for _ in range(draw(st.integers(1, 16))):
        op = draw(st.sampled_from(ops))
        group = draw(st.sampled_from(groups))
        q = draw(st.sampled_from(group))
        if op == "barrier":
            b.barrier(*draw(st.lists(st.sampled_from(range(n)), min_size=1, unique=True)))
        elif op == "reset":
            b.reset(q)
        elif op == "measure":
            name, size = draw(st.sampled_from(cregs))
            b.measure(q, name, draw(st.integers(0, size - 1)))
        else:
            condition = None
            if op == "if":
                name, size = draw(st.sampled_from(cregs))
                condition = (name, draw(st.integers(0, 2**size - 1)))
            if len(group) > 1 and draw(st.booleans()):
                kind = draw(st.sampled_from([GateKind.CX, GateKind.CZ, GateKind.SWAP]))
                qubits = (q, draw(st.sampled_from([p for p in group if p != q])))
                b.gate(kind, qubits, condition=condition)
            else:
                kind = draw(st.sampled_from([GateKind.H, GateKind.X, GateKind.RY]))
                params = (draw(st.floats(0, 2 * np.pi)),) if kind is GateKind.RY else ()
                b.gate(kind, (q,), params, condition)
    for q in range(n) if cregs else ():
        if draw(st.booleans()):
            name, size = draw(st.sampled_from(cregs))
            b.measure(q, name, draw(st.integers(0, size - 1)))
    return b.build()
