"""Reference computations the benchmark checks qorch's outputs against.

Gate matrices come from the test suite's independent oracle
(``tests/oracle.py``); the state update here works on slices of a
``(2,) * n`` view and shares no code with ``qorch.statevec``.  Small static
programs go through the oracle's full-matrix product instead.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracle  # noqa: E402  (tests/oracle.py)

ORACLE_MAX_QUBITS = 6


def _axis_index(n: int, axis: int, value: int):
    index = [slice(None)] * n
    index[axis] = value
    return tuple(index)


def apply_gate(psi: np.ndarray, name: str, params, qubits) -> None:
    """Apply a 1- or 2-qubit gate in place to a (2,)*n state tensor."""
    n = psi.ndim
    matrix = oracle.oracle_gate_matrix(name, tuple(params))
    axes = [n - 1 - q for q in qubits]
    if len(qubits) == 1:
        i0, i1 = _axis_index(n, axes[0], 0), _axis_index(n, axes[0], 1)
        a0, a1 = psi[i0].copy(), psi[i1].copy()
        psi[i0] = matrix[0, 0] * a0 + matrix[0, 1] * a1
        psi[i1] = matrix[1, 0] * a0 + matrix[1, 1] * a1
        return
    slices = []
    for index in range(4):  # index = bit(q1) * 2 + bit(q0)
        sel = [slice(None)] * n
        sel[axes[0]] = index & 1
        sel[axes[1]] = index >> 1
        slices.append(tuple(sel))
    old = [psi[s].copy() for s in slices]
    for row, sel in enumerate(slices):
        psi[sel] = sum(matrix[row, col] * old[col] for col in range(4))


def final_state(n: int, ops) -> np.ndarray:
    """State tensor after the gate ops of a static program."""
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for op in ops:
        if op[0] == "gate":
            apply_gate(psi, op[1], op[2], op[3])
    return psi


def qubit_marginals(program) -> np.ndarray:
    """Exact P(qubit q reads 1) for each qubit of a static program."""
    n = program.num_qubits
    if n <= ORACLE_MAX_QUBITS:
        gates = [
            SimpleNamespace(kind=SimpleNamespace(value=op[1]), params=op[2], qubits=op[3])
            for op in program.ops if op[0] == "gate"
        ]
        probs = oracle.oracle_probabilities(SimpleNamespace(num_qubits=n, instructions=gates))
        index = np.arange(2**n)
        return np.array([probs[(index >> q) & 1 == 1].sum() for q in range(n)])
    probs = np.abs(final_state(n, program.ops)) ** 2
    return np.array([
        probs[_axis_index(n, n - 1 - q, 1)].sum() for q in range(n)
    ])


def branch_distribution(program) -> dict[str, float]:
    """Exact outcome distribution of a feed-forward program by enumerating
    every measurement branch (measure, reset and conditioned gates)."""
    n = program.num_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    branches = [(1.0, psi, {name: 0 for name, _ in program.cregs})]
    for op in program.ops:
        nxt = []
        for prob, state, creg in branches:
            if op[0] == "gate":
                condition = op[4]
                if condition is None or creg[condition[0]] == condition[1]:
                    apply_gate(state, op[1], op[2], op[3])
                nxt.append((prob, state, creg))
                continue
            axis = n - 1 - op[1]
            for bit in (0, 1):
                part = state.copy()
                part[_axis_index(n, axis, 1 - bit)] = 0.0
                weight = float(np.sum(np.abs(part) ** 2))
                if weight < 1e-14:
                    continue
                part /= math.sqrt(weight)
                values = dict(creg)
                if op[0] == "measure":
                    _, _, name, position = op
                    values[name] = (values[name] & ~(1 << position)) | (bit << position)
                elif bit:  # reset: move the |1> branch back to |0>
                    part[_axis_index(n, axis, 0)] = part[_axis_index(n, axis, 1)]
                    part[_axis_index(n, axis, 1)] = 0.0
                nxt.append((prob * weight, part, values))
        branches = nxt
    dist: dict[str, float] = {}
    for prob, _, creg in branches:
        key = " ".join(format(creg[name], f"0{size}b") for name, size in program.cregs)
        dist[key] = dist.get(key, 0.0) + prob
    return dist
