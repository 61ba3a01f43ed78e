"""Benchmark inputs: quantum programs as plain op lists, emitted as QASM text.

The benchmark keeps its own description of every program it submits, so the
reference computations in ``reference.py`` never read qorch's parsed IR.

An op is one of
    ("gate", name, params, qubits, condition)   condition: None or (creg, value)
    ("measure", qubit, creg, bit)
    ("reset", qubit)
Gate operands use qorch's little-endian convention (qubit 0 is the least
significant amplitude bit); a 2-qubit matrix index is bit(q1) * 2 + bit(q0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Program:
    name: str
    kind: str  # ghz | random | separable | parity
    num_qubits: int
    cregs: tuple[tuple[str, int], ...]
    ops: tuple[tuple, ...]
    shots: int
    seed: int
    # separable programs: qubit blocks and each block's P(all ones)
    blocks: tuple[tuple[tuple[int, ...], float], ...] = ()

    def qasm(self) -> str:
        lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{self.num_qubits}];"]
        lines += [f"creg {name}[{size}];" for name, size in self.cregs]
        for op in self.ops:
            if op[0] == "gate":
                _, name, params, qubits, condition = op
                text = name
                if params:
                    text += "(" + ",".join(f"{p:.17g}" for p in params) + ")"
                text += " " + ",".join(f"q[{q}]" for q in qubits) + ";"
                if condition is not None:
                    text = f"if({condition[0]}=={condition[1]}) " + text
                lines.append(text)
            elif op[0] == "measure":
                lines.append(f"measure q[{op[1]}] -> {op[2]}[{op[3]}];")
            else:
                lines.append(f"reset q[{op[1]}];")
        return "\n".join(lines) + "\n"


def _gate(name, qubits, params=(), condition=None):
    return ("gate", name, tuple(params), tuple(qubits), condition)


def _measure_all(n: int, creg: str = "c", offset: int = 0):
    return [("measure", offset + j, creg, j) for j in range(n)]


def ghz(n: int, shots: int, seed: int) -> Program:
    ops = [_gate("h", (0,))] + [_gate("cx", (q, q + 1)) for q in range(n - 1)]
    return Program(f"ghz{n}", "ghz", n, (("c", n),), tuple(ops + _measure_all(n)),
                   shots, seed, blocks=((tuple(range(n)), 0.5),))


def random_layered(n: int, layers: int, shots: int, seed: int) -> Program:
    """Per-qubit u gates, then a random disjoint cx pairing, per layer."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(layers):
        for q in range(n):
            ops.append(_gate("u", (q,), rng.uniform(0.0, 2.0 * math.pi, 3)))
        order = rng.permutation(n)
        for i in range(0, n - 1, 2):
            ops.append(_gate("cx", (int(order[i]), int(order[i + 1]))))
    return Program(f"random{n}x{layers}", "random", n, (("c", n),),
                   tuple(ops + _measure_all(n)), shots, seed)


def separable(sizes: tuple[int, ...], shots: int, seed: int) -> Program:
    """Disjoint GHZ-like blocks; block b is ry(theta_b) then a cx chain.

    Each block reads all zeros with probability cos^2(theta_b / 2) and all
    ones otherwise, independently of the other blocks.
    """
    rng = np.random.default_rng(seed)
    ops, blocks, base = [], [], 0
    for size in sizes:
        theta = float(rng.uniform(0.3, math.pi - 0.3))
        ops.append(_gate("ry", (base,), (theta,)))
        ops += [_gate("cx", (base + j, base + j + 1)) for j in range(size - 1)]
        blocks.append((tuple(range(base, base + size)), math.sin(theta / 2.0) ** 2))
        base += size
    name = "sep" + "+".join(str(s) for s in sizes)
    return Program(name, "separable", base, (("c", base),),
                   tuple(ops + _measure_all(base)), shots, seed, blocks=tuple(blocks))


def parity_rounds(data: int, rounds: int, shots: int, seed: int) -> Program:
    """Repeated parity checks with mid-circuit measure, reset and feed-forward.

    Data qubits 0..data-1 start in seeded ry states; qubit ``data`` is the
    ancilla.  Each round copies the data parity onto the ancilla, measures it
    into creg p<r>, resets it, and conditionally flips a seeded data qubit.
    The data register is measured at the end into creg d.
    """
    rng = np.random.default_rng(seed)
    anc = data
    ops = [_gate("ry", (q,), (float(rng.uniform(0.2, math.pi - 0.2)),)) for q in range(data)]
    cregs = []
    for r in range(rounds):
        ops += [_gate("cx", (q, anc)) for q in range(data)]
        ops.append(("measure", anc, f"p{r}", 0))
        ops.append(("reset", anc))
        target = int(rng.integers(data))
        ops.append(_gate("x", (target,), condition=(f"p{r}", 1)))
        ops.append(_gate("ry", (target,), (float(rng.uniform(0.2, 1.2)),)))
        cregs.append((f"p{r}", 1))
    cregs.append(("d", data))
    ops += [("measure", q, "d", q) for q in range(data)]
    return Program(f"parity{data + 1}x{rounds}", "parity", data + 1, tuple(cregs),
                   tuple(ops), shots, seed)
