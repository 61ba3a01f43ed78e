"""Fixed gate vocabulary and its unitary matrices.

Two-qubit matrices use a little-endian operand convention: the index of the
4x4 matrix is ``bit(q1)*2 + bit(q0)`` where ``[q0, q1]`` is the operand list,
matching the little-endian amplitude layout used by the simulator (qubit 0 is
the least-significant amplitude index bit).

``gate_entries`` gives the four entries of a one-qubit matrix as Python
complex numbers.  Those of the fixed gates are built once from ``_FIXED``,
and a parameterised gate computes its four with ``math``/``cmath``, so the
simulator's kernels never build or copy a matrix per gate.
"""
from __future__ import annotations

import cmath
import math
from enum import Enum

import numpy as np


class GateKind(str, Enum):
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    U = "u"
    CX = "cx"
    CZ = "cz"
    SWAP = "swap"
    ID = "id"

    @property
    def num_qubits(self) -> int:
        return _NUM_QUBITS[self]

    @property
    def num_params(self) -> int:
        return _NUM_PARAMS[self]


_NUM_QUBITS = {kind: 2 if kind in (GateKind.CX, GateKind.CZ, GateKind.SWAP) else 1
               for kind in GateKind}
_NUM_PARAMS = {kind: 3 if kind is GateKind.U else
               1 if kind in (GateKind.RX, GateKind.RY, GateKind.RZ) else 0
               for kind in GateKind}


_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    GateKind.TDG: np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
    GateKind.ID: np.eye(2, dtype=complex),
    GateKind.CX: np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    ),
    GateKind.CZ: np.diag([1, 1, 1, -1]).astype(complex),
    GateKind.SWAP: np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


# (m00, m01, m10, m11) of each fixed one-qubit gate.
_FIXED_ENTRIES = {
    kind: tuple(complex(v) for v in matrix.flat)
    for kind, matrix in _FIXED.items() if kind.num_qubits == 1
}


def gate_entries(kind: GateKind, params: tuple[float, ...] = ()) -> tuple[complex, ...]:
    """Entries (m00, m01, m10, m11) of a one-qubit gate's matrix.

    The caller checks the arity; ``gate_unitary`` does.
    """
    entries = _FIXED_ENTRIES.get(kind)
    if entries is not None:
        return entries
    if kind is GateKind.RX:
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return complex(c), -1j * s, -1j * s, complex(c)
    if kind is GateKind.RY:
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return complex(c), complex(-s), complex(s), complex(c)
    if kind is GateKind.RZ:
        (lam,) = params
        return cmath.exp(-0.5j * lam), 0j, 0j, cmath.exp(0.5j * lam)
    if kind is GateKind.U:
        theta, phi, lam = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return (complex(c), -cmath.exp(1j * lam) * s,
                cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c)
    raise ValueError(f"unknown gate kind {kind!r}")


def gate_unitary(kind: GateKind, params: tuple[float, ...] = ()) -> np.ndarray:
    """Return the unitary for a gate kind; raises ValueError on arity mismatch."""
    if len(params) != kind.num_params:
        raise ValueError(
            f"gate '{kind.value}' expects {kind.num_params} parameter(s), got {len(params)}"
        )
    if kind.num_qubits == 2:
        return _FIXED[kind].copy()
    return np.array(gate_entries(kind, params), dtype=complex).reshape(2, 2)
