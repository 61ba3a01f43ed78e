"""The tensordot gate kernel the simulator used before its sliced in-place
kernels, kept verbatim as the reference they are tested against."""
import numpy as np


def _apply_unitary(amps: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...],
                   width: int) -> None:
    """Contract a 2^k x 2^k matrix into the targeted axes of a 2^width vector.

    The matrix index convention puts the first operand in the least
    significant bit: index = sum(bit(qubits[i]) << i).
    """
    k = len(qubits)
    psi = amps.reshape((2,) * width)
    tensor = matrix.reshape((2,) * (2 * k))
    # tensor axes: (out[q_{k-1}] ... out[q_0], in[q_{k-1}] ... in[q_0])
    in_axes = [width - 1 - q for q in reversed(qubits)]
    contracted = np.tensordot(tensor, psi, axes=(list(range(k, 2 * k)), in_axes))
    result = np.moveaxis(contracted, list(range(k)), in_axes)
    amps[:] = result.reshape(-1)
