import math

import numpy as np
import pytest

from qorch.gates import GateKind, gate_unitary


def test_x_matrix():
    np.testing.assert_array_equal(gate_unitary(GateKind.X), [[0, 1], [1, 0]])


def test_rz_zero_is_identity():
    np.testing.assert_allclose(gate_unitary(GateKind.RZ, (0.0,)), np.eye(2), atol=1e-15)


def test_u_half_pi_matches_h_up_to_phase():
    u = gate_unitary(GateKind.U, (math.pi / 2, 0.0, math.pi))
    h = gate_unitary(GateKind.H)
    # align global phase on the largest element
    idx = np.unravel_index(np.argmax(np.abs(h)), h.shape)
    phase = h[idx] / u[idx]
    assert abs(abs(phase) - 1) < 1e-12
    assert np.max(np.abs(u * phase - h)) < 1e-12


@pytest.mark.parametrize("kind", list(GateKind))
def test_all_unitaries_are_unitary(kind):
    params = tuple([0.7, -1.3, 2.9][: kind.num_params])
    u = gate_unitary(kind, params)
    assert u.shape == (2**kind.num_qubits,) * 2
    err = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    assert err < 1e-12


def test_arity_mismatch_raises():
    with pytest.raises(ValueError):
        gate_unitary(GateKind.RX, ())
    with pytest.raises(ValueError):
        gate_unitary(GateKind.H, (1.0,))


def test_cx_little_endian_control_first():
    # |q0=1, q1=0> (index 1) must map to |q0=1, q1=1> (index 3)
    u = gate_unitary(GateKind.CX)
    vec = np.zeros(4)
    vec[1] = 1.0
    np.testing.assert_array_equal(u @ vec, [0, 0, 0, 1])


def test_arity_table():
    two = {GateKind.CX, GateKind.CZ, GateKind.SWAP}
    assert {kind for kind in GateKind if kind.num_qubits == 2} == two
    assert all(kind.num_qubits == 1 for kind in GateKind if kind not in two)
    assert {kind: kind.num_params for kind in GateKind if kind.num_params} == {
        GateKind.RX: 1, GateKind.RY: 1, GateKind.RZ: 1, GateKind.U: 3}
