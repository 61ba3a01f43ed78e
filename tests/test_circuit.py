import pytest

from qorch.circuit import (
    Barrier,
    Circuit,
    CircuitBuilder,
    Gate,
    Measure,
    ValidationError,
    depth,
    gate_count,
    interaction_components,
    split_circuit,
)
from qorch.gates import GateKind


def bell():
    return (
        CircuitBuilder(2, (("c", 2),))
        .h(0)
        .cx(0, 1)
        .measure(0, "c", 0)
        .measure(1, "c", 1)
        .build()
    )


def ghz(n):
    b = CircuitBuilder(n, (("c", n),)).h(0)
    for q in range(n - 1):
        b.cx(q, q + 1)
    return b.measure_all("c").build()


# -- validation ---------------------------------------------------------


def test_qubit_out_of_range_rejected():
    with pytest.raises(ValidationError):
        Circuit(1, (), (Gate(GateKind.CX, (), (0, 1), None),))


def test_duplicate_creg_rejected():
    with pytest.raises(ValidationError):
        Circuit(1, (("c", 1), ("c", 2)), ())


def test_same_qubit_twice_rejected():
    with pytest.raises(ValidationError):
        Circuit(2, (), (Gate(GateKind.CX, (), (1, 1), None),))


def test_measure_into_unknown_creg_rejected():
    with pytest.raises(ValidationError):
        Circuit(1, (), (Measure(0, "c", 0),))


def test_condition_on_unknown_creg_rejected():
    with pytest.raises(ValidationError):
        Circuit(1, (), (Gate(GateKind.X, (), (0,), ("c", 1)),))


# -- depth ---------------------------------------------------------------


def test_depth_empty():
    assert depth(Circuit(3)) == 0


def test_depth_bell_is_three():
    assert depth(bell()) == 3


def test_depth_serial_chain():
    b = CircuitBuilder(1)
    for _ in range(5):
        b.x(0)
    assert depth(b.build()) == 5


def test_barrier_synchronizes_at_depth_zero():
    c = CircuitBuilder(2).h(0).barrier(0, 1).x(1).build()
    # barrier lifts qubit 1 to level 1; the x then lands at level 2
    assert depth(c) == 2
    assert depth(CircuitBuilder(2).barrier(0, 1).build()) == 0


def test_conditioned_gate_occupies_condition_wires():
    c = (
        CircuitBuilder(2, (("c", 1),))
        .measure(0, "c", 0)
        .x(1, condition=("c", 1))
        .build()
    )
    # measure at level 1 on (q0, c0); conditioned x needs c0 -> level 2
    assert depth(c) == 2


def test_depth_monotone_under_append():
    import numpy as np

    from helpers import random_gate_circuit

    rng = np.random.default_rng(404)
    for case in range(20):
        n = int(rng.integers(2, 6))
        base = random_gate_circuit(n, int(rng.integers(0, 4)), seed=case)
        d = depth(base)
        q = int(rng.integers(n))
        appended = [Gate(GateKind.H, (), (q,), None)]
        if n >= 2:
            other = (q + 1) % n
            appended.append(Gate(GateKind.CX, (), (q, other), None))
        for extra in appended:
            extended = Circuit(
                base.num_qubits, base.cregs, base.instructions + (extra,)
            )
            assert depth(extended) >= d, f"case {case}"


# -- gate_count ----------------------------------------------------------


def test_gate_count():
    assert gate_count(Circuit(1)) == 0
    assert gate_count(bell()) == 2
    assert gate_count(ghz(4)) == 4


# -- interaction components ----------------------------------------------


def test_components_bell():
    assert interaction_components(bell()) == [{0, 1}]


def test_components_disconnected():
    c = CircuitBuilder(3).h(0).h(2).cx(0, 1).build()
    assert interaction_components(c) == [{0, 1}, {2}]


def test_components_classical_feedforward():
    c = (
        CircuitBuilder(2, (("c", 1),))
        .measure(0, "c", 0)
        .x(1, condition=("c", 1))
        .build()
    )
    assert interaction_components(c) == [{0, 1}]


def test_components_join_writers_of_one_bit():
    c = (
        CircuitBuilder(3, (("c", 2),))
        .h(0)
        .h(2)
        .measure(0, "c", 1)
        .measure(2, "c", 1)
        .build()
    )
    assert interaction_components(c) == [{0, 2}, {1}]


def test_components_partition_everything():
    c = CircuitBuilder(5).cx(1, 3).build()
    comps = interaction_components(c)
    union = set()
    for comp in comps:
        assert not (union & comp)
        union |= comp
    assert union == set(range(5))


# -- split_circuit --------------------------------------------------------


def _written_bits(piece):
    return {(i.creg, i.bit) for i in piece.instructions if isinstance(i, Measure)}


def test_split_single_component_identity():
    pieces = split_circuit(bell())
    assert pieces == [bell()]
    assert interaction_components(bell()) == [{0, 1}]
    assert pieces[0].cregs == (("c", 2),)
    assert _written_bits(pieces[0]) == {("c", 0), ("c", 1)}


def test_split_disconnected_three_qubits():
    c = CircuitBuilder(3).h(0).h(2).cx(0, 1).build()
    pieces = split_circuit(c)
    assert [p.num_qubits for p in pieces] == [2, 1]
    # piece k holds component k's qubits, smallest first
    assert interaction_components(c) == [{0, 1}, {2}]
    assert pieces[0] == CircuitBuilder(2).h(0).cx(0, 1).build()
    assert pieces[1] == CircuitBuilder(1).h(0).build()


def test_split_two_cx_blocks():
    c = CircuitBuilder(4).cx(0, 2).cx(1, 3).h(3).build()
    pieces = split_circuit(c)
    assert [p.num_qubits for p in pieces] == [2, 2]
    assert interaction_components(c) == [{0, 2}, {1, 3}]
    assert pieces[0] == CircuitBuilder(2).cx(0, 1).build()
    assert pieces[1] == CircuitBuilder(2).cx(0, 1).h(1).build()


def test_split_creg_bitwise_by_writer():
    c = (
        CircuitBuilder(2, (("c", 2),))
        .h(0)
        .h(1)
        .measure(0, "c", 0)
        .measure(1, "c", 1)
        .build()
    )
    pieces = split_circuit(c)
    assert len(pieces) == 2
    # every piece keeps the circuit's layout and writes only its own bits
    assert [p.cregs for p in pieces] == [(("c", 2),), (("c", 2),)]
    assert _written_bits(pieces[0]) == {("c", 0)}
    assert _written_bits(pieces[1]) == {("c", 1)}


def test_split_feedforward_uncuttable():
    c = (
        CircuitBuilder(2, (("c", 1),))
        .measure(0, "c", 0)
        .x(1, condition=("c", 1))
        .build()
    )
    assert len(split_circuit(c)) == 1


def test_split_barrier_restricted_per_component():
    c = CircuitBuilder(4, ()).cx(0, 1).cx(2, 3).barrier(0, 1, 2, 3).build()
    for piece in split_circuit(c):
        barriers = [i for i in piece.instructions if isinstance(i, Barrier)]
        assert len(barriers) == 1
        assert barriers[0].qubits == (0, 1)


def test_split_same_bit_written_by_two_groups_merges():
    c = (
        CircuitBuilder(2, (("c", 1),))
        .h(0)
        .h(1)
        .measure(0, "c", 0)
        .measure(1, "c", 0)
        .build()
    )
    (piece,) = split_circuit(c)
    assert piece.num_qubits == 2
