"""Static sampling and mock-hardware readout against references.

``tests/reference_sampling.py`` holds the per-outcome and per-shot loops the
vectorised code replaced; counts must match them exactly, key order
included.  The oracle property checks the outcome distribution itself
against marginals of ``tests/oracle.py``, without trusting either loop.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_gate_circuit
from oracle import oracle_probabilities
from qorch.circuit import CircuitBuilder
from qorch.qpm import BackendDescriptor, BackendKind, ExecuteRequest, MockHardwareBackend
from qorch.statevec import _static_distribution, final_state, run
from reference_sampling import reference_flip, reference_run

HW = BackendDescriptor("mock-hw", BackendKind.HARDWARE, max_qubits=12,
                       supports_mid_circuit=False, supports_conditionals=False)


def _with_gates(n, cregs, layers, gate_seed):
    b = CircuitBuilder(n, cregs)
    for instr in random_gate_circuit(n, layers, gate_seed).instructions:
        b.gate(instr.kind, instr.qubits, instr.params)
    return b


@st.composite
def static_circuits(draw):
    """Gates, then any mix of measures and resets over up to three cregs."""
    n = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 4), max_size=3))
    cregs = tuple((f"c{i}", size) for i, size in enumerate(sizes))
    b = _with_gates(n, cregs, draw(st.integers(0, 3)), draw(st.integers(0, 2**31 - 1)))
    if cregs:
        ops = st.tuples(st.booleans(), st.integers(0, n - 1),
                        st.integers(0, len(cregs) - 1), st.integers(0, 3))
        for reset, q, k, bit in draw(st.lists(ops, max_size=10)):
            name, size = cregs[k]
            if reset:
                b.reset(q)
            b.measure(q, name, bit % size)
    return b.build()


def _skewed(n, cregs):
    """Entangled gates that leave every qubit its own, unequal marginal."""
    b = CircuitBuilder(n, cregs)
    for q in range(n):
        b.ry(0.4 + 0.7 * q, q)
    for q in range(n - 1):
        b.cx(q, q + 1)
    return b


def _every_write_kind():
    """Two cregs; q0 writes two bits, a[2] is written twice, q1 is read after
    a reset, and a[1] is never written."""
    return (
        _skewed(3, (("a", 3), ("b", 2)))
        .measure(0, "a", 0).measure(0, "b", 1)
        .measure(1, "a", 2).measure(2, "a", 2)
        .reset(1).measure(1, "b", 0)
        .build()
    )


def _wide():
    """More than 64 clbits, so a packed readout row spans two words."""
    return (
        _skewed(3, (("w", 70), ("v", 2)))
        .measure(0, "w", 69).measure(1, "w", 3).measure(2, "v", 1).measure(0, "w", 0)
        .build()
    )


EXAMPLES = (
    _every_write_kind(),
    _wide(),
    _with_gates(2, (("c", 2),), 2, 1).build(),  # cregs but no measures
    _with_gates(2, (), 2, 1).build(),  # no cregs at all
)


def _examples(test):
    for c in EXAMPLES:
        test = example(c=c, shots=1000, seed=3)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(c=static_circuits(), shots=st.sampled_from([1, 7, 1000]), seed=st.integers(0, 2**16))
@_examples
def test_run_matches_reference_loop(c, shots, seed):
    counts, _ = run(c, shots, seed)
    assert list(counts.items()) == list(reference_run(c, shots, seed).items())


@settings(max_examples=60, deadline=None)
@given(c=static_circuits(), shots=st.sampled_from([1, 7, 1000]), seed=st.integers(0, 2**16))
@_examples
def test_mock_hw_flips_match_reference_loop(c, shots, seed):
    ideal = reference_run(c, shots, seed)
    for p in (0.02, 0.5):
        request = ExecuteRequest("t", c, shots, seed)
        counts = MockHardwareBackend(p).execute(request, HW).counts
        expected = reference_flip(ideal, shots, seed, p)
        assert list(counts.items()) == list(expected.items())


@st.composite
def measure_maps(draw):
    """A gate-only circuit and a permuted map of some qubits onto distinct
    bits of two cregs."""
    n = draw(st.integers(1, 5))
    gate_only = random_gate_circuit(n, draw(st.integers(0, 3)), draw(st.integers(0, 2**31 - 1)))
    qubits = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    size_a = draw(st.integers(1, n))
    size_b = draw(st.integers(max(1, len(qubits) - size_a), n))
    slots = [("a", bit) for bit in range(size_a)] + [("b", bit) for bit in range(size_b)]
    slots = draw(st.permutations(slots))[: len(qubits)]
    return gate_only, (("a", size_a), ("b", size_b)), dict(zip(qubits, slots))


def _marginal(full, mapping):
    """Probability of each value of the mapped qubits, keyed by (qubit, bit) pairs."""
    out = {}
    for idx, p in enumerate(full):
        value = tuple((q, (idx >> q) & 1) for q in sorted(mapping))
        out[value] = out.get(value, 0.0) + p
    return out


@settings(max_examples=60, deadline=None)
@given(case=measure_maps())
def test_static_distribution_matches_oracle_marginals(case):
    gate_only, cregs, mapping = case
    b = CircuitBuilder(gate_only.num_qubits, cregs)
    for instr in gate_only.instructions:
        b.gate(instr.kind, instr.qubits, instr.params)
    for q, (name, bit) in mapping.items():
        b.measure(q, name, bit)
    c = b.build()
    keys_of, pvec, _ = _static_distribution(c.instructions, c.cregs)(final_state(gate_only))
    keys = keys_of(np.arange(len(pvec)))
    assert len(keys) == 2 ** len(mapping)
    assert keys == sorted(set(keys))

    expected = _marginal(oracle_probabilities(gate_only), mapping)
    sizes = dict(cregs)
    start = {"a": 0, "b": sizes["a"] + 1}
    for key, p in zip(keys, pvec):
        value = tuple(
            (q, int(key[start[name] + sizes[name] - 1 - bit]))
            for q, (name, bit) in sorted(mapping.items())
        )
        assert abs(p - expected[value]) < 1e-10
