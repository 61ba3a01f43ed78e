import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare

from helpers import feed_forward_programs, random_gate_circuit
from oracle import oracle_probabilities, oracle_statevector
from qorch import statevec
from qorch.circuit import Circuit, CircuitBuilder, Gate, Measure, Reset
from qorch.gates import GateKind, gate_entries, gate_unitary
from qorch.statevec import (
    MAX_QUBITS,
    Counts,
    State,
    _BLOCK,
    _FUSE_QUBITS,
    _TILE,
    _mix,
    _static_distribution,
    _tiled_halves,
    exchange_cost,
    final_state,
    format_keys,
    probabilities,
    run,
)
from reference_kernel import _apply_unitary
from reference_sampling import reference_shot_by_shot


def bell():
    return (
        CircuitBuilder(2, (("c", 2),))
        .h(0)
        .cx(0, 1)
        .measure(0, "c", 0)
        .measure(1, "c", 1)
        .build()
    )


def teleport(theta):
    """Teleport ry(theta)|0> from q0 to q2 with feed-forward corrections."""
    return (
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


# -- state construction ---------------------------------------------------


def test_new_state_single():
    s = State(1, 1)
    np.testing.assert_array_equal(s.amplitudes, [1, 0])


def test_new_state_chunks():
    np.testing.assert_array_equal(State(2, 2).amplitudes, [1, 0, 0, 0])


def test_new_state_worker_bound():
    with pytest.raises(ValueError):
        State(3, 16)
    with pytest.raises(ValueError):
        State(3, 3)  # not a power of two
    with pytest.raises(ValueError):
        State(-1)
    with pytest.raises(ValueError):
        State(MAX_QUBITS + 1)


def test_new_state_without_qubits_has_one_amplitude():
    s = State(0)
    np.testing.assert_array_equal(s.amplitudes, [1])
    assert run(Circuit(0, (("c", 2),), ()), 7)[0] == {"00": 7}


# -- State.apply -----------------------------------------------------------


def test_h_on_zero():
    s = State(1)
    s.apply(Gate(GateKind.H, (), (0,), None))
    np.testing.assert_allclose(s.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_measure_collapses_and_normalizes():
    s = final_state(CircuitBuilder(1, (("c", 1),)).h(0).measure(0, "c", 0).build(), seed=42)
    bit = s.classical["c"]
    assert bit in (0, 1)
    expected = np.zeros(2)
    expected[bit] = 1.0
    np.testing.assert_allclose(np.abs(s.amplitudes), expected, atol=1e-12)
    assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-12


def test_unsatisfied_condition_is_noop():
    s = State(1)
    before = s.amplitudes.copy()
    delta = s.apply(Gate(GateKind.X, (), (0,), ("c", 1)))
    np.testing.assert_array_equal(s.amplitudes, before)
    assert delta.gates_applied == 0


def test_satisfied_condition_applies():
    s = State(1)
    s.classical["c"] = 1
    s.apply(Gate(GateKind.X, (), (0,), ("c", 1)))
    np.testing.assert_allclose(s.amplitudes, [0, 1], atol=1e-15)


def test_reset_forces_zero():
    s = final_state(CircuitBuilder(1).x(0).reset(0).build(), seed=3)
    np.testing.assert_allclose(s.amplitudes, [1, 0], atol=1e-12)


# -- gate kernels ----------------------------------------------------------

_DIAGONAL = (GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG, GateKind.RZ,
             GateKind.CZ)


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def _reference(gate, psi, n):
    expected = psi.copy()
    _apply_unitary(expected, gate_unitary(gate.kind, gate.params), gate.qubits, n)
    return expected


@st.composite
def gates_on_states(draw):
    kind = draw(st.sampled_from(list(GateKind)))
    n = draw(st.integers(kind.num_qubits, 8))
    qubits = tuple(draw(st.permutations(range(n)))[:kind.num_qubits])
    angle = st.one_of(st.sampled_from([0.0, 2 * math.pi, -2 * math.pi]),
                      st.floats(-1e3, 1e3))
    params = tuple(draw(angle) for _ in range(kind.num_params))
    return Gate(kind, params, qubits), n, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=400, deadline=None)
@given(case=gates_on_states())
def test_apply_matches_reference_kernel(case):
    gate, n, seed = case
    psi = _random_state(n, seed)
    expected = _reference(gate, psi, n)
    for workers in (1, 2, 4):
        if workers > 2**n:
            continue
        state = State(n, workers)
        state.amplitudes[:] = psi
        delta = state.apply(gate)
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-13)
        assert delta.gates_applied == 1
        assert delta.exchanged_amplitudes == exchange_cost(Circuit(n, (), (gate,)), n, workers)


def test_every_qubit_of_a_tiled_state_matches_reference_kernel():
    # n = 15 puts 2^14 amplitudes in each half, so dense updates and x run in tiles
    n = 15
    psi = _random_state(n, 0)
    for kind in GateKind:
        for q in range(n):
            qubits = (q, (q + 5) % n)[:kind.num_qubits]
            gate = Gate(kind, (0.7, -1.3, 2.9)[:kind.num_params], qubits)
            state = State(n)
            state.amplitudes[:] = psi
            state.apply(gate)
            np.testing.assert_allclose(state.amplitudes, _reference(gate, psi, n),
                                       rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", list(GateKind))
@pytest.mark.parametrize("placement", [0, 8, 15])
def test_apply_peak_memory(kind, placement):
    n = 16
    qubits = (placement, (placement + 7) % n)[:kind.num_qubits]
    gate = Gate(kind, (0.7, -1.3, 2.9)[:kind.num_params], qubits)
    state = State(n)
    state.amplitudes[:] = _random_state(n, 1)
    state.apply(gate)
    state.amplitudes  # a one-qubit gate is held until the state is read
    tracemalloc.start()
    try:
        state.apply(gate)
        state.amplitudes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    limit = 0.5 if kind in _DIAGONAL else 1.5
    assert peak <= limit * 16 * 2**n


@pytest.mark.parametrize("n", [14, 16])
def test_flush_peak_memory_is_tiles(n):
    # a held u on every qubit flushes as 4-qubit blocks through one tile buffer
    rng = np.random.default_rng(n)
    layer = [Gate(GateKind.U, tuple(rng.uniform(0, 2 * math.pi, 3)), (q,)) for q in range(n)]
    state = State(n)
    state.amplitudes[:] = _random_state(n, 1)
    for gate in layer:
        state.apply(gate)
    state.amplitudes
    for gate in layer:
        state.apply(gate)
    tracemalloc.start()
    try:
        state.amplitudes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * _TILE


@pytest.mark.parametrize("qubits", [(1, 2), (2, 3), (1, 3), (1, 2, 3), (5, 6), (0, 2), (4, 7)])
def test_flush_starts_block_zero_at_qubit_zero(monkeypatch, qubits):
    # a block held from qubit 1-3 runs from qubit 0, through the contiguous
    # rows of _block, with identity on the qubits below; a higher block runs
    # from its lowest held qubit
    starts = []

    def recording_block(amps, lo, matrix):
        starts.append(lo)
        block(amps, lo, matrix)

    block = statevec._block
    monkeypatch.setattr(statevec, "_block", recording_block)
    n = _FUSE_QUBITS + 1
    psi = _random_state(n, 3)
    state = State(n)
    state.amplitudes[:] = psi
    for q in qubits:
        gate = Gate(GateKind.U, (0.3 * q, 0.7, 1.1 * q), (q,))
        state.apply(gate)
        _apply_unitary(psi, gate_unitary(gate.kind, gate.params), gate.qubits, n)
    np.testing.assert_allclose(state.amplitudes, psi, rtol=0, atol=1e-13)
    assert starts == [0 if qubits[0] < _BLOCK else qubits[0]]


@pytest.mark.parametrize("kind", [GateKind.CX, GateKind.SWAP])
@pytest.mark.parametrize("placement", [0, 8, 15])
def test_exchange_peak_memory_is_tiles(kind, placement):
    # The exchanged quarters interleave, so numpy copies a source that
    # overlaps its destination; through tiles, that copy and the kept one
    # are a tile each, where whole quarters took 0.5x the state.
    n = 16
    state = State(n)
    state.amplitudes[:] = _random_state(n, 1)
    gate = Gate(kind, (), (placement, (placement + 7) % n))
    state.apply(gate)
    tracemalloc.start()
    try:
        state.apply(gate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * 16 * 2**n


def test_exchanges_permute_amplitudes_on_every_pair():
    # n = 15 gives quarters of 2^13 amplitudes, so every pair runs in tiles
    n = 15
    psi = _random_state(n, 3)
    idx = np.arange(2**n)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            differ = (idx >> a ^ idx >> b) & 1
            sources = {
                GateKind.CX: np.where(idx >> a & 1, idx ^ 1 << b, idx),
                GateKind.SWAP: idx ^ differ * (1 << a | 1 << b),
            }
            for kind, source in sources.items():
                state = State(n)
                state.amplitudes[:] = psi
                state.apply(Gate(kind, (), (a, b)))
                assert np.array_equal(state.amplitudes, psi[source]), (kind, a, b)


_ONE_QUBIT = [kind for kind in GateKind if kind.num_qubits == 1]


@st.composite
def fused_programs(draw):
    """Runs of one-qubit gates on a wide state, cut by cx, cz, measures,
    resets and gates conditioned on the creg the measures write."""
    n = draw(st.integers(_FUSE_QUBITS, 16))
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    program = []
    for _ in range(draw(st.integers(1, 5))):
        low = draw(st.integers(0, 3))  # so some layers hold nothing below qubit 1-3
        for _ in range(draw(st.integers(0, 2 * n))):
            kind = draw(st.sampled_from(_ONE_QUBIT))
            params = tuple(draw(angle) for _ in range(kind.num_params))
            condition = (("c", draw(st.integers(0, 3))) if draw(st.integers(0, 5)) == 0
                         else None)
            program.append(Gate(kind, params, (draw(st.integers(low, n - 1)),), condition))
        cut = draw(st.sampled_from(["cx", "cz", "measure", "reset", "none"]))
        a, b = draw(st.permutations(range(n)))[:2]
        if cut in ("cx", "cz"):
            program.append(Gate(GateKind(cut), (), (a, b)))
        elif cut == "measure":
            program.append(Measure(a, "c", draw(st.integers(0, 1))))
        elif cut == "reset":
            program.append(Reset(a))
    return n, program


def _per_gate(n, program, bits):
    """The program on a plain array, gate by gate through the reference
    kernel, each measure or reset reading the given bit."""
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = 1.0
    value = 0
    bits = iter(bits)
    for instr in program:
        if isinstance(instr, Gate):
            if instr.condition is None or instr.condition[1] == value:
                _apply_unitary(amps, gate_unitary(instr.kind, instr.params), instr.qubits, n)
            continue
        bit = next(bits)
        halves = amps.reshape(-1, 2, 2**instr.qubit)
        halves[:, 1 - bit] = 0
        amps /= np.linalg.norm(amps)
        if isinstance(instr, Measure):
            value = value & ~(1 << instr.bit) | bit << instr.bit
        elif bit:
            halves[:, 0] = halves[:, 1]
            halves[:, 1] = 0
    return amps, value


@settings(max_examples=25, deadline=None)
@given(case=fused_programs())
def test_fused_gates_match_per_gate_reference(case):
    n, program = case
    state, bits = State(n), []
    for instr in program:
        if isinstance(instr, (Measure, Reset)):
            p = state.p_one(instr.qubit)  # reads the held gates too
            ones = state.amplitudes.reshape(-1, 2, 2**instr.qubit)[:, 1]
            assert p == pytest.approx(float(np.sum(np.abs(ones) ** 2)), abs=1e-12)
            bits.append(int(p >= 0.5))
            state.settle(instr, bits[-1])
        else:
            delta = state.apply(instr)
            applied = instr.condition is None or instr.condition[1] == state.classical.get("c", 0)
            assert delta.gates_applied == int(applied)
    expected, value = _per_gate(n, program, bits)
    copied = state.copy()  # applies what is held before it copies
    for amps in (copied.amplitudes, state.amplitudes):
        np.testing.assert_allclose(amps, expected, rtol=0, atol=1e-13)
    assert state.classical.get("c", 0) == value


def _mix_in_place(amps, gate):
    """The dense update as five in-place steps on each tile's halves."""
    m00, m01, m10, m11 = gate_entries(gate.kind, gate.params)
    for zeros, ones in _tiled_halves(amps, gate.qubits[0]):
        carry = ones * m01
        ones *= m11
        ones += zeros * m10
        zeros *= m00
        zeros += carry


_DENSE_KINDS = (GateKind.H, GateKind.Y, GateKind.RX, GateKind.RY, GateKind.U)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 15, 16])
def test_mix_on_every_qubit_equals_in_place_steps(n):
    # Below 9 qubits _mix is one broadcast multiply and one add; the golden
    # file depends on it matching the per-half steps bit for bit.  At n = 1
    # each half is one amplitude, and numpy's scalar loop multiplies that
    # with other rounding (up to 1.1e-16 on u), so one qubit keeps the steps.
    rng = np.random.default_rng(n)
    states = 100 if n <= 8 else 1
    for kind in _DENSE_KINDS:
        for q in range(n):
            for _ in range(states):
                psi = _random_state(n, int(rng.integers(2**32)))
                gate = Gate(kind, tuple(rng.uniform(-7, 7, kind.num_params)), (q,))
                got, want = psi.copy(), psi.copy()
                _mix(got, gate)
                _mix_in_place(want, gate)
                assert np.array_equal(got, want), (kind, q)


@pytest.mark.parametrize("first", [0, 1])
def test_readout_keys_keep_a_bit_measured_before_the_last_gate(first):
    # c[2] c[1] are read past the last gate, an adjacent run in key order;
    # c[0] holds the earlier measure and prints as it was read
    b = CircuitBuilder(3, (("c", 3),))
    if first:
        b.x(0)
    c = b.measure(0, "c", 0).h(1).h(2).measure(1, "c", 1).measure(2, "c", 2).build()
    counts, _ = run(c, 400, seed=3)
    assert sorted(counts) == [f"{i:02b}{first}" for i in range(4)]
    assert counts.total() == 400


def test_format_keys_zero_width():
    assert format_keys(np.zeros((3, 0), dtype=np.uint8)) == ["", "", ""]
    assert format_keys(np.zeros((0, 0), dtype=np.uint8)) == []
    counts, _ = run(Circuit(1, (), ()), 1024)
    assert counts == {"": 1024}


@pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
def test_format_keys_matches_decoding_each_row(width):
    rng = np.random.default_rng(width)
    rows = rng.choice(np.frombuffer(b"01 ", dtype=np.uint8), size=(40, width))
    rows[:, 0] = ord("1")
    assert format_keys(rows) == [bytes(row).decode("ascii") for row in rows]
    assert format_keys(rows.astype(np.int64)) == format_keys(rows)


# -- probabilities ---------------------------------------------------------


def test_probabilities_basics():
    s = State(1)
    np.testing.assert_allclose(probabilities(s), [1, 0])
    s.apply(Gate(GateKind.H, (), (0,), None))
    np.testing.assert_allclose(probabilities(s), [0.5, 0.5], atol=1e-15)


def test_probabilities_match_oracle_two_qubits():
    c = random_gate_circuit(2, 3, seed=11)
    state = final_state(c, seed=0)
    np.testing.assert_allclose(
        probabilities(state), oracle_probabilities(c), atol=1e-12
    )


def test_statevector_matches_oracle():
    c = random_gate_circuit(3, 3, seed=5)
    state = final_state(c, seed=0)
    np.testing.assert_allclose(
        state.amplitudes, oracle_statevector(c), atol=1e-12
    )


# -- run -------------------------------------------------------------------


def test_bell_counts_range():
    for seed in range(5):
        counts, _ = run(bell(), 1000, seed=seed)
        assert set(counts) <= {"00", "11"}
        assert counts.total() == 1000
        for v in counts.values():
            assert 400 <= v <= 600


def test_teleport_pi_always_one():
    c = teleport(math.pi)
    for seed in (0, 1, 7):
        counts, _ = run(c, 200, seed=seed)
        assert all(key.split()[2] == "1" for key in counts)


def test_run_probabilities_match_oracle_three_qubits():
    c = random_gate_circuit(3, 3, seed=21, measure=True)
    gate_only = random_gate_circuit(3, 3, seed=21, measure=False)
    expected = oracle_probabilities(gate_only)
    counts, _ = run(c, 200000, seed=9)
    # distribution check is statistical; the exact check is via final_state
    state = final_state(gate_only, seed=0)
    np.testing.assert_allclose(probabilities(state), expected, atol=1e-10)
    total = counts.total()
    for idx, p in enumerate(expected):
        key = format(idx, "03b")
        assert abs(counts.get(key, 0) / total - p) < 0.02


def test_static_distribution_matches_oracle_exactly():
    for seed in (3, 17, 29):
        measured = random_gate_circuit(3, 2, seed=seed, measure=True)
        gate_only = random_gate_circuit(3, 2, seed=seed, measure=False)
        state = final_state(gate_only)
        keys_of, pvec, _ = _static_distribution(measured.instructions, measured.cregs)(state)
        keys = keys_of(np.arange(len(pvec)))
        expected = oracle_probabilities(gate_only)
        assert len(keys) == 8
        for key, p in zip(keys, pvec):
            idx = int(key, 2)  # single creg, MSB-first
            assert abs(p - expected[idx]) < 1e-10


def test_run_deterministic():
    c = bell()
    a, _ = run(c, 500, seed=123, workers=2)
    b, _ = run(c, 500, seed=123, workers=2)
    assert a == b


def test_worker_independence():
    c = random_gate_circuit(4, 3, seed=2, measure=True)
    base_counts, _ = run(c, 300, seed=5, workers=1)
    base_state = final_state(c, seed=5, workers=1)
    for w in (2, 4):
        counts, _ = run(c, 300, seed=5, workers=w)
        assert counts == base_counts
        state = final_state(c, seed=5, workers=w)
        assert np.array_equal(state.amplitudes, base_state.amplitudes)


def test_dynamic_path_deterministic():
    c = teleport(0.8)
    a, _ = run(c, 300, seed=77)
    b, _ = run(c, 300, seed=77)
    assert a == b


def test_norm_preserved_through_random_circuit():
    c = random_gate_circuit(4, 4, seed=13)
    s = State(4)
    for instr in c.instructions:
        s.apply(instr)
        assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-10


def test_static_counts_sum_and_trace():
    c = bell()
    counts, trace = run(c, 1000, seed=0, workers=2)
    assert counts.total() == 1000
    assert trace.gates_applied == 2
    assert trace.measures == 2
    assert trace.exchanged_amplitudes == exchange_cost(c, 2, 2)


def test_shot_by_shot_matches_static_distribution():
    # the shot-branching walk and the shot-by-shot reference must agree in
    # distribution; exact probabilities give the chi-square reference
    c = bell()
    exact = {"00": 0.5, "11": 0.5}
    for seed in range(10):
        reference_counts, _ = reference_shot_by_shot(c, 10000, seed=seed)
        walk_counts, _ = run(c, 10000, seed=seed)
        for counts in (reference_counts, walk_counts):
            keys = sorted(set(counts) | set(exact))
            observed = np.array([counts.get(k, 0) for k in keys], dtype=float)
            expected = np.array([exact.get(k, 0.0) * 10000 for k in keys])
            _, p = chisquare(observed, expected)
            assert p > 0.001, f"seed {seed}"


def _two_sample_p(a: Counts, b: Counts) -> float:
    """Chi-square p-value that two count samples share one distribution.

    Keys seen fewer than 20 times over both samples are pooled, and a pool
    still under 20 is left out, so every tested cell is large enough for the
    chi-square approximation.
    """
    keys = sorted(set(a) | set(b))
    table = np.array([[a.get(k, 0) for k in keys], [b.get(k, 0) for k in keys]])
    rare = table.sum(axis=0) < 20
    table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    table = table[:, table.sum(axis=0) >= 20]
    if table.shape[1] < 2:
        return 1.0
    return chi2_contingency(table, correction=False).pvalue


@settings(max_examples=30, deadline=None)
@given(c=feed_forward_programs(), seed=st.integers(0, 2**32 - 1))
def test_walk_matches_shot_by_shot_on_feed_forward_programs(c, seed):
    # false-alarm rate 1e-5 per example, so at most 3e-4 per run of the test
    walk, _ = run(c, 4000, seed=seed)
    reference, _ = reference_shot_by_shot(c, 1000, seed=seed)
    assert walk.total() == 4000
    assert _two_sample_p(walk, reference) > 1e-5


@settings(max_examples=30, deadline=None)
@given(c=feed_forward_programs(), seed=st.integers(0, 2**32 - 1))
def test_feed_forward_worker_independence(c, seed):
    base_counts, _ = run(c, 300, seed=seed)
    base_state = final_state(c, seed=seed)
    for w in (2, 4):
        if w <= 2**c.num_qubits:
            assert run(c, 300, seed=seed, workers=w)[0] == base_counts
            state = final_state(c, seed=seed, workers=w)
            assert np.array_equal(state.amplitudes, base_state.amplitudes)
            assert state.classical == base_state.classical


def test_p_one_snaps_exact_laws():
    # ry(13pi/7) then ry(-6pi/7) is ry(pi), but rounding leaves p1 = 1 + 4e-16,
    # which no binomial accepts; the snap restores the exact law
    c = (
        CircuitBuilder(2, (("m", 1), ("out", 1)))
        .ry(13 * math.pi / 7, 0)
        .ry(-6 * math.pi / 7, 0)
        .measure(0, "m", 0)
        .x(1, condition=("m", 1))
        .measure(1, "out", 0)
        .build()
    )
    state = State(2)
    for instr in c.instructions[:2]:
        state.apply(instr)
    assert np.sum(np.abs(state.amplitudes[1::2]) ** 2) > 1.0
    assert state.p_one(0) == 1.0
    state.apply(Gate(GateKind.RY, (1e-6,), (1,), None))
    assert 0.0 < np.sum(np.abs(state.amplitudes[2:]) ** 2) < 1e-12
    assert state.p_one(1) == 0.0
    for shots in (1, 7, 10000):
        assert run(c, shots, seed=shots)[0] == {"1 1": shots}
        for seed in range(3):
            counts, _ = run(teleport(math.pi), shots, seed=seed)
            ones = sum(v for k, v in counts.items() if k.split()[2] == "1")
            assert ones / counts.total() == 1.0


# -- exchange cost ---------------------------------------------------------


def test_exchange_cost_single_worker_is_zero():
    c = random_gate_circuit(4, 3, seed=1)
    assert exchange_cost(c, 4, 1) == 0


def test_exchange_cost_nonlocal_gate():
    c = CircuitBuilder(3).h(2).build()
    assert exchange_cost(c, 3, 2) == 8


def test_exchange_cost_local_gates():
    c = CircuitBuilder(3).h(0).cx(0, 1).build()
    assert exchange_cost(c, 3, 2) == 0


def test_counts_format_multiple_cregs():
    c = (
        CircuitBuilder(2, (("a", 1), ("b", 1)))
        .x(0)
        .measure(0, "a", 0)
        .measure(1, "b", 0)
        .build()
    )
    counts, _ = run(c, 10, seed=0)
    assert counts == Counts({"1 0": 10})
