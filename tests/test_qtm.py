import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import cuttable_programs, feed_forward_programs, product_circuit
from oracle import oracle_probabilities
from qorch.circuit import CircuitBuilder, Measure, interaction_components
from qorch.qasm import QasmSyntaxError
from qorch.qpm import (
    BackendDescriptor,
    BackendKind,
    BackendRegistry,
    MidCircuitUnsupported,
    MockHardwareBackend,
    StateVectorBackend,
)
from qorch.qtm import (
    IncompatiblePreference,
    NoFeasibleBackend,
    Preferences,
    RoutingConfig,
    ShotMismatch,
    TaskManager,
    task_service_time,
)
from qorch.scenarios import teleport_circuit
from qorch.statevec import Counts
from reference_cutting import reference_execute

BELL_SRC = 'OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n'


def make_registry():
    reg = BackendRegistry()
    reg.register(
        BackendDescriptor("statevec", BackendKind.STATE_VECTOR, 26),
        StateVectorBackend(),
    )
    reg.register(
        BackendDescriptor(
            "mock-hw", BackendKind.HARDWARE, 12,
            supports_mid_circuit=False, supports_conditionals=False,
        ),
        MockHardwareBackend(readout_flip_probability=0.0),
    )
    return reg


def manager(**kwargs):
    return TaskManager(make_registry(), RoutingConfig(**kwargs))


def bell():
    return (
        CircuitBuilder(2, (("c", 2),))
        .h(0)
        .cx(0, 1)
        .measure(0, "c", 0)
        .measure(1, "c", 1)
        .build()
    )


# -- normalize ---------------------------------------------------------------


def test_normalize_from_text():
    tm = manager()
    task = tm.normalize(BELL_SRC, shots=100, seed=1)
    assert task.circuit.num_qubits == 2
    assert task.task_id == "task-0001"


def test_normalize_wraps_circuit_unchanged():
    tm = manager()
    c = bell()
    task = tm.normalize(c, shots=10, seed=0)
    assert task.circuit is c


def test_normalize_surfaces_parse_errors():
    tm = manager()
    with pytest.raises(QasmSyntaxError):
        tm.normalize("qreg q[1];", shots=10, seed=0)


def test_task_ids_fresh_and_unique():
    tm = manager()
    ids = {tm.normalize(bell(), 10, 0).task_id for _ in range(5)}
    assert len(ids) == 5


# -- route -------------------------------------------------------------------


def test_route_small_circuit_default():
    tm = manager()
    decision = tm.route(tm.normalize(CircuitBuilder(5).h(0).build(), 10, 0))
    assert decision.backend_id == "statevec"
    assert decision.workers == 1
    assert [r.circuit.num_qubits for r in decision.requests] == [1] * 5


def test_route_no_feasible_backend():
    # wider than every registered backend; hardware is never a candidate
    tm = manager()
    big = CircuitBuilder(27).build()
    with pytest.raises(NoFeasibleBackend) as info:
        tm.route(tm.normalize(big, 10, 0))
    assert str(info.value) == (
        "no backend can take a 27-qubit circuit: "
        "circuit has 27 qubits, backend 'statevec' supports at most 26")


def test_route_with_no_simulator_registered():
    reg = BackendRegistry()
    reg.register(BackendDescriptor("hw", BackendKind.HARDWARE, 12), MockHardwareBackend())
    tm = TaskManager(reg)
    with pytest.raises(NoFeasibleBackend, match="^no simulator backend is registered$"):
        tm.route(tm.normalize(bell(), 10, 0))
    with pytest.raises(IncompatiblePreference, match="^no preferred backend 'ghost' is registered$"):
        tm.route(tm.normalize(bell(), 10, 0, Preferences(backend_id="ghost")))
    with pytest.raises(IncompatiblePreference,
                       match="^no backend of kind 'state_vector' is registered$"):
        tm.route(tm.normalize(bell(), 10, 0,
                              Preferences(backend_kind=BackendKind.STATE_VECTOR)))


def _route_case_circuit(n, mid, cond):
    """An ``n``-qubit circuit with a mid-circuit measurement and a
    conditioned gate exactly when asked."""
    b = CircuitBuilder(n, (("c", 1),)).h(0)
    if mid:
        b.measure(0, "c", 0).h(0)
    if cond:
        b.x(0, condition=("c", 1))
    return b.measure(0, "c", 0).build()


@settings(max_examples=200, deadline=None)
@given(
    backends=st.lists(
        st.tuples(st.sampled_from([BackendKind.STATE_VECTOR, BackendKind.HARDWARE]),
                  st.integers(1, 8), st.booleans(), st.booleans()),
        max_size=5),
    n=st.integers(1, 9), mid=st.booleans(), cond=st.booleans(),
)
def test_route_takes_the_first_simulator_that_accepts_the_circuit(backends, n, mid, cond):
    reg = BackendRegistry()
    for i, (kind, width, mid_ok, cond_ok) in enumerate(backends):
        engine = StateVectorBackend() if kind is BackendKind.STATE_VECTOR else MockHardwareBackend()
        reg.register(BackendDescriptor(f"b{i}", kind, width, mid_ok, cond_ok), engine)
    tm = TaskManager(reg)
    task = tm.normalize(_route_case_circuit(n, mid, cond), 10, 0)
    simulators = [d for d in reg.list() if d.kind is BackendKind.STATE_VECTOR]
    feasible = [d for d in simulators if n <= d.max_qubits
                and (d.supports_mid_circuit or not mid)
                and (d.supports_conditionals or not cond)]
    if feasible:
        assert tm.route(task).backend_id == feasible[0].id
        return
    with pytest.raises(NoFeasibleBackend) as info:
        tm.route(task)
    for d in simulators:
        assert repr(d.id) in str(info.value)


def test_route_refuses_a_huge_circuit_before_walking_it():
    # 100000 qubits: the width check refuses it before the support checks
    # or the cut walk the circuit.
    reg = BackendRegistry()
    reg.register(BackendDescriptor("statevec", BackendKind.STATE_VECTOR), StateVectorBackend())
    reg.register(BackendDescriptor("strict", BackendKind.STATE_VECTOR,
                                   supports_mid_circuit=False), StateVectorBackend())
    tm = TaskManager(reg, RoutingConfig())
    src = "OPENQASM 2.0;\nqreg q[100000];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n"
    with pytest.raises(NoFeasibleBackend, match="'statevec'.*'strict'"):
        tm.route(tm.normalize(src, 10, 0))


def test_route_workers_formula():
    tm = manager()
    c = CircuitBuilder(22).h(0).build()
    task = tm.normalize(c, 10, 0, Preferences(allow_cutting=False))
    assert tm.route(task).workers == 4


def test_route_workers_gang_limit():
    tm = TaskManager(make_registry(), RoutingConfig(gang_limit=2))
    c = CircuitBuilder(24).h(0).build()
    task = tm.normalize(c, 10, 0, Preferences(allow_cutting=False))
    assert tm.route(task).workers == 2


def test_preference_id_supremacy():
    tm = manager()
    task = tm.normalize(bell(), 10, 0, Preferences(backend_id="mock-hw"))
    assert tm.route(task).backend_id == "mock-hw"
    assert tm.route(task).workers == 1


def test_preference_kind_supremacy():
    tm = manager()
    task = tm.normalize(bell(), 10, 0, Preferences(backend_kind=BackendKind.HARDWARE))
    assert tm.route(task).backend_id == "mock-hw"


def test_preference_unknown_id_incompatible():
    tm = manager()
    task = tm.normalize(bell(), 10, 0, Preferences(backend_id="ghost"))
    with pytest.raises(IncompatiblePreference):
        tm.route(task)


def test_preference_too_large_incompatible():
    tm = manager()
    big = CircuitBuilder(20).build()
    task = tm.normalize(big, 10, 0, Preferences(backend_id="mock-hw"))
    with pytest.raises(IncompatiblePreference):
        tm.route(task)


def test_preference_workers_override():
    tm = manager()
    task = tm.normalize(bell(), 10, 0, Preferences(workers=2))
    assert tm.route(task).workers == 2
    bad = tm.normalize(bell(), 10, 0, Preferences(workers=3))
    with pytest.raises(IncompatiblePreference):
        tm.route(bad)


def test_hardware_never_cut():
    tm = manager()
    c = product_circuit([2, 2], 1, seed=0)
    task = tm.normalize(c, 10, 0, Preferences(backend_id="mock-hw"))
    assert [r.circuit for r in tm.route(task).requests] == [c]


def test_routing_deterministic():
    tm = manager()
    task = tm.normalize(product_circuit([2, 2], 1, seed=3), 10, 7)
    a = tm.route(task)
    b = tm.route(task)
    assert a == b


# -- cut ----------------------------------------------------------------------


def test_cut_bell_singleton():
    tm = manager()
    assert tm.cut(tm.normalize(bell(), 10, 0)) == (bell(),)


def test_cut_two_blocks():
    tm = manager()
    c = CircuitBuilder(4, (("c", 4),)).cx(0, 1).cx(2, 3).measure_all("c").build()
    task = tm.normalize(c, 10, 0)
    pieces = tm.cut(task)
    assert [piece.num_qubits for piece in pieces] == [2, 2]
    requests = tm.route(task).requests
    assert [r.circuit for r in requests] == list(pieces)
    assert len({r.seed for r in requests}) == 2


def test_cut_feedforward_uncuttable():
    tm = manager()
    c = (
        CircuitBuilder(2, (("c", 1),))
        .h(0)
        .measure(0, "c", 0)
        .x(1, condition=("c", 1))
        .build()
    )
    assert tm.cut(tm.normalize(c, 10, 0)) == (c,)


# -- aggregate ------------------------------------------------------------------


def test_aggregate_singleton_identity():
    tm = manager()
    task = tm.normalize(bell(), 100, 5)
    counts = Counts({"00": 60, "11": 40})
    assert tm.aggregate(task.seed, [counts]) == counts


def test_aggregate_deterministic_components():
    # piece A writes c[0] = 0, piece B writes c[1] = 1; both print "c" whole
    tm = manager()
    c = (
        CircuitBuilder(2, (("c", 2),))
        .x(1)
        .measure(0, "c", 0)
        .measure(1, "c", 1)
        .build()
    )
    task = tm.normalize(c, 50, 1)
    assert len(tm.cut(task)) == 2
    results = [Counts({"00": 50}), Counts({"10": 50})]
    merged = tm.aggregate(task.seed, results)
    assert merged == Counts({"10": 50})


def test_aggregate_shot_mismatch():
    tm = manager()
    c = CircuitBuilder(2, (("c", 2),)).measure_all("c").h(0).build()
    task = tm.normalize(c, 10, 0)
    assert len(tm.cut(task)) == 2
    with pytest.raises(ShotMismatch):
        tm.aggregate(task.seed, [Counts({"0": 5}), Counts({"0": 7})])


def _no_bits():
    return CircuitBuilder(4, ()).h(0).ry(0.7, 1).cx(1, 2).h(3).build()


def _two_cregs():
    b = CircuitBuilder(4, (("a", 3), ("b", 2))).h(0).ry(1.1, 1).cx(1, 2).ry(2.0, 3)
    return b.measure(0, "b", 1).measure(1, "a", 2).measure(2, "a", 0).measure(3, "b", 0).build()


def _past_64_bits():
    b = CircuitBuilder(4, (("c", 70), ("d", 3))).h(0).ry(0.9, 1).h(2).cx(2, 3)
    return b.measure(0, "c", 69).measure(1, "c", 35).measure(2, "c", 0).measure(3, "d", 1).build()


@pytest.mark.parametrize("layout", [_no_bits, _two_cregs, _past_64_bits])
@pytest.mark.parametrize("shots", [1, 200])
def test_aggregate_matches_reference_cutting(layout, shots):
    # no classical bits (every key is ""), keys with a space between two
    # cregs, and keys wider than one 64-bit row
    from qorch.statevec import run

    tm = manager()
    c = layout()
    task = tm.normalize(c, shots, 11)
    requests = tm.route(task).requests
    assert len(requests) == 3
    results = [run(r.circuit, r.shots, r.seed, r.workers)[0] for r in requests]
    merged = tm.aggregate(task.seed, results)
    assert list(merged.items()) == list(reference_execute(c, shots, 11).items())
    assert merged.total() == shots
    assert len(merged) > 1 or shots == 1 or not c.cregs


def test_aggregate_bell_halves_close_to_uncut():
    from qorch.statevec import run

    tm = manager()
    c = product_circuit([2, 2], 1, seed=42)
    task = tm.normalize(c, 10000, 3)
    results = [run(r.circuit, 10000, r.seed)[0] for r in tm.route(task).requests]
    merged = tm.aggregate(task.seed, results)
    uncut, _ = run(c, 10000, 3)
    keys = set(merged) | set(uncut)
    tv = 0.5 * sum(
        abs(merged.get(k, 0) / 10000 - uncut.get(k, 0) / 10000) for k in keys
    )
    assert tv < 0.03


# -- execute_task -----------------------------------------------------------------


def test_execute_task_bell_end_to_end():
    tm = manager()
    res = tm.execute_task(tm.normalize(bell(), 100, 2))
    assert set(res.counts) <= {"00", "11"}
    assert res.counts.total() == 100


def test_execute_task_cut_vs_uncut_probabilities():
    tm = manager()
    c = product_circuit([2, 1], 2, seed=8, measure=False)

    # probability-level comparison: cut pieces vs whole circuit, both exact
    from qorch.statevec import final_state, probabilities

    whole = probabilities(final_state(c, seed=0))
    cut = tm.cut(tm.normalize(c, 10, 0))
    pieces = [probabilities(final_state(piece, seed=0)) for piece in cut]
    rebuilt = np.zeros_like(whole)
    n = c.num_qubits
    for idx in range(2**n):
        p = 1.0
        for comp, piece in zip(interaction_components(c), pieces):
            sub_idx = 0
            for new_q, orig_q in enumerate(sorted(comp)):
                sub_idx |= ((idx >> orig_q) & 1) << new_q
            p *= piece[sub_idx]
        rebuilt[idx] = p
    np.testing.assert_allclose(rebuilt, whole, atol=1e-10)


def test_execute_task_cutting_on_off_same_distribution():
    tm = manager()
    c = product_circuit([2, 2], 1, seed=4)
    on = tm.execute_task(tm.normalize(c, 4000, 9))
    off = tm.execute_task(tm.normalize(c, 4000, 9, Preferences(allow_cutting=False)))
    keys = set(on.counts) | set(off.counts)
    tv = 0.5 * sum(
        abs(on.counts.get(k, 0) - off.counts.get(k, 0)) / 4000 for k in keys
    )
    assert tv < 0.05


def test_execute_task_incompatible_preference_surfaces():
    tm = manager()
    c = (
        CircuitBuilder(1, (("c", 1),))
        .h(0)
        .measure(0, "c", 0)
        .x(0, condition=("c", 1))
        .build()
    )
    task = tm.normalize(c, 10, 0, Preferences(backend_id="mock-hw"))
    with pytest.raises(IncompatiblePreference):
        tm.execute_task(task)


def test_cut_service_time_is_sum_of_pieces():
    tm = manager()
    task = tm.normalize(product_circuit([2, 2, 1], 1, seed=10), 500, 6)
    decision = tm.route(task)
    pieces = decision.requests
    assert len(pieces) == 3
    backend = StateVectorBackend()
    expected = sum(backend.service_time(p.circuit, p.shots, p.workers) for p in pieces)
    assert task_service_time(tm.registry, decision) == expected


def test_execute_task_runs_the_requests_routing_priced():
    tm = manager()
    task = tm.normalize(product_circuit([2, 2, 1], 1, seed=10), 500, 6)
    decision = tm.route(task)
    priced, executed = [], []
    service_time, execute = tm.registry.service_time, tm.registry.execute
    tm.registry.service_time = lambda backend_id, request: service_time(
        backend_id, priced.append(request) or request)
    tm.registry.execute = lambda backend_id, request: execute(
        backend_id, executed.append(request) or request)
    task_service_time(tm.registry, decision)
    tm.execute_task(task, decision)
    assert len(decision.requests) == 3
    assert [id(r) for r in priced] == [id(r) for r in executed] == list(map(id, decision.requests))


@settings(max_examples=40, deadline=None)
@given(
    c=st.one_of(
        st.builds(lambda sizes, seed: product_circuit(sizes, 1, seed=seed),
                  st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 2**16)),
        st.builds(teleport_circuit, st.floats(0, 2 * np.pi)),
        feed_forward_programs(),
    ),
    seed=st.integers(0, 2**16),
    log_workers=st.integers(0, 3),
)
def test_execute_task_counts_independent_of_workers(c, seed, log_workers):
    workers = min(2**log_workers, 2**c.num_qubits)
    tm = manager()
    base = tm.execute_task(tm.normalize(c, 200, seed))
    other = tm.execute_task(tm.normalize(c, 200, seed, Preferences(workers=workers)))
    assert other.counts == base.counts


def test_aggregation_conserves_shots():
    tm = manager()
    c = product_circuit([2, 2, 1], 1, seed=12)
    res = tm.execute_task(tm.normalize(c, 777, 1))
    assert res.counts.total() == 777


def test_cut_plan_bijection_and_bit_ownership():
    tm = manager()
    for seed in range(10):
        sizes = [1 + (seed % 2), 2, 1 + ((seed + 1) % 2)]
        c = product_circuit(sizes, 1, seed=100 + seed)
        pieces = tm.cut(tm.normalize(c, 10, seed))
        # piece k holds component k, and the components partition the qubits
        components = interaction_components(c)
        assert [piece.num_qubits for piece in pieces] == [len(comp) for comp in components]
        assert sorted(q for comp in components for q in comp) == list(range(c.num_qubits))
        # every piece keeps the layout, and each creg bit is measured in at
        # most one piece
        assert all(piece.cregs == c.cregs for piece in pieces)
        written = [
            {(i.creg, i.bit) for i in piece.instructions if isinstance(i, Measure)}
            for piece in pieces
        ]
        assert sum(len(bits) for bits in written) == len(set().union(*written))


@settings(max_examples=200, deadline=None)
@given(c=cuttable_programs(), shots=st.sampled_from([1, 7, 1000]), seed=st.integers(0, 2**16))
@example(c=product_circuit([2, 1, 2], 1, seed=3), shots=1000, seed=5)
def test_execute_task_matches_reference_cutting(c, shots, seed):
    tm = manager()
    counts = tm.execute_task(tm.normalize(c, shots, seed)).counts
    assert list(counts.items()) == list(reference_execute(c, shots, seed).items())


def test_cut_past_63_classical_bits():
    b = CircuitBuilder(3, (("c", 70),)).x(0).x(2)
    c = b.measure(0, "c", 69).measure(1, "c", 35).measure(2, "c", 0).build()
    tm = manager()
    task = tm.normalize(c, 20, 4)
    assert len(tm.route(task).requests) == 3
    expected = "1" + "0" * 68 + "1"
    assert tm.execute_task(task).counts == Counts({expected: 20})
