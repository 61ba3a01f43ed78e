import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import product_circuit
from qorch.circuit import CircuitBuilder
from qorch.qpm import (
    BackendDescriptor,
    BackendKind,
    BackendRegistry,
    ExecuteResult,
    MockHardwareBackend,
    StateVectorBackend,
)
from qorch.qtm import (
    Preferences,
    QuantumTask,
    RoutingConfig,
    RoutingDecision,
    TaskManager,
    piece_requests,
    task_service_time,
)
from qorch.simenv import Oversubscribed, assess, configure, execute_plan
from qorch.statevec import exchange_cost
from reference_planner import reference_assess


def registry():
    reg = BackendRegistry()
    reg.register(
        BackendDescriptor("statevec", BackendKind.STATE_VECTOR, 26),
        StateVectorBackend(),
    )
    return reg


def routed_tasks(n_tasks, n_qubits=3, workers=1, shots=50, seed=0, sv_workers_cfg=None):
    tm = TaskManager(registry(), sv_workers_cfg or RoutingConfig())
    out = []
    for i in range(n_tasks):
        c = (
            CircuitBuilder(n_qubits, (("c", n_qubits),))
            .h(0)
            .measure_all("c")
            .build()
        )
        prefs = Preferences(workers=workers) if workers != 1 else Preferences()
        task = tm.normalize(c, shots, seed + i, prefs)
        out.append((task, tm.route(task)))
    return tm, out


# -- configure ----------------------------------------------------------------


def test_configure_default_all_state_vector():
    assert configure(8) == ((BackendKind.STATE_VECTOR, 8),)


def test_configure_user_plan_honored():
    assert configure(8, [("state_vector", 6)]) == ((BackendKind.STATE_VECTOR, 6),)


def test_configure_oversubscribed():
    with pytest.raises(Oversubscribed):
        configure(8, [("state_vector", 6), ("state_vector", 4)])


# -- assess ---------------------------------------------------------------------


def test_throughput_packs_one_per_node():
    _, queue = routed_tasks(4)
    plan = assess(queue, configure(4), registry())
    assert len(plan.assignments) == 4
    assert all(a.start == 0.0 for a in plan.assignments)
    assert all(a.run_mode == "throughput" for a in plan.assignments)
    nodes = [a.nodes[0] for a in plan.assignments]
    assert sorted(nodes) == [0, 1, 2, 3]


def test_gang_head_blocks_then_small_task():
    _, queue = routed_tasks(1, workers=4)
    _, single = routed_tasks(1)
    queue = queue + single
    plan = assess(queue, configure(4), registry())
    gang = plan.assignments[0]
    small = plan.assignments[1]
    assert gang.run_mode == "gang"
    assert gang.start == 0.0
    assert len(gang.nodes) == 4
    assert small.start == pytest.approx(gang.end)


def test_workers_exceed_partition_fails_task():
    _, queue = routed_tasks(1, workers=8)
    plan = assess(queue, configure(4), registry())
    assert not plan.assignments
    assert len(plan.failures) == 1
    assert "WorkersExceedPartition" in plan.failures[0][1]


def test_fifo_no_starvation_mixed_queue():
    _, gang = routed_tasks(1, workers=2, seed=10)
    _, singles = routed_tasks(3, seed=20)
    plan = assess(singles[:1] + gang + singles[1:], configure(2), registry())
    starts = {a.task.task_id: a.start for a in plan.assignments}
    ids = [a.task.task_id for a in sorted(plan.assignments, key=lambda a: (a.start, a.task.task_id))]
    # the gang task (second in queue) must not be passed by both later singles
    gang_id = gang[0][0].task_id
    later = [s for s in singles[1:]]
    for task, _ in later:
        assert starts[gang_id] <= starts[task.task_id]
    assert len(ids) == 4


# -- backend timing model -----------------------------------------------------------


def test_timing_local_gates_scale_with_workers():
    c = CircuitBuilder(10).h(0).h(1).build()
    timing = StateVectorBackend(alpha=0.0, beta=1.0, gamma=1.0)
    t1 = timing.service_time(c, 1, 1)
    t4 = timing.service_time(c, 1, 4)
    assert t1 / t4 == pytest.approx(4.0)


def test_timing_includes_exchange_term():
    c = CircuitBuilder(10).h(9).build()
    timing = StateVectorBackend(alpha=0.0, beta=1.0, gamma=1.0)
    expected = 1.0 * 1 * 1024 / 2 + 1.0 * exchange_cost(c, 10, 2)
    assert timing.service_time(c, 1, 2) == pytest.approx(expected)
    assert exchange_cost(c, 10, 2) == 1024


def test_speedup_sanity_local_circuit():
    c = CircuitBuilder(12).h(0).cx(0, 1).build()
    timing = StateVectorBackend(alpha=0.0)
    assert timing.service_time(c, 1, 2) < timing.service_time(c, 1, 1)


# -- execute_plan --------------------------------------------------------------------


def test_execute_plan_runs_counts():
    tm, queue = routed_tasks(2, shots=100)
    plan = assess(queue, configure(2), tm.registry)
    results = execute_plan(plan, tm)
    assert len(results) == 2
    for result in results.values():
        assert result.counts.total() == 100


def test_parallel_makespan_is_max_not_sum():
    tm, queue = routed_tasks(2)
    plan = assess(queue, configure(2), tm.registry)
    durations = [a.duration for a in plan.assignments]
    assert plan.makespan == pytest.approx(max(durations))


def test_gang_vs_throughput_same_counts():
    reg = registry()
    tm = TaskManager(reg, RoutingConfig())
    c = CircuitBuilder(4, (("c", 4),)).h(0).cx(0, 1).measure_all("c").build()

    gang_task = tm.normalize(c, 400, 7, Preferences(workers=4))
    tp_task = tm.normalize(c, 400, 7)
    gang_plan = assess([(gang_task, tm.route(gang_task))], configure(4), reg)
    tp_plan = assess([(tp_task, tm.route(tp_task))], configure(4), reg)
    gang_counts = next(iter(execute_plan(gang_plan, tm).values())).counts
    tp_counts = next(iter(execute_plan(tp_plan, tm).values())).counts
    assert gang_counts == tp_counts


def test_node_exclusivity_across_timeline():
    _, queue = routed_tasks(6)
    _, gang = routed_tasks(1, workers=2, seed=99)
    plan = assess(queue[:3] + gang + queue[3:], configure(3), registry())
    spans = [(a.start, a.end, a.nodes) for a in plan.assignments]
    for i, (s1, e1, n1) in enumerate(spans):
        for s2, e2, n2 in spans[i + 1 :]:
            if set(n1) & set(n2):
                assert e1 <= s2 + 1e-12 or e2 <= s1 + 1e-12


def test_per_task_failure_does_not_abort_siblings():
    tm, queue = routed_tasks(2)
    # poison the second task with an unregistered backend id
    from dataclasses import replace

    poisoned = (queue[1][0], replace(queue[1][1], backend_id="ghost"))
    plan = assess([queue[0], poisoned], configure(2), tm.registry)
    results = execute_plan(plan, tm)
    assert isinstance(results[queue[0][0].task_id], ExecuteResult)
    assert results[poisoned[0].task_id].startswith("UnknownBackend: ")


def test_routed_width_beyond_partition_runs_at_partition_width():
    tm = TaskManager(registry(), RoutingConfig(local_qubits_per_worker=2))
    task = tm.normalize(
        CircuitBuilder(4, (("c", 4),)).h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all("c").build(),
        200, 3,
    )
    decision = tm.route(task)
    assert decision.workers == 4
    plan = assess([(task, decision)], configure(2), tm.registry)
    (assignment,) = plan.assignments
    assert assignment.run_mode == "gang"
    assert assignment.decision.workers == 2
    assert assignment.duration == task_service_time(tm.registry, assignment.decision)
    assert isinstance(execute_plan(plan, tm)[task.task_id], ExecuteResult)

    # a cut task: every piece runs at the partition width or at one worker
    # per amplitude, whichever is fewer
    tm = TaskManager(registry(), RoutingConfig(local_qubits_per_worker=2))
    task = tm.normalize(
        CircuitBuilder(5, (("c", 5),)).h(0).cx(0, 1).cx(1, 2).cx(2, 3).h(4)
        .measure_all("c").build(),
        200, 3,
    )
    decision = tm.route(task)
    assert (decision.workers, len(decision.requests)) == (8, 2)
    plan = assess([(task, decision)], configure(4), tm.registry)
    (assignment,) = plan.assignments
    narrowed = assignment.decision
    assert narrowed.workers == 4
    assert [r.workers for r in narrowed.requests] == [4, 2]
    assert [r.workers for r in narrowed.requests] == [
        min(4, 2**r.circuit.num_qubits) for r in narrowed.requests]
    assert assignment.duration == task_service_time(tm.registry, narrowed)
    executed = []
    execute = tm.registry.execute
    tm.registry.execute = lambda backend_id, request: execute(
        backend_id, executed.append(request) or request)
    assert isinstance(execute_plan(plan, tm)[task.task_id], ExecuteResult)
    assert executed == list(narrowed.requests)


# -- one pass against the event-loop reference ------------------------------------

# a few circuits, so equal durations and equal completion instants are common
_POOL = [product_circuit(sizes, 1, seed=i)
         for i, sizes in enumerate([[3], [2, 1], [1, 1, 1], [4], [2, 2], [3, 1, 1]])]
_KINDS = {"sv-a": BackendKind.STATE_VECTOR, "sv-b": BackendKind.STATE_VECTOR,
          "gone": BackendKind.STATE_VECTOR, "hw": BackendKind.HARDWARE}


def planner_registry(zero_durations=False):
    """Two state-vector backends with different timing models, and a
    hardware backend that the planner refuses; "gone" is not registered,
    so pricing a task routed to it fails."""
    timings = [(0.0, 0.0, 0.0)] * 2 if zero_durations else [(1e-3, 1e-9, 1e-9), (2e-3, 3e-9, 5e-9)]
    reg = BackendRegistry()
    for backend_id, timing in zip(("sv-a", "sv-b"), timings):
        reg.register(BackendDescriptor(backend_id, BackendKind.STATE_VECTOR, 26),
                     StateVectorBackend(*timing))
    reg.register(BackendDescriptor("hw", BackendKind.HARDWARE, 12), MockHardwareBackend())
    return reg


@st.composite
def planner_inputs(draw):
    """(partitions, queue): 0-3 state-vector partitions of 1-9 nodes, and
    up to 14 routed tasks of width 1-8, with or without a ``workers``
    preference, cut or whole."""
    partitions = tuple(
        (BackendKind.STATE_VECTOR, draw(st.integers(1, 9)))
        for _ in range(draw(st.integers(0, 3)))
    )
    tm = TaskManager(planner_registry())
    queue = []
    for i in range(draw(st.integers(0, 14))):
        circuit = _POOL[draw(st.integers(0, len(_POOL) - 1))]
        workers = draw(st.sampled_from([1, 2, 4, 8]))
        preferred = draw(st.booleans())
        task = QuantumTask(f"task-{i:04d}", circuit, 10, i,
                           Preferences(workers=workers if preferred else None))
        backend_id = draw(st.sampled_from(["sv-a", "sv-a", "sv-b", "sv-b", "gone", "hw"]))
        pieces = tm.cut(task) if draw(st.booleans()) else None
        queue.append((task, RoutingDecision(backend_id, _KINDS[backend_id], workers,
                                            piece_requests(task, pieces, workers))))
    return partitions, queue


@settings(max_examples=300, deadline=None)
@given(inputs=planner_inputs())
def test_planner_matches_reference(inputs):
    partitions, queue = inputs
    reg = planner_registry()
    plan = assess(queue, partitions, reg)
    expected = reference_assess(queue, partitions, reg)
    assert all(a.duration > 0 for a in plan.assignments)
    assert ([(a.task.task_id, a.decision, a.nodes, a.start, a.duration) for a in plan.assignments]
            == [(a.task.task_id, a.decision, a.nodes, a.start, a.duration)
                for a in expected.assignments])
    assert [a.run_mode for a in plan.assignments] == [a.run_mode for a in expected.assignments]
    assert plan.failures == expected.failures
    assert plan.makespan == expected.makespan


@settings(max_examples=100, deadline=None)
@given(inputs=planner_inputs())
def test_planner_matches_reference_times_at_zero_durations(inputs):
    # the reference holds a node that frees at an instant until its next
    # pass at that instant, so only node ids may differ
    partitions, queue = inputs
    reg = planner_registry(zero_durations=True)
    plan = assess(queue, partitions, reg)
    expected = reference_assess(queue, partitions, reg)
    assert ({a.task.task_id: (a.start, a.end) for a in plan.assignments}
            == {a.task.task_id: (a.start, a.end) for a in expected.assignments})
    assert plan.failures == expected.failures
