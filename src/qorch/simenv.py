"""Simulation-environment planning: partitions, gang and throughput modes.

The nodes of a job's simulation partition are split by simulator kind.  A
queue of routed tasks is turned into an execution plan: tasks wanting w > 1
workers become gang assignments spanning w nodes of their kind partition,
single-worker tasks pack one per free node (throughput), FIFO per kind so
nothing starves.  A task routed wider than its kind partition runs at the
widest power of two that fits, unless a ``workers`` preference asked for
that width.  An assignment's duration is the backend's modeled service time,
summed over the task's cut pieces; executing the plan runs each task through
the task manager, which reports that same number.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

from .qpm import BackendKind, BackendRegistry, ExecuteResult, UnknownBackend
from .qtm import QuantumTask, RoutingDecision, TaskManager, _floor_pow2, piece_requests


class Oversubscribed(ValueError):
    pass


class WorkersExceedPartition(ValueError):
    pass


@dataclass(frozen=True)
class SimPartitionPlan:
    partitions: tuple[tuple[BackendKind, int], ...]


def configure(sim_nodes: int, user_partitions=None) -> SimPartitionPlan:
    """Partition a job's simulation nodes by simulator kind.

    A user plan of (kind, count) pairs is honored verbatim; a count of None
    gives that kind every node.  The default gives every node to the
    state-vector kind.
    """
    if user_partitions is None:
        user_partitions = ((BackendKind.STATE_VECTOR, None),)
    partitions = tuple(
        (BackendKind(k), sim_nodes if n is None else int(n)) for k, n in user_partitions
    )
    requested = sum(n for _, n in partitions)
    if requested > sim_nodes:
        raise Oversubscribed(
            f"partition plan wants {requested} nodes, only {sim_nodes} available"
        )
    return SimPartitionPlan(partitions)


@dataclass
class Assignment:
    task: QuantumTask
    decision: RoutingDecision
    kind: BackendKind
    nodes: tuple[int, ...]
    workers: int
    run_mode: str  # "gang" | "throughput"
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration

    def mode_label(self) -> str:
        return f"gang({self.workers})" if self.run_mode == "gang" else "throughput"


@dataclass
class ExecutionPlan:
    assignments: list[Assignment] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)  # task_id, reason

    @property
    def makespan(self) -> float:
        return max((a.end for a in self.assignments), default=0.0)


def assess(queue, plan: SimPartitionPlan, registry: BackendRegistry) -> ExecutionPlan:
    """Turn routed tasks into a timed plan over the partition's nodes.

    ``queue`` holds (task, decision) pairs in arrival order.  Gang tasks wait
    for w free nodes of their kind partition; strict FIFO per kind keeps the
    head from being starved by later small tasks.  A routed width beyond the
    partition is cut to the widest power of two that fits, and the assignment
    carries that decision, so execution runs at the planned width; a
    ``workers`` preference that does not fit fails the task.
    """
    # carve global node ids per kind partition, in plan order
    free: dict[BackendKind, list[int]] = {}
    base = 0
    for kind, size in plan.partitions:
        free.setdefault(kind, []).extend(range(base, base + size))
        base += size
    totals = {kind: len(nodes) for kind, nodes in free.items()}

    queues: dict[BackendKind, list[tuple[QuantumTask, RoutingDecision, float]]] = {}
    out = ExecutionPlan()
    for task, decision in queue:
        kind = decision.backend_kind
        if kind is BackendKind.HARDWARE:
            # hardware is not part of the simulation partition
            out.failures.append((task.task_id, "hardware tasks do not run in the simulation environment"))
            continue
        if totals.get(kind, 0) == 0:
            out.failures.append((task.task_id, f"no {kind.value} partition configured"))
            continue
        if decision.workers > totals[kind]:
            if task.preferences.workers is not None:
                reason = WorkersExceedPartition(
                    f"task wants {decision.workers} workers, {kind.value} "
                    f"partition has {totals[kind]} nodes"
                )
                out.failures.append((task.task_id, f"WorkersExceedPartition: {reason}"))
                continue
            decision = replace(decision, workers=_floor_pow2(totals[kind]))
        try:
            duration = sum(
                registry.service_time(decision.backend_id, request)
                for request in piece_requests(task, decision)
            )
        except (UnknownBackend, NotImplementedError) as exc:
            out.failures.append((task.task_id, f"{type(exc).__name__}: {exc}"))
            continue
        queues.setdefault(kind, []).append((task, decision, duration))

    completions: list[tuple[float, int, Assignment]] = []
    seq = 0
    now = 0.0
    while True:
        for kind, pending in queues.items():
            while pending:
                task, decision, duration = pending[0]
                if decision.workers > len(free[kind]):
                    break  # FIFO head blocks until its gang fits
                pending.pop(0)
                nodes = tuple(free[kind][: decision.workers])
                free[kind] = free[kind][decision.workers :]
                assignment = Assignment(
                    task=task,
                    decision=decision,
                    kind=kind,
                    nodes=nodes,
                    workers=decision.workers,
                    run_mode="gang" if decision.workers > 1 else "throughput",
                    start=now,
                    duration=duration,
                )
                out.assignments.append(assignment)
                heapq.heappush(completions, (assignment.end, seq, assignment))
                seq += 1
        if not completions or not any(queues.values()):
            break
        # free every node that finishes at the next instant before rescheduling
        now = completions[0][0]
        while completions and completions[0][0] == now:
            _, _, finished = heapq.heappop(completions)
            free[finished.kind] = sorted(free[finished.kind] + list(finished.nodes))
    return out


@dataclass
class EnvironmentRun:
    results: dict[str, ExecuteResult] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    makespan: float = 0.0


def execute_plan(plan: ExecutionPlan, tm: TaskManager) -> EnvironmentRun:
    """Run every assignment through the task manager.

    Counts are identical whether a task ran gang or throughput; only the
    timeline differs.  Per-task failures are recorded without aborting
    sibling assignments.
    """
    env = EnvironmentRun()
    for task_id, reason in plan.failures:
        env.failures[task_id] = reason
    for assignment in plan.assignments:
        task = assignment.task
        try:
            result = tm.execute_task(task, assignment.decision)
        except Exception as exc:
            env.failures[task.task_id] = f"{type(exc).__name__}: {exc}"
            continue
        result.queue_wait = assignment.start
        env.results[task.task_id] = result
    env.makespan = plan.makespan
    return env
