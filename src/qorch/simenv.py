"""Simulation-environment planning: partitions, gang and throughput modes.

The nodes of a job's simulation partition are split by simulator kind.  A
queue of routed tasks is turned into an execution plan in one pass, strict
FIFO per kind: a task wanting w workers starts at the later of the start of
the task ahead of it in its kind partition and the time the w-th node of
that partition frees, on the lowest-numbered nodes free then.  A task with
w > 1 is a gang assignment spanning w nodes; a single-worker task takes one
node (throughput).  A task routed wider than its kind partition runs at the
widest power of two that fits (``RoutingDecision.at_width``), unless a
``workers`` preference asked for that width.  An assignment's duration is
``qtm.task_service_time`` of its decision, the task's one price; executing
the plan runs that decision's requests, which are not priced again.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .qpm import BackendKind, BackendRegistry, ExecuteResult, UnknownBackend
from .qtm import QuantumTask, RoutingDecision, TaskManager, _floor_pow2, task_service_time


class Oversubscribed(ValueError):
    pass


class WorkersExceedPartition(ValueError):
    pass


def configure(sim_nodes: int, user_partitions=None) -> tuple[tuple[BackendKind, int], ...]:
    """Partition a job's simulation nodes by simulator kind, as (kind, count)
    pairs in node order.

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
    return partitions


@dataclass
class Assignment:
    task: QuantumTask
    decision: RoutingDecision  # at the planned width
    nodes: tuple[int, ...]
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def run_mode(self) -> str:
        return "gang" if self.decision.workers > 1 else "throughput"


@dataclass
class ExecutionPlan:
    assignments: list[Assignment] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)  # task_id, reason

    @property
    def makespan(self) -> float:
        return max((a.end for a in self.assignments), default=0.0)


def assess(queue, partitions, registry: BackendRegistry) -> ExecutionPlan:
    """Turn routed tasks into a timed plan over the partition's nodes.

    ``queue`` holds (task, decision) pairs in arrival order and
    ``partitions`` is what ``configure`` returns.  One pass over the queue:
    each task starts at the later of the previous start in its kind
    partition (strict FIFO, so later small tasks never pass a waiting gang)
    and the time the w-th node of that partition frees, on the
    lowest-numbered nodes free then.  Assignments are listed in queue order,
    which is start order while every task is of one kind.  A node that frees
    at an instant is free again at that instant, so with zero durations
    tasks may share node ids at one start time.  A routed width beyond the
    partition is cut to the widest power of two that fits, and the
    assignment carries that decision, so execution runs at the planned
    width; a ``workers`` preference that does not fit fails the task.
    """
    nodes: dict[BackendKind, list[int]] = {}
    base = 0
    for kind, size in partitions:
        nodes.setdefault(kind, []).extend(range(base, base + size))
        base += size
    free_at = {node: 0.0 for ids in nodes.values() for node in ids}
    last_start = dict.fromkeys(nodes, 0.0)

    out = ExecutionPlan()
    for task, decision in queue:
        kind = decision.backend_kind
        ids = nodes.get(kind, ())
        if kind is BackendKind.HARDWARE:
            # hardware is not part of the simulation partition
            out.failures.append((task.task_id, "hardware tasks do not run in the simulation environment"))
            continue
        if not ids:
            out.failures.append((task.task_id, f"no {kind.value} partition configured"))
            continue
        if decision.workers > len(ids):
            if task.preferences.workers is not None:
                reason = WorkersExceedPartition(
                    f"task wants {decision.workers} workers, {kind.value} "
                    f"partition has {len(ids)} nodes"
                )
                out.failures.append((task.task_id, f"WorkersExceedPartition: {reason}"))
                continue
            decision = decision.at_width(_floor_pow2(len(ids)))
        try:
            duration = task_service_time(registry, decision)
        except UnknownBackend as exc:
            out.failures.append((task.task_id, f"{type(exc).__name__}: {exc}"))
            continue
        width = decision.workers
        start = max(last_start[kind], sorted(free_at[n] for n in ids)[width - 1])
        taken = tuple([n for n in ids if free_at[n] <= start][:width])
        for n in taken:
            free_at[n] = start + duration
        last_start[kind] = start
        out.assignments.append(Assignment(task, decision, taken, start, duration))
    return out


def execute_plan(plan: ExecutionPlan, tm: TaskManager) -> dict[str, ExecuteResult | str]:
    """Run every assignment through the task manager, and give each planned
    task's result, or the reason it failed in planning or execution.

    Counts are identical whether a task ran gang or throughput; only the
    timeline, which the plan holds, differs.  A task that fails does not
    abort its siblings.
    """
    outcomes: dict[str, ExecuteResult | str] = dict(plan.failures)
    for assignment in plan.assignments:
        task = assignment.task
        try:
            outcomes[task.task_id] = tm.execute_task(task, assignment.decision)
        except Exception as exc:
            outcomes[task.task_id] = f"{type(exc).__name__}: {exc}"
    return outcomes
