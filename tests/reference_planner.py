"""Reference planner: the discrete-event ``assess`` that qorch.simenv used
before it planned in one pass over the queue, kept verbatim as the
reference that planner is tested against.

It advances a clock through a heap of completions, frees every node that
finishes at an instant before it schedules again, and starts each kind's
FIFO head once its gang fits the sorted free-node list.  Two edits: its
second argument is the ``(kind, count)`` pairs ``configure`` returns, where
it took the one-field ``SimPartitionPlan`` that held them, and it narrows
a decision's own requests to the planned width, with its own ``replace``,
where it rebuilt them from the decision's cut.  It keeps
its own ``Assignment``, which stored ``kind``, ``workers`` and ``run_mode``
beside the decision.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

from qorch.qpm import BackendKind, BackendRegistry, UnknownBackend
from qorch.qtm import QuantumTask, RoutingDecision, _floor_pow2
from qorch.simenv import WorkersExceedPartition


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


@dataclass
class ExecutionPlan:
    assignments: list[Assignment] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)  # task_id, reason

    @property
    def makespan(self) -> float:
        return max((a.end for a in self.assignments), default=0.0)


def reference_assess(queue, partitions, registry: BackendRegistry) -> ExecutionPlan:
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
    for kind, size in partitions:
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
            workers = _floor_pow2(totals[kind])
            decision = replace(decision, workers=workers, requests=tuple(
                replace(request, workers=min(workers, 2**request.circuit.num_qubits))
                for request in decision.requests
            ))
        try:
            duration = sum(
                registry.service_time(decision.backend_id, request)
                for request in decision.requests
            )
        except UnknownBackend as exc:
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
