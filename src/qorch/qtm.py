"""Quantum Task Manager: normalize, route, cut, execute, aggregate.

Incoming programs (QASM text or IR) become tasks with fresh ids.  Routing
asks the backends: a task goes to the first registered simulator whose
descriptor accepts the circuit, or to the backend or kind its preferences
name, and fails naming every backend it tried and why.  Separable
circuits routed to simulator backends are cut into independent subcircuits
southbound and their shot lists are recombined northbound.

``execute_task`` is the one way a task runs, whichever integration model
placed it, and ``task_service_time`` the one way it is timed; both read the
one piece list that routing builds, ``RoutingDecision.requests``.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import count

import numpy as np

from .circuit import Circuit, interaction_components, split_circuit
from .qasm import parse_qasm
from .qpm import (
    BackendDescriptor,
    BackendKind,
    BackendRegistry,
    CircuitTooLarge,
    ExecuteRequest,
    ExecuteResult,
    MidCircuitUnsupported,
    check_compatible,
    count_values,
    key_values,
)
from .seeds import derive_seed
from .statevec import Counts, ExecutionTrace


class NoFeasibleBackend(RuntimeError):
    pass


class IncompatiblePreference(ValueError):
    pass


class ShotMismatch(ValueError):
    pass


@dataclass(frozen=True)
class Preferences:
    backend_id: str | None = None
    backend_kind: BackendKind | None = None
    workers: int | None = None
    allow_cutting: bool = True


@dataclass(frozen=True)
class QuantumTask:
    task_id: str
    circuit: Circuit
    shots: int
    seed: int
    preferences: Preferences = Preferences()


@dataclass(frozen=True)
class RoutingDecision:
    backend_id: str
    backend_kind: BackendKind
    workers: int
    requests: tuple[ExecuteRequest, ...]  # one per cut piece, or the whole circuit

    def at_width(self, workers: int) -> RoutingDecision:
        """This decision at ``workers`` workers, every request narrowed to it."""
        requests = tuple(replace(r, workers=_piece_width(workers, r.circuit)) for r in self.requests)
        return replace(self, workers=workers, requests=requests)


@dataclass(frozen=True)
class RoutingConfig:
    local_qubits_per_worker: int = field(default=20, metadata={"range": (0, None)})
    gang_limit: int = field(default=8, metadata={"range": (1, None)})


def check_shots(shots: int) -> None:
    """Every task samples at least one shot."""
    if shots < 1:
        raise ValueError("shots must be >= 1")


def _floor_pow2(x: int) -> int:
    return 1 if x < 1 else 1 << (x.bit_length() - 1)


def _piece_width(workers: int, circuit: Circuit) -> int:
    """A piece runs on at most one worker per amplitude."""
    return min(workers, 2**circuit.num_qubits)


def piece_requests(task: QuantumTask, pieces: tuple[Circuit, ...] | None,
                   workers: int) -> tuple[ExecuteRequest, ...]:
    """The backend requests that run a task at ``workers`` workers: one per
    cut piece, piece k sampling with ``derive_seed(task.seed, "subtask", k)``,
    or the whole circuit when ``pieces`` is None."""
    if pieces is None:
        return (ExecuteRequest(task.task_id, task.circuit, task.shots, task.seed, workers),)
    return tuple(
        ExecuteRequest(
            f"{task.task_id}.{index}", piece, task.shots,
            derive_seed(task.seed, "subtask", index), _piece_width(workers, piece),
        )
        for index, piece in enumerate(pieces)
    )


def task_service_time(registry: BackendRegistry, decision: RoutingDecision) -> float:
    """The modeled seconds a routed task takes: the backend's service time
    of each of its requests, summed."""
    return sum(
        registry.service_time(decision.backend_id, request) for request in decision.requests
    )


class SubtaskRunner:
    """Runs piece calls in order.

    ``TaskManager.execute_task`` runs a task's pieces inline and does not use
    this class; it stays only because bench/tracing.py patches ``run_all``.
    """

    def run_all(self, calls):
        return [call() for call in calls]


class TaskManager:
    """Stateful front door: holds the registry, routing config, and task ids."""

    def __init__(self, registry: BackendRegistry, routing: RoutingConfig = RoutingConfig()):
        self.registry = registry
        self.routing = routing
        self._ids = count(1)

    # -- normalize ---------------------------------------------------------

    def normalize(self, source: str | Circuit, shots: int, seed: int,
                  preferences: Preferences | None = None) -> QuantumTask:
        """Wrap QASM text or an IR circuit into a task with a fresh id."""
        check_shots(shots)
        circuit = parse_qasm(source) if isinstance(source, str) else source
        task_id = f"task-{next(self._ids):04d}"
        return QuantumTask(task_id, circuit, shots, seed, preferences or Preferences())

    # -- route -------------------------------------------------------------

    def route(self, task: QuantumTask) -> RoutingDecision:
        """Pick a backend and worker count: the first candidate, in
        registration order, that ``check_compatible`` accepts.  The candidates
        are the preferred backend, else the backends of the preferred kind,
        else every simulator; the error names each one refused and why."""
        c = task.circuit
        prefs = task.preferences
        backends = self.registry.list()
        if prefs.backend_id is not None:
            wanted = f"preferred backend {prefs.backend_id!r}"
            candidates = [d for d in backends if d.id == prefs.backend_id]
        elif prefs.backend_kind is not None:
            kind = BackendKind(prefs.backend_kind)
            wanted = f"backend of kind {kind.value!r}"
            candidates = [d for d in backends if d.kind is kind]
        else:
            wanted = None
            candidates = [d for d in backends if d.kind is not BackendKind.HARDWARE]
        refusals = []
        for desc in candidates:
            try:
                check_compatible(desc, c)
            except (CircuitTooLarge, MidCircuitUnsupported) as exc:
                refusals.append(str(exc))
            else:
                break
        else:
            error = NoFeasibleBackend if wanted is None else IncompatiblePreference
            if not candidates:
                raise error(f"no {wanted or 'simulator backend'} is registered")
            raise error(f"no {wanted or 'backend'} can take a {c.num_qubits}-qubit circuit: "
                        + "; ".join(refusals))

        workers = self._pick_workers(desc, c.num_qubits, prefs)
        pieces = None
        if (
            prefs.allow_cutting
            and desc.kind is not BackendKind.HARDWARE
            and len(interaction_components(c)) > 1
        ):
            pieces = self.cut(task)
        return RoutingDecision(desc.id, desc.kind, workers, piece_requests(task, pieces, workers))

    def _pick_workers(self, desc: BackendDescriptor, n: int, prefs: Preferences) -> int:
        if prefs.workers is not None:
            w = prefs.workers
            if w < 1 or w & (w - 1):
                raise IncompatiblePreference(f"workers must be a power of two, got {w}")
            if w > 2**n:
                raise IncompatiblePreference(f"workers {w} exceeds 2^{n}")
            if desc.kind is BackendKind.HARDWARE and w != 1:
                raise IncompatiblePreference("hardware backends run with workers=1")
            return w
        if desc.kind is BackendKind.HARDWARE:
            return 1
        grown = 2 ** max(0, n - self.routing.local_qubits_per_worker)
        return _floor_pow2(min(self.routing.gang_limit, grown))

    # -- cut ----------------------------------------------------------------

    def cut(self, task: QuantumTask) -> tuple[Circuit, ...]:
        """Separability cut along interaction components, in
        ``interaction_components`` order; one piece when whole."""
        return tuple(split_circuit(task.circuit))

    # -- aggregate ------------------------------------------------------------

    @staticmethod
    def aggregate(seed: int, results: list[Counts]) -> Counts:
        """Recombine the pieces' counts, in piece order, into the whole
        circuit's counts; ``seed`` is the task's.

        Every piece prints keys in the circuit's layout and writes bits no
        other piece writes, so a merged shot is the OR of one shot of each
        piece.  Each piece's distinct keys become integers, the first key
        bit most significant, and expand by their counts into a sorted row
        per shot, shuffled by the ``derive_seed(seed, "aggregate", k)``
        permutation so pairing introduces no spurious correlations; shot i
        of every piece merges into shot i.  Keys of up to 64 bits are
        ``uint64`` rows, wider ones Python integers.  The merged rows are
        tallied by value at up to 16 bits, else by ``np.unique``, and each
        distinct key is formatted once, after the merge.
        """
        totals = {counts.total() for counts in results}
        if len(totals) > 1:
            raise ShotMismatch(f"subtask shot totals differ: {sorted(totals)}")
        shots = totals.pop() if totals else 0
        template = next(iter(results[0]))
        width = len(template) - template.count(" ")

        merged = None
        for k, counts in enumerate(results):
            keys = sorted(counts)
            rows = np.repeat(key_values(keys, width), [counts[key] for key in keys])
            rng = np.random.default_rng(derive_seed(seed, "aggregate", k))
            rows = rows[rng.permutation(shots)]
            if merged is None:
                merged = rows
            else:
                merged |= rows
        return count_values(merged, template)

    # -- end to end -----------------------------------------------------------

    def execute_task(self, task: QuantumTask,
                     decision: RoutingDecision | None = None) -> ExecuteResult:
        """Run one task: route it unless a decision is given, execute each of
        the decision's requests, and aggregate the pieces' shots."""
        if decision is None:
            decision = self.route(task)
        results = [
            self.registry.execute(decision.backend_id, request) for request in decision.requests
        ]
        if len(results) == 1:
            return results[0]
        counts = self.aggregate(task.seed, [r.counts for r in results])
        trace = ExecutionTrace(seed=task.seed)
        for r in results:
            trace = trace + r.trace
        return ExecuteResult(task.task_id, counts, trace, decision.backend_id)

