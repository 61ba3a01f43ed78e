"""Quantum Task Manager: normalize, route, cut, execute, aggregate.

Incoming programs (QASM text or IR) become tasks with fresh ids.  Routing
follows qubit-count and depth heuristics unless user preferences name a
backend, in which case the preference wins or fails loudly.  Separable
circuits routed to simulator backends are cut into independent subcircuits
southbound and their shot lists are recombined northbound.

``execute_task`` is the one way a task runs, whichever integration model
placed it.  ``task_service_time`` is the one way a task is timed: the
backend prices each piece once, and a cut task takes the sum.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .circuit import Circuit, Subcircuit, interaction_components, split_circuit, depth
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
    count_rows,
    pack_keys,
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
class CutPlan:
    subtasks: tuple[Subcircuit, ...]
    seed: int  # the task's; piece k samples with derive_seed(seed, "subtask", k)


@dataclass(frozen=True)
class RoutingDecision:
    backend_id: str
    backend_kind: BackendKind
    workers: int
    cut: CutPlan | None = None


@dataclass(frozen=True)
class RoutingConfig:
    sv_max: int = field(default=24, metadata={"range": (0, None)})
    tn_depth_max: int = field(default=1000, metadata={"range": (0, None)})
    local_qubits_per_worker: int = field(default=20, metadata={"range": (0, None)})
    gang_limit: int = field(default=8, metadata={"range": (1, None)})


def check_shots(shots: int) -> None:
    """Every task samples at least one shot."""
    if shots < 1:
        raise ValueError("shots must be >= 1")


def _floor_pow2(x: int) -> int:
    return 1 if x < 1 else 1 << (x.bit_length() - 1)


def piece_requests(task: QuantumTask, decision: RoutingDecision) -> list[ExecuteRequest]:
    """The backend requests that run a routed task: one per cut piece, or the
    whole circuit when it was not cut.  ``task_service_time`` prices this
    list and ``execute_task`` runs it."""
    if decision.cut is None:
        return [ExecuteRequest(
            task.task_id, task.circuit, task.shots, task.seed, decision.workers,
        )]
    return [
        ExecuteRequest(
            f"{task.task_id}.{index}", piece.circuit, task.shots,
            derive_seed(task.seed, "subtask", index),
            min(decision.workers, 2**piece.circuit.num_qubits),
        )
        for index, piece in enumerate(decision.cut.subtasks)
    ]


def task_service_time(registry: BackendRegistry, task: QuantumTask,
                      decision: RoutingDecision) -> float:
    """The modeled seconds a routed task takes: the backend's service time
    of each piece, summed."""
    return sum(
        registry.service_time(decision.backend_id, request)
        for request in piece_requests(task, decision)
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
        """Pick a backend and worker count; user preferences supersede heuristics."""
        if not self.registry.list():
            raise NoFeasibleBackend("no backends registered")
        c = task.circuit
        n = c.num_qubits
        prefs = task.preferences

        desc = None
        if prefs.backend_id is not None:
            try:
                desc = self.registry.descriptor(prefs.backend_id)
            except KeyError:
                raise IncompatiblePreference(
                    f"preferred backend {prefs.backend_id!r} is not registered"
                ) from None
            _check_preferred(desc, c)
        elif prefs.backend_kind is not None:
            kind = BackendKind(prefs.backend_kind)
            candidates = [d for d in self.registry.list() if d.kind is kind]
            if not candidates:
                raise IncompatiblePreference(f"no backend of kind {kind.value!r}")
            desc = candidates[0]
            _check_preferred(desc, c)
        else:
            # Only backends wide enough, so depth() never walks a circuit none can take.
            fit = [d for d in self.registry.list() if n <= d.max_qubits]
            svs = [d for d in fit if d.kind is BackendKind.STATE_VECTOR]
            tns = [d for d in fit if d.kind is BackendKind.TENSOR_NETWORK]
            if svs and n <= self.routing.sv_max:
                desc = svs[0]
            elif tns and depth(c) <= self.routing.tn_depth_max:
                desc = tns[0]
            else:
                raise NoFeasibleBackend(
                    f"no backend can take a {n}-qubit circuit "
                    f"(sv_max={self.routing.sv_max})"
                )

        workers = self._pick_workers(desc, n, prefs)
        cut = None
        if (
            prefs.allow_cutting
            and desc.kind is not BackendKind.HARDWARE
            and len(interaction_components(c)) > 1
        ):
            cut = self.cut(task)
        return RoutingDecision(desc.id, desc.kind, workers, cut)

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

    def cut(self, task: QuantumTask) -> CutPlan:
        """Separability cut along interaction components; singleton when whole."""
        return CutPlan(tuple(split_circuit(task.circuit)), task.seed)

    # -- aggregate ------------------------------------------------------------

    @staticmethod
    def aggregate(plan: CutPlan, results: list[Counts]) -> Counts:
        """Recombine subtask counts into the circuit's counts.

        Every piece prints keys in the circuit's layout and writes bits no
        other piece writes, so a merged shot is the OR of one shot of each
        piece.  Each piece's counts expand into a sorted list of packed
        rows, shuffled by a seed-derived permutation so pairing introduces
        no spurious correlations; shot i of every piece merges into shot i.
        """
        if len(results) != len(plan.subtasks):
            raise ShotMismatch(
                f"{len(results)} results for {len(plan.subtasks)} subtasks"
            )
        totals = {counts.total() for counts in results}
        if len(totals) > 1:
            raise ShotMismatch(f"subtask shot totals differ: {sorted(totals)}")
        shots = totals.pop() if totals else 0

        merged = None
        for k, counts in enumerate(results):
            keys = sorted(counts)
            rows = np.repeat(pack_keys(keys), [counts[key] for key in keys], axis=0)
            rng = np.random.default_rng(derive_seed(plan.seed, "aggregate", k))
            rows = rows[rng.permutation(shots)]
            if merged is None:
                merged = rows
            else:
                merged |= rows
        return count_rows(merged, keys[0])

    # -- end to end -----------------------------------------------------------

    def execute_task(self, task: QuantumTask,
                     decision: RoutingDecision | None = None) -> ExecuteResult:
        """Run one task: route it unless a decision is given, execute each
        piece, and aggregate the pieces' shots."""
        if decision is None:
            decision = self.route(task)
        results = [
            self.registry.execute(decision.backend_id, request)
            for request in piece_requests(task, decision)
        ]
        if len(results) == 1:
            return results[0]
        counts = self.aggregate(decision.cut, [r.counts for r in results])
        trace = ExecutionTrace(seed=task.seed)
        for r in results:
            trace = trace + r.trace
        return ExecuteResult(task.task_id, counts, trace, decision.backend_id)


def _check_preferred(desc: BackendDescriptor, c: Circuit) -> None:
    try:
        check_compatible(desc, c)
    except (CircuitTooLarge, MidCircuitUnsupported) as exc:
        raise IncompatiblePreference(f"preferred backend incompatible: {exc}") from None

