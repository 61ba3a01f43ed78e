"""Usage-pattern scenario drivers and their circuits.

Three drivers cover the hybrid usage patterns end to end on a simulated
cluster: a repeatedly-sampled static circuit (GHZ), an ensemble of
independent random circuits post-processed classically, and an in-sequence
teleportation loop that uses mid-circuit measurement plus feed-forward and
adapts its angle between submissions.  A fourth runs one user-submitted QASM
program (the ``submit`` command); ``workflow.run_workflow`` runs a workflow
file's stages through the same harness.

Each driver checks its own parameters and raises ValueError before anything
runs.  It then runs as one hybrid job through ``_run_job``, which returns
the run's only result, a RunReport: a job or task that failed, a loop that
did not converge (``NonConvergence: ...``) and a program or workflow stage
refused at admission all end as a failed report that says why.  Every batch
runs through ``QuantumBatch.run_batch``: routing builds each task's requests
once, ``qtm.task_service_time`` prices them and ``TaskManager.execute_task``
runs them.  Only the wait differs by model: per_job plans the tasks onto the
job's own simulation partition (gang/throughput), and single_qc holds the
cluster device for them.  ``run_batch`` writes each task's one
``report.TaskRecord``; the batch's ``outcomes`` list is the report's
``tasks``.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import qtm
from .circuit import Circuit, CircuitBuilder
from .qasm import QasmError
from .qtm import Preferences, QuantumTask, TaskManager, check_shots, task_service_time
from .report import RunReport, TaskRecord
from .resman import Advance, DeviceCalls, GeneratorWorkload, JobSpec, Model
from .seeds import derive_seed
from .simenv import assess, configure, execute_plan
from .statevec import Counts
from .system import System


# -- scenario circuits ---------------------------------------------------------


def ghz(n: int) -> Circuit:
    """h on qubit 0, a cx chain, and a full register measurement."""
    if n < 2:
        raise ValueError("GHZ needs at least 2 qubits")
    b = CircuitBuilder(n, (("c", n),)).h(0)
    for q in range(n - 1):
        b.cx(q, q + 1)
    return b.measure_all("c").build()


def teleport_circuit(theta: float) -> Circuit:
    """Teleport ry(theta)|0> from qubit 0 to qubit 2 with feed-forward."""
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


def random_layered_circuit(n: int, layers: int, seed: int) -> Circuit:
    """Layers of per-qubit u gates followed by a random disjoint cx pairing."""
    rng = np.random.default_rng(seed)
    b = CircuitBuilder(n, (("c", n),))
    for _ in range(layers):
        for q in range(n):
            theta, phi, lam = rng.uniform(0.0, 2.0 * math.pi, 3)
            b.u(theta, phi, lam, q)
        order = rng.permutation(n)
        for i in range(0, n - 1, 2):
            b.cx(int(order[i]), int(order[i + 1]))
    return b.measure_all("c").build()


# -- job harness -----------------------------------------------------------------


def single_qc_preferences(device: str, preferences: Preferences | None) -> Preferences:
    """The preferences a single_qc task runs with: the cluster device and one
    worker.  Refuses a preference for another backend or worker count."""
    preferences = preferences or Preferences()
    if preferences.backend_id not in (None, device):
        raise ValueError(f"single_qc jobs execute on the cluster device {device!r}; "
                         "use per_job for backend overrides")
    if preferences.workers not in (None, 1):
        raise ValueError(f"single_qc jobs execute with workers=1, got workers="
                         f"{preferences.workers}; use per_job for worker overrides")
    return replace(preferences, backend_id=device, workers=1)


class QuantumBatch:
    """Task submission API handed to scenario bodies inside the job workload."""

    def __init__(self, system: System, tm: TaskManager, model: Model, sim_nodes: int):
        self.system = system
        self.tm = tm
        self.model = model
        self.sim_nodes = sim_nodes
        self.outcomes: list[TaskRecord] = []  # every task's report record, in submission order
        self.failure: str | None = None  # set by a body that ends the run itself

    def submit(self, source, shots, seed, preferences=None) -> QuantumTask:
        """A task with a fresh id; under single_qc, with ``single_qc_preferences``."""
        if self.model is Model.SINGLE_QC:
            preferences = single_qc_preferences(self.system.config.device, preferences)
        return self.tm.normalize(source, shots, seed, preferences)

    def run_batch(self, tasks: list[QuantumTask], sequential: bool = False):
        """Generator step: route every task and run the routed ones under the
        job's integration model.  per_job plans them onto the job's partition,
        each waiting until its assignment's start for its duration; single_qc
        prices and runs each, then holds the device for those times in one
        ``DeviceCalls`` for the batch.  Yields engine steps; returns each
        task's TaskRecord, in task order, which it also appends to
        ``outcomes``.  A task that fails keeps a wait and service time of 0.
        ``sequential`` is unused; it stays until the benchmark tracer stops
        passing it positionally.
        """
        single_qc = self.model is Model.SINGLE_QC
        queue, results, times = [], {}, {}  # by task id: ExecuteResult or reason; (wait, service time)
        for task in tasks:
            try:
                queue.append((task, self.tm.route(task)))
            except Exception as exc:
                results[task.task_id] = f"{type(exc).__name__}: {exc}"
        if single_qc:
            held = []
            for task, decision in queue:
                try:
                    service = task_service_time(self.system.registry, decision)
                    results[task.task_id] = self.tm.execute_task(task, decision)
                except Exception as exc:
                    results[task.task_id] = f"{type(exc).__name__}: {exc}"
                    continue
                held.append((task.task_id, service))
            grants = yield DeviceCalls(tuple(service for _, service in held))
            times = {task_id: (grant.wait, s) for (task_id, s), grant in zip(held, grants)}
        elif queue:
            plan = assess(queue, configure(self.sim_nodes, self.system.config.partitions),
                          self.system.registry)
            times = {a.task.task_id: (a.start, a.duration) for a in plan.assignments}
            results.update(execute_plan(plan, self.tm))
            if plan.makespan > 0:
                yield Advance(plan.makespan)
        backends = {task.task_id: decision.backend_id for task, decision in queue}
        records = []
        for task in tasks:
            # a single_qc task names the device from submit, even if it fails to route
            record = TaskRecord(task.task_id, backends.get(
                task.task_id, task.preferences.backend_id if single_qc else "-"))
            result = results.get(task.task_id)
            if isinstance(result, str):
                record.error = result
            elif result is not None:
                record.queue_wait, record.service_time = times[task.task_id]
                record.counts = result.counts
            records.append(record)
        self.outcomes.extend(records)
        return records


def _run_job(system: System, scenario: str, seed: int, model, app_nodes: int,
             sim_nodes: int, body, answer, iterations=(), stages=(),
             failure: str | None = None) -> RunReport:
    """Run ``body`` as the hybrid job ``job-0001`` and report it.

    ``answer`` maps the records of the tasks that returned counts, in task
    order, to the report's answer; with none, the answer is ``error``.  An
    admission ``failure`` submits no job.  The run fails when admission
    failed, the job failed, the body set ``batch.failure`` or a task failed;
    the first of these reasons, in that order, is ``report.failure``.
    """
    model = Model(model)
    cluster = system.new_cluster()
    batch = QuantumBatch(system, system.task_manager(), model, sim_nodes)
    if failure is None:
        def workload(ctx):
            yield from body(batch)

        cluster.submit_job(JobSpec(
            job_id="job-0001",
            app_nodes=app_nodes,
            sim_nodes=sim_nodes if model is Model.PER_JOB else 0,
            model=model,
            workload=GeneratorWorkload(workload),
            submit_time=0.0,
        ))
        cluster.run()
    reasons = [failure]
    reasons += [rec.payload["reason"] for rec in cluster.log if rec.kind == "fail"]
    reasons.append(batch.failure)
    reasons += [record.error for record in batch.outcomes]
    failure = next((reason for reason in reasons if reason), None)
    counted = [record for record in batch.outcomes if record.counts is not None]
    waits = [record.queue_wait for record in batch.outcomes if record.error is None]
    return RunReport(
        scenario=scenario,
        seed=seed,
        model=model.value,
        status="failed" if failure else "ok",
        answer=answer(counted) if counted else "error",
        metrics={
            "makespan": cluster.now,
            "utilization": cluster.metrics()["utilization"],
            "mean_queue_wait": float(np.mean(waits)) if waits else 0.0,
        },
        tasks=batch.outcomes,
        iterations=list(iterations),
        stages=list(stages),
        config_text=system.config.text,
        event_lines=cluster.export_log(),
        failure=failure,
    )


# -- drivers -------------------------------------------------------------------


def run_single_circuit(n: int, shots: int, seed: int, system: System,
                       model=Model.PER_JOB, app_nodes: int = 1,
                       sim_nodes: int = 2) -> RunReport:
    """Sample a GHZ state repeatedly: one static circuit, one distribution."""
    circuit = ghz(n)
    check_shots(shots)

    def body(batch: QuantumBatch):
        task = batch.submit(circuit, shots, derive_seed(seed, "task", 0))
        yield from batch.run_batch([task])

    return _run_job(
        system, "single_circuit", seed, model, app_nodes, sim_nodes, body,
        lambda records: f"p_all_zeros={records[0].counts.frequency('0' * n):.6f}",
    )


def run_ensemble(k: int, n: int, layers: int, shots: int, seed: int, system: System,
                 model=Model.PER_JOB, app_nodes: int = 1,
                 sim_nodes: int = 2) -> RunReport:
    """K independent random circuits, aggregated classically.

    The answer is the mean over circuits of the all-zeros outcome frequency.
    """
    if k < 1 or n < 1 or layers < 0:
        raise ValueError("ensemble needs k >= 1, n >= 1, layers >= 0")
    check_shots(shots)
    circuits = [
        random_layered_circuit(n, layers, derive_seed(seed, "circuit", i))
        for i in range(k)
    ]

    def body(batch: QuantumBatch):
        tasks = [
            batch.submit(c, shots, derive_seed(seed, "task", i))
            for i, c in enumerate(circuits)
        ]
        yield from batch.run_batch(tasks)

    def answer(records: list[TaskRecord]) -> str:
        mean = float(np.mean([r.counts.frequency("0" * n) for r in records]))
        return f"mean_zero_frequency={mean:.6f}"

    return _run_job(system, "ensemble", seed, model, app_nodes, sim_nodes, body, answer)


def run_in_sequence(theta: float, shots_per_iter: int, seed: int, system: System,
                    model=Model.PER_JOB, app_nodes: int = 1, sim_nodes: int = 2,
                    tolerance: float = 0.02, max_iterations: int = 30) -> RunReport:
    """Teleportation feedback loop: bisect the preparation angle until the
    teleported P(output=1) lands within tolerance of one half.

    A loop still outside tolerance after ``max_iterations`` submissions
    gives a failed report whose failure is ``NonConvergence: ...``."""
    if not 0.0 <= theta < 2.0 * math.pi:
        raise ValueError("in_sequence needs theta in [0, 2*pi)")
    if tolerance <= 0 or max_iterations < 1:
        raise ValueError("in_sequence needs positive tolerance and cap")
    check_shots(shots_per_iter)
    iterations: list[dict] = []

    def measured_p1(counts: Counts) -> float:
        ones = sum(v for key, v in counts.items() if key.split()[2] == "1")
        return ones / counts.total()

    def body(batch: QuantumBatch):
        increasing = theta <= math.pi
        lo, hi = (0.0, math.pi) if increasing else (math.pi, 2.0 * math.pi)
        angle = theta
        for i in range(max_iterations):
            task = batch.submit(
                teleport_circuit(angle), shots_per_iter, derive_seed(seed, "iter", i)
            )
            (outcome,) = yield from batch.run_batch([task])
            if outcome.error is not None:
                return
            p1 = measured_p1(outcome.counts)
            iterations.append({"theta": f"{angle:.9g}", "p1": f"{p1:.6f}"})
            if abs(p1 - 0.5) <= tolerance:
                return
            high = p1 > 0.5
            if (increasing and high) or (not increasing and not high):
                hi = angle
            else:
                lo = angle
            angle = (lo + hi) / 2.0
        batch.failure = f"NonConvergence: no convergence after {max_iterations} iterations"

    def answer(records: list[TaskRecord]) -> str:
        last = iterations[-1]
        return f"theta={last['theta']} p1={last['p1']} iterations={len(iterations)}"

    return _run_job(system, "in_sequence", seed, model, app_nodes, sim_nodes, body,
                    answer, iterations=iterations)


def run_submitted_circuit(source: str, shots: int, seed: int, system: System,
                          model=Model.PER_JOB, app_nodes: int = 1, sim_nodes: int = 2,
                          backend_id: str | None = None,
                          workers: int | None = None) -> RunReport:
    """One user-provided QASM program run as a hybrid job (the submit command).

    The program is parsed and its shot count and single_qc preferences
    checked at admission, before the job is submitted, so a refused program
    fails with no job and an empty event log."""
    prefs = Preferences(backend_id=backend_id, workers=workers)
    failure = None
    try:
        # qtm's name, which normalize also parses through, so one hook sees every parse
        circuit = qtm.parse_qasm(source)
        check_shots(shots)
        if Model(model) is Model.SINGLE_QC:
            single_qc_preferences(system.config.device, prefs)
    except (QasmError, ValueError) as exc:  # a circuit's ValidationError is a ValueError
        failure = f"{type(exc).__name__}: {exc}"

    def body(batch: QuantumBatch):
        task = batch.submit(circuit, shots, seed, prefs)
        yield from batch.run_batch([task])

    return _run_job(system, "submit", seed, model, app_nodes, sim_nodes, body,
                    lambda records: f"counts={records[0].digest()}", failure=failure)
