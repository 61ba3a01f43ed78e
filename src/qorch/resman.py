"""Discrete-event cluster with co-allocated hybrid jobs and a device queue.

Jobs request an application partition and (under the per-job model) a
simulation partition; both are granted atomically at one timestamp or not at
all.  Under the single-QC model a cluster-wide device is shared through an
exclusive FIFO queue.  The clock is logical: service times come from the
platform timing models, so whole scheduling experiments are deterministic.

Job behavior is described by a workload object whose ``body(ctx)`` generator
yields steps the engine interprets:

    yield Advance(seconds)    # local classical compute
    yield DeviceCalls(holds)  # FIFO device access, every hold queued at once

``DeviceCalls`` resumes with one ``DeviceGrant`` per hold, in request order,
once the last hold ends; an empty one resumes at once with ``[]``.  A job
reaches its nodes and the device only through these steps: it holds its
nodes from its grant until its body returns or raises, and the device for
each hold.  A plain float workload is shorthand for one Advance of that
duration.

Scheduling is FIFO with optional EASY backfill (Lifka 1995; Mu'alem and
Feitelson 2001): the head of the queue is granted as soon as its nodes are
free; with backfill on, a later job may start first if it fits the free nodes
now and its projected duration ends no later than the head's reservation,
the earliest time projected completions free enough nodes for the head.
The queue keeps each job's node count and projected duration from the moment
it is queued, and running jobs are kept apart from finished ones, so an event
costs a sort of the running jobs (at most one per node) and at most one walk
of the queue, whatever the number of jobs submitted before.  The walk runs
only when a job was queued, nodes were freed or the head changed since the
last walk.  Otherwise it could grant nothing: the free nodes and the head's
reservation are as the last walk left them, and a later clock only shortens
the time left before the reservation.  The walk stops as soon as no node is
free.  The grants, and so the event log, are those of a walk on every event.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import count, islice

MAX_EVENTS = 1_000_000  # safety cap against runaway scenarios


class Model(str, Enum):
    SINGLE_QC = "single_qc"
    PER_JOB = "per_job"


class InvalidSpec(ValueError):
    pass


class NoDevice(RuntimeError):
    pass


@dataclass(frozen=True)
class ClusterConfig:
    total_nodes: int
    single_qc_device: str | None = None
    backfill: bool = False

    def __post_init__(self):
        if self.total_nodes < 1:
            raise InvalidSpec("cluster must have at least one node")


@dataclass(frozen=True)
class JobSpec:
    job_id: str
    app_nodes: int
    sim_nodes: int
    model: Model
    workload: object  # float duration, or an object with body(ctx) and projected_duration
    submit_time: float = 0.0


@dataclass(frozen=True)
class Allocation:
    job_id: str
    app: frozenset[int]
    sim: frozenset[int]
    granted_at: float

    @property
    def nodes(self) -> frozenset[int]:
        return self.app | self.sim


@dataclass(frozen=True)
class EventRecord:
    time: float
    kind: str  # submit grant device_acquire device_release complete fail
    job_id: str
    payload: dict = field(default_factory=dict)

    def to_line(self) -> str:
        detail = ",".join(f"{k}={v}" for k, v in sorted(self.payload.items()))
        return f"{self.time:.9g} {self.kind} {self.job_id} {detail}".rstrip()


# -- workload step vocabulary -------------------------------------------------


@dataclass(frozen=True)
class Advance:
    seconds: float


@dataclass(frozen=True)
class DeviceCalls:
    holds: tuple[float, ...]


@dataclass(frozen=True)
class DeviceGrant:
    granted_at: float
    wait: float


class GeneratorWorkload:
    """Adapts a generator function fn(ctx) into a workload."""

    def __init__(self, fn, projected_duration: float = float("inf")):
        self._fn = fn
        self.projected_duration = projected_duration

    def body(self, ctx):
        return self._fn(ctx)


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class JobContext:
    job_id: str
    cluster: "Cluster"
    allocation: Allocation | None = None

    @property
    def now(self) -> float:
        return self.cluster.now


@dataclass
class _JobRun:
    spec: JobSpec
    state: JobState = JobState.QUEUED
    allocation: Allocation | None = None
    generator: object = None
    # the grants of the current step's device calls, None while one is outstanding
    grants: list = field(default_factory=list)


@dataclass
class _DeviceRequest:
    job_id: str
    hold: float
    requested_at: float
    slot: int  # index into the job's grants
    granted_at: float = 0.0
    wait: float = 0.0


class Cluster:
    """Event-serial cluster state machine; one instance per simulation run."""

    def __init__(self, config: ClusterConfig, on_event=None):
        self.config = config
        self.now = 0.0
        self.log: list[EventRecord] = []
        self._heap: list[tuple[float, int, str, object]] = []
        self._seq = count()
        self._jobs: dict[str, _JobRun] = {}
        self._queue: dict[str, tuple[int, float]] = {}  # job -> (nodes, projected duration)
        self._live: dict[str, tuple[float, int]] = {}  # running job -> (projected end, nodes)
        self._walk_due = False  # a job queued, nodes freed or the head changed since the last walk
        self._free: list[int] = list(range(config.total_nodes))
        self._device_holder: _DeviceRequest | None = None
        self._device_queue: list[_DeviceRequest] = []
        self._events_processed = 0
        self.on_event = on_event

    # -- public ops ----------------------------------------------------------

    def submit_job(self, spec: JobSpec) -> str:
        """Queue a job; never-satisfiable specs are rejected immediately."""
        if spec.job_id in self._jobs:
            raise InvalidSpec(f"duplicate job id {spec.job_id!r}")
        if spec.workload is None:
            raise InvalidSpec(f"job {spec.job_id!r} has no workload")
        if spec.app_nodes < 1:
            raise InvalidSpec("app_nodes must be >= 1")
        model = Model(spec.model)
        if model is Model.PER_JOB and spec.sim_nodes < 1:
            raise InvalidSpec("per_job jobs need a simulation partition (sim_nodes >= 1)")
        if model is Model.SINGLE_QC:
            if spec.sim_nodes != 0:
                raise InvalidSpec("single_qc jobs must not request sim nodes")
            if self.config.single_qc_device is None:
                raise InvalidSpec("cluster has no single-QC device")
        if spec.app_nodes + spec.sim_nodes > self.config.total_nodes:
            raise InvalidSpec(
                f"job needs {spec.app_nodes + spec.sim_nodes} nodes, cluster has "
                f"{self.config.total_nodes}"
            )
        if isinstance(spec.workload, (int, float)):
            duration = float(spec.workload)

            def advance(ctx):
                yield Advance(duration)

            spec = replace(spec, workload=GeneratorWorkload(advance, duration))
        elif not (hasattr(spec.workload, "body") and hasattr(spec.workload, "projected_duration")):
            raise InvalidSpec(f"job {spec.job_id!r} workload needs body() and projected_duration")
        run = _JobRun(spec=spec)
        self._jobs[spec.job_id] = run
        self._push(spec.submit_time, "submit", spec.job_id)
        return spec.job_id

    def tick(self) -> float | None:
        """Advance to the next event time; fire grants and completions there."""
        if not self._heap:
            return None
        t = self._heap[0][0]
        self.now = t
        batch: list[tuple[str, object]] = []
        while self._heap and self._heap[0][0] == t:
            _, _, kind, payload = heapq.heappop(self._heap)
            batch.append((kind, payload))
        for kind, payload in batch:
            self._events_processed += 1
            if self._events_processed > MAX_EVENTS:
                raise RuntimeError("event cap exceeded; runaway scenario aborted")
            if kind == "submit":
                self._handle_submit(payload)
            elif kind == "wake":
                self._step(payload, None)
            elif kind == "device_release":
                self._release_device(payload)
        self._schedule_pass()
        if self.on_event is not None:
            self.on_event(self)
        return t

    def run(self) -> None:
        while self.tick() is not None:
            pass

    def metrics(self) -> dict:
        """Waits, turnarounds, node utilization, and the device wait distribution."""
        submit: dict[str, float] = {}
        grants: dict[str, float] = {}
        ends: dict[str, float] = {}
        device_waits: list[float] = []
        t_first = self.log[0].time if self.log else 0.0
        t_last = self.log[-1].time if self.log else 0.0
        for rec in self.log:
            if rec.kind == "submit":
                submit[rec.job_id] = rec.time
            elif rec.kind == "grant":
                grants[rec.job_id] = rec.time
            elif rec.kind in ("complete", "fail"):
                ends[rec.job_id] = rec.time
            elif rec.kind == "device_acquire":
                device_waits.append(rec.payload["wait"])
        waits = {j: grants[j] - submit[j] for j in grants if j in submit}
        turnaround = {j: ends[j] - submit[j] for j in ends if j in submit}
        busy = 0.0
        for job_id, t_end in ends.items():
            if job_id in grants:
                spec = self._jobs[job_id].spec
                busy += (spec.app_nodes + spec.sim_nodes) * (t_end - grants[job_id])
        horizon = t_last - t_first
        utilization = busy / (self.config.total_nodes * horizon) if horizon > 0 else 0.0
        return {
            "wait": waits,
            "turnaround": turnaround,
            "utilization": utilization,
            "device_waits": device_waits,
        }

    # -- introspection ---------------------------------------------------------

    def job_state(self, job_id: str) -> JobState:
        return self._jobs[job_id].state

    def state_counts(self) -> dict[str, int]:
        out = {s.value: 0 for s in JobState}
        for run in self._jobs.values():
            out[run.state.value] += 1
        return out

    def live_allocations(self) -> list[Allocation]:
        """Allocations of the running jobs, in grant order."""
        return [self._jobs[job_id].allocation for job_id in self._live]

    def export_log(self) -> str:
        return "\n".join(rec.to_line() for rec in self.log) + ("\n" if self.log else "")

    # -- internals ----------------------------------------------------------------

    def _push(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), kind, payload))

    def _record(self, kind: str, job_id: str, **payload) -> None:
        self.log.append(EventRecord(self.now, kind, job_id, payload))

    def _handle_submit(self, job_id: str) -> None:
        spec = self._jobs[job_id].spec
        self._queue[job_id] = (spec.app_nodes + spec.sim_nodes, spec.workload.projected_duration)
        self._walk_due = True
        self._record("submit", job_id)

    def _schedule_pass(self) -> None:
        # FIFO head first; all-or-nothing grants at this timestamp.
        queue = self._queue
        while queue:
            head = next(iter(queue))
            nodes, duration = queue[head]
            if nodes > len(self._free):
                break
            del queue[head]
            self._walk_due = True
            self._grant(head, nodes, duration)
        if not (self.config.backfill and self._walk_due and self._free and len(queue) > 1):
            return
        # EASY backfill: a later job starts now if it ends by the head's reservation.
        self._walk_due = False
        head_start = self._earliest_start(queue[next(iter(queue))][0])
        for job_id, (nodes, duration) in list(islice(queue.items(), 1, None)):
            free = len(self._free)
            if not free:
                break  # every job needs a node; only a grant here could free one
            if nodes <= free and self.now + duration <= head_start:
                del queue[job_id]
                self._grant(job_id, nodes, duration)

    def _earliest_start(self, need: int) -> float:
        """Earliest time the head job could start, from projected completions."""
        free = len(self._free)
        if free >= need:
            return self.now
        for when, nodes in sorted(self._live.values()):
            free += nodes
            if free >= need:
                return when
        return float("inf")

    def _grant(self, job_id: str, nodes: int, duration: float) -> None:
        run = self._jobs[job_id]
        spec = run.spec
        app = frozenset(self._free[: spec.app_nodes])
        sim = frozenset(self._free[spec.app_nodes : nodes])
        self._free = self._free[nodes:]
        run.allocation = Allocation(job_id, app, sim, self.now)
        run.state = JobState.RUNNING
        self._live[job_id] = (self.now + duration, nodes)
        self._record(
            "grant", job_id,
            app=_nodeset(app), sim=_nodeset(sim),
        )
        ctx = JobContext(job_id, self, run.allocation)
        run.generator = spec.workload.body(ctx)
        self._step(job_id, None)

    def _step(self, job_id: str, value) -> None:
        run = self._jobs[job_id]
        try:
            if isinstance(value, BaseException):
                item = run.generator.throw(value)
            else:
                item = run.generator.send(value)
        except StopIteration:
            self._end(job_id)
            return
        except NoDevice:
            self._end(job_id, "NoDevice")
            return
        except Exception as exc:  # workload programming error
            self._end(job_id, f"{type(exc).__name__}: {exc}")
            return
        if isinstance(item, Advance):
            self._push(self.now + item.seconds, "wake", job_id)
            return
        if not isinstance(item, DeviceCalls):
            self._end(job_id, f"workload yielded unknown step {item!r}")
            return
        if not item.holds:
            self._step(job_id, [])
            return
        if Model(run.spec.model) is not Model.SINGLE_QC:
            self._step(job_id, NoDevice(f"job {job_id!r} has no device access"))
            return
        run.grants = [None] * len(item.holds)
        for slot, hold in enumerate(item.holds):
            self._device_queue.append(_DeviceRequest(job_id, hold, self.now, slot))
        self._pump_device()

    def _pump_device(self) -> None:
        if self._device_holder is None and self._device_queue:
            request = self._device_queue.pop(0)
            request.granted_at = self.now
            request.wait = self.now - request.requested_at
            self._device_holder = request
            self._record(
                "device_acquire", request.job_id,
                wait=request.wait, device=self.config.single_qc_device,
            )
            self._push(self.now + request.hold, "device_release", request)

    def _release_device(self, request: _DeviceRequest) -> None:
        self._device_holder = None
        self._record("device_release", request.job_id, device=self.config.single_qc_device)
        self._pump_device()
        run = self._jobs[request.job_id]
        run.grants[request.slot] = DeviceGrant(request.granted_at, request.wait)
        if None not in run.grants:
            grants, run.grants = run.grants, []
            self._step(request.job_id, grants)

    def _end(self, job_id: str, reason: str | None = None) -> None:
        """Return the job's nodes: it completed, or it failed for ``reason``."""
        run = self._jobs[job_id]
        self._free = sorted(self._free + list(run.allocation.nodes))
        del self._live[job_id]
        self._walk_due = True
        if reason is None:
            run.state = JobState.COMPLETED
            self._record("complete", job_id)
        else:
            run.state = JobState.FAILED
            self._record("fail", job_id, reason=reason)
        run.allocation = None
        run.generator = None


def _nodeset(nodes: frozenset[int]) -> str:
    return "+".join(str(n) for n in sorted(nodes)) or "-"
