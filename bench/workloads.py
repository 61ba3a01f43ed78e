"""The three benchmark workloads, each a single closed-loop client.

A workload builds its inputs from the seed once (set-up), then runs whole
rounds of the same jobs; the next job starts only when the previous one has
finished.  ``run_round`` returns what the round produced; ``checks.py``
verifies it after the timed region.  Given a ``speed.SpeedProbe``, a workload
samples it between its timed pieces (and, in ``cluster_backlog``, between the
cluster's events), never inside a piece's time.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from qorch import resman, workflow
from qorch.config import default_config_text, load_config
from qorch.report import RunReport
from qorch.resman import Advance, JobSpec, JobState, Model
from qorch.scenarios import QuantumBatch, run_in_sequence, run_submitted_circuit
from qorch.system import System

import programs as P

MOCK_HW_FLIP = 0.02  # readout_flip_probability of mock-hw in the default config
GAP_PROBES = 6  # speed-probe samples before each timed job
PROBE_TICKS = 50  # cluster_backlog: cluster events (ticks) between speed-probe samples


@dataclass
class Job:
    """One hybrid job the benchmark submits through the cluster API."""

    job_id: str
    model: Model
    app_nodes: int
    sim_nodes: int
    programs: tuple[P.Program, ...]
    texts: tuple[str, ...]
    phases: tuple[float, float] = (0.0, 0.0)
    submit_time: float = 0.0

    @property
    def projected_duration(self) -> float:
        # Classical phases plus a margin that covers every quantum step:
        # per-task service is about 1 ms and at most 64 jobs x 3 tasks can
        # queue for the device ahead of this one.
        return self.phases[0] + self.phases[1] + 0.5

    @property
    def must_fail(self) -> bool:
        return self.model is Model.SINGLE_QC and len(self.programs) == 1


@dataclass
class RoundResult:
    """What one round produced.  A round is a list of pieces (a job, or one
    whole cluster run); each piece is timed from its first call into qorch
    to its report rendered."""

    probe: object = None  # speed.SpeedProbe or None
    attempted: int = 0
    ok: int = 0
    failed: int = 0
    shots: int = 0
    piece_seconds: list[float] = field(default_factory=list)
    texts: list[str] = field(default_factory=list)  # report and event log
    outputs: list = field(default_factory=list)  # (label, inputs, report, extra)

    def run(self, label, inputs, call) -> None:
        """Time ``call`` (returning a RunReport) and its rendering as one job."""
        if self.probe is not None:
            self.probe(GAP_PROBES)
        start = perf_counter()
        report = call()
        text = report.to_text()
        self.piece_seconds.append(perf_counter() - start)
        ok = report.status == "ok"
        self.record(label, inputs, report, text, attempted=1, ok=int(ok))

    def record(self, label, inputs, report, text, attempted, ok, extra=None) -> None:
        self.attempted += attempted
        self.ok += ok
        self.failed += attempted - ok
        self.shots += sum(t.counts.total() for t in report.tasks
                          if t.counts is not None and not t.error)
        self.texts.append(text + report.event_lines)
        self.outputs.append((label, inputs, report, extra))

    def summary(self) -> "RoundSummary":
        h = hashlib.sha256()
        for text in self.texts:
            h.update(text.encode("utf-8"))
        return RoundSummary(self.attempted, self.ok, self.failed, self.shots,
                            tuple(self.piece_seconds), h.hexdigest())


@dataclass(frozen=True)
class RoundSummary:
    attempted: int
    ok: int
    failed: int
    shots: int
    piece_seconds: tuple[float, ...]
    digest: str  # of every report the round rendered


def _config_text(**cluster) -> str:
    """The packaged default config with [cluster] keys replaced."""
    lines = []
    section = None
    for line in default_config_text().splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped
        elif section == "[cluster]" and "=" in stripped:
            key = stripped.split("=", 1)[0].strip()
            if key in cluster:
                line = f"{key} = {cluster[key]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _system(out: Path, name: str, **cluster) -> System:
    path = out / f"{name}.ini"
    path.write_text(_config_text(**cluster), encoding="utf-8")
    return System(load_config(path))


def _probe_spent(probe) -> float:
    return probe.spent if probe is not None else 0.0


def _seeds(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31))


def run_cluster_jobs(system: System, jobs: list[Job], seed: int, scenario: str,
                     probe=None):
    """Submit jobs to one shared cluster and run it to the end.

    With a probe, the cluster is driven by ``tick()`` (the loop ``run()``
    is) and the probe is sampled every PROBE_TICKS ticks.
    """
    cluster = system.new_cluster()
    tm = system.task_manager()
    batches = {}

    def body_for(job: Job, batch: QuantumBatch):
        def body(ctx):
            if job.phases[0]:
                yield Advance(job.phases[0])
            tasks = [
                batch.submit(text, p.shots, p.seed)
                for p, text in zip(job.programs, job.texts)
            ]
            yield from batch.run_batch(tasks)
            if job.phases[1]:
                yield Advance(job.phases[1])
        return body

    for job in jobs:
        batch = QuantumBatch(system, tm, job.model, job.sim_nodes)
        batches[job.job_id] = batch
        cluster.submit_job(JobSpec(
            job_id=job.job_id, app_nodes=job.app_nodes, sim_nodes=job.sim_nodes,
            model=job.model,
            workload=resman.GeneratorWorkload(body_for(job, batch), job.projected_duration),
            submit_time=job.submit_time,
        ))
    if probe is None:
        cluster.run()
    else:
        ticks = 0
        while cluster.tick() is not None:
            ticks += 1
            if ticks % PROBE_TICKS == 0:
                probe()
    states = {job.job_id: cluster.job_state(job.job_id) for job in jobs}
    failed = any(s is JobState.FAILED for s in states.values()) or any(
        o.error for batch in batches.values() for o in batch.outcomes)
    report = RunReport(
        scenario=scenario, seed=seed, model="mixed", status="failed" if failed else "ok",
        answer=f"jobs={len(jobs)}",
        metrics={"makespan": cluster.now},
        tasks=[o.record() for job in jobs for o in batches[job.job_id].outcomes],
        config_text=system.config.text,
        event_lines=cluster.export_log(),
    )
    return report, states, batches


# -- static_sampling ---------------------------------------------------------------


class StaticSampling:
    """Static programs: per_job submissions, mock-hw ensembles, a cut workflow."""

    name = "static_sampling"

    def __init__(self, seed: int, out: Path, probe=None):
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.probe = probe
        self.system = _system(out, "static", nodes=8, device="statevec")
        self.mock_system = _system(out, "static-mockhw", nodes=8, device="mock-hw")
        self.submitted = [
            P.ghz(18, 100_000, _seeds(rng)),
            P.random_layered(16, 4, 50_000, _seeds(rng)),
            P.random_layered(14, 6, 100_000, _seeds(rng)),
            P.ghz(15, 20_000, _seeds(rng)),
            P.separable((8, 8), 20_000, _seeds(rng)),
        ]
        self.submitted_texts = [p.qasm() for p in self.submitted]
        # GHZ(15) asks for 2 workers, so one job runs in gang mode.
        self.submitted_workers = [None, None, None, 2, None]
        self.ensembles = []
        for k, members in enumerate((
            (P.ghz(12, 50_000, _seeds(rng)), P.random_layered(11, 3, 50_000, _seeds(rng))),
            (P.ghz(10, 50_000, _seeds(rng)), P.random_layered(12, 3, 50_000, _seeds(rng)),
             P.ghz(9, 50_000, _seeds(rng))),
        )):
            self.ensembles.append(Job(
                f"ens-{k}", Model.SINGLE_QC, 1, 0, members, tuple(p.qasm() for p in members),
            ))
        self.stages = [P.separable(sizes, 50_000, _seeds(rng))
                       for sizes in ((6, 6), (5, 7), (4, 4, 4))]
        self.workflow_path = self._write_workflow(out)
        self.warm = P.random_layered(14, 3, 10_000, _seeds(rng))
        self.warm_text = self.warm.qasm()

    def _write_workflow(self, out: Path) -> Path:
        lines = []
        for k, program in enumerate(self.stages):
            (out / f"stage{k}.qasm").write_text(program.qasm(), encoding="utf-8")
            lines += [f"[stage:sample{k}]", "kind = quantum",
                      f"qasm = stage{k}.qasm", f"shots = {program.shots}", ""]
            if k == 1:
                zeros = "0" * self.stages[0].num_qubits
                lines += ["[stage:mean0]", "kind = classical", "op = mean_probability",
                          f"args = {zeros}", ""]
        zeros = "0" * self.stages[-1].num_qubits
        lines += ["[stage:check]", "kind = classical", "op = threshold_count",
                  f"args = {zeros}, 0.0", ""]
        path = out / "static.workflow.ini"
        path.write_text("\n".join(lines), encoding="utf-8")
        return path

    def warm_up(self) -> None:
        run_submitted_circuit(self.warm_text, self.warm.shots, self.warm.seed,
                              self.system).to_text()

    def run_round(self) -> RoundResult:
        result = RoundResult(self.probe)
        for program, text, workers in zip(self.submitted, self.submitted_texts,
                                          self.submitted_workers):
            result.run("submit", program, lambda: run_submitted_circuit(
                text, program.shots, program.seed, self.system,
                model=Model.PER_JOB, app_nodes=1, sim_nodes=2, workers=workers))
        for job in self.ensembles:
            result.run("ensemble", job, lambda: run_cluster_jobs(
                self.mock_system, [job], self.seed, "ensemble")[0])
        result.run("workflow", self.stages, lambda: workflow.run_workflow(
            self.workflow_path, self.system, seed=self.seed))
        return result


# -- feedforward_loop --------------------------------------------------------------

# Start angles whose noiseless bisection path keeps every iterate at least
# 0.045 away from the acceptance edge |P(1) - 1/2| = TOLERANCE, i.e. more than
# 3 sigma at TELEPORT_SHOTS, so the iteration count (4, 3, 3, 4) does not
# depend on the seed and the round's work stays fixed.
TELEPORT_STARTS = ((1.8, Model.PER_JOB), (4.5, Model.PER_JOB),
                   (2.1, Model.SINGLE_QC), (4.2, Model.SINGLE_QC))
TELEPORT_SHOTS = 1200
TOLERANCE = 0.05


class FeedforwardLoop:
    """Teleport bisection loops under both models plus parity-round programs."""

    name = "feedforward_loop"

    def __init__(self, seed: int, out: Path, probe=None):
        rng = np.random.default_rng([seed, 2])
        self.seed = seed
        self.probe = probe
        self.system = _system(out, "feedforward", nodes=8, device="statevec")
        self.loops = [(theta, model, _seeds(rng)) for theta, model in TELEPORT_STARTS]
        self.parity = [P.parity_rounds(data, 3, 300, _seeds(rng)) for data in (4, 5, 6, 7)]
        self.parity_texts = [p.qasm() for p in self.parity]

    def warm_up(self) -> None:
        run_in_sequence(1.6, 200, self.seed, self.system, tolerance=0.2).to_text()
        p = self.parity[0]
        run_submitted_circuit(self.parity_texts[0], 50, p.seed, self.system).to_text()

    def run_round(self) -> RoundResult:
        result = RoundResult(self.probe)
        for theta, model, seed in self.loops:
            result.run("teleport", (theta, model), lambda: run_in_sequence(
                theta, TELEPORT_SHOTS, seed, self.system, model=model,
                tolerance=TOLERANCE, max_iterations=30))
        for program, text in zip(self.parity, self.parity_texts):
            result.run("parity", program, lambda: run_submitted_circuit(
                text, program.shots, program.seed, self.system,
                model=Model.PER_JOB, app_nodes=1, sim_nodes=2))
        return result


# -- cluster_backlog ---------------------------------------------------------------

CLUSTER_NODES = 64
BACKLOG_JOBS = 1000
FAIL_EVERY = 10  # job i with i % FAIL_EVERY == FAIL_EVERY - 1 is single-task single_qc
WIDE_EVERY = 25  # job i with i % WIDE_EVERY == 0 asks for 16-32 nodes
POOL_SIZE = 48
STREAM_SHAPE_SEED = 20240828


class ClusterBacklog:
    """A stream of small hybrid jobs on one shared cluster, run FIFO and then
    with backfill.

    The stream's shape (arrivals, node counts, phases, tasks per job, which
    pool program each task runs) comes from a fixed generator, so every seed
    gives the scheduler the same work; the seed draws the programs' angles
    and every task's shot stream.
    """

    name = "cluster_backlog"

    def __init__(self, seed: int, out: Path, probe=None):
        rng = np.random.default_rng([seed, 3])
        shape = np.random.default_rng(STREAM_SHAPE_SEED)
        self.seed = seed
        self.probe = probe
        self.fifo = _system(out, "backlog-fifo", nodes=CLUSTER_NODES, device="statevec",
                            backfill="false")
        self.backfill = _system(out, "backlog-backfill", nodes=CLUSTER_NODES,
                                device="statevec", backfill="true")
        self.pool = []
        for k in range(POOL_SIZE):
            n, shots = 2 + (k // 3) % 5, 64 + 12 * (k % 17)
            if k % 3 == 0:
                program = P.random_layered(n, 2, shots, _seeds(rng))
            elif k % 3 == 1:
                program = P.ghz(n, shots, _seeds(rng))
            else:
                program = P.separable((1 + k % 4, 1 + (k // 4) % 3), shots, _seeds(rng))
            self.pool.append(program)
        self.pool_texts = [p.qasm() for p in self.pool]

        def tasks(picks):
            return (tuple(replace(self.pool[k], seed=_seeds(rng)) for k in picks),
                    tuple(self.pool_texts[k] for k in picks))

        # The single-task single_qc jobs fail on a fault in the cluster's
        # device hand-back; their spec does not depend on the seed.
        failing = P.ghz(2, 64, 7)
        self.jobs = []
        now = 0.0
        for i in range(BACKLOG_JOBS):
            now += float(shape.exponential(0.25))  # 4 arrivals/s outpace service
            job_id = f"job-{i:04d}"
            if i % FAIL_EVERY == FAIL_EVERY - 1:
                job = Job(job_id, Model.SINGLE_QC, 2, 0, (failing,), (failing.qasm(),),
                          (2.0, 2.0), now)
            elif i % WIDE_EVERY == 0:
                # A wide, long job at the queue head leaves idle nodes that
                # backfill can give to short jobs behind it.
                job = Job(job_id, Model.PER_JOB, int(shape.integers(8, 17)),
                          int(shape.integers(8, 17)),
                          *tasks(shape.integers(POOL_SIZE, size=2)),
                          (float(shape.uniform(10.0, 30.0)), float(shape.uniform(10.0, 30.0))),
                          now)
            else:
                model = Model.PER_JOB if shape.random() < 0.7 else Model.SINGLE_QC
                low = 1 if model is Model.PER_JOB else 2
                picks = shape.integers(POOL_SIZE, size=int(shape.integers(low, 4)))
                job = Job(job_id, model, int(shape.integers(1, 5)),
                          int(shape.integers(1, 5)) if model is Model.PER_JOB else 0,
                          *tasks(picks),
                          (float(shape.uniform(0.5, 8.0)), float(shape.uniform(0.5, 8.0))), now)
            self.jobs.append(job)
        self.warm = self.jobs[:40]

    def warm_up(self) -> None:
        run_cluster_jobs(self.backfill, self.warm, self.seed, "warm-up")[0].to_text()

    def run_round(self) -> RoundResult:
        result = RoundResult(self.probe)
        for label, system in (("fifo", self.fifo), ("backfill", self.backfill)):
            if self.probe is not None:
                self.probe(GAP_PROBES)
            probed = _probe_spent(self.probe)
            start = perf_counter()
            report, states, batches = run_cluster_jobs(
                system, self.jobs, self.seed, f"backlog-{label}", self.probe)
            text = report.to_text()
            probed = _probe_spent(self.probe) - probed
            result.piece_seconds.append(perf_counter() - start - probed)
            ok = sum(
                states[job.job_id] is JobState.COMPLETED
                and not any(o.error for o in batches[job.job_id].outcomes)
                for job in self.jobs
            )
            result.record(label, self.jobs, report, text, len(self.jobs), ok,
                          (states, batches))
        return result


WORKLOADS = {w.name: w for w in (StaticSampling, FeedforwardLoop, ClusterBacklog)}
