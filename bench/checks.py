"""Correctness checks on one round's outputs.

Every check compares against a computation made apart from qorch (see
``reference.py``) or against a property the method must have, never against
stored output.  Sampled quantities must fall inside a 5-sigma binomial band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference
from qorch.resman import JobState

SIGMAS = 5.0
TAIL = 2.87e-7  # one-sided normal tail beyond 5 sigma
EPS = 1e-4  # events.log prints times with 9 significant digits
DEVICE_FAULT = "TypeError: 'DeviceGrant' object is not iterable"


class Checks:
    """Collects named verdicts; a check passes only if every case in it did."""

    def __init__(self):
        self.verdicts: dict[str, list] = {}

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.verdicts.setdefault(name, [True, 0, ""])
        entry[1] += 1
        if not ok and entry[0]:
            entry[0], entry[2] = False, detail

    @property
    def passed(self) -> bool:
        return all(ok for ok, _, _ in self.verdicts.values())

    def lines(self) -> list[str]:
        return [
            f"check {name}: {'PASS' if ok else 'FAIL'} ({cases} cases){' ' + detail if detail else ''}"
            for name, (ok, cases, detail) in self.verdicts.items()
        ]


def in_band(count: float, shots: int, p: float) -> bool:
    """Is ``count`` a plausible Binomial(shots, p) draw at the 5-sigma level?

    Uses the normal band when the variance is large and the exact binomial
    tail otherwise, where the normal band is far too narrow for rare outcomes.
    """
    if p <= 0.0 or p >= 1.0:
        return count == (shots if p >= 1.0 else 0)
    if p > 0.5:
        count, p = shots - count, 1.0 - p
    variance = shots * p * (1.0 - p)
    if variance >= 100.0:
        return abs(count - shots * p) <= SIGMAS * math.sqrt(variance) + 1.0
    count = int(round(count))
    # Sum the tail from ``count`` outward, largest terms first.
    ks = range(count, shots + 1) if count > shots * p else range(count, -1, -1)
    log_p, log_q = math.log(p), math.log1p(-p)
    tail = 0.0
    for k in ks:
        term = math.exp(math.lgamma(shots + 1) - math.lgamma(k + 1) - math.lgamma(shots - k + 1)
                        + k * log_p + (shots - k) * log_q)
        tail += term
        if tail >= TAIL or term < 1e-30 * tail:
            break
    return tail >= TAIL


def bit_counts(counts, width: int) -> np.ndarray:
    """Number of shots with qubit q = 1, for a single creg of ``width`` bits
    written by ``measure q[j] -> c[j]``."""
    ones = np.zeros(width)
    for key, n in counts.items():
        bits = np.frombuffer(key.encode("ascii"), dtype=np.uint8)[::-1] == ord("1")
        ones += bits * n
    return ones


def check_total(checks: Checks, record, shots: int) -> None:
    checks.record("counts_total_shots",
                  record.counts is not None and record.counts.total() == shots,
                  f"{record.task_id}: counts do not total {shots} shots")


def check_ghz(checks: Checks, counts, program) -> None:
    n, shots = program.num_qubits, program.shots
    zeros, ones = "0" * n, "1" * n
    checks.record("ghz", set(counts) <= {zeros, ones}, f"{program.name}: non-GHZ outcome")
    checks.record("ghz", in_band(counts.get(zeros, 0), shots, 0.5),
                  f"{program.name}: P(0..0) off Binomial(shots, 1/2)")


def check_marginals(checks: Checks, counts, program, flip: float = 0.0,
                    name="random_marginals") -> None:
    exact = reference.qubit_marginals(program)
    observed = exact * (1.0 - flip) + (1.0 - exact) * flip
    ones = bit_counts(counts, program.num_qubits)
    for q in range(program.num_qubits):
        checks.record(name, in_band(ones[q], program.shots, observed[q]),
                      f"{program.name} q{q}: {ones[q]} vs p={observed[q]:.4f}")


def check_separable(checks: Checks, counts, program) -> None:
    """Each block reads all-0 or all-1 with its analytic probability, and the
    blocks are independent: every joint block pattern has the product law."""
    n = program.num_qubits
    joint: dict[tuple[int, ...], int] = {}
    valid = True
    for key, c in counts.items():
        pattern = []
        for qubits, _ in program.blocks:
            bits = {key[n - 1 - q] for q in qubits}
            valid &= len(bits) == 1
            pattern.append(int(bits.pop()))
        joint[tuple(pattern)] = joint.get(tuple(pattern), 0) + c
    checks.record("cut_aggregate", valid, f"{program.name}: a block read mixed bits")
    for pattern in np.ndindex(*(2,) * len(program.blocks)):
        p = 1.0
        for bit, (_, p_one) in zip(pattern, program.blocks):
            p *= p_one if bit else 1.0 - p_one
        checks.record("cut_aggregate", in_band(joint.get(tuple(pattern), 0), program.shots, p),
                      f"{program.name}: pattern {pattern} off product law")


def check_workflow_values(checks: Checks, report) -> None:
    """Classical stages see the quantum window before them: mean_probability
    is the mean all-zeros frequency of the first two stages, threshold_count
    at fraction 0 holds."""
    values = {stage["name"]: stage.get("value") for stage in report.stages}
    zeros = [record.counts.frequency("0" * len(next(iter(record.counts))))
             for record in report.tasks[:2]]
    checks.record("workflow_classical",
                  math.isclose(float(values["mean0"]), sum(zeros) / 2, rel_tol=1e-12, abs_tol=1e-15)
                  and values["check"] == "True", f"stage values {values}")


def check_mock_hw_ghz(checks: Checks, counts, program, flip: float) -> None:
    n = program.num_qubits
    p = 0.5 * (1 - flip) ** n + 0.5 * flip**n
    checks.record("mock_hw_ghz", in_band(counts.get("0" * n, 0), program.shots, p),
                  f"{program.name}: P(0..0) vs {p:.5f}")


def check_teleport(checks: Checks, report, tolerance: float, shots: int) -> None:
    for fields, record in zip(report.iterations, report.tasks):
        check_total(checks, record, shots)
        theta, counts = float(fields["theta"]), record.counts
        m0 = sum(c for k, c in counts.items() if k.split()[0] == "1")
        m1 = sum(c for k, c in counts.items() if k.split()[1] == "1")
        out = sum(c for k, c in counts.items() if k.split()[2] == "1")
        checks.record("teleport", in_band(out, shots, math.sin(theta / 2) ** 2),
                      f"theta={theta}: P(out=1)={out / shots:.4f}")
        checks.record("teleport", in_band(m0, shots, 0.5) and in_band(m1, shots, 0.5),
                      f"theta={theta}: m0/m1 not uniform")
    checks.record("teleport", len(report.iterations) == len(report.tasks) > 0
                  and abs(float(report.iterations[-1]["p1"]) - 0.5) <= tolerance,
                  "loop did not end within tolerance of 1/2")


def check_parity(checks: Checks, counts, program) -> None:
    dist = reference.branch_distribution(program)
    for key in set(dist) | set(counts):
        checks.record("parity_rounds", in_band(counts.get(key, 0), program.shots, dist.get(key, 0.0)),
                      f"{program.name} {key}: {counts.get(key, 0)} vs p={dist.get(key, 0.0):.5f}")


# -- cluster log -------------------------------------------------------------------


@dataclass
class LogStats:
    events: int = 0
    queue_depth_max: int = 0
    backfilled_jobs: int = 0
    device_wait_model_s: float = 0.0


def _parse_log(text: str):
    for line in text.splitlines():
        time, kind, job, *rest = line.split(" ", 3)
        payload = {}
        if rest:
            for item in rest[0].split(","):
                key, _, value = item.partition("=")
                payload[key] = value
        yield float(time), kind, job, payload


def _nodes(field: str) -> set[int]:
    return set() if field == "-" else {int(n) for n in field.split("+")}


def log_stats(text: str) -> LogStats:
    """Event count, deepest queue, backfilled grants and modelled device
    wait, from an events.log."""
    stats = LogStats()
    queue: list[str] = []
    for _, kind, job, payload in _parse_log(text):
        stats.events += 1
        if kind == "submit":
            queue.append(job)
        elif kind == "grant":
            stats.backfilled_jobs += queue[0] != job
            queue.remove(job)
        elif kind == "device_acquire":
            stats.device_wait_model_s += float(payload["wait"])
        stats.queue_depth_max = max(stats.queue_depth_max, len(queue))
    return stats


def replay_cluster_log(checks: Checks, text: str, jobs, total_nodes: int,
                       backfill: bool) -> None:
    """Rebuild the run from its events.log and check the scheduler invariants."""
    spec = {job.job_id: job for job in jobs}
    queue: list[str] = []
    owner: dict[int, str] = {}
    running: dict[str, tuple[float, int]] = {}  # job -> (projected end, nodes)
    granted: dict[str, float] = {}
    ended: dict[str, float] = {}
    promises: list[tuple[str, float, str]] = []  # (head, projected start, backfilled job)
    holder, last_request = None, -math.inf
    for time, kind, job, payload in _parse_log(text):
        if kind == "submit":
            queue.append(job)
        elif kind == "grant":
            checks.record("cluster_grant_once", job not in granted and job in queue, job)
            app, sim = _nodes(payload["app"]), _nodes(payload["sim"])
            checks.record("cluster_app_sim_disjoint", not app & sim, job)
            clash = [n for n in app | sim if n in owner]
            checks.record("cluster_node_exclusive", not clash, f"{job} takes {clash}")
            for node in app | sim:
                owner[node] = job
            if queue and queue[0] != job:
                checks.record("cluster_fifo_order", backfill, f"{job} overtook {queue[0]}")
                head = spec[queue[0]]
                promises.append((head.job_id, _earliest_start(
                    head.app_nodes + head.sim_nodes, total_nodes - len(owner) + len(app | sim),
                    time, running), job))
            if job in queue:
                queue.remove(job)
            granted[job] = time
            running[job] = (time + spec[job].projected_duration, len(app | sim))
        elif kind in ("complete", "fail"):
            checks.record("cluster_end_once", job in granted and job not in ended, job)
            ended[job] = time
            running.pop(job, None)
            for node in [n for n, j in owner.items() if j == job]:
                del owner[node]
        elif kind == "device_acquire":
            checks.record("device_exclusive", holder is None, f"{job} while {holder} holds")
            holder = job
            requested = time - float(payload["wait"])
            checks.record("device_request_order", requested >= last_request - EPS,
                          f"{job} requested at {requested}")
            last_request = max(last_request, requested)
        elif kind == "device_release":
            checks.record("device_exclusive", holder == job, f"{job} released {holder}")
            holder = None
    checks.record("cluster_all_ended", set(ended) == set(spec) and not queue,
                  f"{len(spec) - len(ended)} jobs never ended")
    for job_id, end in ended.items():
        duration = end - granted[job_id]
        checks.record("cluster_projection_bounds_duration",
                      duration <= spec[job_id].projected_duration + EPS,
                      f"{job_id} ran {duration} > {spec[job_id].projected_duration}")
    for head, start, job in promises:
        checks.record("backfill_keeps_head_start",
                      granted.get(head, math.inf) <= start + EPS and ended[job] <= start + EPS,
                      f"{job} backfilled past {head}'s projected start {start}")


def _earliest_start(need: int, free: int, now: float, running) -> float:
    if free >= need:
        return now
    for end, nodes in sorted(running.values()):
        free += nodes
        if free >= need:
            return end
    return math.inf


def check_cluster_run(checks: Checks, label, jobs, report, extra, total_nodes: int) -> None:
    states, batches = extra
    replay_cluster_log(checks, report.event_lines, jobs, total_nodes, backfill=label == "backfill")
    # Only the single-task single_qc jobs may fail, and only on the known
    # device hand-back fault.  Once that fault is mended they complete and
    # are checked like every other job.
    reasons = {job: payload.get("reason", "")
               for _, kind, job, payload in _parse_log(report.event_lines) if kind == "fail"}
    allowed = {job.job_id for job in jobs if job.must_fail}
    failed = {job_id for job_id, state in states.items() if state is JobState.FAILED}
    checks.record("failures_are_device_fault", failed <= allowed,
                  f"{label}: {len(failed - allowed)} jobs failed outside the single-task single_qc set")
    checks.record("failures_are_device_fault",
                  all(reasons.get(j) == DEVICE_FAULT for j in failed),
                  f"{label}: a job failed for another reason")
    marginals_cache: dict[int, np.ndarray] = {}
    for job in jobs:
        outcomes = batches[job.job_id].outcomes
        if job.job_id in failed:
            continue
        checks.record("cluster_tasks_ok",
                      len(outcomes) == len(job.programs) and not any(o.error for o in outcomes),
                      f"{job.job_id}: task error")
        for program, outcome in zip(job.programs, outcomes):
            if outcome.counts is None:
                continue
            check_total(checks, outcome, program.shots)
            exact = marginals_cache.get(id(program.ops))
            if exact is None:
                exact = marginals_cache[id(program.ops)] = reference.qubit_marginals(program)
            ones = bit_counts(outcome.counts, program.num_qubits)
            for q in range(program.num_qubits):
                checks.record("cluster_task_marginals",
                              in_band(ones[q], program.shots, exact[q]),
                              f"{outcome.task_id} q{q}")

