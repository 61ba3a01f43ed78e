"""Run reports: line-delimited, diff-friendly records of one system run.

Field order is fixed so identical (config, scenario, seed) runs produce
byte-identical files.  No wall-clock timestamps appear anywhere; every time
is a logical-model value.  Bitstring keys print the creg separator as '.'
inside dist fields so task lines stay space-delimited.

    qorch-report 1
    scenario <id>
    seed <int>
    model <single_qc|per_job>
    status <ok|failed>
    answer <text>
    metric <name> <value>          (sorted by name)
    task <id> backend=<id> queue_wait=<s> service_time=<s> counts=<digest> dist=<k:v;...> [error=<text>]
    iteration <i> <k>=<v> ...
    stage <name> <k>=<v> ...
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .statevec import Counts

REPORT_FILE = "report.txt"
EVENTS_FILE = "events.log"
CONFIG_FILE = "config.ini"


def _digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def counts_fields(counts: Counts | None) -> tuple[str, str]:
    """The ``counts=`` digest and the ``dist=`` field of a task line, both
    from one canonical line: dist is the line with '.' for each space,
    since only keys hold spaces."""
    if counts is None:
        return "-", "-"
    line = counts.canonical_line()
    return _digest(line), line.replace(" ", ".") or "-"


def _num(value: float) -> str:
    return f"{value:.9g}"


@dataclass
class TaskRecord:
    """One task of a run, rendered as its report line.

    The line's ``counts=`` digest and ``dist=`` field come from one
    canonical line of the counts.  ``digest()``, which a ``submit`` answer
    and a workflow's stage line read before the report is rendered, builds
    both and keeps them on the record; ``to_line`` renders the kept fields,
    or builds them when none are kept, and drops them, so a rendered report
    does not hold each dist twice.  Rendering a record therefore changes
    it, and a later ``digest()`` builds the line again."""

    task_id: str
    backend_id: str
    queue_wait: float
    service_time: float
    counts: Counts | None = None
    error: str | None = None
    _fields: tuple[str, str] | None = field(default=None, init=False, repr=False, compare=False)

    def digest(self) -> str:
        """The ``counts=`` digest of the task line."""
        if self._fields is None:
            self._fields = counts_fields(self.counts)
        return self._fields[0]

    def to_line(self) -> str:
        digest, dist = self._fields or counts_fields(self.counts)
        self._fields = None
        parts = [
            "task",
            self.task_id,
            f"backend={self.backend_id}",
            f"queue_wait={_num(self.queue_wait)}",
            f"service_time={_num(self.service_time)}",
            f"counts={digest}",
            f"dist={dist}",
        ]
        if self.error:
            parts.append(f"error={self.error.replace(' ', '_')}")
        return " ".join(parts)


@dataclass
class RunReport:
    scenario: str
    seed: int
    model: str
    status: str = "ok"
    answer: str = "-"
    metrics: dict[str, float] = field(default_factory=dict)
    tasks: list[TaskRecord] = field(default_factory=list)
    iterations: list[dict] = field(default_factory=list)
    stages: list[dict] = field(default_factory=list)
    config_text: str = ""
    event_lines: str = ""
    failure: str | None = None  # why a failed run failed; not written to report.txt

    def to_lines(self) -> list[str]:
        lines = [
            "qorch-report 1",
            f"scenario {self.scenario}",
            f"seed {self.seed}",
            f"model {self.model}",
            f"status {self.status}",
            f"answer {self.answer}",
        ]
        for name in sorted(self.metrics):
            lines.append(f"metric {name} {_num(self.metrics[name])}")
        for record in self.tasks:
            lines.append(record.to_line())
        for i, fields in enumerate(self.iterations):
            kv = " ".join(f"{k}={v}" for k, v in fields.items())
            lines.append(f"iteration {i} {kv}")
        for fields in self.stages:
            kv = " ".join(f"{k}={v}" for k, v in fields.items() if k != "name")
            lines.append(f"stage {fields['name']} {kv}")
        return lines

    def to_text(self) -> str:
        return "\n".join(self.to_lines()) + "\n"

    def write(self, run_dir: str | Path) -> Path:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / REPORT_FILE).write_text(self.to_text(), encoding="utf-8")
        (run_dir / EVENTS_FILE).write_text(self.event_lines, encoding="utf-8")
        if self.config_text:
            (run_dir / CONFIG_FILE).write_text(self.config_text, encoding="utf-8")
        return run_dir


def read_report_text(run_dir: str | Path) -> str:
    return (Path(run_dir) / REPORT_FILE).read_text(encoding="utf-8")


def render_summary(run_dir: str | Path) -> str:
    """Human-oriented re-rendering of a written report (the `report` command)."""
    text = read_report_text(run_dir)
    head: dict[str, str] = {}
    metrics: list[str] = []
    tasks: list[str] = []
    other = 0
    for line in text.splitlines():
        fields = line.split(" ", 2)
        if not fields:
            continue
        if fields[0] in ("scenario", "seed", "model", "status", "answer"):
            head[fields[0]] = line.split(" ", 1)[1]
        elif fields[0] == "metric":
            metrics.append(f"  {fields[1]} = {fields[2]}")
        elif fields[0] == "task":
            tasks.append("  " + line[5:])
        elif fields[0] in ("iteration", "stage"):
            other += 1
    out = [
        f"scenario: {head.get('scenario', '?')}  seed: {head.get('seed', '?')}  "
        f"model: {head.get('model', '?')}  status: {head.get('status', '?')}",
        f"answer: {head.get('answer', '-')}",
    ]
    if metrics:
        out.append("metrics:")
        out.extend(metrics)
    if tasks:
        out.append(f"tasks ({len(tasks)}):")
        out.extend(tasks)
    if other:
        out.append(f"({other} iteration/stage lines)")
    return "\n".join(out) + "\n"
