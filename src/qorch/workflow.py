"""Linear hybrid workflows: ordered quantum and classical stages.

A workflow file is an INI document with one ``[stage:<name>]`` section per
stage, executed in order.  Quantum stages name a QASM file and a shot count
and route through the task manager; classical stages apply a builtin to the
outputs of the quantum stages accumulated since the previous classical stage
(the "window").

Builtins:
    threshold_count <bitstring> <fraction>   last counts: freq >= fraction?
    mean_probability <bitstring>             mean frequency over the window
    select_max [<bitstring>]                 index of the max-frequency counts
                                             (default key: all zeros)

``parse_workflow`` reads every stage's shot count and checks every builtin's
argument count and numbers, so a bad value fails with a ``ValidationError``
naming its stage and key before any stage runs.

Example:

    [stage:prepare]
    kind = quantum
    qasm = bell.qasm
    shots = 1000

    [stage:check]
    kind = classical
    op = threshold_count
    args = 11, 0.4
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .circuit import ValidationError
from .report import RunReport, TaskRecord, counts_digest
from .seeds import derive_seed
from .statevec import Counts
from .system import System

# each builtin's parameters: a [bracketed] one may be left out, and a
# <fraction> is read as a number
BUILTINS = {
    "threshold_count": ("<bitstring>", "<fraction>"),
    "mean_probability": ("<bitstring>",),
    "select_max": ("[<bitstring>]",),
}


class UnknownBuiltin(ValueError):
    pass


class StageFailure(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class Stage:
    name: str
    kind: str  # "quantum" | "classical"
    qasm: str | None = None
    shots: int = 0
    op: str | None = None
    args: tuple = ()  # a builtin's arguments, a <fraction> as a float


@dataclass(frozen=True)
class WorkflowFile:
    stages: tuple[Stage, ...]
    base_dir: Path


def parse_workflow(path: str | Path) -> WorkflowFile:
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(path.read_text("utf-8"))
    stages: list[Stage] = []
    names: set[str] = set()
    for section in parser.sections():
        if not section.startswith("stage:"):
            raise ValidationError(f"unexpected section [{section}]")
        name = section.split(":", 1)[1]
        if name in names:
            raise ValidationError(f"duplicate stage name {name!r}")
        names.add(name)
        raw = parser[section]
        kind = raw.get("kind", "")
        if kind == "quantum":
            qasm = raw.get("qasm")
            if not qasm:
                raise ValidationError(f"quantum stage {name!r} needs a qasm file")
            shots = raw.get("shots", "1024")
            try:
                shots = int(shots)
            except ValueError:
                raise ValidationError(
                    f"stage {name!r}: shots: expected int, got {shots!r}"
                ) from None
            stages.append(Stage(name, "quantum", qasm=qasm, shots=shots))
        elif kind == "classical":
            op = raw.get("op", "")
            if op not in BUILTINS:
                raise UnknownBuiltin(
                    f"stage {name!r}: unknown builtin {op!r} (have {', '.join(BUILTINS)})"
                )
            args = [a.strip() for a in raw.get("args", "").split(",") if a.strip()]
            stages.append(Stage(name, "classical", op=op, args=_builtin_args(name, op, args)))
        else:
            raise ValidationError(f"stage {name!r} has unknown kind {kind!r}")
    if not stages:
        raise ValidationError("workflow has no stages")
    return WorkflowFile(tuple(stages), path.parent)


def _builtin_args(stage: str, op: str, args: list[str]) -> tuple:
    """Check a builtin's argument count and read its <fraction> as a number."""
    params = BUILTINS[op]
    fewest = sum(not p.startswith("[") for p in params)
    if not fewest <= len(args) <= len(params):
        raise ValidationError(
            f"stage {stage!r}: args: {op} takes {', '.join(params)}, got {len(args)} arguments"
        )
    values = []
    for param, text in zip(params, args):
        if param == "<fraction>":
            try:
                text = float(text)
            except ValueError:
                raise ValidationError(
                    f"stage {stage!r}: args: {param} must be a number, got {text!r}"
                ) from None
        values.append(text)
    return tuple(values)


def _all_zeros_key(counts: Counts) -> str:
    sample = next(iter(sorted(counts)), "")
    return "".join(" " if ch == " " else "0" for ch in sample)


def _apply_builtin(stage: Stage, window: list[Counts]):
    if not window:
        raise StageFailure(stage.name, "no quantum output to post-process")
    if stage.op == "threshold_count":
        key, threshold = stage.args
        return window[-1].frequency(key) >= threshold
    if stage.op == "mean_probability":
        (key,) = stage.args
        return sum(c.frequency(key) for c in window) / len(window)
    if stage.op == "select_max":
        key = stage.args[0] if stage.args else None
        best_index, best = 0, -1.0
        for i, counts in enumerate(window):
            freq = counts.frequency(key or _all_zeros_key(counts))
            if freq > best:
                best_index, best = i, freq
        return best_index
    raise UnknownBuiltin(stage.op or "")


def run_workflow(file: str | Path | WorkflowFile, system: System,
                 seed: int = 0) -> RunReport:
    """Execute stages in order; quantum stages route through the task manager,
    classical stages run the named builtin on the current quantum window.

    Every quantum stage's QASM is read and normalized before any stage runs,
    so a stage that cannot parse fails the workflow before it starts."""
    wf = file if isinstance(file, WorkflowFile) else parse_workflow(file)
    tm = system.task_manager()
    admitted = {}
    for index, stage in enumerate(wf.stages):
        if stage.kind == "quantum":
            try:
                source = (wf.base_dir / stage.qasm).read_text("utf-8")
                admitted[index] = tm.normalize(source, stage.shots,
                                               derive_seed(seed, "stage", index))
            except Exception as exc:
                raise StageFailure(stage.name, f"{type(exc).__name__}: {exc}") from exc
    tasks: list[TaskRecord] = []
    stage_lines: list[dict] = []
    window: list[Counts] = []
    makespan = 0.0
    value = None
    for index, stage in enumerate(wf.stages):
        if stage.kind == "quantum":
            try:
                result = tm.execute_task(admitted[index])
            except Exception as exc:
                raise StageFailure(stage.name, f"{type(exc).__name__}: {exc}") from exc
            window.append(result.counts)
            makespan += result.modeled_service_time
            tasks.append(
                TaskRecord(
                    result.task_id, result.backend_id, result.queue_wait,
                    result.modeled_service_time, result.counts,
                )
            )
            stage_lines.append(
                {
                    "name": stage.name,
                    "kind": "quantum",
                    "placement": result.backend_id,
                    "service_time": f"{result.modeled_service_time:.9g}",
                    "counts": counts_digest(result.counts),
                }
            )
        else:
            value = _apply_builtin(stage, window)
            window = []
            stage_lines.append(
                {
                    "name": stage.name,
                    "kind": "classical",
                    "placement": "classical",
                    "op": stage.op,
                    "value": str(value),
                }
            )
    answer = f"value={value}" if value is not None else "value=-"
    return RunReport(
        scenario="workflow",
        seed=seed,
        model="-",
        status="ok",
        answer=answer,
        metrics={"makespan": makespan},
        tasks=tasks,
        stages=stage_lines,
        config_text=system.config.text,
        event_lines="",
    )
