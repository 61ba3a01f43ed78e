"""Linear hybrid workflows: ordered quantum and classical stages.

A workflow file is an INI document with one ``[stage:<name>]`` section per
stage, executed in order.  Quantum stages name a QASM file and a shot count;
classical stages apply a builtin to the outputs of the quantum stages
accumulated since the previous classical stage (the "window").  A workflow
runs as one per_job hybrid job, like a ``submit``: its quantum stages are
tasks planned onto the job's simulation partition, and it ends as a
RunReport with one stage line per stage that ran.

Builtins:
    threshold_count <bitstring> <fraction>   last counts: freq >= fraction?
    mean_probability <bitstring>             mean frequency over the window
    select_max [<bitstring>]                 index of the max-frequency counts
                                             (default key: all zeros)

``parse_workflow`` reads every stage's shot count (at least 1), checks every
builtin's argument count, that a <fraction> is a number in [0, 1] and that a
<bitstring> is groups of 0/1 separated by single spaces, and checks that
every classical stage has a quantum stage in its window, so a bad value
fails with a ``ValidationError`` naming its stage before any stage runs.

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
import re
from dataclasses import dataclass
from pathlib import Path

from . import qtm
from .circuit import ValidationError
from .qasm import QasmError
from .report import RunReport, TaskRecord
from .resman import Model
from .scenarios import QuantumBatch, _run_job
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
    window = 0  # quantum stages since the last classical stage
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
            if shots < 1:
                raise ValidationError(f"stage {name!r}: shots: must be >= 1, got {shots}")
            stages.append(Stage(name, "quantum", qasm=qasm, shots=shots))
            window += 1
        elif kind == "classical":
            op = raw.get("op", "")
            if op not in BUILTINS:
                raise UnknownBuiltin(
                    f"stage {name!r}: unknown builtin {op!r} (have {', '.join(BUILTINS)})"
                )
            args = [a.strip() for a in raw.get("args", "").split(",") if a.strip()]
            stages.append(Stage(name, "classical", op=op, args=_builtin_args(name, op, args)))
            if not window:
                raise ValidationError(
                    f"stage {name!r}: no quantum stage since the previous classical stage"
                )
            window = 0
        else:
            raise ValidationError(f"stage {name!r} has unknown kind {kind!r}")
    if not stages:
        raise ValidationError("workflow has no stages")
    return WorkflowFile(tuple(stages), path.parent)


def _builtin_args(stage: str, op: str, args: list[str]) -> tuple:
    """Check a builtin's argument count and values, and read its <fraction>
    as a number."""
    params = BUILTINS[op]
    fewest = sum(not p.startswith("[") for p in params)
    if not fewest <= len(args) <= len(params):
        raise ValidationError(
            f"stage {stage!r}: args: {op} takes {', '.join(params)}, got {len(args)} arguments"
        )
    values = []
    for param, text in zip(params, args):
        if param != "<fraction>":
            if not re.fullmatch(r"[01]+( [01]+)*", text):
                raise ValidationError(
                    f"stage {stage!r}: args: {param} must be groups of 0 and 1 "
                    f"separated by single spaces, got {text!r}"
                )
            values.append(text)
            continue
        try:
            fraction = float(text)
        except ValueError:
            raise ValidationError(
                f"stage {stage!r}: args: {param} must be a number, got {text!r}"
            ) from None
        if not 0.0 <= fraction <= 1.0:  # nan compares false
            raise ValidationError(
                f"stage {stage!r}: args: {param} must be in [0, 1], got {text!r}"
            )
        values.append(fraction)
    return tuple(values)


def _all_zeros_key(counts: Counts) -> str:
    sample = next(iter(sorted(counts)), "")
    return "".join(" " if ch == " " else "0" for ch in sample)


def _apply_builtin(stage: Stage, window: list[Counts]):
    if stage.op == "threshold_count":
        key, threshold = stage.args
        return window[-1].frequency(key) >= threshold
    if stage.op == "mean_probability":
        (key,) = stage.args
        return sum(c.frequency(key) for c in window) / len(window)
    key = stage.args[0] if stage.args else None  # select_max
    best_index, best = 0, -1.0
    for i, counts in enumerate(window):
        freq = counts.frequency(key or _all_zeros_key(counts))
        if freq > best:
            best_index, best = i, freq
    return best_index


def run_workflow(file: str | Path, system: System, seed: int = 0) -> RunReport:
    """Run the stages in order as one per_job hybrid job, placed as
    ``submit`` places one (1 app node, 2 sim nodes), through ``_run_job``.

    Every quantum stage's QASM is read and parsed at admission, before the
    job is submitted, so a stage that cannot be read or parsed gives a
    failed report with no job and an empty event log.  In the job, quantum
    stages run as tasks on the job's simulation partition and classical
    stages run the named builtin on the current quantum window; a stage
    whose task fails ends the run, with stage lines up to the stage before,
    and the failure names the stage as an admission failure does.
    """
    wf = parse_workflow(file)
    circuits = {}
    failure = None
    for index, stage in enumerate(wf.stages):
        if stage.kind == "quantum":
            try:
                # qtm's name, as in run_submitted_circuit, so one hook sees every parse
                circuits[index] = qtm.parse_qasm((wf.base_dir / stage.qasm).read_text("utf-8"))
            except (OSError, QasmError, ValueError) as exc:
                failure = f"stage {stage.name!r}: {type(exc).__name__}: {exc}"
                break
    stage_lines: list[dict] = []

    def body(batch: QuantumBatch):
        window: list[Counts] = []
        for index, stage in enumerate(wf.stages):
            if stage.kind == "quantum":
                task = batch.submit(circuits[index], stage.shots,
                                    derive_seed(seed, "stage", index))
                (outcome,) = yield from batch.run_batch([task])
                if outcome.error is not None:
                    batch.failure = f"stage {stage.name!r}: {outcome.error}"
                    return
                window.append(outcome.counts)
                stage_lines.append({
                    "name": stage.name,
                    "kind": "quantum",
                    "placement": outcome.backend_id,
                    "service_time": f"{outcome.service_time:.9g}",
                    "counts": outcome.digest(),
                })
            else:
                value = _apply_builtin(stage, window)
                window = []
                stage_lines.append({
                    "name": stage.name,
                    "kind": "classical",
                    "placement": "classical",
                    "op": stage.op,
                    "value": str(value),
                })

    def answer(records: list[TaskRecord]) -> str:
        values = [line["value"] for line in stage_lines if line["kind"] == "classical"]
        return f"value={values[-1] if values else '-'}"

    return _run_job(system, "workflow", seed, Model.PER_JOB, 1, 2, body, answer,
                    stages=stage_lines, failure=failure)
