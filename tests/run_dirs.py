"""Write a fixed set of CLI run directories from this checkout.

    python tests/run_dirs.py OUT

runs, with the ``src/`` next to this file:

- 11 scenarios, seed 5: single_circuit, ensemble and in_sequence under
  per_job and single_qc, two single_qc ensembles (seeds 5 and 6) on the
  default config with ``device = mock-hw``, a per_job ensemble whose
  tasks plan as gangs and cut pieces, on the default config with
  ``local_qubits_per_worker = 2`` and 3 sim nodes, and a per_job and a
  single_qc ensemble on ``keys.ini``, the default config with
  ``device = mock-hw``, ``local_qubits_per_worker = 2`` and a new value for
  every timing coefficient, the flip probability and mock-hw's
  ``max_qubits``;
- a per_job and a single_qc ``submit`` of every ``tests/corpus/valid``
  program, 1024 shots, seed 5;
- a ``workflow`` run, seed 5, of ``OUT/workflow-files/flow.ini``: quantum
  stages on the bell, ghz5 and teleport corpus programs, copied next to it,
  and classical stages that use each of the three builtins.

Each run writes ``OUT/<name>/{report.txt,events.log,config.ini}``, and one
line per run, ``<name> exit=<code>``, goes to stdout.  Two checkouts give
the same reports when ``diff -r`` of their OUT directories is clean.
"""
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qorch.cli import cli_main  # noqa: E402

MODELS = ("per_job", "single_qc")

WORKFLOW = """\
[stage:bell]
kind = quantum
qasm = bell.qasm
shots = 1024

[stage:bell-11]
kind = classical
op = threshold_count
args = 11, 0.45

[stage:ghz5]
kind = quantum
qasm = ghz5.qasm
shots = 1024

[stage:ghz5-again]
kind = quantum
qasm = ghz5.qasm
shots = 256

[stage:ghz5-ones]
kind = classical
op = mean_probability
args = 11111

[stage:teleport]
kind = quantum
qasm = teleport.qasm
shots = 1024

[stage:pick]
kind = classical
op = select_max
"""


def write_config(path: Path, *edits) -> Path:
    """Write the default config to ``path`` with each ``(old, new)`` line
    replaced; a line the default config lacks is an error, not a no-op."""
    text = (ROOT / "src" / "qorch" / "data" / "default.ini").read_text("utf-8")
    for old, new in edits:
        if f"\n{old}\n" not in text:
            raise ValueError(f"default.ini has no line {old!r}")
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    path.write_text(text, "utf-8")
    return path


def runs(out: Path):
    """(name, argv) of every run, in order."""
    mock_hw = write_config(out / "mock-hw.ini", ("device = statevec", "device = mock-hw"))
    gangs = write_config(out / "gangs.ini",
                         ("local_qubits_per_worker = 20", "local_qubits_per_worker = 2"))
    keys = write_config(
        out / "keys.ini",
        ("device = statevec", "device = mock-hw"),
        ("alpha = 1e-3", "alpha = 2e-3"),
        ("beta = 1e-9", "beta = 3e-9"),
        ("gamma = 1e-9", "gamma = 5e-9"),
        ("max_qubits = 12", "max_qubits = 10"),
        ("readout_flip_probability = 0.02", "readout_flip_probability = 0.05"),
        ("alpha_q = 1.0", "alpha_q = 0.5"),
        ("beta_q = 1e-6", "beta_q = 2e-6"),
        ("local_qubits_per_worker = 20", "local_qubits_per_worker = 2"),
    )
    for model in MODELS:
        for pattern in ("single_circuit", "ensemble", "in_sequence"):
            yield f"scenario-{pattern}-{model}", ["scenario", pattern, "--seed", "5",
                                                  "--model", model]
    for seed in ("5", "6"):
        yield f"scenario-ensemble-single_qc-mock-hw-s{seed}", [
            "--config", str(mock_hw), "scenario", "ensemble", "--seed", seed,
            "--model", "single_qc"]
    yield "scenario-ensemble-per_job-gangs", [
        "--config", str(gangs), "scenario", "ensemble", "--k", "5", "--n", "4",
        "--sim-nodes", "3", "--seed", "5"]
    for model in MODELS:
        yield f"scenario-ensemble-{model}-keys", [
            "--config", str(keys), "scenario", "ensemble", "--k", "3", "--n", "4",
            "--seed", "5", "--model", model]
    corpus = ROOT / "tests" / "corpus" / "valid"
    for program in sorted(corpus.glob("*.qasm")):
        for model in MODELS:
            yield f"submit-{program.stem}-{model}", ["submit", str(program), "--shots", "1024",
                                                     "--seed", "5", "--model", model]
    files = out / "workflow-files"
    files.mkdir(exist_ok=True)
    for stem in ("bell", "ghz5", "teleport"):
        (files / f"{stem}.qasm").write_bytes((corpus / f"{stem}.qasm").read_bytes())
    (files / "flow.ini").write_text(WORKFLOW, "utf-8")
    yield "workflow", ["workflow", str(files / "flow.ini"), "--seed", "5"]


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for name, args in runs(out):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(args + ["--out", str(out / name)])
        print(f"{name} exit={code}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
