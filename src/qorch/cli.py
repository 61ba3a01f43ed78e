"""Command-line entry point.

    qorch [--config FILE] submit <file.qasm> --shots N --seed S ...
    qorch [--config FILE] scenario <single_circuit|ensemble|in_sequence> ...
    qorch [--config FILE] workflow <file>
    qorch backends list
    qorch report <run-dir>

Every run writes a report, an event log, and a config snapshot into the run
directory (--out, default runs/<command>-s<seed>).  Exit codes: 0 success,
1 usage error, 2 execution failure.  A failed run (a failed task, a program
or workflow stage refused at admission, an in_sequence loop that does not
converge) still writes its run directory and prints ``execution failed:
<reason>``; a bad parameter, config or workflow file exits 2 before anything
runs and writes nothing.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .report import render_summary
from .resman import Model
from .scenarios import run_ensemble, run_in_sequence, run_single_circuit, run_submitted_circuit
from .system import System
from .workflow import run_workflow


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="qorch", description="hybrid quantum/classical orchestration")
    parser.add_argument("--config", help="system config file (or set QORCH_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_default="per_job"):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--model", choices=[m.value for m in Model], default=model_default)
        p.add_argument("--app-nodes", type=int, default=1)
        p.add_argument("--sim-nodes", type=int, default=2)
        p.add_argument("--out", help="run directory (default runs/<command>-s<seed>)")

    p = sub.add_parser("submit", help="run one QASM program as a hybrid job")
    p.add_argument("qasm", help="OpenQASM 2.0 file")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--backend", help="preferred backend id")
    p.add_argument("--workers", type=int, help="preferred worker count (power of two)")
    common(p)

    p = sub.add_parser("scenario", help="run a usage-pattern scenario")
    p.add_argument("pattern", choices=["single_circuit", "ensemble", "in_sequence"])
    p.add_argument("--n", type=int, default=3, help="qubit count")
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--k", type=int, default=4, help="ensemble circuit count")
    p.add_argument("--layers", type=int, default=2, help="ensemble layer count")
    p.add_argument("--theta", type=float, default=0.3, help="in_sequence start angle")
    p.add_argument("--tolerance", type=float, default=0.02)
    p.add_argument("--max-iterations", type=int, default=30)
    common(p)

    p = sub.add_parser("workflow", help="run a linear hybrid workflow file")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("backends", help="inspect configured backends")
    p.add_argument("action", choices=["list"])

    p = sub.add_parser("report", help="re-render a run directory's report")
    p.add_argument("run_dir")
    return parser


def _run_dir(args, name: str) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    seed = getattr(args, "seed", 0)
    return Path("runs") / f"{name}-s{seed}"


def _finish(report, run_dir: Path) -> int:
    """Write the run directory; a failed run exits 2 and says why on stderr."""
    out = report.write(run_dir)
    print(f"report written to {out}")
    if report.status == "ok":
        return 0
    print(f"execution failed: {report.failure}", file=sys.stderr)
    return 2


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "report":
            sys.stdout.write(render_summary(args.run_dir))
            return 0

        system = System(load_config(args.config))

        if args.command == "backends":
            for desc in system.registry.list():
                cal = system.registry.get_calibration(desc.id)
                print(
                    f"{desc.id} kind={desc.kind.value} max_qubits={desc.max_qubits} "
                    f"mid_circuit={str(desc.supports_mid_circuit).lower()} "
                    f"conditionals={str(desc.supports_conditionals).lower()} "
                    f"readout_flip_p={cal.readout_flip_probability:g}"
                )
            return 0

        if args.command in ("submit", "scenario"):
            place = dict(model=args.model, app_nodes=args.app_nodes, sim_nodes=args.sim_nodes)
        if args.command == "submit":
            source = Path(args.qasm).read_text("utf-8")
            report = run_submitted_circuit(
                source, args.shots, args.seed, system,
                backend_id=args.backend, workers=args.workers, **place,
            )
            return _finish(report, _run_dir(args, "submit"))

        if args.command == "scenario":
            if args.pattern == "single_circuit":
                report = run_single_circuit(args.n, args.shots, args.seed, system, **place)
            elif args.pattern == "ensemble":
                report = run_ensemble(
                    args.k, args.n, args.layers, args.shots, args.seed, system, **place
                )
            else:
                report = run_in_sequence(
                    args.theta, args.shots, args.seed, system,
                    tolerance=args.tolerance, max_iterations=args.max_iterations, **place,
                )
            return _finish(report, _run_dir(args, f"scenario-{args.pattern}"))

        if args.command == "workflow":
            report = run_workflow(args.file, system, seed=args.seed)
            return _finish(report, _run_dir(args, "workflow"))

        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, FileNotFoundError) as exc:
        print(f"execution failed: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"execution failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
