"""Hash what the benchmark's programs compute, so two checkouts can be compared.

    python3 tools/run_hashes.py --seed 1
    python3 tools/run_hashes.py --seed 7 --workload cluster_backlog

Imports qorch and the benchmark modules from the checkout this script sits
in.  For each workload of ``bench/workloads.py`` it builds the inputs from
the seed, runs the warm-up and one round, and wraps ``qorch.qpm.run`` (the
name both engines call, as ``bench/tracing.py`` wraps it) meanwhile.  It
prints one line per workload: the number of ``statevec.run`` calls, a
SHA-256 over each call's sorted counts and ``ExecutionTrace`` fields, in
call order, the round's digest (``RoundSummary.digest``, over every report
and event log the round rendered) and a digest over the round's report texts
alone, each with its event log cut off, so a change that alters only
``events.log`` can still show that ``report.txt`` did not change.  The last
line is one JSON object with the same fields.  Two checkouts compute the same
when their outputs are equal; so does one checkout under two
``PYTHONHASHSEED`` values.
"""
import os

# One BLAS thread, as bench/run.py pins it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from qorch import qpm  # noqa: E402

import workloads  # noqa: E402


def workload_hashes(name: str, seed: int) -> dict:
    """Warm-up and one round of ``name`` at ``seed``, with every
    ``statevec.run`` call hashed."""
    calls = 0
    runs = hashlib.sha256()
    original = qpm.run

    def hashed_run(*args, **kwargs):
        nonlocal calls
        counts, trace = original(*args, **kwargs)
        calls += 1
        line = json.dumps([sorted((key, int(n)) for key, n in counts.items()),
                           dataclasses.astuple(trace)])
        runs.update(line.encode("utf-8") + b"\n")
        return counts, trace

    with tempfile.TemporaryDirectory(prefix="run_hashes-") as out:
        qpm.run = hashed_run
        try:
            workload = workloads.WORKLOADS[name](seed, Path(out))
            workload.warm_up()
            result = workload.run_round()
        finally:
            qpm.run = original
    reports = hashlib.sha256()
    for text, (_, _, report, _) in zip(result.texts, result.outputs):
        reports.update(text[:len(text) - len(report.event_lines)].encode("utf-8"))
    return {"calls": calls, "runs": runs.hexdigest(), "reports": reports.hexdigest(),
            "round": result.summary().digest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all three)")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    result = {}
    for name in names:
        result[name] = workload_hashes(name, args.seed)
        print(f"{name} calls={result[name]['calls']} runs={result[name]['runs']} "
              f"reports={result[name]['reports']} round={result[name]['round']}", flush=True)
    print(json.dumps({"seed": args.seed, "workloads": result}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
