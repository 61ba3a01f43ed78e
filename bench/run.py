"""qorch benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload static_sampling --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Runs from the root of a qorch checkout and imports qorch from its ``src``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.  The exit code is non-zero
when a check fails, an unexpected operation fails, or the run breaks.
"""
import os

# One BLAS thread: on 2 vCPUs OpenBLAS's second thread doubles CPU time in
# tensordot without lowering wall time, and adds scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

SETUP_REPEATS = 5
WORKLOAD_NAMES = ("static_sampling", "feedforward_loop", "cluster_backlog")


def _import_seconds() -> list[float]:
    """Start-up of a fresh interpreter that imports qorch and the benchmark,
    timed from outside, a few times."""
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "import qorch.scenarios, checks, speed, tracing, workloads")
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", code, str(ROOT / "src"), str(BENCH_DIR)])
        # wait() with a timeout polls every 50 ms, which would round the
        # sample up to the next poll; a blocking wait under a kill timer
        # sees the exit at once.
        killer = threading.Timer(60, child.kill)
        killer.start()
        try:
            status = child.wait()
        finally:
            killer.cancel()
        samples.append(time.perf_counter() - start)
        if status != 0:
            raise subprocess.CalledProcessError(status, child.args)
    return samples


def _import_program():
    """Import qorch from this checkout and the benchmark modules that use it."""
    import qorch  # noqa: F401

    if Path(qorch.__file__).resolve().parents[1] != ROOT / "src":
        raise ImportError(f"qorch imported from {qorch.__file__}, not from {ROOT / 'src'}")
    import checks
    import speed
    import tracing
    import workloads

    return checks, speed, tracing, workloads


def _rounds(workload, until: float, rounds: list, kept: list) -> None:
    """Run whole rounds, at least one, while the next round is expected to
    end before ``until`` (perf_counter), give or take half a round.

    Only the first round's outputs are kept for the checks; later rounds keep
    a summary, so the heap the garbage collector walks does not grow.
    """
    while True:
        gc.collect()
        start = time.perf_counter()
        result = workload.run_round()
        wall = time.perf_counter() - start
        if not kept:
            kept.append(result)
        rounds.append((wall, result.summary()))
        del result
        if time.perf_counter() + wall / 2 >= until:
            return


def _wall(rounds) -> float:
    """A round's wall time: the sum over its pieces of each piece's median
    across rounds, so a stall in one piece of one round does not count."""
    pieces = zip(*(summary.piece_seconds for _, summary in rounds))
    return sum(statistics.median(times) for times in pieces)


def _check(checks_mod, workloads_mod, workload, first, digests):
    """Verdicts on the first round's outputs, and event-log statistics."""
    c = checks_mod.Checks()
    c.record("rounds_identical", len(set(digests)) == 1, f"{len(set(digests))} distinct round outputs")
    stats = checks_mod.LogStats()
    for label, inputs, report, extra in first.outputs:
        if label == "submit":
            counts = report.tasks[0].counts
            checks_mod.check_total(c, report.tasks[0], inputs.shots)
            if inputs.kind == "ghz":
                checks_mod.check_ghz(c, counts, inputs)
            elif inputs.kind == "random":
                checks_mod.check_marginals(c, counts, inputs)
            else:
                checks_mod.check_separable(c, counts, inputs)
        elif label == "ensemble":
            flip = workloads_mod.MOCK_HW_FLIP
            for program, record in zip(inputs.programs, report.tasks):
                checks_mod.check_total(c, record, program.shots)
                if program.kind == "ghz":
                    checks_mod.check_mock_hw_ghz(c, record.counts, program, flip)
                else:
                    checks_mod.check_marginals(c, record.counts, program, flip, "mock_hw_marginals")
        elif label == "workflow":
            for program, record in zip(inputs, report.tasks):
                checks_mod.check_total(c, record, program.shots)
                checks_mod.check_separable(c, record.counts, program)
            checks_mod.check_workflow_values(c, report)
        elif label == "teleport":
            checks_mod.check_teleport(c, report, workloads_mod.TOLERANCE,
                                      workloads_mod.TELEPORT_SHOTS)
        elif label == "parity":
            checks_mod.check_total(c, report.tasks[0], inputs.shots)
            checks_mod.check_parity(c, report.tasks[0].counts, inputs)
        else:  # cluster_backlog: fifo / backfill
            checks_mod.check_cluster_run(c, label, inputs, report, extra,
                                         workloads_mod.CLUSTER_NODES)
        run_stats = checks_mod.log_stats(report.event_lines)
        stats.events += run_stats.events
        stats.queue_depth_max = max(stats.queue_depth_max, run_stats.queue_depth_max)
        stats.backfilled_jobs += run_stats.backfilled_jobs
        stats.device_wait_model_s += run_stats.device_wait_model_s
    if workload.name != "cluster_backlog":
        c.record("no_failed_operations", first.failed == 0, f"{first.failed} failed")
    return c, stats


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    checks_mod, speed_mod, trace_mod, workloads_mod = _import_program()
    starts = _import_seconds()
    out = ROOT / "bench" / "out" / f"{name}-s{seed}"
    out.mkdir(parents=True, exist_ok=True)

    # Untraced runs sample the host's speed between timed pieces; traced runs
    # report host seconds and compare their two halves, so they do not.
    probe = None if traced else speed_mod.SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workloads_mod.WORKLOADS[name](seed, out, probe)
        workload.warm_up()
        setups.append(time.perf_counter() - start)

    rounds: list = []
    traced_rounds: list = []
    kept: list = []
    t0 = time.perf_counter()
    tracer = None
    if traced:
        _rounds(workload, t0 + seconds / 2, rounds, kept)
        tracer = trace_mod.Tracer()
        tracer.install()
        try:
            _rounds(workload, t0 + seconds, traced_rounds, kept)
        finally:
            tracer.uninstall()
    else:
        _rounds(workload, t0 + seconds, rounds, kept)

    all_rounds = rounds + traced_rounds
    digests = [summary.digest for _, summary in all_rounds]
    verdicts, log_stats = _check(checks_mod, workloads_mod, workload, kept[0], digests)
    attempted = sum(r.attempted for _, r in all_rounds)
    failed = sum(r.failed for _, r in all_rounds)

    if traced:
        metrics = trace_mod.layer_metrics(tracer, len(traced_rounds), log_stats)
        metrics["trace.overhead_s"] = (_wall(traced_rounds) - _wall(rounds), "s")
        tracer.dump(out / "spans.jsonl")
    else:
        # Host seconds scaled to the reference host speed (speed.py).
        scale = probe.scale()
        host_wall = _wall(rounds)
        wall = host_wall * scale
        summary = rounds[0][1]  # every round does the same work (rounds_identical)
        print(f"host speed: {len(probe.samples)} probe samples, median "
              f"{statistics.median(probe.samples) * 1e3:.4f} ms, scale {scale:.4f}; "
              f"host wall_s {host_wall:.4f}")
        metrics = {
            "setup_s": ((statistics.median(starts) + statistics.median(setups)) * scale, "s"),
            "wall_s": (wall, "s"),
            "jobs_per_s": (summary.ok / wall, "1/s"),
            "shots_per_s": (summary.shots / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    correct = verdicts.passed
    print(f"workload {name} seed {seed} rounds {len(all_rounds)} "
          f"({len(traced_rounds)} traced)")
    print("round wall s (speed probes included): " + " ".join(f"{w:.3f}" for w, _ in all_rounds))
    print("setup s: start+import " + " ".join(f"{s:.3f}" for s in starts)
          + ", inputs+warm-up " + " ".join(f"{s:.3f}" for s in setups))
    for line in verdicts.lines():
        print(line)
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value:.6g} {unit}")
    print(f"operations attempted={attempted} failed={failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Run every workload, one process each, and pass their results through."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            check=False,
        )
        status = status or done.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
