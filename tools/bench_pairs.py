"""Run alternating parent/change pairs of the benchmark and write a BENCH file.

    python3 tools/bench_pairs.py --parent ../parent-checkout --parent-commit c01680a \
        --workload static_sampling:10 --workload cluster_backlog:5 \
        --first-seed 2001 --seconds 30 --out BENCH_20.json

``--parent`` is a checkout of the parent commit (a ``git clone`` or a
``git archive`` export); the change is the checkout this script sits in.
Each pair runs ``bench/run.py`` once in each checkout on the same seed,
parent first on even pairs and change first on odd ones, and seeds count up
from ``--first-seed`` over all pairs.  The file keeps every run's last JSON
line and, per workload, each metric's median and quartiles on both sides,
the pairs the change won (direction from ``BENCHMARK.json``; ties count for
neither side) and the ratio of the medians.  ``--append`` adds the runs to
an existing file and summarises all of them again; traced runs
(``--trace 1``) are summarised apart, under ``<workload> traced``.

Each end-to-end metric with a ``bound`` in ``BENCHMARK.json`` also gets the
no-regression verdict: ``worse_by``, the change's median against the
parent's as a fraction of the parent's, positive when worse;
``beyond_bound``; ``parent_spread``, the parent's (q3 - q1) / median; and
``unresolved``, a spread wider than the bound where not every change run
beats every parent run.  After the last pair one verdict line per workload
is printed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

CHANGE = Path(__file__).resolve().parents[1]
COMMAND = "python3 bench/run.py --workload <workload> --seed <seed> --seconds {seconds} --trace {trace}"


def _machine() -> dict:
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    mem = next(int(line.split()[1]) for line in Path("/proc/meminfo").read_text().splitlines()
               if line.startswith("MemTotal"))
    return {"cpu": cpu, "vcpus": os.cpu_count(), "mem_total_kib": mem,
            "python": platform.python_version(), "numpy": np.__version__,
            "os": platform.platform(), "blas_threads": 1}  # bench/run.py pins one thread


def _run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "stderr": done.stderr[-2000:]}
    result["exit"] = done.returncode
    return result


def _metrics() -> dict[str, dict]:
    spec = json.loads((CHANGE / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _side(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4)}


def summarise(runs: list[dict]) -> dict:
    metrics = _metrics()
    groups: dict[str, list[dict]] = {}
    for run in runs:
        key = run["workload"] + (" traced" if run["traced"] else "")
        groups.setdefault(key, []).append(run)
    summary = {}
    for key, pairs in groups.items():
        out: dict = {"pairs": len(pairs)}
        names = [name for name in pairs[0]["parent"]["metrics"]
                 if all(name in p[side]["metrics"] for p in pairs for side in ("parent", "change"))]
        for name in names:
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            spec = metrics.get(name, {})
            sign = -1 if spec.get("better", "lower") == "lower" else 1
            p_mid, c_mid = float(np.median(parent)), float(np.median(change))
            out[name] = {
                "parent": _side(parent),
                "change": _side(change),
                "change_better": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "ratio_of_medians": round(c_mid / p_mid, 4) if p_mid else None,
            }
            bound = spec.get("bound")
            if bound is not None and p_mid:
                q1, q3 = np.percentile(parent, [25, 75])
                worse_by = -sign * (c_mid - p_mid) / p_mid
                spread = float(q3 - q1) / p_mid
                beats_all = all(sign * (c - p) > 0 for p in parent for c in change)
                out[name].update({
                    "bound": bound,
                    "worse_by": round(worse_by, 4),
                    "beyond_bound": worse_by > bound,
                    "parent_spread": round(spread, 4),
                    "unresolved": spread > bound and not beats_all,
                })
        sides = [p[side] for p in pairs for side in ("parent", "change")]
        out["failed"] = sum(s["failed"] for s in sides)
        out["correct"] = all(s["correct"] for s in sides)
        out["exits"] = sorted({s["exit"] for s in sides})
        summary[key] = out
    return summary


def verdicts(summary: dict) -> list[str]:
    """One line per workload: the bounded metrics whose change median is
    worse than the bound, and those the parent's spread leaves unresolved."""
    lines = []
    for key, out in summary.items():
        judged = {name: m for name, m in out.items() if isinstance(m, dict) and "bound" in m}
        parts = []
        beyond = [f"{name} worse by {m['worse_by']:.3f} > {m['bound']}"
                  for name, m in judged.items() if m["beyond_bound"]]
        unresolved = [f"{name} parent spread {m['parent_spread']:.3f} > {m['bound']}"
                      for name, m in judged.items() if m["unresolved"]]
        if beyond:
            parts.append("beyond bound: " + ", ".join(beyond))
        if unresolved:
            parts.append("unresolved: " + ", ".join(unresolved))
        verdict = "; ".join(parts) or f"no regression on {len(judged)} bounded metrics"
        lines.append(f"{key} over {out['pairs']} pairs: {verdict}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--parent-commit", required=True, help="the parent's commit id, recorded")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--append", action="store_true", help="add to the runs already in --out")
    parser.add_argument("--description", default="")
    args = parser.parse_args()
    if not (args.parent / "bench" / "run.py").is_file():
        parser.error(f"{args.parent} holds no bench/run.py")
    if args.out.exists() and not args.append:
        parser.error(f"{args.out} exists; pass --append to add to it")
    plan = []
    for item in args.workload:
        name, _, pairs = item.partition(":")
        plan.append((name, int(pairs or 10)))

    data = json.loads(args.out.read_text()) if args.append else {
        "description": args.description,
        "command": COMMAND.format(seconds=f"{args.seconds:g}", trace=args.trace),
        "parent_commit": args.parent_commit,
        "machine": _machine(),
        "summary": {},
        "runs": [],
    }
    if args.description:
        data["description"] = args.description
    roots = {"parent": args.parent.resolve(), "change": CHANGE}
    seed = args.first_seed
    for name, pairs in plan:
        for index in range(pairs):
            order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
            run = {"workload": name, "seed": seed, "traced": bool(args.trace), "order": order}
            for side in order:
                run[side] = _run(roots[side], name, seed, args.seconds, args.trace)
            data["runs"].append(run)
            wall = {side: run[side]["metrics"].get("wall_s", {}).get("value") for side in order}
            print(f"{name} seed {seed} {order[0]} first: wall_s {wall}", flush=True)
            seed += 1
            data["summary"] = summarise(data["runs"])
            args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    for line in verdicts(data["summary"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
