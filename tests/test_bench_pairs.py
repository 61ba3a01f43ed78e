"""tools/bench_pairs.py reports the no-regression verdict of its pairs.

``summarise`` runs here on synthetic pairs, so each case of the verdict is
checked without running the benchmark.
"""
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(workload, parent, change):
    """Ten pairs whose sides read ``parent[name][i]`` and ``change[name][i]``."""
    def side(values, i):
        return {"metrics": {name: {"value": v[i]} for name, v in values.items()},
                "failed": 0, "correct": True, "exit": 0}

    return [{"workload": workload, "traced": False,
             "parent": side(parent, i), "change": side(change, i)} for i in range(10)]


def test_summarise_judges_each_bounded_metric():
    steady = [1.0 + 0.01 * i for i in range(10)]  # parent spread 0.045 / 1.045
    wide = [0.5 + 0.1 * i for i in range(10)]     # parent spread 0.45 / 0.95
    parent = {
        "wall_s": steady,                         # lower is better, bound 0.24
        "jobs_per_s": [100 * v for v in steady],  # higher is better, bound 0.24
        "shots_per_s": [100 * v for v in steady],
        "setup_s": wide,                          # bound 0.25
        "peak_rss_mb": wide,                      # bound 0.1
        "qtm.route_s": steady,                    # per layer: no bound
    }
    change = {
        "wall_s": [1.1 * v for v in steady],               # worse, within the bound
        "jobs_per_s": [70 * v for v in steady],            # worse beyond the bound
        "shots_per_s": [150 * v for v in steady],          # better
        "setup_s": wide[::-1],                             # too spread to tell
        "peak_rss_mb": [0.4 - 0.01 * i for i in range(10)],  # every run beats every parent run
        "qtm.route_s": [2 * v for v in steady],
    }
    summary = bench_pairs.summarise(_pairs("cluster_backlog", parent, change))["cluster_backlog"]

    wall = summary["wall_s"]
    assert abs(wall["worse_by"] - 0.1) < 1e-3
    assert (wall["beyond_bound"], wall["unresolved"]) == (False, False)
    assert abs(wall["parent_spread"] - 0.045 / 1.045) < 1e-3

    jobs = summary["jobs_per_s"]
    assert abs(jobs["worse_by"] - 0.3) < 1e-3
    assert (jobs["beyond_bound"], jobs["unresolved"]) == (True, False)

    shots = summary["shots_per_s"]
    assert abs(shots["worse_by"] + 0.5) < 1e-3
    assert (shots["beyond_bound"], shots["unresolved"]) == (False, False)

    setup = summary["setup_s"]
    assert setup["parent_spread"] > setup["bound"] == 0.25
    assert (setup["worse_by"], setup["beyond_bound"], setup["unresolved"]) == (0.0, False, True)

    rss = summary["peak_rss_mb"]
    assert rss["parent_spread"] > rss["bound"]
    assert (rss["beyond_bound"], rss["unresolved"]) == (False, False)

    assert "worse_by" not in summary["qtm.route_s"]

    (line,) = bench_pairs.verdicts({"cluster_backlog": summary})
    assert line == ("cluster_backlog over 10 pairs: beyond bound: jobs_per_s worse by 0.300 > 0.24; "
                    "unresolved: setup_s parent spread 0.474 > 0.25")


def test_verdict_without_findings():
    steady = [1.0 + 0.01 * i for i in range(10)]
    summary = bench_pairs.summarise(_pairs("feedforward_loop", {"wall_s": steady},
                                           {"wall_s": steady}))
    assert summary["feedforward_loop"]["wall_s"]["worse_by"] == 0.0
    assert bench_pairs.verdicts(summary) == [
        "feedforward_loop over 10 pairs: no regression on 1 bounded metrics"]
