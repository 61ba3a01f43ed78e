"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Expected values come from the independent oracle, analytic distributions, or
hand-built event timelines; tolerances are fixed here and nowhere else.
"""
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import product_circuit, random_gate_circuit
from oracle import oracle_probabilities
from qorch.circuit import CircuitBuilder, Gate, ValidationError
from qorch.cli import cli_main
from qorch.qasm import QasmError, parse_qasm, serialize_qasm
from qorch.qpm import (
    BackendDescriptor,
    BackendKind,
    BackendRegistry,
    MockHardwareBackend,
    StateVectorBackend,
    ExecuteRequest,
)
from qorch.qtm import (
    IncompatiblePreference,
    NoFeasibleBackend,
    Preferences,
    RoutingConfig,
    TaskManager,
    piece_requests,
)
from qorch.resman import Cluster, ClusterConfig, DeviceCalls, GeneratorWorkload, JobSpec, Model
from qorch.scenarios import ghz, run_ensemble, run_in_sequence, run_single_circuit, teleport_circuit
from qorch.statevec import final_state, probabilities, run
from qorch.system import System

CORPUS = Path(__file__).parent / "corpus"


def announce(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


# -- 1: simulator vs oracle -----------------------------------------------------


def test_acceptance_1_simulator_vs_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    for case in range(200):
        n = int(rng.integers(1, 5))
        layers = int(rng.integers(0, 4))
        circuit = random_gate_circuit(n, layers, seed=2000 + case)
        expected = oracle_probabilities(circuit)
        state = final_state(circuit, seed=0)
        got = probabilities(state)
        assert np.max(np.abs(got - expected)) < 1e-10, f"case {case} diverged"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    announce(1, "simulator-vs-oracle, 200 circuits")


# -- 2: worker independence -------------------------------------------------------


def test_acceptance_2_worker_independence():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    for case in range(50):
        n = int(rng.integers(2, 11))
        layers = int(rng.integers(1, 4))
        circuit = random_gate_circuit(n, layers, seed=3000 + case, measure=True)
        seed = 500 + case
        base_counts, _ = run(circuit, 200, seed=seed, workers=1)
        base_amps = final_state(circuit, seed=seed, workers=1).amplitudes
        for w in (2, 4):
            counts, _ = run(circuit, 200, seed=seed, workers=w)
            assert counts == base_counts, f"case {case} w={w} counts differ"
            amps = final_state(circuit, seed=seed, workers=w).amplitudes
            assert np.array_equal(amps, base_amps), f"case {case} w={w} amplitudes differ"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"worker sweep took {elapsed:.1f}s"
    announce(2, "worker independence w in {1,2,4}, 50 circuits")


# -- 3: cut / aggregate exactness ---------------------------------------------------


def _component_sizes(rng):
    k = int(rng.integers(2, 5))
    return [int(rng.integers(1, 3)) for _ in range(k)]


def test_acceptance_3_cut_aggregate_exactness():
    registry = BackendRegistry()
    registry.register(
        BackendDescriptor("statevec", BackendKind.STATE_VECTOR, 26), StateVectorBackend()
    )
    tm = TaskManager(registry, RoutingConfig())
    rng = np.random.default_rng(4242)
    circuits = []
    for case in range(50):
        sizes = _component_sizes(rng)
        circuits.append(product_circuit(sizes, layers=1, seed=5000 + case))

    # probability-level: reconstructed joint == uncut exact, per outcome
    for case, circuit in enumerate(circuits):
        gate_only = circuit.__class__(
            circuit.num_qubits, (),
            tuple(i for i in circuit.instructions if isinstance(i, Gate)),
        )
        whole = probabilities(final_state(gate_only, seed=0))
        plan = tm.cut(tm.normalize(circuit, 10, 0))
        assert 2 <= len(plan.subtasks) <= 4
        pieces = []
        for sub in plan.subtasks:
            sub_gates = sub.circuit.__class__(
                sub.circuit.num_qubits, (),
                tuple(i for i in sub.circuit.instructions if isinstance(i, Gate)),
            )
            pieces.append(probabilities(final_state(sub_gates, seed=0)))
        rebuilt = np.zeros_like(whole)
        for idx in range(2**circuit.num_qubits):
            p = 1.0
            for sub, piece in zip(plan.subtasks, pieces):
                sub_idx = 0
                for new_q, orig_q in sub.qubit_map.items():
                    sub_idx |= ((idx >> orig_q) & 1) << new_q
                p *= piece[sub_idx]
            rebuilt[idx] = p
        assert np.max(np.abs(rebuilt - whole)) < 1e-10, f"case {case}"

    # shot-level: aggregated sampling within TV 0.03 of the uncut distribution
    shots = 10000
    small = [c for c in circuits if c.num_qubits <= 5]
    for seed in range(10):
        circuit = small[seed % len(small)]
        task = tm.normalize(circuit, shots, 9000 + seed)
        plan = tm.cut(task)
        results = [run(r.circuit, shots, r.seed)[0] for r in piece_requests(task, tm.route(task))]
        merged = tm.aggregate(plan, results)
        assert merged.total() == shots
        exact_counts, _ = run(circuit, 10**6, seed=1)  # high-shot reference
        keys = set(merged) | set(exact_counts)
        tv = 0.5 * sum(
            abs(merged.get(k, 0) / shots - exact_counts.get(k, 0) / 10**6)
            for k in keys
        )
        assert tv < 0.03, f"seed {seed}: tv={tv:.4f}"
    announce(3, "cut/aggregate exactness, 50 circuits + 10 seeds")


# -- 4: GHZ and teleportation analytics ----------------------------------------------


def test_acceptance_4_ghz_and_teleport():
    for seed in range(10):
        counts, _ = run(ghz(3), 10000, seed=seed)
        assert set(counts) <= {"000", "111"}
        for value in counts.values():
            assert 4700 <= value <= 5300, f"seed {seed}: {dict(counts)}"

    def p_one(counts):
        return sum(v for k, v in counts.items() if k.split()[2] == "1") / counts.total()

    for seed in range(10):
        counts, _ = run(teleport_circuit(math.pi), 10000, seed=seed)
        assert p_one(counts) == 1.0, f"seed {seed}"

    counts, _ = run(teleport_circuit(math.pi / 2), 10000, seed=3)
    assert 0.48 <= p_one(counts) <= 0.52
    announce(4, "GHZ(3) bands and exact teleportation")


# -- 5: mock hardware noise ------------------------------------------------------------


def test_acceptance_5_mock_hardware_noise():
    bell = (
        CircuitBuilder(2, (("c", 2),))
        .h(0).cx(0, 1).measure(0, "c", 0).measure(1, "c", 1).build()
    )
    hw_desc = BackendDescriptor(
        "mock-hw", BackendKind.HARDWARE, 12,
        supports_mid_circuit=False, supports_conditionals=False,
    )
    noisy = BackendRegistry()
    noisy.register(hw_desc, MockHardwareBackend(readout_flip_probability=0.1))
    res = noisy.execute("mock-hw", ExecuteRequest("t", bell, 10000, seed=5))
    odd = res.counts.frequency("01") + res.counts.frequency("10")
    assert 0.16 <= odd <= 0.20, f"odd-parity rate {odd:.4f}"

    clean = BackendRegistry()
    clean.register(hw_desc, MockHardwareBackend(readout_flip_probability=0.0))
    clean.register(
        BackendDescriptor("statevec", BackendKind.STATE_VECTOR, 26), StateVectorBackend()
    )
    for seed in (0, 7, 123):
        hw = clean.execute("mock-hw", ExecuteRequest("t", bell, 5000, seed=seed))
        sv = clean.execute("statevec", ExecuteRequest("t", bell, 5000, seed=seed))
        assert hw.counts == sv.counts
    announce(5, "readout-flip rate band and p=0 equivalence")


# -- 6: scheduler invariants -------------------------------------------------------------


def test_acceptance_6_scheduler_invariants():
    start = time.monotonic()
    rng = np.random.default_rng(616)
    total_nodes = 16

    checked = {"events": 0}

    def invariants(cluster):
        checked["events"] += 1
        union = set()
        for alloc in cluster.live_allocations():
            assert not (union & alloc.nodes), "node in two live allocations"
            union |= alloc.nodes
            spec = cluster._jobs[alloc.job_id].spec
            assert len(alloc.app) == spec.app_nodes
            assert len(alloc.sim) == spec.sim_nodes
        counts = cluster.state_counts()
        assert sum(counts.values()) == len(cluster._jobs), "job conservation"

    cluster = Cluster(
        ClusterConfig(total_nodes=total_nodes, single_qc_device="dev", backfill=True),
        on_event=invariants,
    )

    submit = 0.0
    for i in range(1000):
        submit += float(rng.exponential(2.0))
        if rng.random() < 0.5:
            a = int(rng.integers(1, 5))
            hold = float(rng.uniform(0.5, 3.0))
            compute = float(rng.uniform(0.5, 5.0))

            def make_body(compute=compute, hold=hold):
                def body(ctx):
                    from qorch.resman import Advance

                    yield Advance(compute)
                    yield DeviceCalls((hold,))

                return body

            spec = JobSpec(
                f"sq-{i}", a, 0, Model.SINGLE_QC,
                GeneratorWorkload(make_body(), compute + hold), submit,
            )
        else:
            a = int(rng.integers(1, 5))
            s = int(rng.integers(1, 7))
            duration = float(rng.uniform(0.5, 8.0))
            spec = JobSpec(f"pj-{i}", a, s, Model.PER_JOB, duration, submit)
        cluster.submit_job(spec)
    cluster.run()

    final = cluster.state_counts()
    assert final["completed"] == 1000
    assert checked["events"] > 1000

    # the device never serves two holders in overlapping intervals, and it
    # grants in request order: an acquire's request time is its time less its
    # wait (equal up to rounding for requests made at one timestamp)
    holder = None
    last_request = 0.0
    for rec in cluster.log:
        if rec.kind == "device_acquire":
            assert holder is None, "overlapping device grants"
            holder = rec.job_id
            requested = rec.time - rec.payload["wait"]
            assert requested >= last_request - 1e-9, "device grants out of FIFO order"
            last_request = max(last_request, requested)
        elif rec.kind == "device_release":
            assert holder == rec.job_id
            holder = None

    elapsed = time.monotonic() - start
    assert elapsed < 20.0, f"scheduler sweep took {elapsed:.1f}s"
    announce(6, f"1000-job invariants over {checked['events']} events")


# -- 7: model comparison ---------------------------------------------------------------------


def test_acceptance_7_model_comparison():
    system = System()
    for seed in range(5):
        single = run_ensemble(
            8, 3, 1, 500, seed=seed, system=system, model=Model.SINGLE_QC, sim_nodes=0
        )
        per_job = run_ensemble(
            8, 3, 1, 500, seed=seed, system=system, model=Model.PER_JOB, sim_nodes=2
        )
        assert single.status == "ok" and per_job.status == "ok"
        mean_single = single.metrics["mean_queue_wait"]
        mean_per_job = per_job.metrics["mean_queue_wait"]
        assert mean_per_job < mean_single, (
            f"seed {seed}: per_job {mean_per_job} !< single_qc {mean_single}"
        )
    announce(7, "per-job mean wait < single-QC mean wait, 5 seeds")


# -- 8: routing contract ------------------------------------------------------------------------


def test_acceptance_8_routing_contract():
    def registry(with_tn=False):
        reg = BackendRegistry()
        reg.register(
            BackendDescriptor("statevec", BackendKind.STATE_VECTOR, 26),
            StateVectorBackend(),
        )
        reg.register(
            BackendDescriptor(
                "mock-hw", BackendKind.HARDWARE, 12,
                supports_mid_circuit=False, supports_conditionals=False,
            ),
            MockHardwareBackend(),
        )
        if with_tn:
            reg.register(BackendDescriptor("tn", BackendKind.TENSOR_NETWORK, 40))
        return reg

    def circuit(n, layers=0):
        b = CircuitBuilder(n)
        b.h(0)
        for _ in range(layers):
            b.x(0)
        return b.build()

    no_cut = Preferences(allow_cutting=False)
    cases = [
        # (label, registry kwargs, config, circuit qubits, prefs, expected)
        ("default small -> statevec w=1", {}, {}, 5, no_cut, ("statevec", 1)),
        ("n=22 L=20 -> w=4", {}, {}, 22, no_cut, ("statevec", 4)),
        ("n=24 gang limit caps w", {}, {"gang_limit": 8}, 24, no_cut, ("statevec", 8)),
        ("n=21 -> w=2", {}, {}, 21, no_cut, ("statevec", 2)),
        ("preference id beats heuristics", {}, {}, 3,
         Preferences(backend_id="mock-hw", allow_cutting=False), ("mock-hw", 1)),
        ("preference kind beats heuristics", {}, {}, 3,
         Preferences(backend_kind=BackendKind.HARDWARE, allow_cutting=False), ("mock-hw", 1)),
        ("worker override", {}, {}, 4, Preferences(workers=2, allow_cutting=False),
         ("statevec", 2)),
        ("over sv_max falls to tn", {"with_tn": True}, {}, 25, no_cut, ("tn", 8)),
    ]
    for label, reg_kwargs, cfg_kwargs, n, prefs, expected in cases:
        tm = TaskManager(registry(**reg_kwargs), RoutingConfig(**cfg_kwargs))
        task = tm.normalize(circuit(n), 10, 0, prefs)
        decision = tm.route(task)
        assert (decision.backend_id, decision.workers) == expected, label

    # w formula: exactly 2^max(0, n - L) before the gang limit
    tm = TaskManager(registry(), RoutingConfig(gang_limit=1024))
    for n in (5, 19, 20, 21, 23, 24):
        got = tm.route(tm.normalize(circuit(n), 10, 0, no_cut)).workers
        assert got == 2 ** max(0, n - 20), f"n={n}: w={got}"

    # NoFeasibleBackend cases
    tm = TaskManager(registry(), RoutingConfig())
    with pytest.raises(NoFeasibleBackend):
        tm.route(tm.normalize(circuit(25), 10, 0, no_cut))
    tm_tn = TaskManager(registry(with_tn=True), RoutingConfig(tn_depth_max=3))
    with pytest.raises(NoFeasibleBackend):
        tm_tn.route(tm_tn.normalize(circuit(25, layers=10), 10, 0, no_cut))

    # incompatible preferences
    with pytest.raises(IncompatiblePreference):
        tm.route(tm.normalize(circuit(20), 10, 0, Preferences(backend_id="mock-hw")))
    with pytest.raises(IncompatiblePreference):
        tm.route(tm.normalize(circuit(3), 10, 0, Preferences(backend_id="ghost")))
    announce(8, "routing table, thresholds, worker formula")


# -- 9: parser corpus -----------------------------------------------------------------------------


def test_acceptance_9_parser_corpus():
    valid_files = sorted((CORPUS / "valid").glob("*.qasm"))
    invalid_files = sorted((CORPUS / "invalid").glob("*.qasm"))
    assert len(valid_files) + len(invalid_files) >= 30

    for path in valid_files:
        circuit = parse_qasm(path.read_text("utf-8"))
        again = parse_qasm(serialize_qasm(circuit))
        assert again == circuit, f"round-trip failed for {path.name}"

    positioned = re.compile(r"line (\d+)")
    for path in invalid_files:
        with pytest.raises((QasmError, ValidationError)) as err:
            parse_qasm(path.read_text("utf-8"))
        exc = err.value
        if isinstance(exc, QasmError):
            assert exc.line >= 1 and exc.column >= 1, path.name
        else:
            assert positioned.search(str(exc)), f"{path.name}: no position in {exc}"
    announce(
        9, f"{len(valid_files)} valid round-trips, {len(invalid_files)} positioned errors"
    )


# -- 10: end-to-end determinism ---------------------------------------------------------------------


def test_acceptance_10_end_to_end_determinism(tmp_path):
    runs = {
        "single_circuit": ["scenario", "single_circuit", "--n", "3",
                           "--shots", "2000", "--seed", "21"],
        "ensemble": ["scenario", "ensemble", "--k", "3", "--n", "3",
                     "--layers", "1", "--shots", "800", "--seed", "22"],
        "in_sequence": ["scenario", "in_sequence", "--theta", "0.9",
                        "--shots", "2000", "--seed", "23"],
    }
    for pattern, argv in runs.items():
        first = tmp_path / f"{pattern}-a"
        second = tmp_path / f"{pattern}-b"
        assert cli_main(argv + ["--out", str(first)]) == 0, pattern
        assert cli_main(argv + ["--out", str(second)]) == 0, pattern
        report_a = (first / "report.txt").read_bytes()
        report_b = (second / "report.txt").read_bytes()
        assert report_a == report_b, f"{pattern} reports differ"
        events_a = (first / "events.log").read_bytes()
        events_b = (second / "events.log").read_bytes()
        assert events_a == events_b, f"{pattern} event logs differ"
    announce(10, "three patterns byte-identical across invocations")
