import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qorch import resman
from qorch.resman import (
    Advance,
    Cluster,
    ClusterConfig,
    DeviceCall,
    DeviceGrant,
    FixedWorkload,
    GeneratorWorkload,
    InvalidSpec,
    JobSpec,
    JobState,
    Model,
    ParallelDeviceCalls,
)
from reference_scheduler import ReferenceCluster


def cluster(nodes=8, device=None, backfill=False, on_event=None):
    return Cluster(
        ClusterConfig(total_nodes=nodes, single_qc_device=device, backfill=backfill),
        on_event=on_event,
    )


def job(job_id, a, s, model=Model.PER_JOB, workload=1.0, submit=0.0):
    return JobSpec(job_id, a, s, model, workload, submit)


# -- submit --------------------------------------------------------------


def test_submit_valid_queued():
    cl = cluster(8)
    cl.submit_job(job("A", 2, 4, workload=10.0))
    assert cl.job_state("A") is JobState.QUEUED


def test_submit_never_satisfiable_rejected():
    cl = cluster(8)
    with pytest.raises(InvalidSpec):
        cl.submit_job(job("A", 6, 4))


def test_single_qc_with_sim_nodes_rejected():
    cl = cluster(8, device="dev")
    with pytest.raises(InvalidSpec):
        cl.submit_job(job("A", 2, 1, model=Model.SINGLE_QC))


def test_job_without_workload_rejected():
    cl = cluster(8)
    with pytest.raises(InvalidSpec, match="no workload"):
        cl.submit_job(job("A", 2, 4, workload=None))


def test_single_qc_without_device_rejected():
    cl = cluster(8, device=None)
    with pytest.raises(InvalidSpec):
        cl.submit_job(job("A", 2, 0, model=Model.SINGLE_QC))


# -- FIFO grants and co-allocation ------------------------------------------


def test_fifo_two_jobs_contend():
    cl = cluster(8)
    cl.submit_job(job("A", 2, 4, workload=100.0, submit=0.0))
    cl.submit_job(job("B", 2, 4, workload=50.0, submit=1.0))
    cl.run()
    grants = {r.job_id: r.time for r in cl.log if r.kind == "grant"}
    assert grants["A"] == 0.0
    assert grants["B"] == 100.0  # only 2 nodes free until A completes
    metrics = cl.metrics()
    assert metrics["wait"]["B"] == 99.0


def test_empty_queue_advances_to_completion():
    cl = cluster(4)
    cl.submit_job(job("A", 1, 1, workload=5.0))
    times = []
    while True:
        t = cl.tick()
        if t is None:
            break
        times.append(t)
    assert times == [0.0, 5.0]


def test_backfill_small_job_jumps_ahead():
    cl = cluster(8, backfill=True)
    cl.submit_job(job("A", 2, 4, workload=100.0, submit=0.0))
    cl.submit_job(job("B", 2, 4, workload=50.0, submit=1.0))
    cl.submit_job(job("C", 1, 1, workload=50.0, submit=2.0))
    cl.run()
    grants = {r.job_id: r.time for r in cl.log if r.kind == "grant"}
    assert grants["C"] == 2.0  # fits in the 2 free nodes, done before t=100
    assert grants["B"] == 100.0


def test_backfill_does_not_delay_head():
    cl = cluster(8, backfill=True)
    cl.submit_job(job("A", 2, 4, workload=100.0, submit=0.0))
    cl.submit_job(job("B", 2, 4, workload=50.0, submit=1.0))
    # D would outlive A's completion and steal nodes B needs
    cl.submit_job(job("D", 1, 1, workload=500.0, submit=2.0))
    cl.run()
    grants = {r.job_id: r.time for r in cl.log if r.kind == "grant"}
    assert grants["B"] == 100.0
    assert grants["D"] > 2.0


def test_allocations_disjoint_at_every_event():
    seen = []

    def check(cl):
        allocs = cl.live_allocations()
        union = set()
        for alloc in allocs:
            assert not (union & alloc.nodes)
            union |= alloc.nodes
        seen.append(len(allocs))

    cl = cluster(6, on_event=check)
    for i in range(5):
        cl.submit_job(job(f"J{i}", 1, 1, workload=10.0 * (i + 1), submit=float(i)))
    cl.run()
    assert max(seen) >= 2


def test_co_allocation_atomic():
    cl = cluster(4)
    cl.submit_job(job("A", 2, 2, workload=10.0))
    cl.run()
    grant = next(r for r in cl.log if r.kind == "grant")
    assert grant.payload["app"] and grant.payload["sim"]


# -- device queue ------------------------------------------------------------


def test_sole_requester_immediate_grant():
    grants = []

    def body(ctx):
        yield Advance(2.0)
        grants.append((yield DeviceCall(hold=3.0, tag="t")))

    cl = cluster(4, device="dev")
    cl.submit_job(job("A", 1, 0, Model.SINGLE_QC, GeneratorWorkload(body, 5.0)))
    cl.run()
    assert grants == [DeviceGrant(granted_at=2.0, wait=0.0, tag="t")]
    assert cl.job_state("A") is JobState.COMPLETED


def test_second_requester_waits_remaining_service():
    def body_a(ctx):
        yield DeviceCall(hold=30.0)

    def body_b(ctx):
        yield Advance(10.0)
        grant = yield DeviceCall(hold=5.0)
        assert grant.wait == 20.0  # holder took the device at 0 for 30s

    cl = cluster(4, device="dev")
    cl.submit_job(job("A", 1, 0, Model.SINGLE_QC, GeneratorWorkload(body_a, 30.0)))
    cl.submit_job(job("B", 1, 0, Model.SINGLE_QC, GeneratorWorkload(body_b, 15.0)))
    cl.run()
    waits = [r.payload["wait"] for r in cl.log if r.kind == "device_acquire"]
    assert waits == [0.0, 20.0]
    assert cl.job_state("B") is JobState.COMPLETED


def test_per_job_acquire_raises_no_device():
    def body(ctx):
        yield DeviceCall(hold=1.0)

    cl = cluster(4, device="dev")
    cl.submit_job(job("A", 1, 1, Model.PER_JOB, GeneratorWorkload(body, 1.0)))
    cl.run()
    assert cl.job_state("A") is JobState.FAILED
    fail = next(r for r in cl.log if r.kind == "fail")
    assert fail.payload == {"reason": "NoDevice"}
    assert not any(r.kind == "device_acquire" for r in cl.log)
    assert not cl.live_allocations()


def test_device_fifo_order():
    def body(delay, holds):
        def inner(ctx):
            yield Advance(delay)
            yield ParallelDeviceCalls(tuple(holds))

        return inner

    cl = cluster(8, device="dev")
    cl.submit_job(job("A", 1, 0, Model.SINGLE_QC, GeneratorWorkload(body(0.0, [5.0, 5.0]), 10)))
    cl.submit_job(job("B", 1, 0, Model.SINGLE_QC, GeneratorWorkload(body(1.0, [3.0]), 4)))
    cl.submit_job(job("C", 1, 0, Model.SINGLE_QC, GeneratorWorkload(body(0.5, [1.0]), 2), 1.0))
    cl.run()
    acquires = [r for r in cl.log if r.kind == "device_acquire"]
    # each acquire's request time is its time less its wait; grants keep request order
    requested = [r.time - r.payload["wait"] for r in acquires]
    assert requested == sorted(requested)
    assert requested == pytest.approx([0.0, 0.0, 1.0, 1.5])
    assert [r.job_id for r in acquires] == ["A", "A", "B", "C"]


# -- release ---------------------------------------------------------------


def test_release_triggers_grant_same_timestamp():
    cl = cluster(4)
    cl.submit_job(job("A", 2, 2, workload=5.0, submit=0.0))
    cl.submit_job(job("B", 2, 2, workload=5.0, submit=1.0))
    cl.tick()  # A granted at 0
    cl.tick()  # B submitted at 1, blocked
    cl.tick()  # A ends at 5 and returns its nodes
    grant_b = next(r for r in cl.log if r.kind == "grant" and r.job_id == "B")
    assert grant_b.time == 5.0  # same timestamp as A's release


# -- metrics ------------------------------------------------------------------


def test_utilization_single_job():
    cl = cluster(8)
    cl.submit_job(job("A", 2, 4, workload=100.0))
    cl.run()
    assert cl.metrics()["utilization"] == pytest.approx(0.75)


def test_utilization_no_jobs():
    cl = cluster(8)
    assert cl.metrics()["utilization"] == 0.0


def test_conservation_every_event():
    def check(cl):
        counts = cl.state_counts()
        assert sum(counts.values()) == len(cl._jobs)

    cl = cluster(6, on_event=check)
    for i in range(6):
        cl.submit_job(job(f"J{i}", 1, 1, workload=float(5 + i), submit=float(i)))
    cl.run()
    final = cl.state_counts()
    assert final["completed"] == 6


def test_fixed_workload_runs_to_completion():
    cl = cluster(2)
    cl.submit_job(job("A", 1, 1, workload=FixedWorkload(7.5)))
    cl.run()
    complete = next(r for r in cl.log if r.kind == "complete")
    assert complete.time == 7.5


# -- scheduler = reference scheduler -------------------------------------------

INF = float("inf")


def _body(kind, steps):
    def body(ctx):
        if kind == "raise":
            raise RuntimeError("body raised at grant")
        for step in steps:
            yield step

    return body


@st.composite
def job_streams(draw):
    """(total nodes, backfill, device, specs): random hybrid jobs with tied
    sizes, submit times and durations, and bodies that end at their grant."""
    total = draw(st.integers(2, 8))
    backfill = draw(st.booleans())
    device = draw(st.sampled_from([None, "dev"]))
    kinds = ["float", "fixed", "advance", "instant", "raise", "nodevice"]
    if device is not None:
        kinds += ["device", "parallel"]
    times = st.sampled_from([0.0, 0.0, 1.0, 2.0, 2.5, 4.0, 7.0])
    durations = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, 5.0])
    specs = []
    for i in range(draw(st.integers(2, 24))):
        kind = draw(st.sampled_from(kinds))
        submit = draw(times)
        if kind in ("device", "parallel"):
            model, sim = Model.SINGLE_QC, 0
            app = draw(st.integers(1, total))
        else:
            model = Model.PER_JOB
            app = draw(st.integers(1, total - 1))
            sim = draw(st.integers(1, total - app))
        if kind == "float":
            specs.append(JobSpec(f"j{i}", app, sim, model, draw(durations), submit))
            continue
        if kind == "fixed":
            specs.append(JobSpec(f"j{i}", app, sim, model, FixedWorkload(draw(durations)), submit))
            continue
        steps = []
        if kind == "advance":
            steps = [Advance(draw(durations)) for _ in range(draw(st.integers(1, 2)))]
        elif kind == "nodevice":
            steps = [DeviceCall(draw(durations))]
        elif kind == "device":
            steps = [Advance(draw(durations)), DeviceCall(draw(durations), tag="t")]
        elif kind == "parallel":
            holds = tuple(draw(st.lists(durations, max_size=3)))
            steps = [ParallelDeviceCalls(holds)]
        actual = sum(getattr(s, "seconds", 0.0) + getattr(s, "hold", 0.0)
                     + sum(getattr(s, "holds", ())) for s in steps)
        projected = actual + draw(st.sampled_from([0.0, 0.0, 0.0, 1.0, 3.0, INF, -1.0]))
        workload = GeneratorWorkload(_body(kind, steps), max(projected, 0.0))
        specs.append(JobSpec(f"j{i}", app, sim, model, workload, submit))
    return total, backfill, device, specs


def _check_nodes(total):
    def check(cl):
        union = set()
        for alloc in cl.live_allocations():
            assert not (union & alloc.nodes), "node in two live allocations"
            assert not (alloc.app & alloc.sim)
            union |= alloc.nodes
        assert not (union & set(cl._free)), "a node is both free and allocated"
        assert len(union) + len(cl._free) == total, "nodes not conserved"

    return check


def _earliest_start(need: int, free: int, now: float, running) -> float:
    if free >= need:
        return now
    for end, nodes in sorted(running):
        free += nodes
        if free >= need:
            return end
    return INF


def _check_log(log: str, specs, total: int) -> None:
    """Each job granted once and ended once, and no backfill grant pushes the
    head past its reservation when every job ran within its projection."""
    projected = {s.job_id: resman._projected_duration(s.workload) for s in specs}
    size = {s.job_id: s.app_nodes + s.sim_nodes for s in specs}
    queue, running, free = [], {}, total
    granted, ended, promises = {}, {}, []
    for line in log.splitlines():
        time, kind, job, *detail = line.split(" ")
        time = float(time)
        if kind == "submit":
            queue.append(job)
        elif kind == "grant":
            assert job in queue and job not in granted, job
            payload = dict(kv.split("=") for kv in detail[0].split(","))
            nodes = sum(len(payload[k].split("+")) for k in ("app", "sim") if payload[k] != "-")
            assert nodes == size[job]
            if queue[0] != job:
                head = queue[0]
                # A job granted and ended at this timestamp may have freed its
                # nodes inside the walk, after the reservation was taken, so it
                # counts as still running here; that only loosens the bound.
                early = [j for j, t in ended.items() if t == time and granted[j] == time]
                busy = [*running.values(), *((time + projected[j], size[j]) for j in early)]
                start = _earliest_start(size[head], free - sum(size[j] for j in early), time, busy)
                promises.append((head, start, job))
            queue.remove(job)
            granted[job] = time
            running[job] = (time + projected[job], nodes)
            free -= nodes
        elif kind in ("complete", "fail"):
            assert job in granted and job not in ended, job
            ended[job] = time
            free += running.pop(job)[1]
    assert set(granted) == set(ended) == set(projected) and not queue and free == total
    if all(ended[j] <= granted[j] + projected[j] for j in projected):
        for head, start, job in promises:
            assert granted[head] <= start, f"{job} pushed {head} past {start}"
            assert ended[job] <= start, f"{job} ran past {head}'s reservation {start}"


@settings(max_examples=400, deadline=None)
@given(stream=job_streams())
def test_scheduler_matches_reference(stream):
    total, backfill, device, specs = stream
    config = ClusterConfig(total_nodes=total, single_qc_device=device, backfill=backfill)
    logs = []
    for make in (Cluster, ReferenceCluster):
        cl = make(config, on_event=_check_nodes(total))
        for spec in specs:
            cl.submit_job(spec)
        cl.run()
        logs.append(cl.export_log())
    assert logs[0] == logs[1]
    _check_log(logs[0], specs, total)
