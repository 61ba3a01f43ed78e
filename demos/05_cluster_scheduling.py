"""
Co-allocated cluster scheduling
===============================

A discrete-event cluster grants hybrid jobs their classical and simulation
partitions atomically, optionally backfills small jobs, and serializes access
to a shared single-QC device through a FIFO queue.
"""
from qorch.resman import (
    Advance,
    Cluster,
    ClusterConfig,
    DeviceCalls,
    GeneratorWorkload,
    JobSpec,
    Model,
)

# FIFO with conservative backfill on 8 nodes.
cluster = Cluster(ClusterConfig(total_nodes=8, single_qc_device="dev", backfill=True))

cluster.submit_job(JobSpec("big-A", 2, 4, Model.PER_JOB, workload=100.0, submit_time=0.0))
cluster.submit_job(JobSpec("big-B", 2, 4, Model.PER_JOB, workload=50.0, submit_time=1.0))
# Fits in the two leftover nodes and finishes before A completes: backfilled.
cluster.submit_job(JobSpec("small-C", 1, 1, Model.PER_JOB, workload=50.0, submit_time=2.0))


# A single-QC job computes classically, then queues for the shared device.
def hybrid_body(ctx):
    yield Advance(5.0)
    (grant,) = yield DeviceCalls((10.0,))
    print(f"  [{ctx.job_id}] device wait was {grant.wait}s")


cluster.submit_job(
    JobSpec("qc-D", 1, 0, Model.SINGLE_QC, GeneratorWorkload(hybrid_body, 15.0), 3.0)
)
cluster.run()

print("\nevent timeline:")
print(cluster.export_log())

metrics = cluster.metrics()
print("per-job wait:      ", metrics["wait"])
print("turnaround:        ", metrics["turnaround"])
print("node utilization:  ", round(metrics["utilization"], 3))
print("device queue waits:", metrics["device_waits"])
