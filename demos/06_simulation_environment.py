"""
Gang versus throughput execution
================================

The simulation environment splits a job's simulation nodes by simulator kind
and plans routed tasks onto them: multi-worker tasks run gang mode (one
simulator spanning several nodes), single-worker tasks pack one per node.
"""
from qorch.circuit import CircuitBuilder
from qorch.config import load_config
from qorch.qpm import StateVectorBackend
from qorch.qtm import Preferences, TaskManager
from qorch.simenv import assess, configure, execute_plan

config = load_config()
registry = config.build_registry()
tm = TaskManager(registry, config.routing)


def sampled(n, seed):
    b = CircuitBuilder(n, (("c", n),)).h(0)
    for q in range(n - 1):
        b.cx(q, q + 1)
    return tm.normalize(b.measure_all("c").build(), shots=200, seed=seed)


# Four single-worker tasks on four nodes: pure throughput, all start at 0.
partitions = configure(sim_nodes=4)
queue = [(t, tm.route(t)) for t in (sampled(3, i) for i in range(4))]
timed = assess(queue, partitions, registry)
print("throughput starts:", [(a.task.task_id, a.start, a.run_mode) for a in timed.assignments])

# A gang(4) task followed by a single-worker task: the gang takes the whole
# partition first; FIFO keeps the small task from starving it.
gang_task = sampled(4, 10)
gang_task = tm.normalize(gang_task.circuit, 200, 10, Preferences(workers=4))
small_task = sampled(3, 11)
queue = [(gang_task, tm.route(gang_task)), (small_task, tm.route(small_task))]
timed = assess(queue, partitions, registry)
for a in timed.assignments:
    print(f"{a.task.task_id}: {a.run_mode:10s} workers={a.decision.workers} nodes={a.nodes} "
          f"start={a.start:.6f} duration={a.duration:.6f}")

# Executing the plan runs each task through the task manager: real counts,
# while the task's time is the duration it was planned with, priced once.
# Gang vs throughput changes only the timeline, which the plan holds, never
# the distribution.
results = execute_plan(timed, tm)
print("counts:", [dict(sorted(r.counts.items())) for r in results.values()])
busy = sum(a.decision.workers * a.duration for a in timed.assignments)
print("makespan:   ", round(timed.makespan, 6))
print("busy share: ", round(busy / (4 * timed.makespan), 3))

# The state-vector backend's timing model rewards gang mode for
# worker-local circuits.
timing = StateVectorBackend(alpha=0.0, beta=1e-9, gamma=1e-9)
c = CircuitBuilder(20).h(0).cx(0, 1).build()
print("\nT(w=1):", timing.service_time(c, 200, 1), " T(w=4):", timing.service_time(c, 200, 4))
