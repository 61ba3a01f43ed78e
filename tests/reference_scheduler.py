"""Reference scheduler: the FIFO + EASY backfill pass that walked on every event.

``ReferenceCluster`` is a ``qorch.resman.Cluster`` whose queue is a plain
list of job ids and whose ``_schedule_pass``/``_earliest_start`` are the
ones ``qorch.resman`` used before the scheduler kept an index of running
jobs: every pass sorts every job ever submitted to find the running ones,
then walks a copy of the whole queue, whether or not a node is free.  Grants,
job bodies, completions, failures and the device queue are the cluster's
own, so the two can be held to the same event log, event for event.
"""
from qorch.resman import Cluster, JobSpec, JobState


class ReferenceCluster(Cluster):
    def __init__(self, config, on_event=None):
        super().__init__(config, on_event)
        self._queue: list[str] = []

    def _handle_submit(self, job_id: str) -> None:
        self._queue.append(job_id)
        self._record("submit", job_id)

    def _grant(self, job_id: str) -> None:
        run = self._jobs[job_id]
        duration = run.spec.workload.projected_duration
        run.projected_end = self.now + duration
        super()._grant(job_id, run.spec.app_nodes + run.spec.sim_nodes, duration)

    def _fits(self, spec: JobSpec) -> bool:
        return spec.app_nodes + spec.sim_nodes <= len(self._free)

    def _schedule_pass(self) -> None:
        # FIFO head first; all-or-nothing grants at this timestamp.
        while self._queue and self._fits(self._jobs[self._queue[0]].spec):
            self._grant(self._queue.pop(0))
        if self.config.backfill and self._queue:
            head = self._jobs[self._queue[0]].spec
            head_start = self._earliest_start(head.app_nodes + head.sim_nodes)
            for job_id in list(self._queue[1:]):
                run = self._jobs[job_id]
                if not self._fits(run.spec):
                    continue
                duration = run.spec.workload.projected_duration
                if self.now + duration <= head_start:
                    self._queue.remove(job_id)
                    self._grant(job_id)

    def _earliest_start(self, need: int) -> float:
        """Earliest time the head job could start, from projected completions."""
        free = len(self._free)
        if free >= need:
            return self.now
        releases = sorted(
            (run.projected_end, run.spec.app_nodes + run.spec.sim_nodes)
            for run in self._jobs.values()
            if run.state is JobState.RUNNING
        )
        for when, nodes in releases:
            free += nodes
            if free >= need:
                return when
        return float("inf")
