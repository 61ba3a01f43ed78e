"""Span tracing from outside qorch, for the per-layer metrics.

``Tracer.install()`` replaces the names that qorch's callers import with thin
wrappers that record a span around each call: a name, a start, an end, the
span that caused it and a job id.  Spans stay in memory and are written as
JSON lines when the run ends.  The gate kernel and the collapse step run up
to millions of times per run, so their calls are folded into per-parent
time totals instead of becoming spans of their own.

A span's self time is its duration minus the part of that interval covered
by its child spans and folded calls.  Cut subtasks run on worker threads;
their spans keep the submitting span as parent, so a parent's covered time
is the union of its children's intervals.
"""
from __future__ import annotations

import json
import resource
import threading
from collections import defaultdict
from time import perf_counter

import qorch.qpm
import qorch.qtm
import qorch.report
import qorch.resman
import qorch.scenarios
import qorch.statevec
import qorch.workflow
from qorch.circuit import Gate, Measure, Reset, is_static

NAME, START, END, PARENT, JOB, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, job: str | None = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = self.spans[parent][JOB]
        span = [name, perf_counter(), None, parent, job, {}]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack().pop()

    def fold(self, key: str, seconds: float) -> None:
        """Add a leaf call's time to the current span instead of recording it."""
        stack = self._stack()
        if stack:
            attrs = self.spans[stack[-1]][ATTRS]
            attrs[key] = attrs.get(key, 0.0) + seconds
            attrs["fold_s"] = attrs.get("fold_s", 0.0) + seconds

    def count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counters[key] += value

    def spanned(self, name: str, func, before=None, after=None):
        """Wrap ``func`` so each call records a span called ``name``."""
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                if before is not None:
                    before(span[ATTRS], *args, **kwargs)
                result = func(*args, **kwargs)
                if after is not None:
                    after(span[ATTRS], result, *args, **kwargs)
                return result
            finally:
                tracer.end(span)

        wrapper.__wrapped__ = func
        return wrapper

    def spanned_generator(self, name: str, gen, job: str | None = None):
        """Drive ``gen`` and record one span per resume (generator bodies
        run in slices between the cluster's events)."""
        value, error = None, None
        while True:
            span = self.begin(name, job)
            try:
                item = gen.throw(error) if error is not None else gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self.end(span)
            value, error = None, None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the wrapped body
                error = exc

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        tracer = self
        qtm, qpm, sc, rm = qorch.qtm, qorch.qpm, qorch.scenarios, qorch.resman

        def parse_before(attrs, text, *args, **kwargs):
            attrs["bytes"] = len(text.encode("utf-8"))

        self._patch(qtm, "parse_qasm", self.spanned("qasm.parse", qtm.parse_qasm, parse_before))
        self._patch(qtm, "split_circuit", self.spanned("circuit.split", qtm.split_circuit))
        self._patch(qtm, "interaction_components",
                    self.spanned("circuit.split", qtm.interaction_components))

        TM = qtm.TaskManager
        self._patch(TM, "route", self.spanned("qtm.route", TM.route))
        original_cut = TM.cut

        def cut(self_tm, task):
            tracer.count("qtm.cuts_computed")
            return original_cut(self_tm, task)

        self._patch(TM, "cut", cut)

        def aggregate_before(attrs, plan, results):
            attrs["shots"] = results[0].total() if results else 0

        self._patch(TM, "aggregate", staticmethod(
            self.spanned("qtm.aggregate", TM.__dict__["aggregate"].__func__, aggregate_before)))
        self._patch(TM, "execute_task", self.spanned("qtm.execute_task", TM.execute_task))

        original_run_all = qtm.SubtaskRunner.run_all

        def run_all(self_runner, calls):
            stack = tracer._stack()
            parent = stack[-1] if stack else None

            def adopt(call):
                def adopted():
                    tracer._local.stack = [] if parent is None else [parent]
                    return call()
                return adopted

            return original_run_all(self_runner, [adopt(c) for c in calls])

        self._patch(qtm.SubtaskRunner, "run_all", run_all)

        def run_before(attrs, circuit, shots, *args, **kwargs):
            attrs["static"] = is_static(circuit) and not kwargs.get("force_shot_by_shot")
            attrs["shots"] = shots
            attrs["faults0"] = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            if attrs["static"]:
                measured, reset = set(), set()
                for instr in circuit.instructions:
                    if isinstance(instr, Reset):
                        reset.add(instr.qubit)
                    elif isinstance(instr, Measure) and instr.qubit not in reset:
                        measured.add(instr.qubit)
                attrs["enumerated"] = 2 ** len(measured)

        def run_after(attrs, result, *args, **kwargs):
            counts, trace = result
            attrs["faults"] = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - attrs.pop("faults0")
            attrs["keys"] = len(counts)
            attrs["gates"] = trace.gates_applied

        self._patch(qpm, "run", self.spanned("statevec.run", qpm.run, run_before, run_after))

        State = qorch.statevec.State
        original_apply = State.apply

        def apply(self_state, instr):
            start = perf_counter()
            delta = original_apply(self_state, instr)
            seconds = perf_counter() - start
            if isinstance(instr, Gate):
                tracer.fold("statevec.kernel", seconds)
                if delta.gates_applied:
                    tracer.count("statevec.amp_gates", 2 ** self_state.num_qubits)
            elif isinstance(instr, (Measure, Reset)):
                tracer.fold("statevec.collapse", seconds)
            return delta

        self._patch(State, "apply", apply)

        R = qpm.BackendRegistry
        self._patch(R, "execute", self.spanned("qpm.execute", R.execute))

        def readout_before(attrs, self_backend, request, descriptor):
            attrs["shot_bits"] = request.shots * request.circuit.num_clbits

        MH = qpm.MockHardwareBackend
        self._patch(MH, "execute", self.spanned("qpm.readout", MH.execute, readout_before))

        def assess_after(attrs, plan, *args, **kwargs):
            for assignment in plan.assignments:
                tracer.count(f"simenv.{assignment.run_mode}_assignments")

        self._patch(sc, "configure", self.spanned("simenv.plan", sc.configure))
        self._patch(sc, "assess", self.spanned("simenv.plan", sc.assess, after=assess_after))
        self._patch(sc, "execute_plan", self.spanned("simenv.execute", sc.execute_plan))
        self._patch(rm.Cluster, "run", self.spanned("resman.run", rm.Cluster.run))

        base_workload = rm.GeneratorWorkload

        class TracedWorkload(base_workload):
            def body(self_workload, ctx):
                return tracer.spanned_generator("job.body", super().body(ctx), ctx.job_id)

        self._patch(rm, "GeneratorWorkload", TracedWorkload)
        self._patch(sc, "GeneratorWorkload", TracedWorkload)

        original_batch = sc.QuantumBatch.run_batch

        def run_batch(self_batch, tasks, sequential=False):
            return (yield from tracer.spanned_generator(
                "scenarios.batch", original_batch(self_batch, tasks, sequential)))

        self._patch(sc.QuantumBatch, "run_batch", run_batch)
        self._patch(qorch.workflow, "run_workflow",
                    self.spanned("workflow.run", qorch.workflow.run_workflow))

        def render_after(attrs, text, *args):
            attrs["bytes"] = len(text.encode("utf-8"))

        RR = qorch.report.RunReport
        self._patch(RR, "to_text", self.spanned("report.render", RR.to_text, after=render_after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                children[span[PARENT]].append((span[START], span[END]))
        out = []
        for index, span in enumerate(self.spans):
            covered, reach = 0.0, None
            for start, end in sorted(children.get(index, ())):
                if reach is None or start > reach:
                    covered += end - start
                    reach = end
                elif end > reach:
                    covered += end - reach
                    reach = end
            own = span[END] - span[START] - covered - span[ATTRS].get("fold_s", 0.0)
            out.append(max(own, 0.0))
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT], "job": span[JOB],
                    **span[ATTRS],
                }) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def layer_metrics(tracer: Tracer, rounds: int, log) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced round, from the recorded spans and from
    ``log``, the event-log statistics of one round."""
    total = defaultdict(float)  # span name -> summed duration
    own = defaultdict(float)    # span name -> summed self time
    attr = defaultdict(float)   # (name, attr) -> summed attribute
    n_spans = defaultdict(int)
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        name = span[NAME]
        total[name] += span[END] - span[START]
        own[name] += self_s
        n_spans[name] += 1
        for key, value in span[ATTRS].items():
            if isinstance(value, (int, float)):
                attr[(name, key)] += value
        if name == "statevec.run":
            group = "static" if span[ATTRS]["static"] else "ff"
            total[f"statevec.run.{group}"] += span[END] - span[START]
            own[f"statevec.run.{group}"] += self_s
            attr[(f"statevec.run.{group}", "shots")] += span[ATTRS]["shots"]
            attr[(f"statevec.run.{group}", "keys")] += span[ATTRS]["keys"]
    c = tracer.counters

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    per_round = 1.0 / rounds
    kernel_s = attr[("statevec.run", "statevec.kernel")]
    metrics = {
        "qasm.parse_s": (total["qasm.parse"] * per_round, "s"),
        "qasm.parse_kb_per_s": (
            ratio(attr[("qasm.parse", "bytes")] / 1024, total["qasm.parse"]), "KiB/s"),
        "qasm.programs": (n_spans["qasm.parse"] * per_round, "count"),
        "circuit.split_s": (total["circuit.split"] * per_round, "s"),
        "qtm.route_s": (own["qtm.route"] * per_round, "s"),
        "qtm.cuts_computed": (c["qtm.cuts_computed"] * per_round, "count"),
        "qtm.cut_use_ratio": (ratio(n_spans["qtm.aggregate"], c["qtm.cuts_computed"]), "ratio"),
        "qtm.aggregate_s": (total["qtm.aggregate"] * per_round, "s"),
        "qtm.aggregate_ns_per_shot": (
            ratio(total["qtm.aggregate"], attr[("qtm.aggregate", "shots")], 1e9), "ns"),
        "qtm.subtask_fanout_s": (own["qtm.execute_task"] * per_round, "s"),
        "statevec.run_s": (total["statevec.run"] * per_round, "s"),
        "statevec.kernel_s": (kernel_s * per_round, "s"),
        "statevec.kernel_ns_per_amp_gate": (ratio(kernel_s, c["statevec.amp_gates"], 1e9), "ns"),
        "statevec.collapse_s": (attr[("statevec.run", "statevec.collapse")] * per_round, "s"),
        "statevec.sample_s": (own["statevec.run.static"] * per_round, "s"),
        "statevec.outcomes_enumerated": (attr[("statevec.run", "enumerated")] * per_round, "count"),
        "statevec.outcome_hit_ratio": (ratio(
            attr[("statevec.run.static", "keys")], attr[("statevec.run", "enumerated")]), "ratio"),
        "statevec.ff_us_per_shot": (
            ratio(total["statevec.run.ff"], attr[("statevec.run.ff", "shots")], 1e6), "us"),
        "statevec.gates_applied": (attr[("statevec.run", "gates")] * per_round, "count"),
        "statevec.minor_faults": (attr[("statevec.run", "faults")] * per_round, "count"),
        "statevec.bytes_moved_computed": (c["statevec.amp_gates"] * 32 * per_round, "B"),
        "qpm.execute_s": (own["qpm.execute"] * per_round, "s"),
        "qpm.readout_s": (own["qpm.readout"] * per_round, "s"),
        "qpm.readout_ns_per_shot_bit": (
            ratio(own["qpm.readout"], attr[("qpm.readout", "shot_bits")], 1e9), "ns"),
        "simenv.plan_s": (total["simenv.plan"] * per_round, "s"),
        "simenv.execute_s": (own["simenv.execute"] * per_round, "s"),
        "simenv.gang_assignments": (c["simenv.gang_assignments"] * per_round, "count"),
        "simenv.throughput_assignments": (c["simenv.throughput_assignments"] * per_round, "count"),
        "resman.sched_s": (own["resman.run"] * per_round, "s"),
        "scenarios.batch_s": (own["scenarios.batch"] * per_round, "s"),
        "workflow.run_s": (own["workflow.run"] * per_round, "s"),
        "report.render_s": (total["report.render"] * per_round, "s"),
        "report.bytes": (attr[("report.render", "bytes")] * per_round, "B"),
    }
    run_s = total["resman.run"] * per_round
    metrics.update({
        "resman.events": (log.events, "count"),
        "resman.events_per_s": (ratio(log.events, run_s), "1/s"),
        "resman.queue_depth_max": (log.queue_depth_max, "count"),
        "resman.backfilled_jobs": (log.backfilled_jobs, "count"),
        "resman.device_wait_model_s": (log.device_wait_model_s, "s"),
    })
    return metrics

