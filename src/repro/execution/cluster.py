"""Cluster-wide event loop packing steps from many in-flight workflows.

Production meta-schedulers do not run each DAG against the cluster alone:
steps from every admitted workflow compete for the same containers.
:class:`ClusterScheduler` is that shared loop — K materialized plans are
in flight at once, one :class:`~repro.engines.containers.ContainerScheduler`
accounts for the *shared* (non-cloned) cluster, and at each event the
ready steps of *all* runs are dequeued under a pluggable policy:

``fifo``
    strict admission order — steps of earlier runs first (the naive
    baseline the bench compares against).
``fair``
    per-run deficit fair-share — the run that has consumed the fewest
    core·seconds goes first, so small workflows are not starved behind
    large ones.
``dagps``
    DAGPS-style priorities from remaining critical-path work
    (arXiv:1604.07371): across runs, the DAG with the *least*
    unscheduled work (core·seconds) goes first — near-done and small
    DAGs drain instead of idling at 95% behind wide ones; within a
    run, the step heading the *longest* remaining subgraph goes first
    ("do the hard stuff first"), keeping each DAG's troublesome pole
    moving.

Per run, the loop reuses the existing fault machinery via
:class:`~repro.execution.parallel.StepResolver`: transient faults and
engine outages become :class:`StepFailure` cascading to downstream
consumers, detected stragglers are speculatively re-executed on a backup
engine.  A step whose container request can never fit the cluster — even
empty — fails the same way instead of aborting the run; only a plan with
*no* placeable compute step raises
:class:`~repro.execution.parallel.SchedulingError`.

The loop is thread-safe, not cooperative: one lock guards all of its
state, and whichever thread holds it drives *every* event — other runs'
included — until its own run is done (:meth:`execute`) or nothing is in
flight (:meth:`run_until_idle`); a :meth:`submit` from another thread
waits for that.  Runs share the cluster only when they are admitted
before the driving starts.  Per-run spans and resilience events are
recorded under the run's id at finalization, so traces attribute
correctly even though steps of many runs interleave on one timeline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis.runtime_check import make_lock
from repro.core.workflow import MaterializedPlan, PlanStep
from repro.engines.cluster import Cluster
from repro.engines.containers import Container, ContainerRequest, ContainerScheduler
from repro.engines.monitoring import resilience_event
from repro.engines.registry import MultiEngineCloud
from repro.execution.parallel import (
    ParallelReport,
    ScheduledStep,
    SchedulingError,
    SpeculationRecord,
    StepFailure,
    StepResolver,
)
from repro.obs.context import bind_run_id
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import NULL_TRACER, Tracer

_LOG = get_logger("cluster")
_RUNS_ADMITTED = REGISTRY.counter(
    "ires_cluster_runs_total",
    "Runs admitted to the shared cluster loop by policy and outcome",
    labels=("policy", "status"),
)
_STEPS_PLACED = REGISTRY.counter(
    "ires_cluster_steps_placed_total",
    "Steps granted containers on the shared cluster",
    labels=("policy",),
)
_INFLIGHT = REGISTRY.gauge(
    "ires_cluster_runs_inflight",
    "Runs currently admitted and not yet finalized",
)
_SLOWDOWN = REGISTRY.histogram(
    "ires_cluster_run_response_seconds",
    "Per-run response times (admission to completion) on the shared cluster",
)

#: valid policy names, in documentation order
POLICIES = ("fifo", "fair", "dagps")


def _policy_key(policy: str):
    """The sort key ``(run, plan_index, step) -> tuple`` for a policy.

    Every key ends with ``(run.seq, index)`` so candidate order is total
    and deterministic: ties — equal deficits, equal critical-path
    fractions — fall back to admission order, never dict/hash order.
    """
    if policy == "fifo":
        return lambda run, idx, step: (run.seq, idx)
    if policy == "fair":
        return lambda run, idx, step: (run.consumed_core_seconds, run.seq, idx)
    if policy == "dagps":
        # least unscheduled work across runs, longest remaining
        # (troublesome) subgraph within a run
        return lambda run, idx, step: (
            run.remaining_work, -run.crit[id(step)], run.seq, idx)
    raise ValueError(f"unknown cluster policy {policy!r}; pick one of {POLICIES}")


@dataclass
class ClusterRun:
    """One admitted plan's state inside the shared loop."""

    plan: MaterializedPlan
    seq: int
    run_id: str | None = None
    tenant: str = "default"
    arrival: float = 0.0  # virtual time of admission
    durations: dict[int, float] = field(default_factory=dict)
    failures: dict[int, StepFailure] = field(default_factory=dict)
    speculations: list[tuple[SpeculationRecord, PlanStep]] = field(default_factory=list)
    requests: dict[int, ContainerRequest | None] = field(default_factory=dict)
    crit: dict[int, float] = field(default_factory=dict)  # remaining critical path
    total_crit: float = 0.0
    #: core·seconds of container-backed steps not yet placed
    remaining_work: float = 0.0
    index: dict[int, int] = field(default_factory=dict)  # id(step) -> plan position
    #: id(step) -> its consumers among the steps that survived admission
    consumers: dict[int, list[PlanStep]] = field(default_factory=dict)
    #: id(step) -> producers whose finish event has not been consumed yet
    unmet: dict[int, int] = field(default_factory=dict)
    #: steps with no unmet producer that hold no containers yet
    ready: list[PlanStep] = field(default_factory=list)
    unplaced: int = 0  # surviving steps not placed yet, ready or not
    done: int = 0
    running: int = 0
    scheduled: dict[int, ScheduledStep] = field(default_factory=dict)  # absolute times
    consumed_core_seconds: float = 0.0
    finished_at: float | None = None
    report: ParallelReport | None = None

    @property
    def steps_total(self) -> int:
        """Number of steps in the admitted plan."""
        return len(self.plan.steps)

    @property
    def complete(self) -> bool:
        """Whether every step either finished or failed."""
        return not self.unplaced and self.running == 0


class ClusterScheduler:
    """Shared event loop interleaving steps of K in-flight plans.

    One instance owns the placement state of a cluster; by default the
    cloud's *live* cluster, so concurrent runs genuinely contend (pass
    ``cluster=`` a clone for isolated what-if simulation —
    :class:`~repro.execution.parallel.ParallelSimulator` does exactly
    that).  Admission (:meth:`submit`) and event-driving
    (:meth:`execute`, :meth:`run_until_idle`) may happen from any
    thread; a single lock guards all mutable state, and the thread that
    holds it drives every event until its own wait is over.
    """

    def __init__(self, cloud: MultiEngineCloud, policy: str = "fifo", *,
                 cluster: Cluster | None = None, seed: int = 0,
                 speculation: bool = True, straggler_threshold: float = 2.0,
                 fault_injector=None, tracer: Tracer | None = None) -> None:
        self.cloud = cloud
        self.policy = policy
        self._key = _policy_key(policy)
        self.seed = seed
        self.speculation = speculation
        self.straggler_threshold = straggler_threshold
        self.fault_injector = fault_injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.scheduler = ContainerScheduler(
            cluster if cluster is not None else cloud.cluster)
        #: virtual-time origin: snapshots/spans report cloud-clock timestamps
        self._clock_base = cloud.clock.now
        self._lock = make_lock("cluster")
        self._now = 0.0  # guarded-by: _lock
        self._seq = 0  # guarded-by: _lock
        self._runs: dict[int, ClusterRun] = {}  # guarded-by: _lock
        # (finish, run.seq, step_index, run, step, grants) — heapq orders
        # equal finish times by admission then plan position, so releases
        # and successor admissions are stable across runs and seeds
        self._events: list[
            tuple[float, int, int, ClusterRun, PlanStep, list[Container]]
        ] = []  # guarded-by: _lock
        #: one object per distinct request ever admitted, so a dispatch pass
        #: can remember a refusal by identity (hashing a request costs more
        #: than the question it saves)
        self._interned: dict[ContainerRequest, ContainerRequest] = {}  # guarded-by: _lock
        self._admitted = 0  # guarded-by: _lock
        self._completed = 0  # guarded-by: _lock
        self._steps_placed = 0  # guarded-by: _lock
        self._peak_running = 0  # guarded-by: _lock
        self._peak_cores = 0  # guarded-by: _lock

    # -- admission --------------------------------------------------------------
    def submit(self, plan: MaterializedPlan, *, run_id: str | None = None,
               seed: int | None = None, tenant: str = "default") -> ClusterRun:
        """Admit a materialized plan to the shared loop.

        Pre-resolves every step's duration/failure with a per-run RNG
        (``seed`` defaults to the loop seed plus the admission sequence,
        so repeated submissions differ the way repeated real runs do),
        cascades failures downstream, and marks steps whose container
        request could never fit the *empty* cluster as failed.  Raises
        :class:`SchedulingError` only when that leaves no placeable
        compute step at all.
        """
        with self._lock:
            run = self._prepare_locked(plan, run_id=run_id, seed=seed,
                                       tenant=tenant)
            self._runs[id(run)] = run
            self._admitted += 1
            _RUNS_ADMITTED.inc(policy=self.policy, status="admitted")
            _INFLIGHT.set(len(self._runs))
            if run.complete:  # every step failed before placement
                self._finalize_locked(run)
        _LOG.info("cluster_admit", policy=self.policy, run_id=run.run_id,
                  workflow=plan.workflow.name, seq=run.seq,
                  steps=run.steps_total, failures=len(run.failures))
        return run

    def execute(self, plan: MaterializedPlan, *, run_id: str | None = None,
                seed: int | None = None, tenant: str = "default") -> ParallelReport:
        """Admit the plan, drive the loop until it completes."""
        run = self.submit(plan, run_id=run_id, seed=seed, tenant=tenant)
        self._drive(lambda: run.report is not None)
        assert run.report is not None
        return run.report

    def run_until_idle(self) -> None:
        """Drive events until no admitted run remains in flight."""
        self._drive(lambda: not self._runs)

    # -- event driving ----------------------------------------------------------
    def _drive(self, finished) -> None:
        """Advance events until ``finished()`` (called under the lock) holds.

        The lock is held throughout, so a second thread enters only
        once this one's predicate holds; it then finds its run either
        untouched or already finished by this thread.
        """
        with self._lock:
            while not finished():
                self._advance_locked()

    def _advance_locked(self) -> None:
        """Dispatch what fits, then consume the next finish event."""
        self._dispatch_locked()
        if self._events:
            finish, _seq, _idx, run, step, grants = heapq.heappop(self._events)
            self._now = max(self._now, finish)
            self.scheduler.release_all_of(grants)
            run.done += 1
            run.running -= 1
            for consumer in run.consumers.get(id(step), ()):
                run.unmet[id(consumer)] -= 1
                if not run.unmet[id(consumer)]:
                    run.ready.append(consumer)
            if run.complete:
                self._finalize_locked(run)
            return
        # no event in flight: any still-unplaced step is stuck (its request
        # exceeds the capacity left healthy since admission).  Fail it;
        # never abort the loop — other runs continue.
        for run in list(self._runs.values()):
            for step in run.plan.steps:
                if id(step) in run.failures or id(step) in run.scheduled:
                    continue
                run.failures[id(step)] = StepFailure(
                    step,
                    f"{step.operator.name}: unschedulable — "
                    f"{self._describe_request(run, step)} cannot be granted",
                )
            run.ready.clear()
            run.unplaced = 0
            if run.complete:
                self._finalize_locked(run)

    def _dispatch_locked(self) -> None:
        """Place every ready step the cluster can hold, policy order.

        Backfilling: a candidate whose containers do not fit right now is
        skipped, not blocking — smaller steps behind it may still start.
        (Steps only *complete* at heap pops, so one pass over the ready
        set is exhaustive: placements never unlock new candidates.)  For
        the same reason free capacity only falls during a pass, so a
        request refused once is refused for every later candidate asking
        the same: the container scheduler hears each refused request once.
        """
        candidates: list[tuple[tuple, ClusterRun, PlanStep]] = []
        for run in self._runs.values():
            for step in run.ready:
                candidates.append(
                    (self._key(run, run.index[id(step)], step), run, step))
            run.ready.clear()  # the pass puts back what it does not place
        candidates.sort(key=lambda c: c[0])
        refused: set[int] = set()  # by identity: requests are interned
        placed = False
        for _key, run, step in candidates:
            request = run.requests[id(step)]
            grants: list[Container] | None = []
            if request is not None:
                grants = (None if id(request) in refused
                          else self.scheduler.try_allocate(request))
                if grants is None:  # backfill: try the next candidate
                    refused.add(id(request))
                    run.ready.append(step)
                    continue
            duration = run.durations[id(step)]
            finish = self._now + duration
            run.unplaced -= 1
            run.running += 1
            cores = request.cores * request.instances if request else 0
            run.scheduled[id(step)] = ScheduledStep(
                step, self._now, finish, cores)
            if request is not None:
                work = duration * cores
                run.consumed_core_seconds += work
                run.remaining_work = max(run.remaining_work - work, 0.0)
            heapq.heappush(
                self._events,
                (finish, run.seq, run.index[id(step)], run, step, grants))
            self._steps_placed += 1
            _STEPS_PLACED.inc(policy=self.policy)
            placed = True
        if placed:
            self._peak_running = max(self._peak_running, len(self._events))
            used = sum(n.cores_used
                       for n in self.scheduler.cluster.nodes.values())
            self._peak_cores = max(self._peak_cores, used)

    # -- admission internals ----------------------------------------------------
    def _prepare_locked(self, plan: MaterializedPlan, *, run_id: str | None,
                        seed: int | None, tenant: str) -> ClusterRun:
        run = ClusterRun(plan=plan, seq=self._seq, run_id=run_id,
                         tenant=tenant, arrival=self._now)
        self._seq += 1
        rng = np.random.default_rng(self.seed + run.seq if seed is None else seed)
        resolver = StepResolver(
            self.cloud, rng, fault_injector=self.fault_injector,
            speculation=self.speculation,
            straggler_threshold=self.straggler_threshold)
        steps = list(plan.steps)
        run.index = {id(s): i for i, s in enumerate(steps)}
        for step in steps:
            seconds, failure, spec, request = resolver.resolve(step)
            if failure is not None:
                run.failures[id(step)] = failure
                continue
            run.durations[id(step)] = float(seconds or 0.0)
            run.requests[id(step)] = (
                None if request is None
                else self._interned.setdefault(request, request))
            if spec is not None:
                run.speculations.append((spec, step))

        # dependencies by dataset-object identity (the planner shares them)
        producer_of: dict[int, PlanStep] = {}
        for step in steps:
            for out in step.outputs:
                producer_of[id(out)] = step
        deps = {
            id(s): {id(producer_of[id(d)])
                    for d in s.inputs if id(d) in producer_of}
            for s in steps
        }

        # a request no empty cluster could grant is a fault, not an abort;
        # the empty cluster is asked the way the live one is at dispatch
        empty = ContainerScheduler(self.scheduler.cluster.clone())
        fits_empty: dict[ContainerRequest, bool] = {}
        placeable = infeasible = 0
        for step in steps:
            request = run.requests.get(id(step))
            if request is None:
                continue  # failed already, or a move: needs no containers
            if request not in fits_empty:
                fits_empty[request] = empty.fits(request)
            if fits_empty[request]:
                placeable += 1
            else:
                infeasible += 1
                run.failures[id(step)] = StepFailure(
                    step,
                    f"{step.operator.name} needs {request} "
                    "which exceeds the (empty) cluster")
        if infeasible and not placeable:
            raise SchedulingError(
                f"no step of plan {plan.workflow.name!r} fits the cluster "
                f"({infeasible} oversized requests)")

        # cascade failures to every (transitive) downstream consumer
        changed = True
        while changed:
            changed = False
            for step in steps:
                if id(step) in run.failures:
                    continue
                upstream = next(
                    (f for f in deps[id(step)] if f in run.failures), None)
                if upstream is not None:
                    run.failures[id(step)] = StepFailure(
                        step,
                        f"upstream failure: "
                        f"{run.failures[upstream].step.operator.name}",
                        cascaded=True)
                    changed = True

        # every producer of a surviving step survived too: it is ready
        # once that many finish events have been consumed
        surviving = [s for s in steps if id(s) not in run.failures]
        for step in surviving:
            run.unmet[id(step)] = len(deps[id(step)])
            for dep in deps[id(step)]:
                run.consumers.setdefault(dep, []).append(step)
        run.ready = [s for s in surviving if not run.unmet[id(s)]]
        run.unplaced = len(surviving)
        run.crit, run.total_crit = self._critical_path(
            surviving, run.consumers, run.durations)
        run.remaining_work = sum(
            run.durations[id(s)] * req.cores * req.instances
            for s in surviving
            if (req := run.requests.get(id(s))) is not None)
        return run

    @staticmethod
    def _critical_path(surviving, consumers, durations):
        """Remaining critical-path seconds through each surviving step.

        ``crit[id(step)]`` is the longest duration-weighted path from the
        step (inclusive) to any sink — the DAGPS "troublesomeness" of the
        subgraph hanging off it.  Computed in one reverse pass: plan
        order is topological (producers precede consumers).
        """
        crit: dict[int, float] = {}
        for step in reversed(surviving):
            downstream = max(
                (crit[id(c)] for c in consumers.get(id(step), [])),
                default=0.0)
            crit[id(step)] = durations[id(step)] + downstream
        total = max(crit.values(), default=0.0)
        return crit, total

    def _describe_request(self, run: ClusterRun, step: PlanStep) -> str:
        request = run.requests.get(id(step))
        return repr(request) if request is not None else "no request"

    # -- finalization -----------------------------------------------------------
    def _finalize_locked(self, run: ClusterRun) -> None:
        """Assemble the run's paper-era report and emit its telemetry."""
        run.finished_at = max(
            (s.finish for s in run.scheduled.values()), default=run.arrival)
        if not run.complete:
            raise RuntimeError("finalizing a run that is still in flight")
        steps = list(run.plan.steps)
        schedule = sorted(
            (replace(s, start=s.start - run.arrival,
                     finish=s.finish - run.arrival)
             for s in run.scheduled.values()),
            key=lambda s: (s.start, run.index[id(s.step)]))
        run.report = ParallelReport(
            makespan=run.finished_at - run.arrival,
            serial_time=sum(
                run.durations[id(s)] for s in steps if id(s) in run.scheduled),
            schedule=schedule,
            failures=[run.failures[id(s)] for s in steps
                      if id(s) in run.failures],
            speculations=[spec for spec, step in run.speculations
                          if id(step) in run.scheduled],
        )
        self._runs.pop(id(run), None)
        self._completed += 1
        _RUNS_ADMITTED.inc(
            policy=self.policy,
            status="succeeded" if run.report.succeeded else "failed")
        _INFLIGHT.set(len(self._runs))
        _SLOWDOWN.observe(run.report.makespan)
        self._emit_run_telemetry(run)
        _LOG.info("cluster_run_done", policy=self.policy, run_id=run.run_id,
                  workflow=run.plan.workflow.name, seq=run.seq,
                  makespan=run.report.makespan,
                  failures=len(run.report.failures))

    def _emit_run_telemetry(self, run: ClusterRun) -> None:
        """Record spans and resilience events under the run's identity.

        The finalizing thread may be driving on behalf of *another* run,
        so ambient context would attribute this run's telemetry to the
        wrong run id; re-bind explicitly.  Speculation events are stamped
        at the step's simulated *finish* — when the race between the
        straggler and its backup copy actually resolved — not the run's
        start time.
        """
        def _emit() -> None:
            for spec, step in run.speculations:
                sched = run.scheduled.get(id(step))
                if sched is None:
                    continue
                self.cloud.collector.record(resilience_event(
                    "speculation", spec.engine,
                    self._clock_base + sched.finish,
                    success=spec.won,
                    detail=f"{spec.operator}: backup on {spec.backup_engine} "
                           f"saved {spec.saved_seconds:.1f}s"))
            if not self.tracer.enabled:
                return
            for sched in sorted(run.scheduled.values(), key=lambda s: s.start):
                step = sched.step
                self.tracer.record_span(
                    f"step:{step.operator.name}", "cluster",
                    self._clock_base + sched.start,
                    self._clock_base + sched.finish,
                    attributes={
                        "operator": step.operator.name,
                        "engine": ("move" if step.is_move
                                   else (step.engine or "")),
                        "workflow": run.plan.workflow.name,
                        "policy": self.policy,
                        "runSeq": run.seq,
                    })

        if run.run_id is not None:
            with bind_run_id(run.run_id):
                _emit()
        else:
            _emit()

    # -- introspection ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Queue/placement state for ``GET /cluster`` and ``ires top``."""
        with self._lock:
            runs = []
            for run in self._runs.values():
                runs.append({
                    "runId": run.run_id,
                    "tenant": run.tenant,
                    "workflow": run.plan.workflow.name,
                    "seq": run.seq,
                    "arrival": self._clock_base + run.arrival,
                    "stepsTotal": run.steps_total,
                    "stepsDone": run.done,
                    "stepsRunning": run.running,
                    "stepsFailed": len(run.failures),
                    "consumedCoreSeconds": run.consumed_core_seconds,
                })
            placements = []
            for finish, _seq, _idx, run, step, grants in sorted(self._events):
                placements.append({
                    "runId": run.run_id,
                    "runSeq": run.seq,
                    "operator": step.operator.name,
                    "engine": "move" if step.is_move else (step.engine or ""),
                    "finish": self._clock_base + finish,
                    "containers": len(grants),
                    "nodes": sorted({g.node.node_id for g in grants}),
                })
            return {
                "policy": self.policy,
                "virtualNow": self._clock_base + self._now,
                "admitted": self._admitted,
                "completed": self._completed,
                "inFlight": len(self._runs),
                "stepsPlaced": self._steps_placed,
                "peakRunningSteps": self._peak_running,
                "peakCoresUsed": self._peak_cores,
                "utilization": self.scheduler.utilization(),
                "runs": runs,
                "placements": placements,
            }
