"""Discrete-event parallel plan simulation under container constraints.

The serial enforcer charges plan steps to the clock one after another; the
paper's YARN-based executor, however, runs independent DAG branches
concurrently ("run subtasks B and C in parallel").  :class:`ParallelSimulator`
schedules a materialized plan with an event loop: a step starts once the
steps producing its inputs finished *and* the YARN-like scheduler can grant
its containers; the makespan is the resulting parallel completion time.

The event loop is fault-aware: a step whose engine fails (OOM, killed
service, injected transient fault) no longer aborts the whole simulation —
the failing step and everything downstream of it are surfaced in the
report's ``failures`` while independent branches still complete.  A step
whose container request exceeds what the cluster could ever grant is the
same kind of fault: it (and its downstream) fails, the rest of the plan
runs; :class:`SchedulingError` is raised only when *no* compute step of the
plan can ever be placed.  Detected stragglers (injected slowdowns beyond
``straggler_threshold``) are speculatively re-executed on the best
alternative engine, Hadoop-style: whichever copy finishes first wins, and
the outcome is recorded.

The event loop itself lives in :mod:`repro.execution.cluster` — a
:class:`~repro.execution.cluster.ClusterScheduler` interleaves steps from
many in-flight plans over one shared cluster.  :class:`ParallelSimulator`
is the single-plan view of it: one run, a private cluster clone, the
paper-era report.  :class:`StepResolver` (durations, transient faults,
straggler speculation) is the per-run machinery both share.

Used to quantify how much the plan's dataflow parallelism buys on a given
cluster, and how makespan degrades as the cluster shrinks or faults rise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.estimators import resources_for, workload_from_inputs
from repro.core.workflow import MaterializedPlan, PlanStep
from repro.engines.containers import ContainerRequest
from repro.engines.errors import EngineError
from repro.engines.faults import TransientOutcome
from repro.engines.registry import MultiEngineCloud
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import NULL_TRACER, Tracer

_LOG = get_logger("simulator")
_SIM_STEPS = REGISTRY.counter(
    "ires_simulator_steps_total",
    "Simulated plan steps by engine and outcome",
    labels=("engine", "status"),
)
_SIM_MAKESPAN = REGISTRY.histogram(
    "ires_simulator_makespan_seconds",
    "Parallel makespans of simulated plans",
)


class SchedulingError(RuntimeError):
    """The plan cannot be scheduled (no compute step fits the cluster)."""


@dataclass
class ScheduledStep:
    """One step's placement in simulated time."""

    step: PlanStep
    start: float
    finish: float
    #: cores of the granted container request (0 for data moves, which take
    #: none) — the accountant bills ``sim_seconds * cores`` to ``engine``
    cores: int = 0

    @property
    def duration(self) -> float:
        """Seconds the step occupies in the schedule."""
        return self.finish - self.start

    sim_seconds = duration

    @property
    def engine(self) -> str:
        """Where the step ran, named as the enforcer names it."""
        return "move" if self.step.is_move else self.step.engine or ""


@dataclass
class StepFailure:
    """A step the simulation could not run (or skipped due to one that failed)."""

    step: PlanStep
    error: str
    cascaded: bool = False  # True when an upstream producer failed, not this step


@dataclass
class SpeculationRecord:
    """Outcome of one speculative re-execution of a detected straggler."""

    operator: str
    engine: str  # the straggling original placement
    backup_engine: str  # where the speculative copy ran
    original_seconds: float  # how long the straggler would have taken
    effective_seconds: float  # what the step actually took with speculation

    @property
    def won(self) -> bool:
        """Whether the speculative copy beat the straggler."""
        return self.effective_seconds < self.original_seconds

    @property
    def saved_seconds(self) -> float:
        """Simulated time the speculation shaved off the step."""
        return max(self.original_seconds - self.effective_seconds, 0.0)


@dataclass
class ParallelReport:
    """Outcome of a parallel simulation."""

    makespan: float
    serial_time: float
    schedule: list[ScheduledStep] = field(default_factory=list)
    failures: list[StepFailure] = field(default_factory=list)
    speculations: list[SpeculationRecord] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        """Whether every step of the plan was scheduled and completed."""
        return not self.failures

    @property
    def sim_time(self) -> float:
        """The run's simulated seconds, as ``ExecutionReport`` names them."""
        return self.makespan

    @property
    def executions(self) -> list[ScheduledStep]:
        """The steps that ran, as ``ExecutionReport`` names them."""
        return self.schedule

    @property
    def speedup(self) -> float:
        """Serial time divided by the parallel makespan."""
        return self.serial_time / self.makespan if self.makespan > 0 else 1.0

    def concurrency_at(self, t: float) -> int:
        """Number of steps running at simulated time ``t``.

        Zero-duration steps (e.g. free moves between co-located stores)
        count at their instant: they did run at ``t``, even though
        ``start <= t < finish`` is unsatisfiable for them.
        """
        return sum(
            1 for s in self.schedule
            if (s.start <= t < s.finish) or (s.start == t == s.finish)
        )

    @property
    def max_concurrency(self) -> int:
        """Peak number of concurrently running steps.

        A single sweep over start/finish events — O(n log n), not the
        former O(n²) per-start-time rescan, which 64-workflow cluster
        schedules made noticeable.  At any event time the finishes of
        positive-duration steps are applied first (a step ending exactly
        when another starts does not overlap it), then starts, and
        zero-duration steps at that instant are counted on top.
        """
        starts: dict[float, int] = {}
        finishes: dict[float, int] = {}
        zeros: dict[float, int] = {}
        for s in self.schedule:
            if s.finish <= s.start:
                zeros[s.start] = zeros.get(s.start, 0) + 1
            else:
                starts[s.start] = starts.get(s.start, 0) + 1
                finishes[s.finish] = finishes.get(s.finish, 0) + 1
        peak = running = 0
        for t in sorted(set(starts) | set(finishes) | set(zeros)):
            running -= finishes.get(t, 0)
            running += starts.get(t, 0)
            peak = max(peak, running + zeros.get(t, 0))
        return peak


class StepResolver:
    """Per-run resolution of step durations, faults and speculation.

    One instance per simulated run: it owns the run's RNG stream, so
    resolving the same plan with the same seed always yields the same
    durations — whether the run is simulated alone
    (:class:`ParallelSimulator`) or packed onto a shared cluster
    (:class:`~repro.execution.cluster.ClusterScheduler`).
    """

    def __init__(self, cloud: MultiEngineCloud, rng: np.random.Generator,
                 fault_injector=None, speculation: bool = True,
                 straggler_threshold: float = 2.0) -> None:
        self.cloud = cloud
        self.rng = rng
        self.fault_injector = fault_injector
        self.speculation = speculation
        self.straggler_threshold = straggler_threshold

    def resolve(
        self, step: PlanStep
    ) -> tuple[float | None, StepFailure | None, SpeculationRecord | None,
               ContainerRequest | None]:
        """One step's effective duration, or its failure, plus speculation
        and the container request it asks the shared scheduler for (none
        for a move, which takes no containers, and for a failed step)."""
        if step.is_move:
            seconds = self.cloud.move_seconds(
                step.inputs[0].size, step.inputs[0].store, step.outputs[0].store)
            return seconds, None, None, None
        engine = self.cloud.engines.get(step.engine or "")
        if engine is None:
            raise SchedulingError(f"engine {step.engine!r} is not deployed")
        if not engine.available:
            return None, StepFailure(
                step, f"{step.operator.name}@{engine.name}: engine is OFF"), None, None
        workload = workload_from_inputs(step.operator, step.inputs)
        resources = resources_for(step.operator, self.cloud)
        try:
            truth = engine.true_seconds(step.operator.algorithm, workload,
                                        resources)
        except EngineError as exc:
            return None, StepFailure(
                step, f"{step.operator.name}@{engine.name}: {exc}"), None, None
        noise = float(np.exp(self.rng.normal(0.0, engine.noise_sigma)))
        base = truth * noise
        outcome = (
            self.fault_injector.transient_outcome(engine.name)
            if self.fault_injector is not None else TransientOutcome()
        )
        if outcome.fails:
            return None, StepFailure(
                step,
                f"{step.operator.name}@{engine.name}: transient fault after "
                f"{outcome.work_fraction:.0%} of the work"), None, None
        request = engine.request_for(resources)
        if outcome.slowdown <= 1.0:
            return base, None, None, request
        slowed = base * outcome.slowdown
        if not self.speculation or outcome.slowdown <= self.straggler_threshold:
            return slowed, None, None, request
        # straggler detected at threshold × nominal: launch a backup copy
        spec = self._speculate(step, engine, workload, resources, base, slowed)
        if spec is None:
            return slowed, None, None, request
        return spec.effective_seconds, None, spec, request

    def _speculate(self, step, engine, workload, resources,
                   base: float, slowed: float) -> SpeculationRecord | None:
        backup = self._backup_engine(step, engine, workload, resources)
        if backup is None:
            return None
        try:
            backup_truth = backup.true_seconds(step.operator.algorithm,
                                               workload, resources)
        except EngineError:
            return None
        backup_noise = float(np.exp(self.rng.normal(0.0, backup.noise_sigma)))
        detect = base * self.straggler_threshold
        effective = min(slowed, detect + backup_truth * backup_noise)
        return SpeculationRecord(
            operator=step.operator.name,
            engine=engine.name,
            backup_engine=backup.name,
            original_seconds=slowed,
            effective_seconds=effective,
        )

    def _backup_engine(self, step: PlanStep, original, workload, resources):
        """Fastest other available engine implementing the step's algorithm."""
        best, best_seconds = None, float("inf")
        for candidate in self.cloud.engines.values():
            if candidate.name == original.name or not candidate.available:
                continue
            if not candidate.supports(step.operator.algorithm):
                continue
            try:
                seconds = candidate.true_seconds(
                    step.operator.algorithm, workload, resources)
            except EngineError:
                continue
            if seconds < best_seconds:
                best, best_seconds = candidate, seconds
        return best


class ParallelSimulator:
    """Event-driven, fault-aware scheduler for one materialized plan.

    A thin single-run view over the shared cluster event loop: each
    ``simulate`` call admits the plan to a fresh
    :class:`~repro.execution.cluster.ClusterScheduler` over a *clone* of
    the cloud's cluster, so isolated what-if simulations never contend
    with (or mutate) the live placement state.
    """

    def __init__(self, cloud: MultiEngineCloud, seed: int = 0,
                 charge_clock: bool = True, fault_injector=None,
                 speculation: bool = True,
                 straggler_threshold: float = 2.0,
                 tracer: Tracer | None = None) -> None:
        self.cloud = cloud
        self.seed = seed
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: advance the cloud's simulated clock by the makespan afterwards
        self.charge_clock = charge_clock
        #: optional FaultInjector supplying transient outcomes per execution
        self.fault_injector = fault_injector
        #: speculatively re-execute stragglers slower than threshold × nominal
        self.speculation = speculation
        self.straggler_threshold = straggler_threshold

    # -- main loop --------------------------------------------------------------
    def simulate(self, plan: MaterializedPlan) -> ParallelReport:
        """Schedule the plan and return the parallel report."""
        base_sim = self.cloud.clock.now
        with self.tracer.span(
            f"simulate:{plan.workflow.name}", category="simulator",
            workflow=plan.workflow.name, steps=len(plan.steps),
        ) as span:
            report = self._simulate_inner(plan)
            if self.tracer.enabled:
                self._trace_report(report, span, base_sim)
        _SIM_MAKESPAN.observe(report.makespan)
        for sched in report.schedule:
            engine = "move" if sched.step.is_move else (sched.step.engine or "")
            _SIM_STEPS.inc(engine=engine, status="ok")
        for failure in report.failures:
            engine = ("move" if failure.step.is_move
                      else (failure.step.engine or ""))
            _SIM_STEPS.inc(engine=engine,
                           status="cascaded" if failure.cascaded else "failed")
        _LOG.info("simulated", workflow=plan.workflow.name,
                  makespan=report.makespan, speedup=report.speedup,
                  failures=len(report.failures),
                  speculations=len(report.speculations))
        return report

    def _simulate_inner(self, plan: MaterializedPlan) -> ParallelReport:
        # one private shared-loop instance over a cluster clone: isolated
        # what-if simulation, identical event-loop semantics
        from repro.execution.cluster import ClusterScheduler

        loop = ClusterScheduler(
            self.cloud, policy="fifo",
            cluster=self.cloud.cluster.clone(),
            seed=self.seed,
            speculation=self.speculation,
            straggler_threshold=self.straggler_threshold,
            fault_injector=self.fault_injector,
        )
        report = loop.execute(plan, seed=self.seed)
        if self.charge_clock:
            self.cloud.clock.advance(report.makespan)
        return report

    def _trace_report(self, report: ParallelReport, span,
                      base_sim: float) -> None:
        """Retro-record the event loop's schedule as child spans + events."""
        span.set_attribute("makespan", report.makespan)
        span.set_attribute("speedup", report.speedup)
        span.set_attribute("failures", len(report.failures))
        for sched in report.schedule:
            step = sched.step
            self.tracer.record_span(
                f"step:{step.operator.name}", "simulator",
                base_sim + sched.start, base_sim + sched.finish,
                attributes={
                    "operator": step.operator.name,
                    "engine": "move" if step.is_move else (step.engine or ""),
                    "inputs": [d.name for d in step.inputs],
                    "outputs": [d.name for d in step.outputs],
                },
                parent=span,
            )
        for failure in report.failures:
            span.add_event("step_failed",
                           operator=failure.step.operator.name,
                           cascaded=failure.cascaded, error=failure.error)
        for spec in report.speculations:
            span.add_event("speculation", operator=spec.operator,
                           engine=spec.engine,
                           backup_engine=spec.backup_engine,
                           won=spec.won, saved_seconds=spec.saved_seconds)
