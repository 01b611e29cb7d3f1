"""Tests for the shared-cluster event loop (repro.execution.cluster)."""

import asyncio
import collections
import functools
import heapq
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.rest import IResServer
from repro.api.service import SUCCEEDED, IResService
from repro.core import AbstractWorkflow, Dataset, IReS, MaterializedOperator
from repro.core.operators import MoveOperator
from repro.core.workflow import MaterializedPlan, PlanStep
from repro.engines import (
    Cluster,
    ContainerRequest,
    ContainerScheduler,
    InsufficientResourcesError,
    Node,
    PerfModel,
)
from repro.execution.cluster import POLICIES, ClusterScheduler
from repro.execution.parallel import (
    ParallelSimulator,
    ScheduledStep,
    SchedulingError,
    StepFailure,
)
from repro.scenarios import setup_helloworld, setup_relational_analytics
from repro.workflows.pegasus import generate, synthetic_library

# the counting test runs the benchmark's own K=64 mix: import it, so the
# two cannot drift apart
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from bench_extension_cluster import _mix, _platform  # noqa: E402


def _relational_platform():
    ires = IReS()
    make = setup_relational_analytics(ires)
    return ires, ires.plan(make(10))


def _service_factory():
    def build():
        ires = IReS()
        make = setup_helloworld(ires)
        workflow = make()
        ires.workflows[workflow.name] = workflow
        return ires
    return build


def test_unknown_policy_rejected():
    ires = IReS()
    with pytest.raises(ValueError, match="unknown cluster policy"):
        ClusterScheduler(ires.cloud, policy="srpt")
    assert set(POLICIES) == {"fifo", "fair", "dagps"}


def test_single_run_matches_isolated_simulator():
    """Alone on a cloned cluster, the shared loop IS the simulator."""
    ires, plan = _relational_platform()
    alone = ParallelSimulator(ires.cloud, seed=11,
                              charge_clock=False).simulate(plan)
    loop = ClusterScheduler(ires.cloud, policy="fifo",
                            cluster=ires.cloud.cluster.clone(), seed=0)
    shared = loop.execute(plan, seed=11)
    assert shared.makespan == pytest.approx(alone.makespan)
    assert shared.serial_time == pytest.approx(alone.serial_time)
    assert len(shared.schedule) == len(alone.schedule)


def test_deterministic_under_equal_finish_times():
    """Identical runs produce many simultaneous finish events; the heap
    breaks those ties by (admission seq, plan position), so two fresh
    loops replay the exact same schedule — not a hash-order one."""
    def burst():
        ires, plan = _relational_platform()
        loop = ClusterScheduler(ires.cloud, policy="fifo",
                                cluster=ires.cloud.cluster.clone(), seed=0)
        # same per-run seed => identical durations => equal finish times
        runs = [loop.submit(plan, seed=42, run_id=f"r{i}") for i in range(4)]
        loop.run_until_idle()
        return [
            [(s.step.operator.name, s.start, s.finish)
             for s in run.report.schedule]
            for run in runs
        ], [run.finished_at for run in runs]

    schedules_a, finished_a = burst()
    schedules_b, finished_b = burst()
    assert schedules_a == schedules_b
    assert finished_a == finished_b


def test_concurrent_runs_contend_for_capacity():
    """Two runs on one shared cluster queue behind each other."""
    ires, plan = _relational_platform()
    alone = ParallelSimulator(ires.cloud, seed=0,
                              charge_clock=False).simulate(plan).makespan
    loop = ClusterScheduler(ires.cloud, policy="fifo",
                            cluster=ires.cloud.cluster.clone(), seed=0)
    runs = [loop.submit(plan, seed=i) for i in range(4)]
    loop.run_until_idle()
    assert all(r.report.succeeded for r in runs)
    aggregate = max(r.finished_at for r in runs)
    assert aggregate > alone  # contention is real
    # every run's response includes its queueing delay
    assert max(r.report.makespan for r in runs) > alone


def test_fair_policy_unstarves_the_late_small_run():
    """A small run admitted behind big ones responds sooner under fair."""
    ires = IReS()
    make = setup_relational_analytics(ires)
    big = ires.plan(make(40))
    small = ires.plan(make(1))

    def response_of_small(policy):
        loop = ClusterScheduler(ires.cloud, policy=policy,
                                cluster=ires.cloud.cluster.clone(), seed=0)
        for i in range(3):
            loop.submit(big, seed=i)
        late = loop.submit(small, seed=99)
        loop.run_until_idle()
        assert late.report.succeeded
        return late.report.makespan

    assert response_of_small("fair") < response_of_small("fifo")


def test_snapshot_reports_queue_and_placements():
    ires, plan = _relational_platform()
    loop = ClusterScheduler(ires.cloud, policy="dagps",
                            cluster=ires.cloud.cluster.clone(), seed=0)
    run = loop.submit(plan, run_id="snap-1", tenant="acme")
    queued = loop.snapshot()
    assert queued["policy"] == "dagps"
    assert queued["inFlight"] == 1 and queued["admitted"] == 1
    (entry,) = queued["runs"]
    assert entry["runId"] == "snap-1" and entry["tenant"] == "acme"
    assert entry["stepsTotal"] == len(plan.steps)

    loop.run_until_idle()
    drained = loop.snapshot()
    assert drained["inFlight"] == 0 and drained["completed"] == 1
    assert drained["stepsPlaced"] == len(run.report.schedule)
    assert drained["placements"] == []
    assert drained["peakCoresUsed"] > 0
    assert 0.0 <= drained["utilization"]["cores"] <= 1.0


def test_service_runs_share_one_cluster():
    """Cluster mode: workers plan per-platform, execute on the shared loop."""
    async def main():
        service = IResService(_service_factory(), workers=4, cluster="fair")
        await service.start()
        server = IResServer(IReS(), service=service)
        recs = [service.submit("helloworld-chain") for _ in range(6)]
        for rec in recs:
            await service.wait(rec.run_id, timeout=120)
        rest = server.handle("GET", "/cluster")
        await service.shutdown()
        return recs, service, rest

    recs, service, rest = asyncio.run(main())
    assert all(rec.state == SUCCEEDED for rec in recs)
    assert all(rec.summary["sharedCluster"] for rec in recs)
    assert all(rec.summary["clusterPolicy"] == "fair" for rec in recs)
    snapshot = service.cluster.snapshot()
    assert snapshot["admitted"] == 6 and snapshot["completed"] == 6
    assert snapshot["stepsPlaced"] == sum(rec.summary["steps"] for rec in recs)
    assert rest.status == 200 and rest.body["policy"] == "fair"
    assert service.stats()["clusterPolicy"] == "fair"


def test_cluster_runs_are_billed_to_their_tenants():
    """The shared cluster's report carries what the accountant reads."""
    async def main():
        service = IResService(_service_factory(), workers=2, cluster="fifo")
        await service.start()
        recs = [service.submit("helloworld-chain", tenant=tenant)
                for tenant in ("a", "b", "a")]
        for rec in recs:
            await service.wait(rec.run_id, timeout=120)
        await service.shutdown()
        return recs, service.accounts.snapshot()

    recs, accounts = asyncio.run(main())
    assert all(rec.state == SUCCEEDED for rec in recs)
    by_run = {usage["runId"]: usage for usage in accounts["recentRuns"]}
    for rec in recs:
        usage = by_run[rec.run_id]
        assert usage["steps"] == rec.summary["steps"] > 0
        assert usage["simSeconds"] == pytest.approx(rec.summary["makespan"])
        assert usage["engineCoreSeconds"] and "move" not in usage["engineCoreSeconds"]
    tenants = {row["tenant"]: row for row in accounts["tenants"]}
    assert tenants["a"]["runs"] == 2 and tenants["b"]["runs"] == 1
    # Σ per-tenant = Σ per-run
    assert sum(row["steps"] for row in tenants.values()) == sum(
        usage["steps"] for usage in by_run.values())
    assert sum(row["simSeconds"] for row in tenants.values()) == pytest.approx(
        sum(usage["simSeconds"] for usage in by_run.values()), abs=1e-5)
    assert sum(row["totalCoreSeconds"] for row in tenants.values()) == pytest.approx(
        sum(sum(usage["engineCoreSeconds"].values())
            for usage in by_run.values()), abs=1e-5)


def test_rest_cluster_404_when_disabled():
    async def main():
        service = IResService(_service_factory(), workers=1)
        await service.start()
        server = IResServer(IReS(), service=service)
        response = server.handle("GET", "/cluster")
        await service.shutdown()
        return response

    response = asyncio.run(main())
    assert response.status == 404
    assert "disabled" in response.body["error"]


def test_rest_cluster_503_without_service():
    server = IResServer(IReS())
    assert server.handle("GET", "/cluster").status == 503


def test_failed_step_cascades_within_its_run_only():
    """A fault in one run never leaks into a concurrent healthy run."""
    ires, plan = _relational_platform()
    victim = next(s.engine for s in plan.steps if not s.is_move)
    loop = ClusterScheduler(ires.cloud, policy="fifo",
                            cluster=ires.cloud.cluster.clone(), seed=0,
                            fault_injector=ires.fault_injector)
    # faults are resolved at admission, so only the first run sees them
    ires.fault_injector.make_flaky(victim, 1.0)
    sick = loop.submit(plan, seed=1)
    ires.fault_injector.clear_transients()
    healthy = loop.submit(plan, seed=1)
    loop.run_until_idle()
    assert not sick.report.succeeded
    assert any(f.cascaded for f in sick.report.failures)
    assert healthy.report.succeeded


# -- the dispatch: maintained ready lists, one question per refused request ----

class _RescanLoop(ClusterScheduler):
    """The dispatch the loop had before it kept ready lists, as reference.

    Every event rescans every unplaced step of every run in flight, takes
    ``deps - done`` to find the ready ones, and offers *each* of them to
    ``allocate``, paying for a refusal with an exception.  Admission,
    placement bookkeeping and finalization are the loop's own.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._deps = {}  # id(run) -> id(step) -> ids of its producers
        self._finished = {}  # id(run) -> ids of steps whose event was consumed

    def _pending(self, run):
        return [s for s in run.plan.steps
                if id(s) not in run.failures and id(s) not in run.scheduled]

    def _deps_of(self, run):
        if id(run) not in self._deps:
            producer_of = {id(out): step for step in run.plan.steps
                           for out in step.outputs}
            self._deps[id(run)] = {
                id(s): {id(producer_of[id(d)])
                        for d in s.inputs if id(d) in producer_of}
                for s in run.plan.steps}
        return self._deps[id(run)]

    def _advance_locked(self):
        self._dispatch_locked()
        if self._events:
            finish, _seq, _idx, run, step, grants = heapq.heappop(self._events)
            self._now = max(self._now, finish)
            self.scheduler.release_all_of(grants)
            self._finished.setdefault(id(run), set()).add(id(step))
            run.done += 1
            run.running -= 1
            if run.complete:
                self._finalize_locked(run)
            return
        for run in list(self._runs.values()):
            for step in self._pending(run):
                run.failures[id(step)] = StepFailure(
                    step,
                    f"{step.operator.name}: unschedulable — "
                    f"{self._describe_request(run, step)} cannot be granted")
            run.unplaced = 0
            if run.complete:
                self._finalize_locked(run)

    def _dispatch_locked(self):
        candidates = []
        for run in self._runs.values():
            deps = self._deps_of(run)
            done = self._finished.get(id(run), set())
            for step in self._pending(run):
                if deps[id(step)] - done:
                    continue
                idx = run.index[id(step)]
                candidates.append((self._key(run, idx, step), run, step))
        candidates.sort(key=lambda c: c[0])
        for _key, run, step in candidates:
            request = run.requests[id(step)]
            grants = []
            if request is not None:
                try:
                    grants = self.scheduler.allocate(request)
                except InsufficientResourcesError:
                    continue
            duration = run.durations[id(step)]
            finish = self._now + duration
            run.unplaced -= 1
            run.running += 1
            cores = request.cores * request.instances if request else 0
            run.scheduled[id(step)] = ScheduledStep(step, self._now, finish, cores)
            if request is not None:
                work = duration * cores
                run.consumed_core_seconds += work
                run.remaining_work = max(run.remaining_work - work, 0.0)
            heapq.heappush(
                self._events,
                (finish, run.seq, run.index[id(step)], run, step, grants))
            self._steps_placed += 1
            self._peak_running = max(self._peak_running, len(self._events))
            self._peak_cores = max(self._peak_cores, sum(
                n.cores_used for n in self.scheduler.cluster.nodes.values()))


@functools.cache
def _mixed_platform():
    """Relational, helloworld and Montage-8 plans on one platform, asking
    for four different container shapes between them."""
    ires = IReS()
    make_relational = setup_relational_analytics(ires)
    make_hello = setup_helloworld(ires)
    montage = generate("Montage", 8, seed=5)
    algorithms = sorted({op.algorithm for op in montage.operators.values()})
    shapes = [ContainerRequest(2, 3.3, 3), ContainerRequest(1, 0.7, 5)]
    for j, shape in enumerate(shapes):
        ires.cloud.add_engine(
            f"engine{j}", default_request=shape,
            profiles={alg: PerfModel(fixed=0.4 + 0.3 * j, per_unit=1e-9)
                      for alg in algorithms})
    for op in synthetic_library(montage, len(shapes), seed=6):
        ires.register_operator(op)
    plans = [ires.plan(make_relational(0.5)), ires.plan(make_hello()),
             ires.plan(montage)]
    assert len({ires.cloud.engines[s.engine].default_request
                for plan in plans for s in plan.steps if not s.is_move}) >= 3
    return ires, plans


def _dump(loop, runs):
    """Everything a schedule decides, per run and for the burst."""
    def one(run):
        if isinstance(run, str):
            return run  # refused at admission
        report = run.report
        return {
            "makespan": report.makespan, "serial": report.serial_time,
            "schedule": [(s.step.operator.name, s.start, s.finish, s.cores)
                         for s in report.schedule],
            "failures": [(f.step.operator.name, f.error, f.cascaded)
                         for f in report.failures],
            "consumed": run.consumed_core_seconds,
            "finished_at": run.finished_at,
        }
    snapshot = loop.snapshot()
    return {"runs": [one(run) for run in runs],
            **{key: snapshot[key] for key in
               ("stepsPlaced", "peakRunningSteps", "peakCoresUsed", "inFlight")}}


def _admit(loop_class, case):
    """A loop with the case's burst admitted, and its runs."""
    ires, plans = _mixed_platform()
    injector = ires.fault_injector
    injector.clear_transients()  # also rewinds the per-engine fault streams
    for engine in ires.cloud.engines:
        injector.make_flaky(engine, case["fail_rate"])
        injector.make_straggler(engine, 3.0, case["straggler_rate"])
    cluster = Cluster(Node(f"n{i}", cores, memory)
                      for i, (cores, memory) in enumerate(case["nodes"]))
    loop = loop_class(ires.cloud, policy=case["policy"], cluster=cluster,
                      seed=0, fault_injector=injector)
    runs = []
    for which, seed in case["burst"]:
        try:
            runs.append(loop.submit(plans[which], seed=seed))
        except SchedulingError as exc:
            runs.append(str(exc))
    injector.clear_transients()
    if case["lost"] is not None:
        cluster.mark_unhealthy(f"n{case['lost'] % len(cluster)}")
    return loop, runs


def _pack(loop_class, case):
    loop, runs = _admit(loop_class, case)
    loop.run_until_idle()
    return _dump(loop, runs)


def _exactly(n, elements):
    return st.lists(elements, min_size=n, max_size=n)


# sizes are drawn first: left to itself a list strategy favours short
# lists, and on two nodes nothing of interest fits
_bursts = st.fixed_dictionaries({
    "policy": st.sampled_from(POLICIES),
    "nodes": st.integers(2, 16).flatmap(lambda n: _exactly(n, st.tuples(
        st.sampled_from([4, 8]), st.sampled_from([8.0, 16.0, 6.6])))),
    "burst": st.integers(1, 12).flatmap(lambda k: _exactly(k, st.tuples(
        st.integers(0, 2), st.integers(0, 2**16)))),
    "fail_rate": st.sampled_from([0.0, 0.0, 0.08, 0.3]),
    "straggler_rate": st.sampled_from([0.0, 0.1]),
    "lost": st.none() | st.integers(0, 15),
})

#: nine 4-core nodes: an 8-container step leaves one node free, so behind a
#: refused 8 x (4, 8.0) a 1 x (4, 8.0) still fits — the refusal memo must
#: not swallow it
_NINE_NODES = {
    "policy": "fifo", "nodes": [(4, 8.0)] * 9,
    "burst": [(1, 3), (0, 4), (1, 5), (2, 6), (0, 7), (1, 8)],
    "fail_rate": 0.0, "straggler_rate": 0.0, "lost": None,
}


@given(_bursts)
@example(_NINE_NODES)
@example({**_NINE_NODES, "policy": "dagps", "lost": 0, "fail_rate": 0.3})
@example({**_NINE_NODES, "policy": "fair", "lost": 4, "nodes": [(4, 8.0)] * 8})
@settings(max_examples=60, deadline=None)
def test_same_schedules_as_the_rescanning_dispatch(case):
    assert _pack(ClusterScheduler, case) == _pack(_RescanLoop, case)


def test_a_shape_that_fits_is_placed_behind_a_refused_one():
    """The nine-node case does what its comment says it does."""
    loop, _runs = _admit(ClusterScheduler, _NINE_NODES)
    asked = []
    try_allocate = loop.scheduler.try_allocate

    def recording(request):
        grants = try_allocate(request)
        asked.append((loop._now, request.instances, grants is not None))
        return grants

    loop.scheduler.try_allocate = recording
    loop.run_until_idle()
    by_pass = {}
    for now, instances, granted in asked:
        by_pass.setdefault(now, []).append((instances, granted))
    assert any((8, False) in answers
               and (1, True) in answers[answers.index((8, False)):]
               for answers in by_pass.values())


def _step_by_step(loop_class, case):
    """Snapshots taken between events, one event at a time."""
    loop, _runs = _admit(loop_class, case)
    seen = []
    while loop.snapshot()["inFlight"]:
        with loop._lock:
            loop._advance_locked()
        snapshot = loop.snapshot()
        seen.append((
            snapshot["virtualNow"], snapshot["stepsPlaced"],
            [(r["seq"], r["stepsDone"], r["stepsRunning"], r["stepsFailed"],
              r["consumedCoreSeconds"]) for r in snapshot["runs"]],
            [(p["runSeq"], p["operator"], p["finish"], p["containers"],
              p["nodes"]) for p in snapshot["placements"]]))
    return seen


@pytest.mark.parametrize("policy", POLICIES)
def test_snapshots_between_events_match_the_reference(policy):
    case = {**_NINE_NODES, "policy": policy, "straggler_rate": 0.1}
    ours = _step_by_step(ClusterScheduler, case)
    assert len(ours) == sum(len(r["schedule"]) for r in
                            _pack(ClusterScheduler, case)["runs"]) > 30
    assert ours == _step_by_step(_RescanLoop, case)


def _hand_plan(spec):
    """A plan written out by hand, and the cloud that runs it exactly.

    ``spec`` maps a step's name to ``(seconds, inputs)`` in plan order;
    ``seconds`` None makes the step a free move within one store.  Engine
    noise is off, so a step lasts exactly its ``seconds``.
    """
    ires = IReS()
    ires.cloud.add_engine(
        "exact", noise_sigma=0.0,
        default_request=ContainerRequest(1, 1.0, 1),
        profiles={f"alg-{name}": PerfModel(fixed=seconds, per_unit=0.0)
                  for name, (seconds, _inputs) in spec.items()
                  if seconds is not None})
    stored = {"Constraints.Engine.FS": "HDFS", "Optimization.size": 1e6}
    outputs = {"source": Dataset("source", stored, materialized=True)}
    steps = []
    for name, (seconds, inputs) in spec.items():
        operator = (MoveOperator("HDFS", "HDFS") if seconds is None
                    else MaterializedOperator(name, {
                        "Constraints.OpSpecification.Algorithm.name":
                            f"alg-{name}",
                        "Constraints.Engine": "exact"}))
        outputs[name] = Dataset(f"{name}-out", stored)
        steps.append(PlanStep(operator, tuple(outputs[i] for i in inputs),
                              (outputs[name],), estimated_cost=0.0))
    return ires, MaterializedPlan(AbstractWorkflow("by-hand"), steps, 0.0)


def test_a_step_is_ready_once_all_its_producers_finished_and_only_once():
    """Zero-duration moves, a diamond, and a join whose two producers
    finish at the same virtual instant."""
    spec = {
        "a": (2.0, ["source"]),
        "left": (3.0, ["a"]),        # a -> left  \\
        "right": (1.0, ["a"]),       # a -> right  -> join (the diamond)
        "hop": (None, ["right"]),    # free move: starts and ends at t=3
        "twin": (2.0, ["hop"]),      # ends at t=5, the instant left ends
        "join": (1.0, ["left", "twin", "a"]),
        "after": (None, ["join"]),
        "end": (0.5, ["after", "join"]),
    }
    ires, plan = _hand_plan(spec)
    loop = ClusterScheduler(ires.cloud, cluster=ires.cloud.cluster.clone())
    run = loop.submit(plan, seed=0)
    appearances = collections.Counter()
    while loop.snapshot()["inFlight"]:
        with loop._lock:
            before = {id(s) for s in run.ready}
            loop._advance_locked()
            appearances.update(
                run.index[id(s)] for s in run.ready if id(s) not in before)
    # "a" was ready at admission; nothing entered a ready list twice
    assert appearances == {i: 1 for i in range(1, len(spec))}
    assert run.report.succeeded and loop.snapshot()["stepsPlaced"] == len(spec)
    times = {name: (s.start, s.finish) for name, s in zip(
        spec, sorted(run.report.schedule, key=lambda s: run.index[id(s.step)]))}
    for name, (_seconds, inputs) in spec.items():
        # capacity is ample: a step starts the instant its last producer ends
        assert times[name][0] == max(
            (times[i][1] for i in inputs if i != "source"), default=0.0)
    assert times["left"][1] == times["twin"][1] == 5.0
    assert times["join"] == (5.0, 6.0)
    assert run.report.makespan == 6.5


def _counted(loop):
    """Count the loop's questions to its container scheduler: calls from
    outside the scheduler, not the ones it makes of itself."""
    counts = collections.Counter()
    depth = 0

    def wrap(name):
        inner = getattr(loop.scheduler, name)

        def outer(request):
            nonlocal depth
            counts["asked"] += depth == 0
            depth += 1
            try:
                return inner(request)
            except InsufficientResourcesError:
                counts["raised"] += 1
                raise
            finally:
                depth -= 1
        setattr(loop.scheduler, name, outer)

    for name in ("fits", "try_allocate", "allocate"):
        wrap(name)
    return counts


@pytest.mark.parametrize("policy", POLICIES)
def test_questions_per_placed_step_do_not_grow_with_k(policy):
    """The K-scaling gate, as a count: a pass asks the container scheduler
    once per grant and once per distinct refused request, whatever the
    number of runs waiting (it used to ask ~110 times per placed step at
    K=64, a raised exception each)."""
    ires, plans = _platform()
    per_step = {}
    for k in (8, 64):
        loop = ClusterScheduler(ires.cloud, policy=policy,
                                cluster=ires.cloud.cluster.clone(), seed=0)
        counts = _counted(loop)
        for i, plan in enumerate(_mix(plans, k)):
            loop.submit(plan, seed=i)
        assert counts["asked"] == 0  # admission asks an empty clone
        loop.run_until_idle()
        placed = loop.snapshot()["stepsPlaced"]
        assert placed >= 100 and counts["raised"] == 0
        assert counts["asked"] <= 3 * placed
        per_step[k] = counts["asked"] / placed
    assert per_step[64] < 2 * per_step[8]


@given(nodes=st.lists(
           st.tuples(st.integers(1, 8), st.integers(1, 40).map(lambda n: n / 10),
                     st.booleans()), min_size=1, max_size=4),
       cores=st.integers(1, 2), tenths=st.integers(1, 10),
       instances=st.integers(1, 8))
@example(nodes=[(8, 0.4, True)], cores=1, tenths=1, instances=4)
@settings(max_examples=60, deadline=None)
def test_admission_agrees_with_the_grant(nodes, cores, tenths, instances):
    """What admission calls placeable, an empty cluster grants; what it
    does not, is refused at admission — not admitted, left waiting until
    the heap drains, and failed as "unschedulable".  (A 0.4 GB node and
    4 x 0.1 GB: both sides now say no.)"""
    ires, plan = _hand_plan({"only": (1.0, ["source"])})
    request = ContainerRequest(cores, tenths / 10, instances)
    ires.cloud.engines["exact"].default_request = request
    cluster = Cluster(
        Node(f"n{i}", cores=c, memory_gb=m,
             health="HEALTHY" if healthy else "UNHEALTHY")
        for i, (c, m, healthy) in enumerate(nodes))
    grantable = ContainerScheduler(cluster.clone()).fits(
        ires.cloud.engines["exact"].request_for(
            ires.cloud.engines["exact"].default_resources()))
    loop = ClusterScheduler(ires.cloud, cluster=cluster)
    if not grantable:
        with pytest.raises(SchedulingError, match="fits the cluster"):
            loop.submit(plan, seed=0)
        return
    report = loop.execute(plan, seed=0)
    assert report.succeeded, [f.error for f in report.failures]
