"""Tests for the shared-cluster event loop (repro.execution.cluster)."""

import asyncio

import pytest

from repro.api.rest import IResServer
from repro.api.service import SUCCEEDED, IResService
from repro.core import IReS
from repro.execution.cluster import POLICIES, ClusterScheduler
from repro.execution.parallel import ParallelSimulator
from repro.scenarios import setup_helloworld, setup_relational_analytics


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
