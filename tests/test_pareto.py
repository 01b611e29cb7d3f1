"""Tests for the Pareto-frontier planner (repro.core.pareto)."""

from types import SimpleNamespace

import pytest

from repro.core import (
    AbstractOperator,
    AbstractWorkflow,
    Dataset,
    IReS,
    MaterializedOperator,
    OperatorLibrary,
    OptimizationPolicy,
    Planner,
)
from repro.core.estimators import OracleEstimator
from repro.core.pareto import ParetoPlanner, dominates, prune_frontier
from repro.core.planner import PlanningError
from repro.scenarios import setup_graph_analytics, setup_text_analytics


def entry(metrics):
    """Anything with the ``metrics`` attribute ``prune_frontier`` reads."""
    return SimpleNamespace(metrics=tuple(metrics))


class TestFrontierPrimitives:
    def test_dominates(self):
        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (1, 3))
        assert not dominates((1, 3), (2, 2))
        assert not dominates((1, 1), (1, 1))

    def test_prune_removes_dominated(self):
        entries = [entry(m) for m in [(1, 5), (2, 4), (3, 3), (2, 6), (4, 4)]]
        kept = prune_frontier(entries, max_size=10)
        assert sorted(e.metrics for e in kept) == [(1, 5), (2, 4), (3, 3)]

    def test_prune_thins_but_keeps_extremes(self):
        entries = [entry((i, 10 - i)) for i in range(10)]
        kept = prune_frontier(entries, max_size=4)
        assert len(kept) == 4
        metrics = [e.metrics for e in kept]
        assert (0, 10) in metrics and (9, 1) in metrics


def two_impl_workflow():
    """One operator, two engines: fast-expensive vs slow-cheap."""
    lib = OperatorLibrary()
    for name, engine, t, c in (("fast", "A", 1.0, 100.0),
                               ("slow", "B", 50.0, 1.0)):
        lib.add(MaterializedOperator(name, {
            "Constraints.OpSpecification.Algorithm.name": "job",
            "Constraints.Engine": engine,
            "Constraints.Input.number": 1, "Constraints.Output.number": 1,
            "Constraints.Input0.type": "x", "Constraints.Output0.type": "x",
            "Optimization.execTime": t, "Optimization.cost": c,
        }))
    wf = AbstractWorkflow()
    wf.add_dataset(Dataset("in", {"Constraints.type": "x"}, materialized=True))
    wf.add_dataset(Dataset("out"))
    wf.add_operator(AbstractOperator("job", {
        "Constraints.OpSpecification.Algorithm.name": "job"}))
    wf.connect("in", "job")
    wf.connect("job", "out")
    wf.set_target("out")
    return lib, wf


class TestParetoPlanner:
    def test_needs_two_metrics(self):
        lib, _ = two_impl_workflow()
        with pytest.raises(ValueError):
            ParetoPlanner(lib, metrics=("execTime",))

    def test_frontier_holds_both_tradeoffs(self):
        lib, wf = two_impl_workflow()
        frontier = ParetoPlanner(lib).plan_frontier(wf)
        assert len(frontier) == 2
        by_time = sorted(frontier, key=lambda p: p.metrics["execTime"])
        assert by_time[0].steps[0].operator.name == "fast"
        assert by_time[1].steps[0].operator.name == "slow"

    def test_frontier_mutually_nondominated(self):
        lib, wf = two_impl_workflow()
        frontier = ParetoPlanner(lib).plan_frontier(wf)
        vectors = [tuple(p.metrics.values()) for p in frontier]
        for a in vectors:
            for b in vectors:
                assert a == b or not dominates(a, b)

    def test_infeasible_raises(self):
        lib, wf = two_impl_workflow()
        with pytest.raises(PlanningError):
            ParetoPlanner(lib).plan_frontier(wf, available_engines={"Z"})

    def test_frontier_contains_scalar_optimum_graph(self):
        """The single-metric optimum must sit on the frontier (both metrics)."""
        ires = IReS()
        make = setup_graph_analytics(ires)
        wf = make(2e7)
        pareto = ParetoPlanner(
            ires.library, OracleEstimator(ires.cloud))
        frontier = pareto.plan_frontier(wf)
        time_opt = Planner(
            ires.library, OracleEstimator(ires.cloud),
            OptimizationPolicy.min_exec_time()).plan(make(2e7))
        cost_opt = Planner(
            ires.library, OracleEstimator(ires.cloud),
            OptimizationPolicy.min_cost()).plan(make(2e7))
        times = [p.metrics["execTime"] for p in frontier]
        costs = [p.metrics["cost"] for p in frontier]
        assert min(times) == pytest.approx(time_opt.cost, rel=1e-9)
        assert min(costs) == pytest.approx(cost_opt.cost, rel=1e-9)

    def test_frontier_on_hybrid_text_workflow(self):
        """The two-operator workflow yields a genuine multi-point frontier."""
        ires = IReS()
        make = setup_text_analytics(ires)
        frontier = ParetoPlanner(
            ires.library, OracleEstimator(ires.cloud)).plan_frontier(make(2.5e4))
        assert len(frontier) >= 2
        # frontier sorted by time has strictly decreasing cost
        frontier.sort(key=lambda p: p.metrics["execTime"])
        costs = [p.metrics["cost"] for p in frontier]
        assert all(c1 > c2 for c1, c2 in zip(costs, costs[1:]))

    def test_max_frontier_bounds_size(self):
        ires = IReS()
        make = setup_text_analytics(ires)
        frontier = ParetoPlanner(
            ires.library, OracleEstimator(ires.cloud),
            max_frontier=2).plan_frontier(make(2.5e4))
        assert len(frontier) <= 2

    def test_frontier_steps_carry_predicted_metrics(self):
        lib, wf = two_impl_workflow()
        for plan in ParetoPlanner(lib).plan_frontier(wf):
            [step] = plan.steps
            assert step.predicted["execTime"] == plan.metrics["execTime"]
            assert step.predicted["cost"] == plan.metrics["cost"]

    def test_finished_intermediate_drops_its_producer_from_every_plan(self):
        ires = IReS()
        make = setup_text_analytics(ires)
        planner = ParetoPlanner(ires.library, OracleEstimator(ires.cloud))
        cold = planner.plan_frontier(make(2.5e4))
        first = cold[0].steps[0]
        [finished] = first.outputs
        finished.materialized = True
        warm = planner.plan_frontier(
            make(2.5e4), materialized_results={finished.name: finished})
        assert warm
        for plan in warm:
            assert first.abstract_name not in {
                s.abstract_name for s in plan.steps}
            assert len(plan.steps) < len(cold[0].steps)

    def test_finished_target_is_one_empty_plan(self):
        lib, wf = two_impl_workflow()
        done = Dataset("out", {"Constraints.type": "x"}, materialized=True)
        [plan] = ParetoPlanner(lib).plan_frontier(
            wf, materialized_results={"out": done})
        assert plan.steps == []
        assert plan.metrics == {"execTime": 0.0, "cost": 0.0}
