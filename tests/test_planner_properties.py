"""Property-based tests for planner invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AbstractOperator,
    AbstractWorkflow,
    Dataset,
    MaterializedOperator,
    OperatorLibrary,
    Planner,
)
from repro.core.pareto import ParetoPlanner
from repro.core.planner import MetadataCostEstimator, PlanningError
from repro.workflows import CATEGORIES, generate, synthetic_library

STORES = ["s0", "s1", "s2"]

cost = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)


@st.composite
def chain_instance(draw):
    """A random linear workflow with random per-stage implementations."""
    n_stages = draw(st.integers(1, 5))
    library = OperatorLibrary()
    per_stage: list[list[str]] = []
    for stage in range(n_stages):
        n_impls = draw(st.integers(1, 3))
        impls = []
        for j in range(n_impls):
            store = draw(st.sampled_from(STORES))
            name = f"op{stage}_{j}"
            library.add(MaterializedOperator(name, {
                "Constraints.OpSpecification.Algorithm.name": f"alg{stage}",
                "Constraints.Engine": f"engine{j}",
                "Constraints.Input.number": 1,
                "Constraints.Output.number": 1,
                "Constraints.Input0.Engine.FS": store,
                "Constraints.Output0.Engine.FS": store,
                "Optimization.execTime": draw(cost),
                "Optimization.cost": draw(cost),
            }))
            impls.append(name)
        per_stage.append(impls)
    wf = AbstractWorkflow("chain")
    wf.add_dataset(Dataset("d0", {
        "Constraints.Engine.FS": draw(st.sampled_from(STORES)),
        "Optimization.size": draw(st.floats(1e3, 1e9)),
    }, materialized=True))
    prev = "d0"
    for stage in range(n_stages):
        wf.add_operator(AbstractOperator(f"alg{stage}", {
            "Constraints.OpSpecification.Algorithm.name": f"alg{stage}"}))
        out = f"d{stage + 1}"
        wf.add_dataset(Dataset(out))
        wf.connect(prev, f"alg{stage}")
        wf.connect(f"alg{stage}", out)
        prev = out
    wf.set_target(prev)
    return library, wf, per_stage


@given(chain_instance())
@settings(max_examples=40, deadline=None)
def test_plan_is_topologically_valid(instance):
    """Every non-move step's abstract stage appears in order, exactly once."""
    library, wf, _ = instance
    plan = Planner(library, MetadataCostEstimator()).plan(wf)
    stages = [s.abstract_name for s in plan.steps if not s.is_move]
    assert stages == [f"alg{i}" for i in range(len(stages))]
    assert len(stages) == len(wf.operators)


@given(chain_instance())
@settings(max_examples=40, deadline=None)
def test_plan_cost_equals_sum_of_step_costs(instance):
    library, wf, _ = instance
    plan = Planner(library, MetadataCostEstimator()).plan(wf)
    total = sum(s.estimated_cost for s in plan.steps)
    assert plan.cost == np.float64(total) or abs(plan.cost - total) < 1e-6


@given(chain_instance())
@settings(max_examples=40, deadline=None)
def test_plan_cost_not_above_any_greedy_alternative(instance):
    """DP optimum <= the plan that fixes engine0 for every stage (if feasible)."""
    library, wf, per_stage = instance
    planner = Planner(library, MetadataCostEstimator())
    optimal = planner.plan(wf)
    try:
        pinned = planner.plan(wf, available_engines={"engine0", "move"})
    except PlanningError:
        return
    assert optimal.cost <= pinned.cost + 1e-9


@given(chain_instance())
@settings(max_examples=40, deadline=None)
def test_moves_connect_matching_stores(instance):
    """Every move step's output store equals the consuming input's spec."""
    library, wf, _ = instance
    plan = Planner(library, MetadataCostEstimator()).plan(wf)
    for i, step in enumerate(plan.steps):
        if not step.is_move:
            continue
        moved = step.outputs[0]
        consumers = [
            s for s in plan.steps[i + 1:]
            if any(d is moved for d in s.inputs)
        ]
        assert consumers, "a move whose output nobody consumes"
        for consumer in consumers:
            assert consumer.operator.accepts_input(moved, 0)


@given(chain_instance(), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_removing_engines_never_improves_cost(instance, drop):
    library, wf, _ = instance
    planner = Planner(library, MetadataCostEstimator())
    full = planner.plan(wf)
    remaining = {f"engine{j}" for j in range(3) if j != drop} | {"move"}
    try:
        restricted = planner.plan(wf, available_engines=remaining)
    except PlanningError:
        return
    assert restricted.cost >= full.cost - 1e-9


# -- index-vs-scan equivalence (the ``None``/wildcard bucket regression) ----

_ALG_NAMES = st.one_of(
    st.none(),                                  # unnamed → None bucket
    st.just("*"),                               # wildcard bucket
    st.sampled_from(["alpha", "beta", "gamma"]))  # concrete buckets


@st.composite
def mixed_library(draw):
    """A library mixing concrete, wildcard and unnamed implementations."""
    library = OperatorLibrary()
    n_ops = draw(st.integers(1, 12))
    for i in range(n_ops):
        alg = draw(_ALG_NAMES)
        props = {
            "Constraints.Engine": f"engine{draw(st.integers(0, 2))}",
            "Constraints.Input.number": 1,
            "Constraints.Output.number": 1,
        }
        if alg is not None:
            props["Constraints.OpSpecification.Algorithm.name"] = alg
        library.add(MaterializedOperator(f"op{i}", props))
    return library


@given(mixed_library(),
       st.sampled_from(["alpha", "beta", "gamma", "nosuch", "*"]),
       st.one_of(st.none(), st.sets(st.sampled_from(
           ["engine0", "engine1", "engine2"]))))
@settings(max_examples=60, deadline=None)
def test_indexed_lookup_equals_full_scan(library, alg, engines):
    """For any library/abstract/engine-filter combination the selective
    index must return exactly the full-scan match set."""
    abstract = AbstractOperator(alg, {
        "Constraints.OpSpecification.Algorithm.name": alg})
    indexed = {m.name for m in library.find_materialized(
        abstract, available_engines=engines, use_index=True)}
    scanned = {m.name for m in library.find_materialized(
        abstract, available_engines=engines, use_index=False)}
    assert indexed == scanned


@given(st.sampled_from(sorted(CATEGORIES)), st.sampled_from((20, 30, 50)),
       st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_frontier_of_one_is_the_scalar_optimum(category, nodes, engines, seed):
    """Scalar planning is Pareto planning at frontier width 1, bit for bit.

    The width-1 frontier and the 16-wide frontier's fastest plan both cost
    exactly what ``Planner`` minimizing ``execTime`` finds.
    """
    def fresh():
        workflow = generate(category, nodes, seed=seed)
        return synthetic_library(workflow, engines, seed=seed + 1), workflow

    library, workflow = fresh()
    optimum = Planner(library, MetadataCostEstimator()).plan(workflow).cost
    library, workflow = fresh()
    [only] = ParetoPlanner(library, MetadataCostEstimator(),
                           max_frontier=1).plan_frontier(workflow)
    assert only.metrics["execTime"] == optimum
    library, workflow = fresh()
    wide = ParetoPlanner(library, MetadataCostEstimator()).plan_frontier(workflow)
    assert min(p.metrics["execTime"] for p in wide) == optimum
