"""Unit tests for the DP planner — Algorithm 1 (repro.core.planner)."""

import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AbstractOperator,
    AbstractWorkflow,
    Dataset,
    IReS,
    MaterializedOperator,
    MetadataCostEstimator,
    OperatorLibrary,
    OptimizationPolicy,
    Planner,
    PlanningError,
)
from repro.core.estimators import OracleEstimator
from repro.core.metadata import MetadataTree
from repro.core.pareto import ParetoPlanner
from repro.scenarios import setup_graph_analytics, setup_text_analytics
from repro.workflows import generate, synthetic_library


def make_op(name, alg, engine, fs, in_type, out_type, exec_time, cost=None):
    """Helper building a 1-in/1-out materialized operator description."""
    return MaterializedOperator(name, {
        "Constraints.OpSpecification.Algorithm.name": alg,
        "Constraints.Engine": engine,
        "Constraints.Input.number": 1,
        "Constraints.Output.number": 1,
        "Constraints.Input0.Engine.FS": fs,
        "Constraints.Input0.type": in_type,
        "Constraints.Output0.Engine.FS": fs,
        "Constraints.Output0.type": out_type,
        "Optimization.execTime": exec_time,
        "Optimization.cost": cost if cost is not None else exec_time,
    })


def text_clustering_library():
    """Two tf-idf and two k-means implementations on different engines."""
    lib = OperatorLibrary()
    lib.add(make_op("TF_IDF_scikit", "TF_IDF", "scikit", "local", "text", "arff", 5.0))
    lib.add(make_op("TF_IDF_spark", "TF_IDF", "Spark", "HDFS", "text", "seq", 40.0))
    lib.add(make_op("kmeans_scikit", "kmeans", "scikit", "local", "arff", "arff", 100.0))
    lib.add(make_op("kmeans_spark", "kmeans", "Spark", "HDFS", "seq", "seq", 20.0))
    return lib


def text_clustering_workflow(store="local", fmt="text"):
    wf = AbstractWorkflow("text")
    wf.add_dataset(Dataset("docs", {
        "Constraints.Engine.FS": store,
        "Constraints.type": fmt,
        "Optimization.size": 1e6,
    }, materialized=True))
    wf.add_dataset(Dataset("d1"))
    wf.add_dataset(Dataset("d2"))
    wf.add_operator(AbstractOperator("tfidf", {
        "Constraints.OpSpecification.Algorithm.name": "TF_IDF"}))
    wf.add_operator(AbstractOperator("km", {
        "Constraints.OpSpecification.Algorithm.name": "kmeans"}))
    wf.connect("docs", "tfidf")
    wf.connect("tfidf", "d1")
    wf.connect("d1", "km")
    wf.connect("km", "d2")
    wf.set_target("d2")
    return wf


def test_hybrid_plan_with_move_beats_single_engine():
    """The Figure 5/12 mechanism: scikit tf-idf + Spark k-means + a move."""
    plan = Planner(text_clustering_library()).plan(text_clustering_workflow())
    names = [s.operator.name for s in plan.steps]
    assert names[0] == "TF_IDF_scikit"
    assert names[-1] == "kmeans_spark"
    assert any(s.is_move for s in plan.steps)
    # 5 (tfidf) + 20 (kmeans) + move < 45 (all-Spark) and < 105 (all-scikit)
    assert plan.cost < 45


def test_single_engine_when_moves_disabled():
    planner = Planner(text_clustering_library(), allow_moves=False)
    plan = planner.plan(text_clustering_workflow())
    assert not any(s.is_move for s in plan.steps)
    assert plan.engines_used() in ({"scikit"}, {"Spark"})


def test_plan_respects_available_engines():
    planner = Planner(text_clustering_library())
    plan = planner.plan(text_clustering_workflow(), available_engines={"Spark"})
    assert plan.engines_used() == {"Spark"}


def test_no_feasible_plan_raises():
    planner = Planner(text_clustering_library())
    with pytest.raises(PlanningError):
        planner.plan(text_clustering_workflow(), available_engines={"Hama"})


def test_materialized_target_costs_zero():
    wf = text_clustering_workflow()
    wf.datasets["d2"].materialized = True
    plan = Planner(text_clustering_library()).plan(wf)
    assert plan.cost == 0.0
    assert plan.steps == []


def test_materialized_intermediate_results_reused():
    """Replanning seeds the dpTable with already-computed intermediates."""
    wf = text_clustering_workflow()
    done = Dataset("d1", {
        "Constraints.Engine.FS": "HDFS", "Constraints.type": "seq",
        "Optimization.size": 1e5}, materialized=True)
    plan = Planner(text_clustering_library()).plan(
        wf, materialized_results={"d1": done})
    names = [s.operator.name for s in plan.steps]
    assert "TF_IDF_scikit" not in names and "TF_IDF_spark" not in names
    assert names == ["kmeans_spark"]


def test_policy_changes_winner():
    """Minimizing cost instead of time flips the chosen implementation."""
    lib = OperatorLibrary()
    lib.add(make_op("fast_pricey", "job", "A", "local", "x", "x", 1.0, cost=100.0))
    lib.add(make_op("slow_cheap", "job", "B", "local", "x", "x", 50.0, cost=1.0))
    wf = AbstractWorkflow()
    wf.add_dataset(Dataset("in", {
        "Constraints.Engine.FS": "local", "Constraints.type": "x"}, materialized=True))
    wf.add_dataset(Dataset("out"))
    wf.add_operator(AbstractOperator("job", {
        "Constraints.OpSpecification.Algorithm.name": "job"}))
    wf.connect("in", "job")
    wf.connect("job", "out")
    wf.set_target("out")
    by_time = Planner(lib, policy=OptimizationPolicy.min_exec_time()).plan(wf)
    by_cost = Planner(lib, policy=OptimizationPolicy.min_cost()).plan(wf)
    assert by_time.steps[0].operator.name == "fast_pricey"
    assert by_cost.steps[0].operator.name == "slow_cheap"


def test_shared_subplan_steps_not_duplicated():
    """Fan-out: one producer feeding two consumers appears once in the plan."""
    lib = OperatorLibrary()
    lib.add(make_op("prep", "prep", "A", "local", "raw", "clean", 3.0))
    lib.add(make_op("left", "left", "A", "local", "clean", "l", 1.0))
    lib.add(make_op("right", "right", "A", "local", "clean", "r", 1.0))
    join = MaterializedOperator("join", {
        "Constraints.OpSpecification.Algorithm.name": "join",
        "Constraints.Engine": "A",
        "Constraints.Input.number": 2, "Constraints.Output.number": 1,
        "Constraints.Input0.type": "l", "Constraints.Input1.type": "r",
        "Constraints.Output0.type": "j",
        "Optimization.execTime": 1.0, "Optimization.cost": 1.0})
    lib.add(join)

    wf = AbstractWorkflow()
    wf.add_dataset(Dataset("src", {
        "Constraints.Engine.FS": "local", "Constraints.type": "raw"}, materialized=True))
    for name in ("c", "l", "r", "out"):
        wf.add_dataset(Dataset(name))
    wf.add_operator(AbstractOperator("prep", {
        "Constraints.OpSpecification.Algorithm.name": "prep"}))
    wf.add_operator(AbstractOperator("left", {
        "Constraints.OpSpecification.Algorithm.name": "left"}))
    wf.add_operator(AbstractOperator("right", {
        "Constraints.OpSpecification.Algorithm.name": "right"}))
    wf.add_operator(AbstractOperator("join", {
        "Constraints.OpSpecification.Algorithm.name": "join",
        "Constraints.Input.number": 2}))
    wf.connect("src", "prep")
    wf.connect("prep", "c")
    wf.connect("c", "left")
    wf.connect("c", "right")
    wf.connect("left", "l")
    wf.connect("right", "r")
    wf.connect("l", "join")
    wf.connect("r", "join")
    wf.connect("join", "out")
    wf.set_target("out")

    plan = Planner(lib).plan(wf)
    prep_steps = [s for s in plan.steps if s.operator.name == "prep"]
    assert len(prep_steps) == 1
    assert [s.operator.name for s in plan.steps].count("join") == 1


def test_plan_steps_carry_abstract_names():
    plan = Planner(text_clustering_library()).plan(text_clustering_workflow())
    assert plan.step_for_operator("tfidf") is not None
    assert plan.step_for_operator("km") is not None
    assert plan.step_for_operator("nonexistent") is None


def test_move_impossible_when_input_spec_empty():
    """An operator without input specs cannot be reached via a move."""
    lib = OperatorLibrary()
    op = MaterializedOperator("opaque", {
        "Constraints.OpSpecification.Algorithm.name": "job",
        "Constraints.Engine": "A",
        "Constraints.Input0.type": "binary",
        "Optimization.execTime": 1.0, "Optimization.cost": 1.0})
    lib.add(op)
    # Dataset type conflicts and the spec gives a concrete type -> move works;
    # but remove the spec and conflict becomes unfixable.
    wf = AbstractWorkflow()
    wf.add_dataset(Dataset("in", {"Constraints.type": "text"}, materialized=True))
    wf.add_dataset(Dataset("out"))
    wf.add_operator(AbstractOperator("job", {
        "Constraints.OpSpecification.Algorithm.name": "job"}))
    wf.connect("in", "job")
    wf.connect("job", "out")
    wf.set_target("out")
    plan = Planner(lib).plan(wf)
    assert any(s.is_move for s in plan.steps)


def test_estimated_output_size_propagates():
    plan = Planner(text_clustering_library()).plan(text_clustering_workflow())
    tfidf_step = plan.step_for_operator("tfidf")
    assert tfidf_step.outputs[0].size > 0


def test_metadata_cost_estimator_defaults():
    est = MetadataCostEstimator()
    op = make_op("x", "a", "E", "local", "t", "t", 2.5, cost=1.5)
    metrics = est.operator_metrics(op, [])
    assert metrics == {"execTime": 2.5, "cost": 1.5}
    ds = Dataset("d", {"Optimization.size": 200e6})
    assert est.move_metrics(ds, "a", "b")["execTime"] == pytest.approx(2.0)


def test_multi_output_operator_planned_once():
    """An operator with two outputs populates both dpTable slots from one step."""
    lib = OperatorLibrary()
    split = MaterializedOperator("split_ab", {
        "Constraints.OpSpecification.Algorithm.name": "split",
        "Constraints.Engine": "A",
        "Constraints.Input.number": 1, "Constraints.Output.number": 2,
        "Constraints.Input0.type": "raw",
        "Constraints.Output0.type": "left",
        "Constraints.Output1.type": "right",
        "Optimization.execTime": 4.0, "Optimization.cost": 4.0})
    lib.add(split)
    lib.add(make_op("use_left", "useL", "A", "local", "left", "x", 1.0))
    lib.add(make_op("use_right", "useR", "A", "local", "right", "y", 1.0))
    join = MaterializedOperator("combine", {
        "Constraints.OpSpecification.Algorithm.name": "combine",
        "Constraints.Engine": "A",
        "Constraints.Input.number": 2, "Constraints.Output.number": 1,
        "Constraints.Input0.type": "x", "Constraints.Input1.type": "y",
        "Constraints.Output0.type": "z",
        "Optimization.execTime": 1.0, "Optimization.cost": 1.0})
    lib.add(join)

    wf = AbstractWorkflow()
    wf.add_dataset(Dataset("src", {"Constraints.type": "raw"},
                           materialized=True))
    for name in ("a", "b", "la", "rb", "out"):
        wf.add_dataset(Dataset(name))
    splitter = AbstractOperator("split", {
        "Constraints.OpSpecification.Algorithm.name": "split",
        "Constraints.Input.number": 1, "Constraints.Output.number": 2})
    wf.add_operator(splitter)
    for alg in ("useL", "useR", "combine"):
        n_in = 2 if alg == "combine" else 1
        wf.add_operator(AbstractOperator(alg, {
            "Constraints.OpSpecification.Algorithm.name": alg,
            "Constraints.Input.number": n_in}))
    wf.connect("src", "split")
    wf.connect("split", "a")
    wf.connect("split", "b")
    wf.connect("a", "useL")
    wf.connect("useL", "la")
    wf.connect("b", "useR")
    wf.connect("useR", "rb")
    wf.connect("la", "combine")
    wf.connect("rb", "combine")
    wf.connect("combine", "out")
    wf.set_target("out")

    plan = Planner(lib).plan(wf)
    names = [s.operator.name for s in plan.steps if not s.is_move]
    assert names.count("split_ab") == 1  # shared producer not duplicated
    assert set(names) == {"split_ab", "use_left", "use_right", "combine"}
    # cost counts the shared split per consumed branch (the paper's additive
    # input-cost approximation) but the step list stays deduplicated
    assert plan.cost >= 4.0 + 1.0 + 1.0 + 1.0


# -- regression: logging and replan seeding ---------------------------------


def test_plan_ready_logged_without_tracer():
    """The plan_ready log line must appear even when tracing is disabled
    (it used to be emitted only inside the tracer-enabled branch)."""
    from repro.obs.logging import clear as clear_logs
    from repro.obs.logging import recent as recent_logs

    clear_logs()
    Planner(text_clustering_library()).plan(text_clustering_workflow())
    events = [line["event"] for line in recent_logs(logger="planner")]
    assert "plan_ready" in events
    ready = [line for line in recent_logs(logger="planner")
             if line["event"] == "plan_ready"]
    assert ready[-1]["cached"] is False
    clear_logs()


def test_materialized_results_target_returns_empty_plan():
    """Replanning a target that was already computed before the failure
    must yield an empty zero-cost plan, mirroring the materialized-dataset
    early return."""
    wf = text_clustering_workflow()
    done = Dataset("d2", {
        "Constraints.Engine.FS": "HDFS", "Constraints.type": "seq",
        "Optimization.size": 1e5}, materialized=True)
    plan = Planner(text_clustering_library()).plan(
        wf, materialized_results={"d2": done})
    assert plan.steps == []
    assert plan.cost == 0.0


# -- deep pipelines --------------------------------------------------------------


@pytest.mark.parametrize("consumer_first", [False, True],
                         ids=["producer-first", "consumer-first"])
def test_deep_chain_plans_without_recursion(consumer_first):
    """A 1 500-stage chain plans: no walk recurses once per DAG level."""
    stages = 1500
    wf = AbstractWorkflow("deep")
    wf.add_dataset(Dataset("d0", {"Constraints.type": "data"},
                           materialized=True))
    for i in range(1, stages + 1):
        wf.add_dataset(Dataset(f"d{i}"))
    order = range(stages)
    for i in reversed(order) if consumer_first else order:
        wf.add_operator(AbstractOperator(f"op{i}", {
            "Constraints.OpSpecification.Algorithm.name": "stage"}))
        wf.connect(f"d{i}", f"op{i}")
        wf.connect(f"op{i}", f"d{i + 1}")
    wf.set_target(f"d{stages}")
    library = synthetic_library(wf, 2)
    in_order = [f"op{i}" for i in order]

    assert [op.name for op in wf.topological_operators()] == in_order
    plan = Planner(library, MetadataCostEstimator()).plan(wf)
    assert [s.abstract_name for s in plan.steps] == in_order
    frontier = ParetoPlanner(library, MetadataCostEstimator(),
                             max_frontier=2).plan_frontier(wf)
    assert all([s.abstract_name for s in p.steps if not s.is_move] == in_order
               for p in frontier)


# -- price every move, build only the winner ----------------------------------


def _two_producer_chain(first, second):
    """``src -> A -> d1 -> B -> out``: A on stores X and Y, B on X alone.

    ``first``/``second`` are ``(store, exec_time)`` of A's implementations in
    library order, which is the order of ``d1``'s dpTable entries.
    """
    lib = OperatorLibrary()
    for store, exec_time in (first, second):
        lib.add(make_op(f"A_{store}", "A", f"engine{store}", store,
                        "data", "data", exec_time))
    lib.add(make_op("B_X", "B", "engineX", "X", "data", "data", 1.0))
    wf = AbstractWorkflow("tie")
    # no store on the source: both A implementations read it as-is
    wf.add_dataset(Dataset("src", {"Constraints.type": "data",
                                   "Optimization.size": 100e6},
                           materialized=True))
    wf.add_dataset(Dataset("d1"))
    wf.add_dataset(Dataset("out"))
    for name in ("A", "B"):
        wf.add_operator(AbstractOperator(name, {
            "Constraints.OpSpecification.Algorithm.name": name}))
    wf.connect("src", "A")
    wf.connect("A", "d1")
    wf.connect("d1", "B")
    wf.connect("B", "out")
    wf.set_target("out")
    return lib, wf


@pytest.mark.parametrize("first, second, winner, moves", [
    (("X", 3.0), ("Y", 2.0), "A_X", 0),  # direct entry first: it stays
    (("Y", 2.0), ("X", 3.0), "A_Y", 1),  # moved entry first: it stays
])
def test_equal_cost_inputs_keep_the_first_dptable_entry(
        first, second, winner, moves):
    """A direct input at 3.0 ties with a 2.0 input plus a 1.0 move (100 MB
    at 100 MB/s): strict-< comparison keeps whichever entry came first."""
    lib, wf = _two_producer_chain(first, second)
    plan = Planner(lib, MetadataCostEstimator(move_bandwidth=100e6)).plan(wf)
    assert plan.cost == 4.0
    assert plan.steps[0].operator.name == winner
    assert sum(s.is_move for s in plan.steps) == moves


def _unlayable_move_case(blocked_time, movable_time):
    """``d1`` has an entry no move can convert and one a move can.

    B asks for ``Engine=x`` as a *leaf*; the blocked entry holds the subtree
    ``Engine.FS=y``, so laying the spec over it is a structural conflict
    (``MetadataTree.set`` raises), while both entries need a move (type).
    """
    lib = OperatorLibrary()
    base = {"Constraints.Input.number": 1, "Constraints.Output.number": 1}
    lib.add(MaterializedOperator("A_blocked", {
        **base, "Constraints.OpSpecification.Algorithm.name": "A",
        "Constraints.Engine": "e1", "Constraints.Output0.Engine.FS": "y",
        "Constraints.Output0.type": "text",
        "Optimization.execTime": blocked_time}))
    lib.add(MaterializedOperator("A_movable", {
        **base, "Constraints.OpSpecification.Algorithm.name": "A",
        "Constraints.Engine": "e2", "Constraints.Output0.Engine": "x",
        "Constraints.Output0.type": "text",
        "Optimization.execTime": movable_time}))
    lib.add(MaterializedOperator("B", {
        **base, "Constraints.OpSpecification.Algorithm.name": "B",
        "Constraints.Engine": "e2", "Constraints.Input0.Engine": "x",
        "Constraints.Input0.type": "binary",
        "Constraints.Output0.type": "binary",
        "Optimization.execTime": 1.0}))
    _, wf = _two_producer_chain(("X", 1.0), ("Y", 1.0))
    return lib, wf


@pytest.mark.parametrize("blocked_time, movable_time", [
    (1.0, 50.0),  # the impossible move is the cheapest: built, then skipped
    (50.0, 1.0),  # the impossible move is never the cheapest: never built
])
def test_unlayable_move_is_infeasible_not_an_error(blocked_time, movable_time):
    """A spec that cannot be laid over a dataset means "no move from here",
    whichever entry is cheapest (it used to raise MetadataError out of
    plan(), and lazy building would have raised in one ordering only)."""
    lib, wf = _unlayable_move_case(blocked_time, movable_time)
    plan = Planner(lib).plan(wf)
    assert [s.operator.name for s in plan.steps if not s.is_move] == [
        "A_movable", "B"]
    assert sum(s.is_move for s in plan.steps) == 1
    frontier = ParetoPlanner(lib).plan_frontier(wf)
    assert all(p.steps[0].operator.name == "A_movable" for p in frontier)


def test_cold_plan_copies_at_most_one_tree_per_input_and_output(monkeypatch):
    """Moves are priced per dpTable entry but built per winner: a candidate
    copies a description once per input (its one move) and once per output,
    never once per entry it looked at."""
    workflow = generate("Montage", 100, seed=1)
    library = synthetic_library(workflow, 4, seed=2)
    budget = sum(
        len(library.find_materialized(op))
        * (len(workflow.op_inputs[op.name]) + len(workflow.op_outputs[op.name]))
        for op in workflow.topological_operators())

    copy = MetadataTree.copy
    depth = top_level = 0

    def counting_copy(self):
        nonlocal depth, top_level
        top_level += depth == 0
        depth += 1
        try:
            return copy(self)
        finally:
            depth -= 1

    monkeypatch.setattr(MetadataTree, "copy", counting_copy)
    Planner(library, MetadataCostEstimator()).plan(workflow)
    assert 0 < top_level <= budget


def _plan_digest(plan):
    """The digest of ``benchmarks/e2e/oracle.py``: ordered step identities."""
    text = "\n".join(
        f"{step.abstract_name or ''}:{step.operator.name}:"
        f"{'move' if step.is_move else (step.engine or '')}"
        for step in plan.steps)
    return hashlib.sha256(text.encode()).hexdigest()


def _plan_goldens(kind="plans"):
    path = Path(__file__).parent / "fixtures" / "plan_goldens.json"
    return json.loads(path.read_text())[kind]


@pytest.mark.parametrize(
    "golden", _plan_goldens(),
    ids=lambda g: f"montage{g['nodes']}x{g['engines']}-seed{g['seed']}")
def test_montage_plans_match_recorded_goldens(golden):
    """Plans are byte-identical to the ones the eager planner produced."""
    workflow = generate("Montage", golden["nodes"], seed=golden["seed"])
    library = synthetic_library(workflow, golden["engines"],
                                seed=golden["seed"] + 1)
    plan = Planner(library, MetadataCostEstimator()).plan(workflow)
    assert plan.cost == golden["cost"]
    assert len(plan.steps) == golden["steps"]
    assert _plan_digest(plan) == golden["digest"]


def _golden_frontier(case):
    """The frontier a golden's ``case`` names, as ``[[vector, digest], ...]``."""
    if "scenario" in case:
        ires = IReS()
        make = {"text": setup_text_analytics,
                "graph": setup_graph_analytics}[case["scenario"]](ires)
        workflow, library = make(case["size"]), ires.library
        estimator = OracleEstimator(ires.cloud)
    else:
        workflow = generate("Montage", case["nodes"], seed=case["seed"])
        library = synthetic_library(workflow, case["engines"],
                                    seed=case["seed"] + 1)
        estimator = MetadataCostEstimator()
    frontier = ParetoPlanner(
        library, estimator, max_frontier=case["max_frontier"],
    ).plan_frontier(workflow)
    return [[list(plan.metrics.values()), _plan_digest(plan)]
            for plan in frontier]


@pytest.mark.parametrize(
    "golden", _plan_goldens("frontiers"),
    ids=lambda g: "-".join(str(v) for v in g["case"].values()))
def test_frontiers_match_recorded_goldens(golden):
    """Metric vectors and per-plan steps are those of the separate Pareto DP."""
    assert _golden_frontier(golden["case"]) == golden["frontier"]


# -- Algorithm 1's optimality claim, against enumeration ------------------------

_ENGINES = 3
_BANDWIDTH = 100e6
_exec_time = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)
_source_size = st.floats(min_value=1e6, max_value=1e10, allow_nan=False)


@st.composite
def in_tree_instance(draw):
    """An in-tree of at most 6 operators (1-2 inputs each) on 3 engines.

    Every dataset feeds exactly one operator, so a plan's cost is the plain
    sum of its operator and move costs.  Returns the workflow, its library
    and the drawn ``exec_time[operator][engine]`` table.
    """
    n_ops = draw(st.integers(1, 6))
    wf = AbstractWorkflow("in-tree")
    library = OperatorLibrary()
    exec_time = {}
    dangling = []
    n_sources = 0
    for i in range(n_ops):
        last = i == n_ops - 1
        # the last operator consumes everything still dangling
        arity = max(1, len(dangling)) if last else draw(st.integers(1, 2))
        inputs = []
        for _ in range(arity):
            if dangling and (last or draw(st.booleans())):
                inputs.append(dangling.pop(0))
            else:
                name = f"src{n_sources}"
                n_sources += 1
                # no store: every engine reads a source as-is
                wf.add_dataset(Dataset(name, {
                    "Constraints.type": "data",
                    "Optimization.size": draw(_source_size),
                }, materialized=True))
                inputs.append(name)
        op_name, out_name = f"stage{i}", f"d{i}"
        wf.add_operator(AbstractOperator(op_name, {
            "Constraints.OpSpecification.Algorithm.name": op_name,
            "Constraints.Input.number": len(inputs)}))
        wf.add_dataset(Dataset(out_name))
        for name in inputs:
            wf.connect(name, op_name)
        wf.connect(op_name, out_name)
        dangling.append(out_name)
        exec_time[op_name] = [draw(_exec_time) for _ in range(_ENGINES)]
        for j, seconds in enumerate(exec_time[op_name]):
            props = {
                "Constraints.OpSpecification.Algorithm.name": op_name,
                "Constraints.Engine": f"engine{j}",
                "Constraints.Input.number": len(inputs),
                "Constraints.Output.number": 1,
                "Constraints.Output0.Engine.FS": f"store{j}",
                "Constraints.Output0.type": "data",
                "Optimization.execTime": seconds,
                "Optimization.cost": seconds,
            }
            for k in range(len(inputs)):
                props[f"Constraints.Input{k}.Engine.FS"] = f"store{j}"
                props[f"Constraints.Input{k}.type"] = "data"
            library.add(MaterializedOperator(f"{op_name}_e{j}", props))
    wf.set_target(dangling[-1])
    return wf, library, exec_time


def _dataset_sizes(wf):
    """Bytes of every dataset: an output is the sum of its inputs."""
    size = {name: ds.size for name, ds in wf.datasets.items()
            if ds.materialized}
    for op in wf.topological_operators():
        for out in wf.op_outputs[op.name]:
            size[out] = sum(size[d] for d in wf.op_inputs[op.name])
    return size


def _enumerated_optimum(wf, exec_time, allow_moves):
    """Cheapest of all ``3 ** operators`` engine assignments, priced from
    the drawn table alone: one move wherever producer and consumer differ
    (none allowed with ``allow_moves=False``)."""
    ops = [op.name for op in wf.topological_operators()]
    size = _dataset_sizes(wf)
    best = float("inf")
    for assignment in itertools.product(range(_ENGINES), repeat=len(ops)):
        engine_of = dict(zip(ops, assignment))
        total = 0.0
        for name in ops:
            total += exec_time[name][engine_of[name]]
            for ds in wf.op_inputs[name]:
                producer = wf.producer.get(ds)
                if producer is not None and engine_of[producer] != engine_of[name]:
                    total += size[ds] / _BANDWIDTH if allow_moves else float("inf")
        best = min(best, total)
    return best


def _single_entry_reference(wf, exec_time):
    """The ablated DP by hand: ONE (cost, engine) per dataset, first wins."""
    size = _dataset_sizes(wf)
    best = {name: (0.0, None) for name, ds in wf.datasets.items()
            if ds.materialized}
    for op in wf.topological_operators():
        for j in range(_ENGINES):
            total = exec_time[op.name][j]
            for ds in wf.op_inputs[op.name]:
                cost, engine = best[ds]
                total += cost
                if engine is not None and engine != j:
                    total += size[ds] / _BANDWIDTH
            for out in wf.op_outputs[op.name]:
                if out not in best or total < best[out][0]:
                    best[out] = (total, j)
    return best[wf.target][0]


@settings(max_examples=60, deadline=None)
@given(in_tree_instance())
def test_plan_cost_is_the_enumerated_optimum(instance):
    wf, library, exec_time = instance
    estimator = MetadataCostEstimator(move_bandwidth=_BANDWIDTH)
    optimum = _enumerated_optimum(wf, exec_time, allow_moves=True)
    assert Planner(library, estimator).plan(wf).cost == pytest.approx(
        optimum, rel=1e-9)
    # a connected tree without moves runs on one engine end to end
    assert Planner(library, estimator, allow_moves=False).plan(
        wf).cost == pytest.approx(
            _enumerated_optimum(wf, exec_time, allow_moves=False), rel=1e-9)
    # one entry per dataset loses hybrid plans, never gains on the optimum
    single = Planner(library, estimator, single_entry_dp=True).plan(wf).cost
    assert single == pytest.approx(
        _single_entry_reference(wf, exec_time), rel=1e-9)
    assert single >= optimum * (1 - 1e-9)
