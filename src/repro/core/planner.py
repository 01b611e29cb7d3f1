"""The IReS multi-engine workflow planner — Algorithm 1 of the paper.

A dynamic-programming optimizer over the abstract workflow DAG.  The
``dpTable`` keeps, for every intermediate dataset node, the best plan *per
distinct dataset format/location*, which is what enables hybrid multi-engine
plans (an entry left on engine A may lose locally but win globally once the
downstream operator runs on A).  Move/transform operators are synthesized
where consecutive operators disagree on formats or stores.

Entries form a parent-linked DAG instead of carrying full step lists; the
winning plan is assembled once at the end by a topological walk, which keeps
planning linear in plan size (the Figure 14/15 experiments run workflows of
up to 1000 nodes).

Worst-case complexity is ``O(op · m² · k)`` for ``op`` abstract operators,
``m`` matching implementations each and ``k`` inputs per operator.
"""

from __future__ import annotations

import time
from operator import attrgetter, itemgetter
from typing import Any, Callable, Protocol, Sequence, TypeVar

from repro.core.dataset import Dataset
from repro.core.library import MatchStats, MatchTotals, OperatorLibrary
from repro.core.metadata import MetadataError, MetadataTree
from repro.core.operators import MaterializedOperator, MoveOperator
from repro.core.plancache import PlanCache
from repro.core.policy import OptimizationPolicy
from repro.core.provenance import (
    REASON_COST_INFEASIBLE,
    REASON_INPUT_UNPRODUCIBLE,
    REASON_NO_COMPATIBLE_INPUT,
    CandidateRecord,
    PlanProvenance,
)
from repro.core.workflow import (
    AbstractWorkflow,
    MaterializedPlan,
    PlanStep,
    postorder,
)
from repro.obs.context import current_run_id
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import NULL_TRACER, Span, Tracer

INFEASIBLE = float("inf")

_LOG = get_logger("planner")
_PLANS = REGISTRY.counter(
    "ires_planner_plans_total",
    "Planning passes by outcome (ok / infeasible)",
    labels=("status", "run_id"),
)
_PLAN_SECONDS = REGISTRY.histogram(
    "ires_planner_wall_seconds",
    "Wall-clock time of one planning pass",
)
_DP_ENTRIES = REGISTRY.gauge(
    "ires_planner_dp_entries",
    "dpTable entries (dataset x format/engine) of the last planning pass",
)
_EXPANSIONS = REGISTRY.counter(
    "ires_planner_expansions_total",
    "Abstract-operator DP expansions performed",
)
_PREFLIGHTS = REGISTRY.counter(
    "ires_planner_preflight_total",
    "Pre-flight lint gates by outcome (ok / failed)",
    labels=("status",),
)


class PlanningError(RuntimeError):
    """No feasible execution plan exists for the workflow."""


class CostEstimator(Protocol):
    """What the planner needs from the modeling layer (or ground truth)."""

    def operator_metrics(
        self, operator: MaterializedOperator, inputs: Sequence[Dataset]
    ) -> dict[str, float]:
        """Estimated metrics (execTime, cost, ...) of running the operator."""
        ...

    def move_metrics(
        self, dataset: Dataset, src_store: str | None, dst_store: str | None
    ) -> dict[str, float]:
        """Estimated metrics of moving/transforming a dataset between stores."""
        ...

    def output_size(
        self, operator: MaterializedOperator, inputs: Sequence[Dataset]
    ) -> float:
        """Estimated size (bytes) of the operator's output dataset."""
        ...

    def output_count(
        self, operator: MaterializedOperator, inputs: Sequence[Dataset]
    ) -> float:
        """Estimated cardinality (items) of the operator's output dataset."""
        ...


class MetadataCostEstimator:
    """Fallback estimator reading static costs from operator descriptions.

    Mirrors the deliverable's LineCount example where the description file
    carries ``Optimization.execTime=1.0`` / ``Optimization.cost=1.0``
    (a ``UserFunction`` model).  Move cost is proportional to data size.
    """

    def __init__(self, move_bandwidth: float = 100e6) -> None:
        self.move_bandwidth = move_bandwidth

    def operator_metrics(self, operator: MaterializedOperator,
                         inputs: Sequence[Dataset]) -> dict[str, float]:
        """Static ``Optimization.execTime``/``cost`` from the description."""
        return {
            "execTime": operator.metadata.get_float("Optimization.execTime", 1.0),
            "cost": operator.metadata.get_float("Optimization.cost", 1.0),
        }

    def move_metrics(self, dataset: Dataset, src_store: str | None,
                     dst_store: str | None) -> dict[str, float]:
        """Move time = bytes / bandwidth."""
        seconds = dataset.size / self.move_bandwidth
        return {"execTime": seconds, "cost": seconds}

    def output_size(self, operator: MaterializedOperator,
                    inputs: Sequence[Dataset]) -> float:
        """Output bytes default to the sum of input bytes."""
        return sum(d.size for d in inputs)

    def output_count(self, operator: MaterializedOperator,
                     inputs: Sequence[Dataset]) -> float:
        """Output cardinality defaults to the sum of input counts."""
        return sum(d.count for d in inputs)


#: a dataset's constraint leaves, as ``Dataset.signature()`` lists them
_Leaves = tuple[tuple[str, str], ...]
#: what the dpTable minimizes: any value that adds, orders and reads as a
#: float — :class:`Planner`'s float, the Pareto planner's metric vector
_Cost = Any
_T = TypeVar("_T")


class _Entry:
    """One dpTable record: a dataset in a concrete format plus how to get it.

    ``step`` is the final step producing the dataset (None for materialized
    sources); ``parents`` are the entries whose plans feed it.  The full plan
    is reconstructed by walking this DAG.
    """

    __slots__ = ("dataset", "cost", "step", "parents", "leaves", "store")

    def __init__(
        self,
        dataset: Dataset,
        cost: _Cost,
        step: PlanStep | None = None,
        parents: tuple["_Entry", ...] = (),
        leaves: _Leaves = (),
    ) -> None:
        self.dataset = dataset
        self.cost = cost
        self.step = step
        self.parents = parents
        #: the dataset's constraint leaves — the tuple its dpTable key
        #: (``Dataset.signature()``) already holds, not a second copy
        self.leaves = leaves
        #: where the data sits: the source side of every move priced from here
        self.store = dataset.store

    def collect_steps(self) -> list[PlanStep]:
        """Topologically ordered, deduplicated steps of this entry's plan."""
        # a step may be shared by several entries: its first position stays
        steps = {id(entry.step): entry.step
                 for entry in postorder([self], _PARENTS)
                 if entry.step is not None}
        return list(steps.values())


class _InputTarget:
    """What a candidate's input asks of the dataset feeding it.

    Resolved once per planning pass and distinct input spec (the 500 inputs
    of a Montage ``mAdd`` share one), so the work left per dpTable entry is
    a dict lookup: ``accepts`` memoizes the O(t) ``consistent_with`` walk per
    constraint-leaf tuple, of which eight engines produce a handful.
    """

    __slots__ = ("spec", "dst_store", "movable", "overlay", "_accepts")

    def __init__(self, spec: MetadataTree, leaves: _Leaves,
                 engine: str | None) -> None:
        self.spec = spec
        #: the store a move to this input delivers to
        self.dst_store = spec.get("Engine.FS") or spec.get("Engine") or engine
        #: a spec without constraints leaves a move nothing to convert to:
        #: whatever it rejects, it rejects for good
        self.movable = not spec.is_leaf
        #: what a move lays over the moved dataset's description
        self.overlay = [(f"Constraints.{path}", value)
                        for path, value in leaves]
        self._accepts: dict[_Leaves, bool] = {}

    def accepts(self, leaves: _Leaves, dataset: Dataset) -> bool:
        """Can ``dataset``, whose constraint leaves are ``leaves``, feed
        this input as-is?

        The leaves decide it: ``consistent_with`` compares nothing but leaf
        values, and a node without a value agrees with everything.
        """
        ok = self._accepts.get(leaves)
        if ok is None:
            constraints = dataset.metadata.node("Constraints")
            ok = constraints is None or self.spec.consistent_with(constraints)
            self._accepts[leaves] = ok
        return ok


#: one planning pass's targets, by ``(spec leaves, candidate engine)`` —
#: all of a spec that ``accepts``, pricing and building read — and, to skip
#: flattening a spec seen before, by ``(operator name, input index)``
_Targets = dict[tuple, _InputTarget]

#: the dpTable: per dataset node and format, a frontier of entries
_DpTable = dict[str, dict[tuple, list[_Entry]]]

_BY_COST = itemgetter(0)
_ENTRY_COST = attrgetter("cost")
_PARENTS = attrgetter("parents")


class Planner:
    """Dynamic-programming workflow planner (Algorithm 1).

    A dpTable slot holds a *frontier* of entries.  What a step costs
    (``policy.scalarize``), where costs start (``_zero``) and which of a list
    of priced alternatives survive (``_frontier``) are this class's to
    define: here a float, ``0.0`` and the first cheapest one.
    """

    _zero: _Cost = 0.0

    def __init__(
        self,
        library: OperatorLibrary,
        estimator: CostEstimator | None = None,
        policy: OptimizationPolicy | None = None,
        allow_moves: bool = True,
        use_index: bool = True,
        single_entry_dp: bool = False,
        tracer: Tracer | None = None,
        preflight: bool = False,
        record_provenance: bool = False,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.library = library
        self.estimator = estimator if estimator is not None else MetadataCostEstimator()
        self.policy = policy if policy is not None else OptimizationPolicy.min_exec_time()
        self.allow_moves = allow_moves
        self.use_index = use_index
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: opt-in pre-flight: run the match + dataflow lint passes before
        #: planning and raise one aggregated LintFailure listing every
        #: defect, instead of whatever mid-plan error the first one causes
        self.preflight = preflight
        #: ablation switch: keep only ONE best entry per dataset node instead
        #: of one per format/engine (loses hybrid plans; see DESIGN.md §5).
        self.single_entry_dp = single_entry_dp
        #: opt-in: capture every _consider comparison into a PlanProvenance
        #: (the ``ires explain`` data source); off by default — the NULL path
        #: must stay inside the obs overhead budget
        self.record_provenance = record_provenance
        #: provenance of the most recent plan() call (None until recorded)
        self.last_provenance: PlanProvenance | None = None
        #: memoized finished plans keyed on every input the DP depends on;
        #: None disables caching entirely
        self.plan_cache = plan_cache
        #: True when the most recent plan() was served from the cache
        self.last_plan_cached = False
        self._move_ops: dict[tuple, MoveOperator] = {}

    def _cache_token(self) -> tuple:
        """The planner knobs that change plan outcomes, for the cache key.

        The estimator enters by identity: its internal state (profiles,
        trained models) is keyed separately through the library/model epochs.
        """
        return (self.allow_moves, self.use_index, self.single_entry_dp,
                type(self.estimator).__name__, id(self.estimator))

    # -- public API ---------------------------------------------------------
    def plan(
        self,
        workflow: AbstractWorkflow,
        available_engines: set[str] | None = None,
        materialized_results: dict[str, Dataset] | None = None,
    ) -> MaterializedPlan:
        """Find the optimal materialized plan for an abstract workflow.

        ``available_engines`` excludes implementations on unavailable engines
        (used during fault-tolerant replanning, §2.3).  ``materialized_results``
        maps intermediate dataset names to already-computed results, which
        enter the dpTable at zero cost so replanning reuses them.

        With ``preflight=True`` the workflow is statically analyzed first
        and a :class:`~repro.analysis.diagnostics.LintFailure` aggregating
        every defect is raised before any DP work happens.
        """
        if self.preflight:
            self._preflight(workflow, available_engines)
        self.last_plan_cached = False
        cache = self.plan_cache
        key: tuple | None = None
        wall_start = time.perf_counter()
        # provenance-recording runs bypass the cache: a hit would leave
        # last_provenance stale (describing some earlier DP pass)
        if cache is not None and not self.record_provenance:
            key = cache.key(
                workflow,
                library_epoch=self.library.epoch,
                available_engines=available_engines,
                materialized_results=materialized_results,
                policy=self.policy,
                planner_token=self._cache_token(),
            )
            hit = cache.get(key)
            if hit is not None:
                self.last_plan_cached = True
                wall = time.perf_counter() - wall_start
                _PLANS.inc(status="ok", run_id=current_run_id() or "")
                _PLAN_SECONDS.observe(wall)
                _LOG.info("plan_ready", workflow=workflow.name,
                          steps=len(hit.steps), cost=round(hit.cost, 4),
                          wall_seconds=round(wall, 6), cached=True)
                return hit
        tracer = self.tracer
        try:
            with tracer.span(f"plan:{workflow.name}", category="planner",
                             workflow=workflow.name) as span:
                best = self._fill(workflow, available_engines,
                                  materialized_results, span)[0]
                plan = MaterializedPlan(workflow, best.collect_steps(),
                                        float(best.cost))
                if self.record_provenance and self.last_provenance is not None:
                    self.last_provenance.finalize(plan)
        except PlanningError:
            wall = time.perf_counter() - wall_start
            _PLANS.inc(status="infeasible", run_id=current_run_id() or "")
            _PLAN_SECONDS.observe(wall)
            _LOG.warning("plan_infeasible", workflow=workflow.name,
                         wall_seconds=round(wall, 6))
            raise
        wall = time.perf_counter() - wall_start
        _PLANS.inc(status="ok", run_id=current_run_id() or "")
        _PLAN_SECONDS.observe(wall)
        if tracer.enabled:
            span.set_attribute("steps", len(plan.steps))
            span.set_attribute("cost", plan.cost)
        _LOG.info("plan_ready", workflow=workflow.name,
                  steps=len(plan.steps), cost=round(plan.cost, 4),
                  wall_seconds=round(wall, 6), cached=False)
        if cache is not None and key is not None:
            cache.put(key, plan)
        return plan

    def _preflight(
        self,
        workflow: AbstractWorkflow,
        available_engines: set[str] | None,
    ) -> None:
        """Gate planning on the match + dataflow lint passes.

        Imports lazily: the analysis package sits above core in the import
        graph, so a module-level import here would be cyclic.
        """
        from repro.analysis.diagnostics import LintFailure
        from repro.analysis.lint import preflight_workflow

        collector = preflight_workflow(self.library, workflow,
                                       available_engines)
        if collector.has_errors:
            _PREFLIGHTS.inc(status="failed")
            _LOG.warning("preflight_failed", workflow=workflow.name,
                         errors=len(collector.errors()),
                         codes=",".join(collector.codes()))
            raise LintFailure(collector, context=f"workflow {workflow.name!r}")
        _PREFLIGHTS.inc(status="ok")

    def _fill(
        self,
        workflow: AbstractWorkflow,
        available_engines: set[str] | None,
        materialized_results: dict[str, Dataset] | None,
        span: Span,
    ) -> list[_Entry]:
        """Fill the dpTable; returns the frontier of the target's entries."""
        workflow.validate()
        tracer = self.tracer
        dp: _DpTable = {}
        targets: _Targets = {}
        materialized_results = materialized_results or {}
        prov = PlanProvenance(workflow.name) if self.record_provenance else None
        if self.record_provenance:
            self.last_provenance = prov

        # Initialize dpTable with materialized inputs (lines 5-10): sources,
        # and results computed before the failure this pass replans around.
        for name, dataset in workflow.datasets.items():
            dataset = materialized_results.get(name, dataset)
            if name in materialized_results or dataset.materialized:
                key = dataset.signature()
                dp[name] = {key: [_Entry(dataset, self._zero, leaves=key[1])]}
                if name == workflow.target:
                    return dp[name][key]  # nothing is left to plan

        # Process operators in DAG topological order (line 11 onwards).
        expansions = 0
        totals = MatchTotals()
        for abstract_op in workflow.topological_operators():
            in_names = workflow.op_inputs[abstract_op.name]
            out_names = workflow.op_outputs[abstract_op.name]
            if all(n in materialized_results for n in out_names):
                continue  # already computed before a failure; nothing to plan
            expansions += 1
            if not tracer.enabled:
                matches = self.library.find_materialized(
                    abstract_op, available_engines, use_index=self.use_index,
                    totals=totals,
                )
                for mat_op in matches:
                    self._consider(dp, targets, workflow, abstract_op.name,
                                   mat_op, in_names, out_names, prov)
                continue
            stats = MatchStats()
            with tracer.span(f"expand:{abstract_op.name}", category="planner",
                             operator=abstract_op.name) as op_span:
                matches = self.library.find_materialized(
                    abstract_op, available_engines, use_index=self.use_index,
                    stats=stats, totals=totals,
                )
                for mat_op in matches:
                    self._consider(dp, targets, workflow, abstract_op.name,
                                   mat_op, in_names, out_names, prov)
                op_span.set_attribute("candidates_matched", stats.matched)
                op_span.set_attribute("pruned_by_index", stats.pruned_by_index)
                op_span.set_attribute("engine_filtered", stats.engine_filtered)
                op_span.set_attribute("tree_rejected", stats.tree_rejected)
                op_span.set_attribute("dp_datasets", len(dp))
        totals.flush()
        _EXPANSIONS.inc(expansions)

        target_slots = dp.get(workflow.target)
        dp_entries = sum(len(frontier) for slots in dp.values()
                         for frontier in slots.values())
        _DP_ENTRIES.set(dp_entries)
        if tracer.enabled:
            span.set_attribute("expansions", expansions)
            span.set_attribute("dp_entries", dp_entries)
        if not target_slots:
            raise PlanningError(
                f"no feasible plan produces target {workflow.target!r} "
                f"(available engines: {sorted(available_engines) if available_engines else 'all'})"
            )
        return self._frontier(
            [entry for frontier in target_slots.values() for entry in frontier],
            _ENTRY_COST)

    # -- internals ---------------------------------------------------------
    def _frontier(self, priced: list[_T],
                  key: Callable[[_T], _Cost]) -> list[_T]:
        """What survives of priced alternatives: the first cheapest one."""
        return [min(priced, key=key)] if priced else []

    def _consider(
        self,
        dp: _DpTable,
        targets: _Targets,
        workflow: AbstractWorkflow,
        abstract_name: str,
        mat_op: MaterializedOperator,
        in_names: list[str],
        out_names: list[str],
        prov: PlanProvenance | None = None,
    ) -> None:
        """Evaluate one materialized candidate (inner loop of Algorithm 1)."""
        # the frontier of input combinations, grown one input at a time so
        # that costs add up in input order from zero
        combos: list[tuple[_Cost, tuple[_Entry, ...]]] = [(self._zero, ())]
        for i, in_name in enumerate(in_names):
            slots = dp.get(in_name)
            if not slots:
                if prov is not None:
                    prov.note(self._candidate(
                        abstract_name, mat_op, REASON_INPUT_UNPRODUCIBLE))
                return  # input not producible -> operator infeasible
            options = self._input_options(
                slots, self._input_target(targets, mat_op, i))
            if not options:
                if prov is not None:
                    prov.note(self._candidate(
                        abstract_name, mat_op, REASON_NO_COMPATIBLE_INPUT))
                return
            combos = self._frontier(
                [(cost + option.cost, parents + (option,))
                 for cost, parents in combos for option in options], _BY_COST)

        for input_cost, parents in combos:
            input_datasets = [e.dataset for e in parents]
            metrics = self.estimator.operator_metrics(mat_op, input_datasets)
            operator_cost = self.policy.scalarize(metrics)
            if operator_cost == INFEASIBLE:
                if prov is not None:
                    prov.note(self._candidate(
                        abstract_name, mat_op, REASON_COST_INFEASIBLE))
                continue
            total_cost = input_cost + operator_cost
            if prov is not None:
                prov.note(CandidateRecord(
                    abstract=abstract_name,
                    operator=mat_op.name,
                    algorithm=mat_op.algorithm,
                    engine=mat_op.engine or "",
                    feasible=True,
                    operator_cost=operator_cost,
                    total_cost=total_cost,
                    predicted=metrics,
                ))

            outputs = []
            out_size = self.estimator.output_size(mat_op, input_datasets)
            out_count = self.estimator.output_count(mat_op, input_datasets)
            for i, out_name in enumerate(out_names):
                out_ds = mat_op.output_for(workflow.datasets[out_name], i)
                out_ds.size = out_size
                out_ds.count = out_count
                outputs.append(out_ds)
            step = PlanStep(
                operator=mat_op,
                inputs=tuple(input_datasets),
                outputs=tuple(outputs),
                estimated_cost=float(operator_cost),
                abstract_name=abstract_name,
                predicted=metrics,
            )
            for out_ds in outputs:
                slot = dp.setdefault(out_ds.name, {})
                signature = out_ds.signature()
                key = ("__single__",) if self.single_entry_dp else signature
                entry = _Entry(out_ds, total_cost, step, parents, signature[1])
                # the newcomer goes last: at equal cost the slot's entry stays
                slot[key] = self._frontier(slot.get(key, []) + [entry],
                                           _ENTRY_COST)

    def _candidate(self, abstract_name: str, mat_op: MaterializedOperator,
                   reason: str) -> CandidateRecord:
        """An infeasible-candidate provenance record."""
        return CandidateRecord(
            abstract=abstract_name,
            operator=mat_op.name,
            algorithm=mat_op.algorithm,
            engine=mat_op.engine or "",
            feasible=False,
            reason=reason,
        )

    def _input_options(self, slots: dict[tuple, list[_Entry]],
                       target: _InputTarget) -> list[_Entry]:
        """The ways worth keeping to feed one input: as-is, or through a move.

        Lines 22-25 of Algorithm 1 need every move's *cost* but only the
        inputs that survive: every dpTable entry is priced, and a move is
        built only for an option ``_frontier`` keeps.
        """
        # (total cost, source entry, the move's cost and metrics if any)
        priced: list[tuple[_Cost, _Entry, _Cost, dict[str, float] | None]] = []
        movable = self.allow_moves and target.movable
        for entries in slots.values():
            for entry in entries:
                if target.accepts(entry.leaves, entry.dataset):
                    priced.append((entry.cost, entry, None, None))
                elif movable:
                    # ``moveCost`` of Algorithm 1
                    metrics = self.estimator.move_metrics(
                        entry.dataset, entry.store, target.dst_store)
                    move_cost = self.policy.scalarize(metrics)
                    if move_cost != INFEASIBLE:
                        priced.append((entry.cost + move_cost, entry,
                                       move_cost, metrics))
        while True:
            options: list[_Entry] = []
            unbuildable: set[int] = set()
            # ties keep dpTable order, as a strict-< scan would have it
            for option in self._frontier(priced, _BY_COST):
                cost, entry, move_cost, metrics = option
                if metrics is None:
                    options.append(entry)
                    continue
                step = self._move_build(entry.dataset, entry.store, target,
                                        float(move_cost), metrics)
                if step is None:
                    unbuildable.add(id(option))
                else:
                    options.append(
                        _Entry(step.outputs[0], cost, step, (entry,)))
            if not unbuildable:
                return options
            # an impossible move must not shape the frontier: choose again
            # without it
            priced = [o for o in priced if id(o) not in unbuildable]

    @staticmethod
    def _input_target(targets: _Targets, mat_op: MaterializedOperator,
                      i: int) -> _InputTarget:
        """The pass's resolved target for input ``i`` of ``mat_op``."""
        target = targets.get((mat_op.name, i))
        if target is None:
            spec = mat_op.input_spec(i)
            key = (tuple(spec.leaves()), mat_op.engine)
            target = targets.get(key)
            if target is None:
                target = targets[key] = _InputTarget(spec, *key)
            targets[mat_op.name, i] = target
        return target

    def _move_operator(self, src_store: str | None, dst_store: str | None,
                       src_fmt: str | None,
                       dst_fmt: str | None) -> MoveOperator:
        key = (src_store, dst_store, src_fmt, dst_fmt)
        op = self._move_ops.get(key)
        if op is None:
            op = MoveOperator(src_store or "unknown", dst_store or "unknown",
                              src_fmt, dst_fmt)
            self._move_ops[key] = op
        return op

    def _move_build(self, src: Dataset, src_store: str | None,
                    target: _InputTarget, cost: float,
                    metrics: dict[str, float]) -> PlanStep | None:
        """``checkMove`` of Algorithm 1: synthesize a priced transfer.

        Builds the move/transform step converting ``src`` to the format
        ``target`` requires; ``step.outputs[0]`` is the moved dataset.
        Returns None if the move is impossible: the spec cannot be laid over
        the dataset's description, or the result still disagrees with it.
        """
        moved = Dataset(src.name, src.metadata.copy())
        try:
            for key, value in target.overlay:
                moved.metadata.set(key, value)
        except MetadataError:
            # a spec leaf over a subtree, e.g. Engine=x over Engine.FS=y
            return None
        constraints = moved.metadata.node("Constraints")
        if (constraints is not None
                and not target.spec.consistent_with(constraints)):
            return None
        move_op = self._move_operator(
            src_store, target.dst_store, src.fmt, moved.fmt)
        return PlanStep(
            operator=move_op,
            inputs=(src,),
            outputs=(moved,),
            estimated_cost=cost,
            predicted=metrics,
        )
