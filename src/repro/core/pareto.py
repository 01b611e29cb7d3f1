"""Pareto-frontier workflow planning — the §2.2.3 extension.

The paper's planner optimizes a single scalarized metric and notes: "We are
currently investigating methods for optimizing multiple dimensions of
performance metrics, such as finding Pareto frontier execution plans."
This module implements that extension: the dpTable keeps, per dataset
format, the set of *mutually non-dominated* plans over a metric vector
(execution time, monetary cost, ...), and the planner returns the whole
frontier at the target so the user can pick a trade-off after the fact.

Frontier sizes are bounded (``max_frontier``) by thinning evenly along the
first metric, which keeps the DP polynomial while preserving the extremes.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.core.dataset import Dataset
from repro.core.library import OperatorLibrary
from repro.core.operators import MaterializedOperator
from repro.core.planner import (
    INFEASIBLE,
    CostEstimator,
    Planner,
    PlanningError,
    _InputTarget,
    _Targets,
)
from repro.core.workflow import AbstractWorkflow, MaterializedPlan, PlanStep

_T = TypeVar("_T")
_Vector = tuple[float, ...]
_VECTOR = itemgetter(0)


def dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """Pareto dominance for minimization."""
    for x, y in zip(a, b):
        if not x <= y:
            return False
    return a != b  # no worse anywhere, so better somewhere unless equal


def prune_frontier(
    entries: list[_T], max_size: int,
    key: Callable[[_T], _Vector] = attrgetter("metrics"),
) -> list[_T]:
    """Drop dominated entries; thin to ``max_size`` along the first metric.

    ``key`` reads an entry's metric vector (``entry.metrics`` by default).
    """
    # ascending by vector: an entry can only be dominated by an earlier one,
    # and what is kept stays ordered along the first metric
    kept: list[_T] = []
    vectors: list[_Vector] = []
    for entry in sorted(entries, key=key):
        vector = key(entry)
        if not any(dominates(other, vector) for other in vectors):
            kept.append(entry)
            vectors.append(vector)
    if len(kept) <= max_size:
        return kept
    # keep the extremes, thin evenly in between
    idx = np.linspace(0, len(kept) - 1, max_size).round().astype(int)
    return [kept[i] for i in sorted(set(idx.tolist()))]


class _ParetoEntry:
    """One frontier point: a dataset format, a metric vector, a plan DAG."""

    __slots__ = ("dataset", "metrics", "step", "parents")

    def __init__(
        self,
        dataset: Dataset,
        metrics: tuple[float, ...],
        step: PlanStep | None = None,
        parents: tuple["_ParetoEntry", ...] = (),
    ) -> None:
        self.dataset = dataset
        self.metrics = metrics
        self.step = step
        self.parents = parents

    def collect_steps(self) -> list[PlanStep]:
        """Topologically ordered, deduplicated steps of this entry's plan."""
        seen: set[int] = set()
        ordered: list[PlanStep] = []

        def visit(entry: "_ParetoEntry") -> None:
            if id(entry) in seen:
                return
            seen.add(id(entry))
            for parent in entry.parents:
                visit(parent)
            if entry.step is not None:
                ordered.append(entry.step)

        visit(self)
        unique, emitted = [], set()
        for step in ordered:
            if id(step) not in emitted:
                emitted.add(id(step))
                unique.append(step)
        return unique


class ParetoPlan(MaterializedPlan):
    """A frontier plan annotated with its full metric vector."""

    def __init__(self, workflow: AbstractWorkflow, steps: list[PlanStep],
                 metrics: dict[str, float]) -> None:
        super().__init__(workflow, steps, cost=next(iter(metrics.values())))
        self.metrics = metrics


class ParetoPlanner(Planner):
    """Multi-objective variant of Algorithm 1 returning a plan frontier.

    The DP keeps metric vectors where :class:`Planner` keeps scalars; input
    targets and the price/build steps of a move are the scalar planner's.
    """

    def __init__(
        self,
        library: OperatorLibrary,
        estimator: CostEstimator | None = None,
        metrics: Sequence[str] = ("execTime", "cost"),
        max_frontier: int = 16,
        allow_moves: bool = True,
    ) -> None:
        if len(metrics) < 2:
            raise ValueError("Pareto planning needs at least two metrics")
        super().__init__(library, estimator, allow_moves=allow_moves)
        self.metrics = tuple(metrics)
        self.max_frontier = max_frontier

    # -- public ----------------------------------------------------------
    def plan_frontier(
        self,
        workflow: AbstractWorkflow,
        available_engines: set[str] | None = None,
    ) -> list[ParetoPlan]:
        """All Pareto-optimal plans for the workflow's target dataset."""
        workflow.validate()
        dp: dict[str, dict[tuple, list[_ParetoEntry]]] = {}
        targets: _Targets = {}
        zeros = tuple(0.0 for _ in self.metrics)
        for name, dataset in workflow.datasets.items():
            if dataset.materialized:
                dp[name] = {dataset.signature(): [_ParetoEntry(dataset, zeros)]}

        for abstract_op in workflow.topological_operators():
            in_names = workflow.op_inputs[abstract_op.name]
            out_names = workflow.op_outputs[abstract_op.name]
            matches = self.library.find_materialized(abstract_op, available_engines)
            for mat_op in matches:
                self._consider_frontier(dp, targets, workflow,
                                        abstract_op.name, mat_op,
                                        in_names, out_names)

        target_slots = dp.get(workflow.target)
        if not target_slots:
            raise PlanningError(
                f"no feasible plan produces target {workflow.target!r}")
        frontier = prune_frontier(
            [e for entries in target_slots.values() for e in entries],
            self.max_frontier,
        )
        plans = []
        for entry in frontier:
            metrics = dict(zip(self.metrics, entry.metrics))
            plans.append(ParetoPlan(workflow, entry.collect_steps(), metrics))
        return plans

    # -- internals ---------------------------------------------------------
    def _vector(self, metrics: dict[str, float]) -> _Vector | None:
        values = tuple(float(metrics.get(m, INFEASIBLE)) for m in self.metrics)
        if any(v == INFEASIBLE for v in values):
            return None
        return values

    @staticmethod
    def _add(a: _Vector, b: _Vector) -> _Vector:
        return tuple(x + y for x, y in zip(a, b))

    def _input_options(
        self, slots: dict[tuple, list[_ParetoEntry]], target: _InputTarget,
    ) -> list[_ParetoEntry]:
        """Frontier of ways to provide one input (direct or via a move).

        Every option is priced as a metric vector; moves are built only for
        the options the frontier keeps.
        """
        # (total vector, source entry, the move's (vector, metrics) if any)
        priced: list[tuple[_Vector, _ParetoEntry,
                           tuple[_Vector, dict[str, float]] | None]] = []
        for signature, entries in slots.items():
            for entry in entries:
                if target.accepts(signature[1], entry.dataset):
                    priced.append((entry.metrics, entry, None))
                elif self.allow_moves:
                    src = entry.dataset
                    metrics = self._move_price(src, src.store, target)
                    move = None if metrics is None else self._vector(metrics)
                    if metrics is not None and move is not None:
                        priced.append((self._add(entry.metrics, move), entry,
                                       (move, metrics)))
        while True:
            options: list[_ParetoEntry] = []
            impossible: set[int] = set()
            for option in prune_frontier(priced, self.max_frontier, _VECTOR):
                vector, entry, moved = option
                if moved is None:
                    options.append(entry)
                    continue
                src = entry.dataset
                step = self._move_build(src, src.store, target, moved[0][0],
                                        moved[1])
                if step is None:
                    impossible.add(id(option))
                else:
                    options.append(
                        _ParetoEntry(step.outputs[0], vector, step, (entry,)))
            if not impossible:
                return options
            # an impossible move must not shape the frontier: prune again
            # without it
            priced = [o for o in priced if id(o) not in impossible]

    def _consider_frontier(
        self,
        dp: dict[str, dict[tuple, list[_ParetoEntry]]],
        targets: _Targets,
        workflow: AbstractWorkflow,
        abstract_name: str,
        mat_op: MaterializedOperator,
        in_names: list[str],
        out_names: list[str],
    ) -> None:
        """Evaluate one materialized candidate over every input frontier."""
        # frontier of input combinations, built incrementally with pruning
        combos: list[tuple[_Vector, tuple[_ParetoEntry, ...]]] = [
            (tuple(0.0 for _ in self.metrics), ())
        ]
        for i, in_name in enumerate(in_names):
            slots = dp.get(in_name)
            if not slots:
                return
            options = self._input_options(
                slots, self._input_target(targets, mat_op, i))
            if not options:
                return
            # prune combined partial vectors to keep the product bounded
            combos = prune_frontier(
                [(self._add(vec, opt.metrics), parents + (opt,))
                 for vec, parents in combos
                 for opt in options],
                self.max_frontier, _VECTOR)

        for vec, parents in combos:
            input_datasets = [p.dataset for p in parents]
            op_vec = self._vector(
                self.estimator.operator_metrics(mat_op, input_datasets))
            if op_vec is None:
                continue
            total = self._add(vec, op_vec)
            outputs = []
            out_size = self.estimator.output_size(mat_op, input_datasets)
            out_count = self.estimator.output_count(mat_op, input_datasets)
            for i, out_name in enumerate(out_names):
                out_ds = mat_op.output_for(workflow.datasets[out_name], i)
                out_ds.size = out_size
                out_ds.count = out_count
                outputs.append(out_ds)
            step = PlanStep(
                operator=mat_op, inputs=tuple(input_datasets),
                outputs=tuple(outputs), estimated_cost=op_vec[0],
                abstract_name=abstract_name,
            )
            entry_parents = tuple(parents)
            for out_ds in outputs:
                slot = dp.setdefault(out_ds.name, {})
                entries = slot.setdefault(out_ds.signature(), [])
                entries.append(_ParetoEntry(out_ds, total, step, entry_parents))
                slot[out_ds.signature()] = prune_frontier(
                    entries, self.max_frontier)
