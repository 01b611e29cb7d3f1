"""Pareto-frontier workflow planning — the §2.2.3 extension.

The paper's planner optimizes a single scalarized metric and notes: "We are
currently investigating methods for optimizing multiple dimensions of
performance metrics, such as finding Pareto frontier execution plans."
This module implements that extension as the same optimizer over another
cost: :class:`~repro.core.planner.Planner` fills the dpTable, and here a
cost is a metric *vector* (execution time, monetary cost, ...), so each slot
keeps the set of *mutually non-dominated* plans and the planner returns the
whole frontier at the target for the user to pick a trade-off after the fact.

Frontier sizes are bounded (``max_frontier``) by thinning evenly along the
first metric, which keeps the DP polynomial while preserving the extremes.
"""

from __future__ import annotations

from operator import add, attrgetter
from typing import Any, Callable, Mapping, Sequence, TypeVar

import numpy as np

from repro.core.dataset import Dataset
from repro.core.library import OperatorLibrary
from repro.core.planner import INFEASIBLE, CostEstimator, Planner
from repro.core.policy import OptimizationPolicy
from repro.core.workflow import AbstractWorkflow, MaterializedPlan, PlanStep

_T = TypeVar("_T")
_Vector = tuple[float, ...]


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


class ParetoPlan(MaterializedPlan):
    """A frontier plan annotated with its full metric vector."""

    def __init__(self, workflow: AbstractWorkflow, steps: list[PlanStep],
                 metrics: dict[str, float]) -> None:
        super().__init__(workflow, steps, cost=next(iter(metrics.values())))
        self.metrics = metrics


class _CostVector(tuple):
    """A metric vector as a dpTable cost: adds element-wise, orders as a
    tuple, and reads as a float through its first metric."""

    __slots__ = ()

    def __add__(self, other: tuple) -> "_CostVector":  # type: ignore[override]
        return _CostVector(map(add, self, other))

    def __float__(self) -> float:
        return self[0]


class _VectorPolicy(OptimizationPolicy):
    """Prices a step as the vector of the metrics ``weights`` names (it
    weighs none of them: the values go unused)."""

    def scalarize(self, metrics: Mapping[str, float]) -> Any:
        """The metric vector, or ``INFEASIBLE`` if any element is."""
        cost = _CostVector(
            float(metrics.get(m, INFEASIBLE)) for m in self.weights)
        return INFEASIBLE if INFEASIBLE in cost else cost


class ParetoPlanner(Planner):
    """Algorithm 1 over metric vectors, returning a plan frontier.

    :class:`Planner` runs the DP; this class defines its cost: a step is
    priced as a vector, costs start at the zero vector, and of a list of
    priced alternatives the non-dominated ones survive, thinned to
    ``max_frontier``.
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
        super().__init__(library, estimator,
                         _VectorPolicy(dict.fromkeys(metrics, 1.0)),
                         allow_moves=allow_moves)
        self.metrics = tuple(metrics)
        self.max_frontier = max_frontier
        self._zero = _CostVector(0.0 for _ in self.metrics)

    def _frontier(self, priced: list[_T],
                  key: Callable[[_T], _Vector]) -> list[_T]:
        """What survives of priced alternatives: the bounded Pareto set."""
        return prune_frontier(priced, self.max_frontier, key)

    def plan_frontier(
        self,
        workflow: AbstractWorkflow,
        available_engines: set[str] | None = None,
        materialized_results: dict[str, Dataset] | None = None,
    ) -> list[ParetoPlan]:
        """All Pareto-optimal plans for the workflow's target dataset.

        ``materialized_results`` are finished intermediates to replan around,
        as in :meth:`Planner.plan`; a finished target yields one empty plan.
        """
        with self.tracer.span(f"plan:{workflow.name}", category="planner",
                              workflow=workflow.name) as span:
            frontier = self._fill(workflow, available_engines,
                                  materialized_results, span)
        return [ParetoPlan(workflow, entry.collect_steps(),
                           dict(zip(self.metrics, entry.cost)))
                for entry in frontier]
