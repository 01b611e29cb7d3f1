"""Workflow graphs: abstract DAGs and materialized execution plans."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from repro.core.dataset import Dataset
from repro.core.operators import AbstractOperator, MaterializedOperator

TARGET_MARKER = "$$target"
_N = TypeVar("_N", bound=Hashable)


class WorkflowError(ValueError):
    """Raised for malformed or cyclic workflow graphs."""


class WorkflowCycleError(WorkflowError):
    """The workflow graph contains a cycle (not a DAG)."""


class GraphParseError(WorkflowError):
    """A graph-file defect, carrying the source line and offending token.

    The static analyzer turns these into located diagnostics; the message
    itself also names the line so bare string consumers stay informative.
    """

    def __init__(self, message: str, line_no: int | None = None,
                 token: str | None = None) -> None:
        prefix = f"line {line_no}: " if line_no is not None else ""
        suffix = f" (at {token!r})" if token else ""
        super().__init__(f"{prefix}{message}{suffix}")
        self.line_no = line_no
        self.token = token


def postorder(roots: Iterable[_N],
              parents: Callable[[_N], Iterable[_N]]) -> Iterator[_N]:
    """Depth-first walk of a DAG: every node once, after its ``parents``.

    Iterative, so a 10k-stage chain is as walkable as a wide graph.  Raises
    :class:`WorkflowCycleError` on reaching a node that is still open.
    """
    done: dict[_N, bool] = {}  # False while a node's parents are pending
    for root in roots:
        if root in done:
            continue
        done[root] = False
        stack = [(root, iter(parents(root)))]
        while stack:
            node, pending = stack[-1]
            for parent in pending:
                if parent not in done:
                    done[parent] = False
                    stack.append((parent, iter(parents(parent))))
                    break
                if not done[parent]:
                    raise WorkflowCycleError("workflow graph contains a cycle")
            else:
                stack.pop()
                done[node] = True
                yield node


class AbstractWorkflow:
    """A DAG of dataset and abstract-operator nodes, G(Datasets, Operators).

    Edges connect datasets to operator input ports and operators to their
    output datasets; one dataset node is designated the ``$$target``.
    Built programmatically via :meth:`add_dataset`/:meth:`add_operator`/
    :meth:`connect` or parsed from the deliverable's ``graph`` file format
    (§3.3)::

        asapServerLog,LineCount,0
        LineCount,d1,0
        d1,$$target
    """

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self.datasets: dict[str, Dataset] = {}
        self.operators: dict[str, AbstractOperator] = {}
        self.op_inputs: dict[str, list[str]] = {}
        self.op_outputs: dict[str, list[str]] = {}
        self.producer: dict[str, str] = {}
        self.target: str | None = None
        #: graph-file line of each parsed edge (empty for programmatic DAGs)
        self.edge_lines: dict[tuple[str, str], int] = {}

    # -- construction ------------------------------------------------------
    def add_dataset(self, dataset: Dataset) -> Dataset:
        """Add a dataset node (names are unique across node kinds)."""
        if dataset.name in self.datasets or dataset.name in self.operators:
            raise WorkflowError(f"duplicate node name {dataset.name!r}")
        self.datasets[dataset.name] = dataset
        return dataset

    def add_operator(self, operator: AbstractOperator) -> AbstractOperator:
        """Add an abstract-operator node."""
        if operator.name in self.operators or operator.name in self.datasets:
            raise WorkflowError(f"duplicate node name {operator.name!r}")
        self.operators[operator.name] = operator
        self.op_inputs[operator.name] = []
        self.op_outputs[operator.name] = []
        return operator

    def connect(self, src: str, dst: str) -> None:
        """Add an edge dataset→operator (input) or operator→dataset (output)."""
        if src in self.datasets and dst in self.operators:
            self.op_inputs[dst].append(src)
        elif src in self.operators and dst in self.datasets:
            self.op_outputs[src].append(dst)
            if dst in self.producer:
                raise WorkflowError(f"dataset {dst!r} already has a producer")
            self.producer[dst] = src
        else:
            raise WorkflowError(
                f"edge {src!r}->{dst!r} must connect a dataset and an operator"
            )

    def set_target(self, dataset_name: str) -> None:
        """Designate the ``$$target`` dataset."""
        if dataset_name not in self.datasets:
            raise WorkflowError(f"unknown target dataset {dataset_name!r}")
        self.target = dataset_name

    @classmethod
    def from_graph_lines(
        cls,
        lines: Iterable[str],
        datasets: dict[str, Dataset],
        operators: dict[str, AbstractOperator],
        name: str = "workflow",
    ) -> "AbstractWorkflow":
        """Parse the ``graph`` file format given the node descriptions.

        Nodes referenced by the graph but missing from ``datasets`` are
        created as empty abstract datasets (matching the deliverable, where
        intermediate outputs like ``d1`` are empty files).
        """
        wf = cls(name)
        edges: list[tuple[str, str, int]] = []
        target: str | None = None
        target_line: int | None = None
        mentioned: list[str] = []
        for line_no, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) >= 2 and parts[1] == TARGET_MARKER:
                if target is not None:
                    raise GraphParseError(
                        f"duplicate $$target (already {target!r})",
                        line_no, line)
                target, target_line = parts[0], line_no
                continue
            if len(parts) < 2:
                raise GraphParseError("expected 'src,dst[,order]'",
                                      line_no, line)
            edges.append((parts[0], parts[1], line_no))
            mentioned.extend(parts[:2])
        for node in mentioned:
            if node in operators:
                if node not in wf.operators:
                    wf.add_operator(operators[node])
            elif node not in wf.datasets:
                wf.add_dataset(datasets.get(node, Dataset(node)))
        for src, dst, line_no in edges:
            try:
                wf.connect(src, dst)
            except WorkflowError as exc:
                raise GraphParseError(str(exc), line_no,
                                      f"{src},{dst}") from exc
            wf.edge_lines[(src, dst)] = line_no
        if target is None:
            raise GraphParseError("graph file has no $$target line",
                                  token=TARGET_MARKER)
        try:
            wf.set_target(target)
        except WorkflowError as exc:
            raise GraphParseError(str(exc), target_line, target) from exc
        wf.validate()
        return wf

    # -- analysis ---------------------------------------------------------
    def validate(self) -> None:
        """Check that the graph is a DAG with a reachable target."""
        if self.target is None:
            raise WorkflowError("workflow has no target dataset")
        list(self.topological_operators())  # raises on cycles
        for op_name, inputs in self.op_inputs.items():
            if not self.op_outputs[op_name]:
                raise WorkflowError(f"operator {op_name!r} has no outputs")
            for ds in inputs:
                if ds not in self.datasets:
                    raise WorkflowError(f"operator {op_name!r} reads unknown {ds!r}")

    def topological_operators(self) -> Iterator[AbstractOperator]:
        """Operators in DAG topological order (depth-first, §2.2.3)."""
        def producers(op_name: str) -> Iterator[str]:
            for ds in self.op_inputs[op_name]:
                if ds in self.producer:
                    yield self.producer[ds]

        order = list(postorder(self.operators, producers))  # raises on cycles
        return iter(self.operators[n] for n in order)

    def source_datasets(self) -> list[Dataset]:
        """Datasets with no producer (workflow inputs)."""
        return [d for n, d in self.datasets.items() if n not in self.producer]

    @property
    def n_nodes(self) -> int:
        """Total node count (datasets + operators), the Fig 14 x-axis."""
        return len(self.datasets) + len(self.operators)

    def __repr__(self) -> str:
        return (
            f"AbstractWorkflow({self.name!r}, operators={len(self.operators)}, "
            f"datasets={len(self.datasets)}, target={self.target!r})"
        )


@dataclass(frozen=True)
class PlanStep:
    """One scheduled operator of a materialized plan."""

    operator: MaterializedOperator
    inputs: tuple[Dataset, ...]
    outputs: tuple[Dataset, ...]
    estimated_cost: float
    #: name of the abstract operator this step materializes ("" for moves)
    abstract_name: str = ""
    #: resource assignment chosen by provisioning, e.g. {"cores": 4, "memory_gb": 8}
    resources: dict = field(default_factory=dict, hash=False, compare=False)
    #: raw estimator metrics behind ``estimated_cost`` (the accuracy-ledger
    #: "predicted" side); shared with the estimator, treat as read-only
    predicted: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def engine(self) -> str | None:
        """Engine of the materialized operator."""
        return self.operator.engine

    @property
    def is_move(self) -> bool:
        """True for synthesized move/transform steps."""
        return self.operator.algorithm == "move"

    def __repr__(self) -> str:
        ins = ",".join(d.name for d in self.inputs)
        outs = ",".join(d.name for d in self.outputs)
        return (
            f"PlanStep({self.operator.name} [{self.engine}] {ins} -> {outs}, "
            f"cost={self.estimated_cost:.3g})"
        )


@dataclass
class MaterializedPlan:
    """A fully materialized execution plan: ordered steps plus its cost."""

    workflow: AbstractWorkflow
    steps: list[PlanStep]
    cost: float

    def engines_used(self) -> set[str]:
        """Engines of the plan's non-move steps."""
        return {s.engine for s in self.steps if not s.is_move}

    def step_for_operator(self, abstract_name: str) -> PlanStep | None:
        """Find the step materializing the given abstract operator, if any."""
        for step in self.steps:
            if step.abstract_name == abstract_name:
                return step
        return None

    def __repr__(self) -> str:
        chain = " | ".join(
            f"{s.operator.name}@{s.engine}" for s in self.steps
        )
        return f"MaterializedPlan(cost={self.cost:.4g}: {chain})"
