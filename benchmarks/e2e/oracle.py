"""Correctness oracles the harness owns: references never come from the planner.

:func:`brute_force_cost` enumerates every engine assignment of a small
in-tree workflow and prices it from the operator descriptions alone — the
per-implementation ``Optimization.execTime`` plus one move wherever a
producer's store differs from its consumer's — so ``Planner.plan`` (Algorithm
1's optimality claim) is checked against something it did not compute.
:func:`plan_digest` fingerprints a plan's step list for the checked-in
goldens.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from repro.core.dataset import Dataset
from repro.core.operators import AbstractOperator
from repro.core.workflow import AbstractWorkflow, MaterializedPlan
from repro.workflows.pegasus import synthetic_library

#: enumerator limits (3^6 = 729 assignments)
MAX_OPERATORS = 6
ENGINES = 3
#: ``MetadataCostEstimator``'s default move bandwidth, bytes/s
MOVE_BANDWIDTH = 100e6


def small_in_tree(seed: int) -> AbstractWorkflow:
    """A seeded in-tree of 4–6 operators over 1–2-input stages.

    Every dataset feeds exactly one operator, so a plan's cost is the plain
    sum of its operator and move costs (the DP's per-consumer accounting and
    the true objective coincide on trees).
    """
    rng = np.random.default_rng(seed)
    n_ops = int(rng.integers(4, MAX_OPERATORS + 1))
    wf = AbstractWorkflow(f"oracle-tree-{seed}")
    open_datasets: list[str] = []
    n_sources = 0
    for i in range(n_ops):
        last = i == n_ops - 1
        # the last operator must consume everything still dangling
        arity = (max(1, len(open_datasets)) if last
                 else int(rng.integers(1, 3)))
        inputs = []
        for _ in range(arity):
            if open_datasets and (last or rng.random() < 0.6):
                inputs.append(open_datasets.pop(0))
            else:
                name = f"src{n_sources}"
                n_sources += 1
                wf.add_dataset(Dataset(name, {
                    "Constraints.type": "data",
                    "Optimization.size": float(rng.uniform(5e8, 5e9)),
                }, materialized=True))
                inputs.append(name)
        op_name, out_name = f"stage{i}", f"d{i}"
        wf.add_operator(AbstractOperator(op_name, {
            "Constraints.OpSpecification.Algorithm.name": f"alg{i}",
            "Constraints.Input.number": len(inputs),
            "Constraints.Output.number": 1,
        }))
        wf.add_dataset(Dataset(out_name))
        for name in inputs:
            wf.connect(name, op_name)
        wf.connect(op_name, out_name)
        open_datasets.append(out_name)
    wf.set_target(open_datasets[-1])
    wf.validate()
    return wf


def brute_force_cost(wf: AbstractWorkflow, library) -> float:
    """Cheapest total execTime over all ``ENGINES ** operators`` assignments."""
    ops = [op.name for op in wf.topological_operators()]
    if len(ops) > MAX_OPERATORS:
        raise ValueError(f"enumerator is limited to {MAX_OPERATORS} operators")
    exec_time = {}
    for name in ops:
        abstract = wf.operators[name]
        arity = max(abstract.n_inputs, 1)
        for j in range(ENGINES):
            impl = library.get(f"{abstract.algorithm}_k{arity}_e{j}")
            exec_time[name, j] = float(
                impl.metadata.get("Optimization.execTime"))
    best = float("inf")
    for assignment in itertools.product(range(ENGINES), repeat=len(ops)):
        engine_of = dict(zip(ops, assignment))
        size: dict[str, float] = {
            name: ds.size for name, ds in wf.datasets.items() if ds.materialized}
        total = 0.0
        for name in ops:
            for ds in wf.op_inputs[name]:
                producer = wf.producer.get(ds)
                # sources carry no store, so they are readable anywhere
                if producer is not None and engine_of[producer] != engine_of[name]:
                    total += size[ds] / MOVE_BANDWIDTH
            total += exec_time[name, engine_of[name]]
            for out in wf.op_outputs[name]:
                size[out] = sum(size[ds] for ds in wf.op_inputs[name])
        best = min(best, total)
    return best


def oracle_case(seed: int):
    """``(workflow, library)`` of the seeded enumerator case."""
    wf = small_in_tree(seed)
    return wf, synthetic_library(wf, ENGINES, seed=seed + 1)


def plan_digest(plan: MaterializedPlan) -> str:
    """SHA-256 over the plan's ordered ``abstract:operator:engine`` steps."""
    text = "\n".join(
        f"{step.abstract_name or ''}:{step.operator.name}:"
        f"{'move' if step.is_move else (step.engine or '')}"
        for step in plan.steps)
    return hashlib.sha256(text.encode()).hexdigest()
