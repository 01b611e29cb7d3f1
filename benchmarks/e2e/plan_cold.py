"""Workload ``plan_cold``: the planner alone, cold then cached.

``Planner.plan`` on Montage-1000 over an 8-engine ``synthetic_library`` —
Figure 14's headline point — with the plan cache off, repeated on fresh
inputs so the library's match memo is cold every time; the last repetition
goes through a cache-enabled planner (a miss that writes), followed by 20
identical resubmissions (reads).  ``core.planner``/``core.metadata``/
``core.library`` do all the work; execution, journal, refine and service do
none, so this is where a planner or metadata change must show and where
every other change must show nothing.
"""

from __future__ import annotations

import gc
import statistics
import time

import oracle
from common import Config, Result, Stopwatch, close, finish_trace, wrapped
from repro.core import Planner
from repro.core.library import OperatorLibrary
from repro.core.metadata import MetadataTree
from repro.core.pareto import ParetoPlanner
from repro.core.plancache import PlanCache
from repro.core.planner import MetadataCostEstimator
from repro.workflows import generate, synthetic_library

NAME = "plan_cold"
#: cold plans per run (the issue's 8, cut to fit the contract's time cap)
COLD_PLANS = 5
WARM_CALLS = 20


def inputs(cfg: Config, nodes: int | None = None, engines: int | None = None):
    """Fresh ``(workflow, library)`` for the seed: nothing memoized yet."""
    nodes = nodes or (100 if cfg.smoke else 1000)
    engines = engines or (4 if cfg.smoke else 8)
    workflow = generate("Montage", nodes, seed=cfg.seed)
    return workflow, synthetic_library(workflow, engines, seed=cfg.seed + 1)


def set_up(cfg: Config, result: Result) -> None:
    """Generate the inputs once and run the brute-force optimality oracle."""
    inputs(cfg)
    tree, tree_library = oracle.oracle_case(cfg.seed)
    planned = Planner(tree_library, MetadataCostEstimator()).plan(tree).cost
    optimum = oracle.brute_force_cost(tree, tree_library)
    result.check(close(planned, optimum),
                 f"oracle: Planner cost {planned!r} != enumerated optimum "
                 f"{optimum!r} on {tree.name}")


def install(recorder) -> None:
    """The planning layers' wrappers (also used by ``crash_resume``)."""
    recorder.wrap(Planner, "plan", "planner.plan")
    recorder.wrap(OperatorLibrary, "find_materialized", "library.match")
    recorder.wrap(PlanCache, "key", "plancache.key")
    recorder.wrap(PlanCache, "get", "plancache.get")
    recorder.wrap(PlanCache, "put", "plancache.put")
    recorder.count(MetadataTree, "copy", "metadata.copy_calls")
    recorder.count(MetadataTree, "matches", "metadata.match_calls")


def install_estimator(recorder, estimator_class: type) -> None:
    """Wrap the cost estimator in use (its methods may be inherited)."""
    recorder.wrap(estimator_class, "operator_metrics",
                  "estimator.operator_metrics")
    recorder.wrap(estimator_class, "move_metrics", "estimator.move_metrics")


def planning_layers(result: Result, layers, counts: dict) -> None:
    """Per-layer metrics of the planning stack from a traced pass."""
    estimator = ("estimator.operator_metrics", "estimator.move_metrics")
    result.per_layer.update({
        "planner.plan_calls": layers.calls("planner.plan"),
        "planner.plan_busy_s": layers.busy("planner.plan"),
        "planner.dp_self_s": layers.self_time("planner.plan"),
        "library.match_calls": layers.calls("library.match"),
        "library.match_busy_s": layers.busy("library.match"),
        "estimator.calls": layers.calls(*estimator),
        "estimator.busy_s": layers.busy(*estimator),
        "metadata.copy_calls": counts.get("metadata.copy_calls", 0),
        "metadata.match_calls": counts.get("metadata.match_calls", 0),
        "plancache.key_busy_s": layers.busy("plancache.key"),
        "plancache.get_busy_s": layers.busy("plancache.get"),
    })


class _Pass:
    """Cold repetitions, then one cache write and ``WARM_CALLS`` reads."""

    def __init__(self, cfg: Config, result: Result) -> None:
        self.cfg, self.result = cfg, result
        self.cold = Stopwatch()
        self.warm = Stopwatch()
        #: ``(digest, cost, steps)`` per cold plan — not the plans, whose
        #: retention would make every later repetition's GC slower
        self.plans: list[tuple[str, float, int]] = []
        self.cache_stats: dict = {}

    def run(self, repetitions: int) -> None:
        for _ in range(repetitions - 1):
            workflow, library = inputs(self.cfg)
            planner = Planner(library, MetadataCostEstimator())
            self._cold(planner, workflow)
        workflow, library = inputs(self.cfg)
        cache = PlanCache()
        cache.attach_library(library)
        planner = Planner(library, MetadataCostEstimator(), plan_cache=cache)
        written = self._cold(planner, workflow)
        for _ in range(WARM_CALLS):
            self.result.attempted += 1
            with self.warm.lap():
                plan = planner.plan(workflow)
            if not (planner.last_plan_cached and plan is written):
                self.result.failed += 1
                self.result.errors.append(
                    "warm: resubmission was not served from the plan cache")
        self.cache_stats = cache.stats()

    def _cold(self, planner: Planner, workflow):
        self.result.attempted += 1
        gc.collect()  # every repetition starts from a collected heap
        with self.cold.lap():
            plan = planner.plan(workflow)
        if planner.last_plan_cached:
            self.result.failed += 1
            self.result.errors.append("cold: a cold plan came from the cache")
        self.plans.append(
            (oracle.plan_digest(plan), plan.cost, len(plan.steps)))
        return plan


def _pareto_over_scalar(cfg: Config) -> float:
    """``ParetoPlanner`` wall over ``Planner`` wall, Montage-100 x 4 engines."""
    def wall(plan) -> float:
        workflow, library = inputs(cfg, nodes=30 if cfg.smoke else 100,
                                   engines=4)
        start = time.perf_counter()
        plan(library, workflow)
        return time.perf_counter() - start

    scalar = min(wall(lambda lib, wf: Planner(
        lib, MetadataCostEstimator()).plan(wf)) for _ in range(3))
    return wall(lambda lib, wf: ParetoPlanner(
        lib, MetadataCostEstimator()).plan_frontier(wf)) / scalar


def run(cfg: Config) -> Result:
    """One ``plan_cold`` run: timed, or reference + traced."""
    result = Result(NAME)
    setups = Stopwatch()
    for _ in range(cfg.setup_repeats):
        with setups.lap():
            set_up(cfg, result)

    reference_reps, traced_reps = cfg.split(cfg.repetitions(COLD_PLANS))
    reference = _Pass(cfg, result)
    reference.run(reference_reps)
    passes = [reference]

    if cfg.trace:
        traced = _Pass(cfg, result)
        def install_all(recorder) -> None:
            install(recorder)
            install_estimator(recorder, MetadataCostEstimator)

        with wrapped(install_all) as recorder:
            traced.run(traced_reps)
        passes.append(traced)
        layers = finish_trace(
            cfg, result, recorder,
            statistics.median(reference.cold.laps),
            statistics.median(traced.cold.laps))
        planning_layers(result, layers, recorder.counts())
        stats = traced.cache_stats
        result.per_layer.update({
            "plancache.hit_ratio":
                stats["hits"] / (stats["hits"] + stats["misses"]),
            "plancache.warm_plan_ms":
                statistics.median(reference.warm.laps) * 1e3,
            "pareto.over_scalar_ratio": _pareto_over_scalar(cfg),
        })

    plans = [plan for p in passes for plan in p.plans]
    digest, cost, steps = plans[0]
    result.check(len(set(plans)) == 1,
                 f"plans differ across repetitions: {sorted(set(plans))}")
    for p in passes:
        result.check(
            p.cache_stats.get("hits") == WARM_CALLS
            and p.cache_stats.get("misses") == 1,
            f"plan cache counted {p.cache_stats}, expected "
            f"{WARM_CALLS} hits and 1 miss")
    golden = cfg.golden(NAME)
    if golden is not None:
        result.check(
            digest == golden["digest"] and close(cost, golden["cost"]),
            f"plan (cost {cost!r}, digest {digest[:12]}) != golden "
            f"(cost {golden['cost']!r}, digest {golden['digest'][:12]})")

    cold, warm = reference.cold, reference.warm
    result.samples.update(cold_n=len(cold.laps), warm_n=len(warm.laps),
                          steps=steps)
    result.named.update(plan_cold_s=statistics.median(cold.laps),
                        plan_warm_ms=statistics.median(warm.laps) * 1e3)
    if not cfg.trace:
        result.measured(
            op_seconds=cold.laps, cpu_seconds=cold.cpu,
            operations=len(cold.laps), setup_seconds=setups.laps)
    return result
