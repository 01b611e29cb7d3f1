"""Workload ``cluster_pack``: the shared-cluster event loop alone.

``ClusterScheduler.submit`` x K=64 then ``run_until_idle`` for each of
``fifo``/``fair``/``dagps``, on the platform and admission mix of
``bench_extension_cluster.py`` (16 Montage-40 ahead of 48 alternating
Montage-8/relational runs).  The event loop does all the work; planner,
enforcer, journal and refine do none.  It is the *other* way steps get
executed, so a merge of the two execution cores must hold these numbers, and
its K-scaling (0.3 ms/step at K=8, 1.7 at K=64) is the loop's obvious
optimisation target.

The seed drives each admitted run's duration noise (``submit(seed=...)``);
the plans and their admission order are the issue's fixed mix.  The
simulated results — ``dagps`` aggregate makespan and p99 slowdown at K=64 —
repeat exactly for a seed and are reported beside the wall-clock numbers, so
a faster loop cannot silently buy a worse schedule.
"""

from __future__ import annotations

import gc
import statistics
import sys
from pathlib import Path

import numpy as np

from common import Config, Result, Stopwatch, close, finish_trace, wrapped
from tracing import Layers
from repro.execution.cluster import POLICIES, ClusterScheduler
from repro.execution.parallel import ParallelSimulator

# the workload *is* that file's platform and admission mix: use them, so the
# two cannot drift apart
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from bench_extension_cluster import _mix, _platform  # noqa: E402

NAME = "cluster_pack"
#: passes over the three policies per run (the issue's 5, cut to fit the cap)
PASSES = 3
#: the policy whose simulated results are the quality metrics
QUALITY_POLICY = "dagps"


class _Burst:
    """The platform, a K-run admission mix and its isolated baselines."""

    def __init__(self, cfg: Config, k: int) -> None:
        self.k = k
        self.ires, plans = _platform()
        self.mix = _mix(plans, k)
        # one noise stream per admitted run; the default seed reproduces
        # bench_extension_cluster.py's streams 0..K-1 (seed 0 wraps around:
        # numpy takes no negative seed)
        self.seeds = [((cfg.seed - 1) * k + i) % 2**32 for i in range(k)]
        self.baselines = [
            ParallelSimulator(self.ires.cloud, seed=seed,
                              charge_clock=False).simulate(plan).makespan
            for plan, seed in zip(self.mix, self.seeds)]

    def pack(self, policy: str, result: Result, watch: Stopwatch) -> dict:
        """One timed burst under ``policy``; returns its outcome."""
        gc.collect()
        with watch.lap():
            loop = ClusterScheduler(
                self.ires.cloud, policy=policy,
                cluster=self.ires.cloud.cluster.clone(), seed=0)
            runs = [loop.submit(plan, seed=seed, run_id=f"{policy}-{i}")
                    for i, (plan, seed) in enumerate(zip(self.mix, self.seeds))]
            loop.run_until_idle()
        result.attempted += self.k
        bad = [r for r in runs if r.report is None or not r.report.succeeded]
        result.failed += len(bad)
        result.check(not bad, f"{policy}@{self.k}: {len(bad)} runs failed")
        snapshot = loop.snapshot()
        scheduled = sum(len(r.report.schedule) for r in runs if r.report)
        result.check(snapshot["stepsPlaced"] == scheduled,
                     f"{policy}@{self.k}: stepsPlaced {snapshot['stepsPlaced']}"
                     f" != scheduled steps {scheduled}")
        slowdowns = [r.report.makespan / base
                     for r, base in zip(runs, self.baselines) if r.report]
        return {
            "steps": snapshot["stepsPlaced"],
            "peak_running": snapshot["peakRunningSteps"],
            "speculations": sum(len(r.report.speculations)
                                for r in runs if r.report),
            "makespan": max(r.finished_at for r in runs),
            "p99_slowdown": float(np.percentile(slowdowns, 99)),
        }


def _passes(burst: _Burst, n: int, result: Result, watch: Stopwatch) -> list:
    """``n`` passes over the three policies; outcomes in run order."""
    return [(policy, burst.pack(policy, result, watch))
            for _ in range(n) for policy in POLICIES]


def _pass_seconds(watch: Stopwatch) -> list[float]:
    """Wall time of each whole pass (its three policies' bursts together)."""
    n = len(POLICIES)
    return [sum(watch.laps[i:i + n]) for i in range(0, len(watch.laps), n)]


def install(recorder) -> None:
    """The cluster loop's wrappers."""
    recorder.wrap(ClusterScheduler, "submit", "cluster.submit")
    recorder.wrap(ClusterScheduler, "run_until_idle", "cluster.run_until_idle")


def _loop_cost(layers, steps: int) -> float:
    """Milliseconds of submit + event loop per placed step."""
    busy = layers.busy("cluster.submit", "cluster.run_until_idle")
    return busy / steps * 1e3


def run(cfg: Config) -> Result:
    """One ``cluster_pack`` run: timed, or reference + traced."""
    result = Result(NAME)
    k = 8 if cfg.smoke else 64
    setups = Stopwatch()
    for _ in range(cfg.setup_repeats):
        with setups.lap():
            burst = _Burst(cfg, k)

    reference_n, traced_n = cfg.split(cfg.repetitions(PASSES))
    watch = Stopwatch()
    outcomes = _passes(burst, reference_n, result, watch)
    steps_timed = sum(o["steps"] for _, o in outcomes)

    if cfg.trace:
        traced_watch = Stopwatch()
        with wrapped(install) as recorder:
            traced = _passes(burst, traced_n, result, traced_watch)
        layers = finish_trace(cfg, result, recorder,
                              statistics.median(_pass_seconds(watch)),
                              statistics.median(_pass_seconds(traced_watch)))
        steps = sum(o["steps"] for _, o in traced)
        # the same loop at K=8, wrapped like the K=64 passes it is compared to
        small = _Burst(cfg, 8)
        with wrapped(install) as small_recorder:
            small_outcomes = _passes(small, 10, result, Stopwatch())
        small_layers = Layers(small_recorder.finish())
        small_steps = sum(o["steps"] for _, o in small_outcomes)
        result.per_layer.update({
            "cluster.submit_busy_s": layers.busy("cluster.submit"),
            "cluster.loop_busy_s": layers.busy("cluster.run_until_idle"),
            "cluster.steps_placed": steps,
            "cluster.steps_per_s": steps / traced_watch.wall,
            "cluster.peak_running_steps":
                max(o["peak_running"] for _, o in traced),
            "cluster.speculations":
                sum(o["speculations"] for _, o in traced),
            "cluster.ms_per_step_k64": _loop_cost(layers, steps),
            "cluster.ms_per_step_k8":
                _loop_cost(small_layers, small_steps),
        })
        outcomes += traced

    # simulated results repeat exactly for a seed, whatever the pass
    quality = [o for policy, o in outcomes if policy == QUALITY_POLICY]
    makespan, slowdown = quality[0]["makespan"], quality[0]["p99_slowdown"]
    result.check(
        all(o["makespan"] == makespan and o["p99_slowdown"] == slowdown
            for o in quality),
        f"{QUALITY_POLICY}@{k} simulated results differ between passes")
    golden = cfg.golden(NAME)
    if golden is not None:
        result.check(
            close(makespan, golden["makespan_sim_s"])
            and close(slowdown, golden["p99_slowdown"]),
            f"{QUALITY_POLICY}@{k} makespan {makespan!r} / p99 slowdown "
            f"{slowdown!r} != golden {golden}")
    if cfg.trace:
        result.per_layer["cluster.makespan_sim_s"] = makespan
        result.per_layer["cluster.p99_slowdown"] = slowdown

    passes = _pass_seconds(watch)
    result.samples.update(passes=len(passes), k=k)
    result.named.update(pack_steps_per_s=steps_timed / watch.wall,
                        pack_p99_slowdown=slowdown,
                        pack_makespan_sim_s=makespan)
    if not cfg.trace:
        result.measured(
            # one operation is one submitted cluster run; a sample is a whole
            # pass, never one policy's burst: the policies cost differently
            op_seconds=[p / (k * len(POLICIES)) for p in passes],
            cpu_seconds=watch.cpu, operations=k * len(watch.laps),
            setup_seconds=setups.laps)
    return result
