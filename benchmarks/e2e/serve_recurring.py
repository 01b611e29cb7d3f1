"""Workload ``serve_recurring``: recurring workflows through the live service.

An in-process ``IResService`` built the way ``ires serve`` builds it —
``IReS()`` defaults per worker, two workers, journal on with fsync, accounts,
SLO tracking and the sampling profiler on — serves the four §4 scenarios
(helloworld-chain, text-analytics 1e5 docs, graph-analytics 1e7 edges,
relational 2 GB) for three tenants.  Set-up submits 32 untimed warm-up runs,
so the plan cache is full and the models are past their first fits; the timed
window is an **open loop** of one arrival a second for ``--seconds`` seconds,
the first at 0 and the last at ``--seconds``: ``--seconds`` + 1 arrivals.
Recurring workflows hit the plan cache, so planning does almost nothing and
enforce, journal fsync, model refits and telemetry carry the request — the
service's default traffic, where on the seed code refits are ~99% of a run.

The window is a fixed *count* of arrivals on a *fresh* service, never a
duration on a used one: a run's refit cost grows with the platform's
history (~13 ms per run), so only equal history compares equal.  Latency
runs from an arrival's *due* time to the service's own ``finished_at``; a
late generator is reported, not hidden.  Completion is read from
``RunRecord.done`` by the one generator coroutine — ``IResService.wait()``
parks a default-executor thread per waiter and can starve the workers that
share that pool (README, "hazards").
"""

from __future__ import annotations

import asyncio
import functools
import statistics
import time

import numpy as np

import plan_cold
import stats
from common import (Config, Result, check_self_time_sums, finish_trace,
                    scratch, wrapped)
from crash_resume import enforce_and_journal_layers
from tracing import END, EXTRA, REQUEST, duration
from repro.api.service import SUCCEEDED, AdmissionError, IResService
from repro.core import IReS
from repro.core.estimators import OracleEstimator
from repro.core.modeler import Modeler
from repro.core.refinement import ModelRefiner
from repro.execution.enforcer import WorkflowExecutor
from repro.execution.journal import RunJournal, journal_path, read_journal
from repro.obs.metrics import REGISTRY
from repro.scenarios import (setup_graph_analytics, setup_helloworld,
                             setup_relational_analytics, setup_text_analytics)

NAME = "serve_recurring"
WORKERS = 2
QUEUE_LIMIT = 16  # ``ires serve``'s default
TENANTS = ("acme", "globex", "initech")
WARMUPS = 32
#: the latency limit: p80 within this many seconds at the offered rate ...
LATENCY_LIMIT_S = 2.0
#: ... with every run terminal this long after the last arrival
DRAIN_LIMIT_S = 5.0


def factory() -> IReS:
    """One worker's platform: defaults, the four scenarios registered."""
    ires = IReS()
    for workflow in (setup_helloworld(ires)(),
                     setup_text_analytics(ires)(1e5),
                     setup_graph_analytics(ires)(1e7),
                     setup_relational_analytics(ires)(2.0)):
        ires.workflows[workflow.name] = workflow
    return ires


@functools.lru_cache(maxsize=1)
def scenario_names() -> tuple[str, ...]:
    """The four registered workflow names, sorted."""
    return tuple(sorted(factory().workflows))


def schedule(seed: int, stream: int, n: int) -> list[tuple[str, str]]:
    """``n`` seeded ``(workflow, tenant)`` submissions.

    Every block of eight holds each scenario twice: once among its even and
    once among its odd positions, each in a seeded order.  Idle workers take
    arrivals in turn, so both workers' platforms accumulate the same history
    per scenario — a run's refit cost depends on that history, and a lopsided
    split would make two runs of the same commit disagree.  The tenant is
    drawn per submission.
    """
    rng = np.random.default_rng([seed, stream])
    names = scenario_names()
    out: list[tuple[str, str]] = []
    while len(out) < n:
        for pair in zip(rng.permutation(len(names)), rng.permutation(len(names))):
            for index in pair:
                out.append((names[index], TENANTS[rng.integers(len(TENANTS))]))
    return out[:n]


def _metric_total(name: str) -> tuple[float, float]:
    """``(sum over series, observation count)`` of one exported metric."""
    metric = REGISTRY.get(name)
    if metric is None:
        return 0.0, 0.0
    total = count = 0.0
    for state in metric.series().values():
        if isinstance(state, list):  # histogram: [buckets, sum, count]
            total += state[1]
            count += state[2]
        else:
            total += float(state)
    return total, count


class _Window:
    """What one open-loop window observed."""

    def __init__(self) -> None:
        self.records: list = []          # accepted RunRecords, arrival order
        self.due: list[float] = []       # their due times
        self.lateness: list[float] = []
        self.inflight: list[int] = []    # unfinished runs seen at each arrival
        self.rejected = 0
        self.unfinished = 0
        self.cpu_seconds = 0.0
        self.exported: dict[str, float] = {}

    @property
    def arrivals(self) -> int:
        return len(self.records) + self.rejected

    def latencies(self) -> list[float]:
        return [rec.finished_at - due
                for rec, due in zip(self.records, self.due)
                if rec.finished_at is not None]

    def backlog_growth(self) -> float:
        """Unfinished runs per arrival: last quarter minus first quarter."""
        quarter = max(1, len(self.inflight) // 4)
        return (statistics.fmean(self.inflight[-quarter:])
                - statistics.fmean(self.inflight[:quarter]))


async def _started(cfg: Config, journal_dir, warmups: int) -> IResService:
    """A running service with ``warmups`` runs behind it.

    Warm-ups go in lockstep rounds of one run per worker, all of the same
    scenario, so every worker's platform starts the window with the same
    history whichever worker dequeues first.
    """
    service = IResService(factory, workers=WORKERS, queue_limit=QUEUE_LIMIT,
                          journal_dir=journal_dir)
    await service.start()
    for workflow, tenant in schedule(cfg.seed, 0, warmups // WORKERS):
        round_ = [service.submit(workflow, tenant=tenant)
                  for _ in range(WORKERS)]
        while not all(rec.done.is_set() for rec in round_):
            await asyncio.sleep(0.002)
    return service


async def _open_loop(cfg: Config, service: IResService, arrivals: int) -> _Window:
    """``arrivals`` submissions at a constant rate, then the drain."""
    window = _Window()
    plan = schedule(cfg.seed, 1, arrivals)
    exported = {name: _metric_total(name) for name in (
        "ires_service_telemetry_seconds", "ires_profiler_samples_total",
        "ires_profiler_dropped_total")}
    cpu_start = time.process_time()
    start = time.time() + 0.05
    for i, (workflow, tenant) in enumerate(plan):
        due = start + i / cfg.rate
        delay = due - time.time()
        if delay > 0:
            await asyncio.sleep(delay)
        window.lateness.append(time.time() - due)
        window.inflight.append(
            sum(not rec.done.is_set() for rec in window.records))
        try:
            window.records.append(service.submit(workflow, tenant=tenant))
            window.due.append(due)
        except AdmissionError:
            window.rejected += 1
    # the generator reads completion itself; a run that is not terminal by
    # the drain limit fails instead of hanging the benchmark
    deadline = start + (arrivals - 1) / cfg.rate + DRAIN_LIMIT_S
    while (time.time() < deadline
           and not all(rec.done.is_set() for rec in window.records)):
        await asyncio.sleep(0.005)
    window.unfinished = sum(not rec.done.is_set() for rec in window.records)
    window.cpu_seconds = time.process_time() - cpu_start
    for name, (total, count) in exported.items():
        now_total, now_count = _metric_total(name)
        window.exported[name] = now_total - total
        window.exported[name + ":count"] = now_count - count
    return window


async def _stop(service: IResService, window: _Window | None = None) -> None:
    clean = window is None or window.unfinished == 0
    await service.shutdown(drain=clean, timeout=DRAIN_LIMIT_S)


def _check(result: Result, service: IResService, window: _Window,
           warmups: int, journal_dir) -> None:
    """Output checks of one window; counts its attempts and failures."""
    result.attempted += window.arrivals
    bad = window.rejected
    for rec in window.records:
        ok = rec.done.is_set() and rec.state == SUCCEEDED
        if ok:
            tail = read_journal(journal_path(journal_dir, rec.run_id))[-1]
            ok = tail.get("kind") == "run_finished"
        bad += not ok
    result.failed += bad
    result.check(bad == 0,
                 f"{bad} of {window.arrivals} arrivals were rejected, failed, "
                 f"unfinished {DRAIN_LIMIT_S:.0f} s after the last arrival "
                 f"({window.unfinished}), or left an unfinished journal")
    by_tenant = sum(t["runs"] for t in service.accounts.snapshot()["tenants"])
    finished = sum(rec.done.is_set() for rec in window.records)
    result.check(by_tenant == warmups + finished,
                 f"per-tenant runs sum to {by_tenant}, service finished "
                 f"{warmups + finished}")


def install(recorder) -> None:
    """Wrappers of every layer a served run crosses."""
    plan_cold.install(recorder)
    plan_cold.install_estimator(recorder, OracleEstimator)
    recorder.wrap(IResService, "submit", "service.submit",
                  request=lambda args, kwargs, rec:
                  rec.run_id if rec is not None else None)
    # the request; ``extra`` tells the two workers' platforms apart
    recorder.wrap(IReS, "execute", "platform.execute",
                  request=lambda args, kwargs, report: kwargs.get("run_id"),
                  extra=lambda args, kwargs, report: id(args[0]))
    recorder.wrap(WorkflowExecutor, "execute", "enforce.execute")
    recorder.wrap(RunJournal, "append", "journal.append")
    recorder.wrap(ModelRefiner, "observe", "refine.observe")
    recorder.wrap(Modeler, "train", "modeler.train",
                  extra=lambda args, kwargs, fitted:
                  fitted.n_samples if fitted is not None else 0)


def _refit_growth_ms_per_run(layers) -> float:
    """Slope of a run's ``Modeler.train`` time over its platform's run index."""
    train_by_request: dict[str, float] = {}
    for span in layers.named("modeler.train"):
        train_by_request[span[REQUEST]] = (
            train_by_request.get(span[REQUEST], 0.0) + duration(span))
    runs_on: dict[int, int] = {}  # platform (the span's extra) -> runs so far
    xs, ys = [], []
    for span in layers.named("platform.execute"):  # ordered by start
        index = runs_on.get(span[EXTRA], 0)
        runs_on[span[EXTRA]] = index + 1
        xs.append(float(index))
        ys.append(train_by_request.get(span[REQUEST], 0.0) * 1e3)
    return stats.slope(xs, ys)


def _service_layers(result: Result, layers, recorder, service: IResService,
                    window: _Window, journal_dir) -> None:
    """Per-layer metrics of a traced window."""
    executes = layers.named("platform.execute")
    execute_end = {span[REQUEST]: recorder.epoch + span[END]
                   for span in executes}
    request_busy = sum(duration(span) for span in executes)
    refine_busy = layers.busy("refine.observe")
    trains = layers.named("modeler.train")
    submits = [duration(s) for s in layers.named("service.submit")]
    exported = window.exported
    result.per_layer.update({
        "refine.observe_calls": layers.calls("refine.observe"),
        "refine.busy_s": refine_busy,
        "refine.share_of_run": refine_busy / request_busy,
        "refine.growth_ms_per_run": _refit_growth_ms_per_run(layers),
        "modeler.train_calls": len(trains),
        "modeler.samples_per_train_p50":
            statistics.median(s[EXTRA] for s in trains) if trains else 0,
        "service.submit_ms": statistics.median(submits) * 1e3,
        "service.queue_wait_p50_ms": statistics.median(
            rec.queued_wait_seconds or 0.0 for rec in window.records) * 1e3,
        "service.finish_ms": statistics.median(
            rec.finished_at - execute_end[rec.run_id]
            for rec in window.records
            if rec.finished_at and rec.run_id in execute_end) * 1e3,
        "service.rejected": window.rejected,
        "service.peak_active": service.peak_active,
        "service.generator_late_max_ms": max(window.lateness) * 1e3,
        "obs.telemetry_s_per_run":
            exported["ires_service_telemetry_seconds"]
            / max(exported["ires_service_telemetry_seconds:count"], 1.0),
        "obs.profiler_samples": exported["ires_profiler_samples_total"],
        "obs.profiler_dropped": exported["ires_profiler_dropped_total"],
    })
    hits = lookups = 0
    for ires in service.platforms():
        cache = ires.plan_cache.stats()
        hits += cache["hits"]
        lookups += cache["hits"] + cache["misses"]
    result.per_layer["plancache.hit_ratio"] = hits / lookups
    enforce_and_journal_layers(
        result, layers,
        steps=sum(rec.summary.get("steps", 0) for rec in window.records),
        replans=sum(rec.summary.get("replans", 0) for rec in window.records),
        retries=sum(rec.summary.get("retries", 0) for rec in window.records),
        journal_bytes=sum(journal_path(journal_dir, rec.run_id).stat().st_size
                          for rec in window.records))


async def _run(cfg: Config, result: Result, root) -> None:
    warmups = 8 if cfg.smoke else WARMUPS
    # a window of ``--seconds`` seconds at the contract's rate has an arrival
    # at each end; it is a count, whatever the rate: ``--sweep`` changes the
    # spacing only
    arrivals = cfg.seconds + 1
    reference_n, traced_n = cfg.split(arrivals)

    setup_seconds = []
    service = None
    for i in range(cfg.setup_repeats):
        if service is not None:
            await _stop(service)
        begin = time.perf_counter()
        journal_dir = root / f"journals-{i}"
        service = await _started(cfg, journal_dir, warmups)
        setup_seconds.append(time.perf_counter() - begin)
    window = await _open_loop(cfg, service, reference_n)
    await _stop(service, window)
    _check(result, service, window, warmups, journal_dir)

    if cfg.trace:
        journal_dir = root / "journals-traced"
        service = await _started(cfg, journal_dir, warmups)
        with wrapped(install) as recorder:
            traced = await _open_loop(cfg, service, traced_n)
        await _stop(service, traced)
        _check(result, service, traced, warmups, journal_dir)
        layers = finish_trace(
            cfg, result, recorder,
            window.cpu_seconds / window.arrivals,
            traced.cpu_seconds / traced.arrivals)
        check_self_time_sums(result, layers, {
            rec.run_id: rec.finished_at - rec.started_at
            for rec in traced.records if rec.finished_at and rec.started_at})
        plan_cold.planning_layers(result, layers, recorder.counts())
        _service_layers(result, layers, recorder, service, traced, journal_dir)

    latencies = window.latencies()
    if not latencies:
        result.errors.append("no arrival finished")
        return
    p80 = stats.percentile(latencies, 80)
    result.check(p80 <= LATENCY_LIMIT_S,
                 f"latency limit missed: p80 {p80:.3f} s > "
                 f"{LATENCY_LIMIT_S} s at {cfg.rate:g}/s")
    result.samples.update(
        arrivals=window.arrivals, rate=cfg.rate, warmups=warmups,
        late_max_ms=max(window.lateness) * 1e3,
        backlog_growth=window.backlog_growth(),
        limit_met=int(result.failed == 0 and p80 <= LATENCY_LIMIT_S
                      and window.backlog_growth() <= 1.0))
    result.named.update(
        serve_latency_p50_s=statistics.median(latencies),
        serve_latency_p80_s=p80,
        serve_cpu_s_per_run=window.cpu_seconds / window.arrivals)
    if not cfg.trace:
        result.measured(
            op_seconds=latencies, cpu_seconds=window.cpu_seconds,
            operations=len(latencies), setup_seconds=setup_seconds)


def run(cfg: Config) -> Result:
    """One ``serve_recurring`` run: timed, or reference + traced."""
    result = Result(NAME)
    with scratch(cfg) as root:
        asyncio.run(_run(cfg, result, root))
    return result
