"""Workload ``crash_resume``: recover a run cut at every step boundary.

One journaled ``WorkflowExecutor.execute`` of Montage-100 on three synthetic
engines (78 steps) is the reference.  A sweep then cuts its journal after
the k-th ``step_finished`` record for **every** k, appends the torn
half-record a ``kill -9`` leaves behind, and calls ``IReS.recover_run`` on a
fresh platform.  The layers ``serve_recurring`` uses are used differently
here: the journal is *read* (CRC check, replay) as well as appended and
fsynced, the planner is *seeded* with materialized results (the IResReplan
mechanism of Fig 18-22) instead of cold or cached, and the enforcer's step
loop runs with no model refits (resume bypasses ``ModelRefiner``) — so
enforcer, journal and telemetry cost per step is visible here while it is
under 1% of a served run.
"""

from __future__ import annotations

import gc
import statistics

import plan_cold
from common import (Config, Result, Stopwatch, check_self_time_sums,
                    finish_trace, scratch, wrapped)
from tracing import duration
from repro.core import IReS
from repro.core.estimators import OracleEstimator
from repro.engines.base import PerfModel
from repro.execution import journal as journal_module
from repro.execution.enforcer import WorkflowExecutor
from repro.execution.journal import RunJournal, journal_path
# bound before any wrapper goes in: the harness's own reads stay untraced
from repro.execution.journal import recover as read_journal_state
from repro.workflows.pegasus import generate, synthetic_library

NAME = "crash_resume"
#: sweeps of 77 resumes per run (the issue's 5, cut to fit the time cap)
SWEEPS = 3
TORN_TAIL = '{"seq": 999, "kind": "ste'


def platform(cfg: Config, journal_dir):
    """A fresh journaling platform with the seed's workflow registered."""
    ires = IReS(journal_dir=journal_dir)
    workflow = generate("Montage", 30 if cfg.smoke else 100, seed=cfg.seed)
    algorithms = sorted({op.algorithm for op in workflow.operators.values()})
    for j in range(3):  # three engines able to run every stage
        ires.cloud.add_engine(
            f"engine{j}",
            profiles={alg: PerfModel(fixed=0.4 + 0.3 * j, per_unit=1e-9)
                      for alg in algorithms})
    for op in synthetic_library(workflow, 3, seed=cfg.seed + 1):
        ires.register_operator(op)
    ires.workflows[workflow.name] = workflow
    return ires, workflow


def step_keys(report) -> set[tuple[str, str]]:
    """``(abstract, operator)`` of every step a report executed."""
    return {(e.step.abstract_name, e.step.operator.name)
            for e in report.executions}


class _Reference:
    """The uninterrupted run and its journal cut at every step boundary."""

    def __init__(self, cfg: Config, root) -> None:
        ires, workflow = platform(cfg, root)
        report = ires.executor.execute(workflow)
        self.run_id = report.run_id
        self.steps = step_keys(report)
        self.total = len(report.executions)
        self.succeeded = report.succeeded
        lines = journal_path(root, self.run_id).read_text().splitlines()
        #: cut k holds the journal up to its k-th step_finished, torn tail on
        self.cuts: list[str] = []
        kept: list[str] = []
        for line in lines:
            kept.append(line)
            if '"kind":"step_finished"' in line:
                self.cuts.append("\n".join(kept) + "\n" + TORN_TAIL)
        self.cuts.pop()  # after the last step nothing is left to resume


class _Sweeps:
    """Resumes of every cut, timed around ``recover_run`` only."""

    def __init__(self, cfg: Config, result: Result, reference: _Reference,
                 root) -> None:
        self.cfg, self.result, self.reference = cfg, result, reference
        self.root = root
        self.watch = Stopwatch()
        self.sweep_seconds: list[float] = []
        self.request_wall: dict[str, float] = {}
        self.steps_executed = 0
        self.replans = self.retries = 0
        self.journal_bytes = 0
        self.cache_hits = self.cache_lookups = 0
        self._case = 0

    def run(self, sweeps: int) -> None:
        for _ in range(sweeps):
            before = self.watch.wall
            for k, cut in enumerate(self.reference.cuts, start=1):
                self._resume(k, cut)
            self.sweep_seconds.append(self.watch.wall - before)

    def _resume(self, k: int, cut: str) -> None:
        ref = self.reference
        self._case += 1
        case_dir = self.root / f"case-{self._case}"
        case_dir.mkdir(parents=True)
        path = journal_path(case_dir, ref.run_id)
        path.write_text(cut)
        done_before = read_journal_state(path).finished_step_keys()
        fresh, _ = platform(self.cfg, case_dir)
        self.result.attempted += 1
        gc.collect()
        try:
            with self.watch.lap():
                report = fresh.recover_run(ref.run_id)
        except Exception as exc:  # noqa: BLE001 — a failed resume is a result
            self.result.failed += 1
            self.result.errors.append(f"cut {k}: {type(exc).__name__}: {exc}")
            return
        executed = step_keys(report)
        ok = (report.succeeded
              and not (executed & done_before)
              and report.recovered_steps == k
              and report.recovered_steps + len(report.executions) == ref.total
              and executed | done_before == ref.steps)
        if not ok:
            self.result.failed += 1
            self.result.errors.append(
                f"cut {k}: resumed run re-executed "
                f"{len(executed & done_before)} steps, recovered "
                f"{report.recovered_steps}, executed {len(report.executions)} "
                f"of {ref.total}")
        # every cut resumes the same run id, so requests are told apart by
        # the case directory the journal lives in
        self.request_wall[str(case_dir)] = self.watch.laps[-1]
        self.steps_executed += len(report.executions)
        self.replans += report.replans
        self.retries += report.retries
        self.journal_bytes += path.stat().st_size
        cache = fresh.plan_cache.stats()
        self.cache_hits += cache["hits"]
        self.cache_lookups += cache["hits"] + cache["misses"]


def install(recorder) -> None:
    """Wrappers of every layer a resume crosses."""
    plan_cold.install(recorder)
    plan_cold.install_estimator(recorder, OracleEstimator)
    # the request: its id is the journal directory of the platform resuming
    recorder.wrap(IReS, "recover_run", "platform.recover_run",
                  request=lambda args, kwargs, result:
                  str(args[0].executor.journal_dir))
    recorder.wrap(journal_module, "recover", "journal.recover")
    recorder.wrap(RunJournal, "append", "journal.append")
    recorder.wrap(WorkflowExecutor, "execute", "enforce.execute")


def enforce_and_journal_layers(result: Result, layers, *, steps: int,
                               replans: int, retries: int,
                               journal_bytes: int) -> None:
    """Per-layer metrics of enforcer and journal from a traced pass."""
    appends = [duration(s) for s in layers.named("journal.append")]
    enforce_self = layers.self_time("enforce.execute")
    result.per_layer.update({
        "enforce.runs": layers.calls("enforce.execute"),
        "enforce.self_s": enforce_self,
        "enforce.step_ms": enforce_self / steps * 1e3 if steps else 0.0,
        "enforce.replans": replans,
        "enforce.retries": retries,
        "journal.appends": len(appends),
        "journal.append_busy_s": sum(appends),
        "journal.append_p50_ms":
            statistics.median(appends) * 1e3 if appends else 0.0,
        "journal.bytes": journal_bytes,
        "journal.recover_calls": layers.calls("journal.recover"),
        "journal.recover_busy_s": layers.busy("journal.recover"),
    })


def run(cfg: Config) -> Result:
    """One ``crash_resume`` run: timed, or reference + traced."""
    result = Result(NAME)
    with scratch(cfg) as root:
        setups = Stopwatch()
        for i in range(cfg.setup_repeats):
            with setups.lap():
                reference = _Reference(cfg, root / f"ref-{i}")
        result.check(reference.succeeded, "the uninterrupted run failed")

        reference_n, traced_n = cfg.split(cfg.repetitions(SWEEPS))
        plain = _Sweeps(cfg, result, reference, root / "plain")
        plain.run(reference_n)

        if cfg.trace:
            traced = _Sweeps(cfg, result, reference, root / "traced")
            with wrapped(install) as recorder:
                traced.run(traced_n)
            layers = finish_trace(
                cfg, result, recorder,
                statistics.median(plain.watch.laps),
                statistics.median(traced.watch.laps))
            check_self_time_sums(result, layers, traced.request_wall)
            plan_cold.planning_layers(result, layers, recorder.counts())
            enforce_and_journal_layers(
                result, layers, steps=traced.steps_executed,
                replans=traced.replans, retries=traced.retries,
                journal_bytes=traced.journal_bytes)
            result.per_layer["plancache.hit_ratio"] = (
                traced.cache_hits / traced.cache_lookups)

    watch = plain.watch
    result.samples.update(cuts=len(reference.cuts), sweeps=len(plain.sweep_seconds),
                          steps=reference.total)
    result.named.update(resume_sweep_s=statistics.median(plain.sweep_seconds))
    if not cfg.trace:
        result.measured(
            op_seconds=watch.laps, cpu_seconds=watch.cpu,
            operations=len(watch.laps), setup_seconds=setups.laps)
    return result
