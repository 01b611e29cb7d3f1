"""Asyncio execution service: queued, concurrent, durable workflow runs.

:class:`~repro.api.rest.IResServer` routes requests, but its ``execute``
action blocks the caller for the whole run and admits unbounded work.  This
module puts a production-shaped service in front of the platform:

- a **bounded submission queue** with admission control — a full queue or an
  exhausted tenant quota rejects the submission with a ``429``-style
  :class:`AdmissionError` carrying a ``retry_after`` hint (backpressure,
  not buffering);
- **N concurrent runs**: each worker is an asyncio task executing runs in a
  thread, against its own platform instance when a factory is supplied
  (isolated simulated clocks) or a shared one otherwise;
- **per-tenant quotas and fair dequeueing**: tenants round-robin, so one
  chatty tenant cannot starve the rest;
- **per-run deadlines and cancellation** via
  :class:`~repro.execution.resilience.RunControl` — both cut running retry
  loops short cooperatively;
- **durability**: with a ``journal_dir`` every run write-ahead journals its
  state (:mod:`repro.execution.journal`); :meth:`IResService.start` scans
  the directory and re-enqueues interrupted runs, resuming them with zero
  re-execution of journaled-finished steps;
- **graceful drain**: :meth:`IResService.shutdown` stops admitting, lets
  in-flight runs finish (they are journaled throughout), and cancels the
  stragglers after the drain timeout;
- **shared-cluster execution** (``cluster="fifo"|"fair"|"dagps"``): workers
  plan on their own platform but submit the materialized plan to one
  :class:`~repro.execution.cluster.ClusterScheduler` over a single shared
  cluster, so K concurrent runs genuinely contend for containers instead of
  each simulating against the cluster alone.  ``GET /cluster`` exposes the
  loop's queue/placement state.

All submission/status/cancel entry points are plain synchronous methods
guarded by a lock, so the in-process REST router (and any thread-based HTTP
transport on top of it) can drive the service directly.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.analysis.runtime_check import LockLike, make_lock
from repro.core.platform import IReS
from repro.execution.cluster import POLICIES, ClusterScheduler
from repro.execution.enforcer import ExecutionFailed
from repro.execution.journal import (
    RecoveredRun,
    journal_path,
    list_journals,
    recover,
)
from repro.execution.resilience import (
    RunCancelled,
    RunControl,
    RunDeadlineExceeded,
)
from repro.obs.accounting import TenantAccounts, usage_from_report
from repro.obs.context import bind_run_id, bind_tenant, new_run_id
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.profiling import SERVICE_HZ, Profile, SamplingProfiler
from repro.obs.slo import SLOTracker

_LOG = get_logger("service")

_SUBMISSIONS = REGISTRY.counter(
    "ires_service_submissions_total",
    "Run submissions by admission outcome",
    labels=("status",),
)
_RUNS = REGISTRY.counter(
    "ires_service_runs_total",
    "Service runs reaching a terminal state",
    labels=("status", "tenant"),
)
_QUEUE_DEPTH = REGISTRY.gauge(
    "ires_service_queue_depth",
    "Queued (admitted, not yet running) submissions",
)
_ACTIVE = REGISTRY.gauge(
    "ires_service_active_runs",
    "Runs currently executing",
)
_RUN_SECONDS = REGISTRY.histogram(
    "ires_service_run_seconds",
    "Wall seconds from submission to terminal state",
    labels=("status",),
)
_QUEUE_WAIT = REGISTRY.histogram(
    "ires_service_queue_wait_seconds",
    "Wall seconds from admission to execution start",
)
_TELEMETRY_SECONDS = REGISTRY.histogram(
    "ires_service_telemetry_seconds",
    "Wall seconds the service spent on accounting + SLO evaluation per run",
)

#: run lifecycle states
QUEUED = "queued"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"
CANCELLED = "cancelled"
DEADLINE = "deadline"
INTERRUPTED = "interrupted"

TERMINAL = (SUCCEEDED, FAILED, CANCELLED, DEADLINE, INTERRUPTED)


class AdmissionError(Exception):
    """The service refused a submission (backpressure or draining).

    ``status`` mirrors HTTP semantics: 429 for a full queue or exhausted
    tenant quota (retry after ``retry_after`` seconds), 503 while draining.
    """

    def __init__(self, message: str, status: int = 429,
                 retry_after: float = 5.0) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _resolve(waiter: "asyncio.Future[None]") -> None:
    """Complete one ``wait()`` future (a timed-out waiter is already done)."""
    if not waiter.done():
        waiter.set_result(None)


@dataclass
class RunRecord:
    """One submission's lifecycle, from admission to terminal state."""

    run_id: str
    workflow: str
    tenant: str
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: wall seconds spent queued before execution started
    queued_wait_seconds: float | None = None
    deadline_seconds: float | None = None
    control: RunControl | None = None
    #: recovered journal state when this is a resumed run
    resume: RecoveredRun | None = None
    error: str = ""
    summary: dict = field(default_factory=dict)
    done: threading.Event = field(default_factory=threading.Event, repr=False)
    #: one future per coroutine parked in ``IResService.wait()``; guarded by
    #: the service's lock and resolved once by ``_finish``
    waiters: "list[asyncio.Future[None]]" = field(
        default_factory=list, repr=False)

    @property
    def terminal(self) -> bool:
        """Whether the run has reached a terminal state."""
        return self.state in TERMINAL

    def to_dict(self) -> dict:
        """JSON-able status view for the REST/CLI surfaces."""
        payload = {
            "runId": self.run_id,
            "workflow": self.workflow,
            "tenant": self.tenant,
            "state": self.state,
            "submittedAt": round(self.submitted_at, 6),
            "startedAt": self.started_at,
            "finishedAt": self.finished_at,
            "queuedWaitSeconds": (
                None if self.queued_wait_seconds is None
                else round(self.queued_wait_seconds, 6)),
            "deadlineSeconds": self.deadline_seconds,
            "resumed": self.resume is not None,
        }
        if self.error:
            payload["error"] = self.error
        if self.summary:
            payload["report"] = self.summary
        return payload


class IResService:
    """Bounded, fair, durable asyncio execution service over IReS.

    ``platform`` is either one :class:`~repro.core.platform.IReS` instance
    (shared by every worker — note the shared simulated clock) or a
    zero-argument factory building one platform per worker (isolated
    clocks; what ``ires serve`` uses).
    """

    def __init__(
        self,
        platform: IReS | Callable[[], IReS],
        *,
        workers: int = 4,
        queue_limit: int = 16,
        tenant_quota: int | None = None,
        journal_dir: str | Path | None = None,
        default_deadline_seconds: float | None = None,
        history_limit: int = 1024,
        accounts: "TenantAccounts | bool" = True,
        slo: "SLOTracker | bool" = True,
        profiler: "SamplingProfiler | bool" = True,
        profile_history: int = 32,
        cluster: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if cluster is not None and cluster not in POLICIES:
            raise ValueError(
                f"cluster policy must be one of {POLICIES}, got {cluster!r}")
        self._factory: Callable[[], IReS] = (
            platform if callable(platform) else (lambda: platform)
        )
        self.workers = workers
        self.queue_limit = queue_limit
        self.tenant_quota = tenant_quota
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.default_deadline_seconds = default_deadline_seconds
        self.history_limit = history_limit
        self._lock: LockLike = make_lock("service")
        self._pending: dict[str, deque[RunRecord]] = {}  # guarded-by: _lock
        self._ring: deque[str] = deque()  # guarded-by: _lock
        self._runs: dict[str, RunRecord] = {}  # guarded-by: _lock
        self._accepting = True  # guarded-by: _lock
        self._stopping = False  # guarded-by: _lock
        # loop-affine state (_loop/_wake/_tasks) is touched only from the
        # event-loop thread and needs no lock
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._tasks: list[asyncio.Task] = []
        self._platforms: dict[int, IReS] = {}  # guarded-by: _lock
        #: EWMA of completed-run wall latency, feeding the retry-after hint
        self._latency_ewma: float | None = None  # guarded-by: _lock
        #: EWMA of measured queue wait (admission → start) — the primary
        #: signal behind the 429 retry-after estimate
        self._queue_wait_ewma: float | None = None  # guarded-by: _lock
        #: EWMA of execution duration (start → terminal), projecting the
        #: extra wait each queued run ahead of a new submission adds
        self._exec_seconds_ewma: float | None = None  # guarded-by: _lock
        #: per-tenant cost attribution (GET /tenants); pass accounts=False
        #: to disable, or a TenantAccounts instance to share one
        if accounts is True:
            self.accounts: TenantAccounts | None = TenantAccounts()
        elif accounts is False:
            self.accounts = None
        else:
            self.accounts = accounts
        #: SLO tracking with burn-rate alarms (GET /slo); slo=False disables
        if slo is True:
            self.slo: SLOTracker | None = SLOTracker()
        elif slo is False:
            self.slo = None
        else:
            self.slo = slo
        #: always-on low-rate sampling profiler (GET /profile); pass
        #: profiler=False to disable, or a configured SamplingProfiler
        if profiler is True:
            self.profiler: SamplingProfiler | None = SamplingProfiler(
                hz=SERVICE_HZ)
        elif profiler is False:
            self.profiler = None
        else:
            self.profiler = profiler
        #: shared-cluster policy name, or None for isolated per-run clusters.
        #: Cluster runs contend on one simulated cluster; note that per-run
        #: deadlines/cancellation do not preempt steps already admitted to
        #: the shared loop (its virtual event loop is not cooperative).
        self.cluster_policy = cluster
        #: the shared ClusterScheduler; built (with its platform) in start()
        self.cluster: ClusterScheduler | None = None
        self.profile_history = profile_history
        self._profiles: dict[str, Profile] = {}  # guarded-by: _lock
        #: eviction order for _profiles  # guarded-by: _lock
        self._profile_ring: deque[str] = deque()
        self.peak_active = 0  # guarded-by: _lock
        self._active = 0  # guarded-by: _lock

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> list[RunRecord]:
        """Spawn the workers; re-enqueue interrupted journaled runs.

        Returns the runs recovered from the journal directory (already
        queued for resumption).
        """
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        if self.profiler is not None:
            self.profiler.start()
        if self.cluster_policy is not None and self.cluster is None:
            # the shared loop lives on its own platform instance (slot -1,
            # so platforms()/trace surfaces include it); workers still plan
            # on their own platforms and only execution contends here
            platform = await asyncio.to_thread(self._platform_for, -1)
            self.cluster = ClusterScheduler(
                platform.cloud, policy=self.cluster_policy,
                tracer=platform.tracer)
        recovered = self.recover_interrupted()
        self._tasks = [
            asyncio.create_task(self._worker(i), name=f"ires-worker-{i}")
            for i in range(self.workers)
        ]
        return recovered

    async def shutdown(self, drain: bool = True,
                       timeout: float | None = None) -> None:
        """Stop the service: drain (or cancel) runs, then stop the workers.

        ``drain=True`` stops admitting and waits for queued + running work
        to finish — in-flight runs keep journaling, so even a timeout here
        leaves resumable journals.  After ``timeout`` seconds (None = wait
        forever) the remainder is cancelled: queued runs go straight to
        ``interrupted``, running runs get a cooperative cancel.
        """
        with self._lock:
            self._accepting = False
        if drain:
            await self._wait_idle(timeout)
        with self._lock:
            leftovers = [rec for ts in self._pending.values() for rec in ts]
            self._pending.clear()
            self._ring.clear()
            _QUEUE_DEPTH.set(0)
        for rec in leftovers:
            self._finish(rec, INTERRUPTED, error="service shutdown")
        with self._lock:
            running = [rec for rec in self._runs.values()
                       if rec.state == RUNNING]
        for rec in running:
            if rec.control is not None:
                rec.control.cancel("service shutdown")
        with self._lock:
            self._stopping = True
        self._wake_workers()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self.profiler is not None:
            self.profiler.stop()

    async def _wait_idle(self, timeout: float | None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                idle = not any(self._pending.values()) and self._active == 0
            if idle:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.02)

    # -- admission -----------------------------------------------------------
    def submit(
        self,
        workflow: str,
        tenant: str = "default",
        deadline_seconds: float | None = None,
        resume: RecoveredRun | None = None,
        run_id: str | None = None,
    ) -> RunRecord:
        """Admit one run (or reject it with :class:`AdmissionError`)."""
        if deadline_seconds is None:
            deadline_seconds = self.default_deadline_seconds
        with self._lock:
            if not self._accepting or self._stopping:
                _SUBMISSIONS.inc(status="rejected_draining")
                raise AdmissionError("service is draining", status=503,
                                     retry_after=self._retry_after_locked())
            depth = sum(len(q) for q in self._pending.values())
            if depth >= self.queue_limit:
                _SUBMISSIONS.inc(status="rejected_full")
                raise AdmissionError(
                    f"queue full ({depth}/{self.queue_limit})",
                    status=429, retry_after=self._retry_after_locked())
            if self.tenant_quota is not None:
                inflight = len(self._pending.get(tenant, ())) + sum(
                    1 for rec in self._runs.values()
                    if rec.tenant == tenant and rec.state == RUNNING)
                if inflight >= self.tenant_quota:
                    _SUBMISSIONS.inc(status="rejected_quota")
                    raise AdmissionError(
                        f"tenant {tenant!r} at quota "
                        f"({inflight}/{self.tenant_quota})",
                        status=429,
                        retry_after=self._retry_after_locked())
            rec = RunRecord(
                run_id=run_id or (resume.run_id if resume else new_run_id()),
                workflow=workflow, tenant=tenant,
                deadline_seconds=deadline_seconds, resume=resume)
            if tenant not in self._pending:
                self._pending[tenant] = deque()
                self._ring.append(tenant)
            self._pending[tenant].append(rec)
            self._runs[rec.run_id] = rec
            self._trim_history_locked()
            _QUEUE_DEPTH.set(depth + 1)
        _SUBMISSIONS.inc(status="accepted")
        _LOG.info("run_admitted", run_id=rec.run_id, workflow=workflow,
                  tenant=tenant, queue_depth=depth + 1)
        self._wake_workers()
        return rec

    def _retry_after_locked(self) -> float:
        depth = sum(len(q) for q in self._pending.values())
        if self._queue_wait_ewma is not None:
            # anchor on what recent submissions *actually* waited, then
            # project the backlog ahead of a new submission from the
            # execution-duration EWMA
            per_run = (self._exec_seconds_ewma
                       if self._exec_seconds_ewma is not None
                       else (self._latency_ewma or 5.0))
            estimate = self._queue_wait_ewma + per_run * depth / self.workers
        else:
            # cold start: no completed runs yet, fall back to the
            # latency-model guess
            latency = self._latency_ewma or 5.0
            estimate = latency * (depth + 1) / self.workers
        return round(min(max(estimate, 1.0), 60.0), 2)

    def _trim_history_locked(self) -> None:
        if len(self._runs) <= self.history_limit:
            return
        for run_id in [rid for rid, rec in self._runs.items()
                       if rec.terminal][:len(self._runs) - self.history_limit]:
            del self._runs[run_id]

    # -- queries / control ---------------------------------------------------
    def status(self, run_id: str) -> RunRecord | None:
        """One run's record, or None when unknown."""
        with self._lock:
            return self._runs.get(run_id)

    def runs(self) -> list[RunRecord]:
        """Every known run, oldest submission first."""
        with self._lock:
            return sorted(self._runs.values(), key=lambda r: r.submitted_at)

    def cancel(self, run_id: str) -> RunRecord:
        """Cancel a queued (immediate) or running (cooperative) run."""
        with self._lock:
            rec = self._runs.get(run_id)
            if rec is None:
                raise KeyError(f"unknown run {run_id!r}")
            queued = rec.state == QUEUED
            if queued:
                queue = self._pending.get(rec.tenant)
                if queue is not None and rec in queue:
                    queue.remove(rec)
                    _QUEUE_DEPTH.set(
                        sum(len(q) for q in self._pending.values()))
        if queued:
            self._finish(rec, CANCELLED, error="cancelled while queued")
            return rec
        if rec.state == RUNNING and rec.control is not None:
            rec.control.cancel("cancelled by request")
        return rec

    def recover_interrupted(self) -> list[RunRecord]:
        """Queue every interrupted journal under ``journal_dir`` for resume."""
        if self.journal_dir is None:
            return []
        recovered = []
        for path in list_journals(self.journal_dir):
            with self._lock:
                known = path.stem in self._runs
            if known:
                continue
            run = recover(path)
            if not run.interrupted:
                continue
            recovered.append(self.submit(run.workflow, tenant="recovery",
                                         resume=run, run_id=run.run_id))
            _LOG.info("run_requeued_from_journal", run_id=run.run_id,
                      workflow=run.workflow,
                      finished_steps=len(run.finished_steps))
        return recovered

    def recover(self, run_id: str) -> RunRecord:
        """Re-enqueue one journaled, non-succeeded run for resumption."""
        if self.journal_dir is None:
            raise ValueError("service has no journal_dir")
        run = recover(journal_path(self.journal_dir, run_id))
        if run.terminal == SUCCEEDED:
            raise ValueError(f"run {run_id!r} already succeeded")
        with self._lock:
            existing = self._runs.get(run_id)
            if existing is not None and not existing.terminal:
                raise ValueError(f"run {run_id!r} is {existing.state}")
        return self.submit(run.workflow, tenant="recovery", resume=run,
                           run_id=run_id)

    async def wait(self, run_id: str,
                   timeout: float | None = None) -> RunRecord:
        """Await a run's terminal state (the record is returned either way)."""
        rec = self.status(run_id)
        if rec is None:
            raise KeyError(f"unknown run {run_id!r}")
        # a future per waiter, not a parked thread: the default executor's
        # few threads are the ones that execute the runs being waited for
        waiter: asyncio.Future[None] = (
            asyncio.get_running_loop().create_future())
        with self._lock:
            # _finish sets ``done`` before it collects the waiters under
            # this lock, so a waiter registered here is never missed
            if rec.done.is_set():
                return rec
            rec.waiters.append(waiter)
        try:
            await asyncio.wait_for(waiter, timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            with self._lock:
                if waiter in rec.waiters:  # timed out or cancelled
                    rec.waiters.remove(waiter)
        return rec

    def stats(self) -> dict:
        """JSON-able service snapshot (the ``GET /service`` body)."""
        with self._lock:
            depth = sum(len(q) for q in self._pending.values())
            by_state: dict[str, int] = {}
            for rec in self._runs.values():
                by_state[rec.state] = by_state.get(rec.state, 0) + 1
            tenants = {
                tenant: len(queue)
                for tenant, queue in self._pending.items() if queue
            }
            return {
                "accepting": self._accepting and not self._stopping,
                "workers": self.workers,
                "queueLimit": self.queue_limit,
                "tenantQuota": self.tenant_quota,
                "queueDepth": depth,
                "active": self._active,
                "peakActive": self.peak_active,
                "runsByState": by_state,
                "queuedByTenant": tenants,
                "journalDir": str(self.journal_dir) if self.journal_dir else None,
                "clusterPolicy": self.cluster_policy,
                "retryAfterHint": self._retry_after_locked(),
                "queueWaitEwmaSeconds": (
                    None if self._queue_wait_ewma is None
                    else round(self._queue_wait_ewma, 6)),
                "sloActiveAlarms": (
                    self.slo.active_alarms() if self.slo is not None else []),
                "profiler": (
                    self.profiler.status()
                    if self.profiler is not None else None),
            }

    def platforms(self) -> "list[IReS]":
        """The worker platform instances built so far (tracers, journals)."""
        with self._lock:
            return list(self._platforms.values())

    # -- workers -------------------------------------------------------------
    def _wake_workers(self) -> None:
        loop, wake = self._loop, self._wake
        if loop is None or wake is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(wake.set)

    def _dequeue(self) -> RunRecord | None:
        """Round-robin over tenants: fairness under mixed submission rates."""
        with self._lock:
            for _ in range(len(self._ring)):
                tenant = self._ring[0]
                self._ring.rotate(-1)
                queue = self._pending.get(tenant)
                if queue:
                    rec = queue.popleft()
                    _QUEUE_DEPTH.set(
                        sum(len(q) for q in self._pending.values()))
                    return rec
            return None

    def _platform_for(self, worker: int) -> IReS:
        with self._lock:
            platform = self._platforms.get(worker)
        if platform is None:
            # build outside the lock (factories can be slow); each worker
            # only asks for its own index, so the slot cannot be contended
            platform = self._factory()
            if self.journal_dir is not None:
                platform.executor.journal_dir = self.journal_dir
            with self._lock:
                self._platforms[worker] = platform
        return platform

    async def _worker(self, index: int) -> None:
        assert self._wake is not None
        platform = await asyncio.to_thread(self._platform_for, index)
        while True:
            rec = self._dequeue()
            if rec is None:
                if self._stopping:
                    return
                self._wake.clear()
                if any(self._pending.values()) or self._stopping:
                    continue  # lost wakeup guard: something arrived mid-clear
                await self._wake.wait()
                continue
            await self._run_one(platform, rec)

    async def _run_one(self, platform: IReS, rec: RunRecord) -> None:
        workflow = platform.workflows.get(rec.workflow)
        if workflow is None:
            self._finish(rec, FAILED,
                         error=f"unknown workflow {rec.workflow!r}")
            return
        rec.control = RunControl(deadline_seconds=rec.deadline_seconds)
        rec.state = RUNNING
        rec.started_at = time.time()
        rec.queued_wait_seconds = max(rec.started_at - rec.submitted_at, 0.0)
        _QUEUE_WAIT.observe(rec.queued_wait_seconds)
        with self._lock:
            self._active += 1
            self.peak_active = max(self.peak_active, self._active)
            self._queue_wait_ewma = (
                rec.queued_wait_seconds if self._queue_wait_ewma is None
                else 0.7 * self._queue_wait_ewma
                + 0.3 * rec.queued_wait_seconds
            )
            active = self._active
        _ACTIVE.set(active)

        def _execute() -> object:
            # bind the service-assigned correlation ids in the worker
            # thread: enforcer spans, metrics, logs and journal records
            # then share the submission's run_id and tenant
            with bind_run_id(rec.run_id), bind_tenant(rec.tenant):
                if self.cluster is not None:
                    # plan locally, execute on the shared contended cluster
                    plan = platform.plan(workflow)
                    return self.cluster.execute(
                        plan, run_id=rec.run_id, tenant=rec.tenant)
                return platform.execute(
                    workflow, control=rec.control, run_id=rec.run_id,
                    resume_from=rec.resume)

        try:
            report = await asyncio.to_thread(_execute)
        except RunCancelled as exc:
            self._finish(rec, CANCELLED, error=str(exc))
        except RunDeadlineExceeded as exc:
            self._finish(rec, DEADLINE, error=str(exc))
        except ExecutionFailed as exc:
            self._finish(rec, FAILED, error=str(exc))
        except Exception as exc:  # noqa: BLE001 — any worker crash fails the run
            self._finish(rec, FAILED, error=f"{type(exc).__name__}: {exc}")
        else:
            if self.cluster is not None:
                rec.summary = {
                    "makespan": report.makespan,
                    "speedup": round(report.speedup, 4),
                    "steps": len(report.schedule),
                    "failures": len(report.failures),
                    "speculations": len(report.speculations),
                    "sharedCluster": True,
                    "clusterPolicy": self.cluster_policy,
                }
                if report.succeeded:
                    self._finish(rec, SUCCEEDED, report=report)
                else:
                    self._finish(
                        rec, FAILED, report=report,
                        error=report.failures[0].error)
            else:
                rec.summary = {
                    "simTime": report.sim_time,
                    "replans": report.replans,
                    "retries": report.retries,
                    "steps": len(report.executions),
                    "recoveredSteps": report.recovered_steps,
                    "cachedPlans": report.cached_plans,
                }
                self._finish(rec, SUCCEEDED, report=report)
        finally:
            with self._lock:
                self._active -= 1
                active = self._active
            _ACTIVE.set(active)

    def _finish(self, rec: RunRecord, state: str, error: str = "",
                report=None) -> None:
        rec.state = state
        rec.error = error
        rec.finished_at = time.time()
        latency = rec.finished_at - rec.submitted_at
        with self._lock:
            self._latency_ewma = (
                latency if self._latency_ewma is None
                else 0.7 * self._latency_ewma + 0.3 * latency
            )
            if rec.started_at is not None:
                exec_seconds = rec.finished_at - rec.started_at
                self._exec_seconds_ewma = (
                    exec_seconds if self._exec_seconds_ewma is None
                    else 0.7 * self._exec_seconds_ewma + 0.3 * exec_seconds
                )
        _RUNS.inc(status=state, tenant=rec.tenant)
        _RUN_SECONDS.observe(latency, status=state)
        self._capture_profile(rec)
        self._record_telemetry(rec, state, latency, report)
        _LOG.info("run_terminal", run_id=rec.run_id, state=state,
                  tenant=rec.tenant, latency_seconds=round(latency, 4),
                  error=error or None)
        rec.done.set()
        with self._lock:
            waiters, rec.waiters = rec.waiters, []
        for waiter in waiters:
            try:
                # _finish runs on worker, REST and loop threads alike
                waiter.get_loop().call_soon_threadsafe(_resolve, waiter)
            except RuntimeError:
                pass  # the waiter's loop has closed; nobody is listening

    def _capture_profile(self, rec: RunRecord) -> None:
        """Bank the run's samples from the always-on profiler ring."""
        if self.profiler is None:
            return
        # take_run snapshots under the profiler's own lock; only the
        # bounded-ring bookkeeping below needs the service lock
        profile = self.profiler.take_run(rec.run_id)
        with self._lock:
            if rec.run_id not in self._profiles:
                self._profile_ring.append(rec.run_id)
            self._profiles[rec.run_id] = profile
            while len(self._profile_ring) > self.profile_history:
                evicted = self._profile_ring.popleft()
                self._profiles.pop(evicted, None)

    def run_profile(self, run_id: str) -> Profile | None:
        """The banked per-run profile, or None when unknown/evicted."""
        with self._lock:
            return self._profiles.get(run_id)

    def profile_snapshot(self) -> Profile | None:
        """A live snapshot of the service-wide profiler ring."""
        if self.profiler is None:
            return None
        return self.profiler.snapshot()

    def _record_telemetry(self, rec: RunRecord, state: str, latency: float,
                          report) -> None:
        """Feed accounting and the SLO tracker; self-measure the cost."""
        if self.accounts is None and self.slo is None:
            return
        telemetry_start = time.perf_counter()
        if self.accounts is not None:
            journal_bytes = 0
            if self.journal_dir is not None:
                try:
                    journal_bytes = journal_path(
                        self.journal_dir, rec.run_id).stat().st_size
                except OSError:
                    journal_bytes = 0
            self.accounts.record(usage_from_report(
                run_id=rec.run_id, tenant=rec.tenant, workflow=rec.workflow,
                state=state, report=report,
                queued_wait_seconds=rec.queued_wait_seconds or 0.0,
                journal_bytes=journal_bytes))
        if self.slo is not None and state in (SUCCEEDED, FAILED, DEADLINE):
            # cancellations/interruptions are operator actions, not
            # service failures — they stay out of the error budget
            self.slo.record_run(
                succeeded=state == SUCCEEDED,
                latency_seconds=latency,
                queue_wait_seconds=rec.queued_wait_seconds or 0.0,
                at=rec.finished_at, tenant=rec.tenant)
            self.slo.evaluate(now=rec.finished_at)
        _TELEMETRY_SECONDS.observe(time.perf_counter() - telemetry_start)
