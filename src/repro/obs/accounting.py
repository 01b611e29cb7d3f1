"""Per-tenant cost accounting for service-submitted runs (DESIGN §12).

The execution service admits runs on behalf of tenants; this module turns
each finished run into a :class:`RunUsage` sample and aggregates them into
per-tenant totals — queued-wait seconds, simulated engine-core-seconds per
engine, retries, replans and journal bytes — the per-task, per-resource
attribution a chargeback report (or a placement recommender) trains on.

Everything is duck-typed against the enforcer's ``ExecutionReport`` so the
obs layer keeps sitting below ``execution`` in the import graph.  The
service calls :func:`usage_from_report` with the report (when the run
produced one) and feeds the result to a process-shared
:class:`TenantAccounts`, whose :meth:`~TenantAccounts.snapshot` is the
``GET /tenants`` body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.analysis.runtime_check import (
    LockLike,
    make_lock,
    note_access,
    register_shared,
)
from repro.obs.metrics import REGISTRY

_CORE_SECONDS = REGISTRY.counter(
    "ires_tenant_engine_core_seconds_total",
    "Simulated engine-core-seconds charged per tenant and engine",
    labels=("tenant", "engine"),
)
_QUEUED_WAIT = REGISTRY.counter(
    "ires_tenant_queued_wait_seconds_total",
    "Wall seconds tenant submissions spent queued before execution",
    labels=("tenant",),
)
_JOURNAL_BYTES = REGISTRY.counter(
    "ires_tenant_journal_bytes_total",
    "Write-ahead journal bytes attributed per tenant",
    labels=("tenant",),
)


@dataclass
class RunUsage:
    """One run's attributable cost, derived from its execution report."""

    run_id: str
    tenant: str
    workflow: str
    state: str
    queued_wait_seconds: float = 0.0
    sim_seconds: float = 0.0
    #: engine name -> simulated seconds * cores of that engine's steps
    engine_core_seconds: dict[str, float] = field(default_factory=dict)
    #: engine name -> simulated seconds of that engine's steps
    engine_sim_seconds: dict[str, float] = field(default_factory=dict)
    steps: int = 0
    retries: int = 0
    replans: int = 0
    journal_bytes: int = 0

    @property
    def total_core_seconds(self) -> float:
        """Engine-core-seconds summed over every engine."""
        return sum(self.engine_core_seconds.values())

    def to_dict(self) -> dict[str, Any]:
        """JSON-able view of the usage sample."""
        return {
            "runId": self.run_id,
            "tenant": self.tenant,
            "workflow": self.workflow,
            "state": self.state,
            "queuedWaitSeconds": round(self.queued_wait_seconds, 6),
            "simSeconds": round(self.sim_seconds, 6),
            "engineCoreSeconds": {
                k: round(v, 6)
                for k, v in sorted(self.engine_core_seconds.items())
            },
            "engineSimSeconds": {
                k: round(v, 6)
                for k, v in sorted(self.engine_sim_seconds.items())
            },
            "steps": self.steps,
            "retries": self.retries,
            "replans": self.replans,
            "journalBytes": self.journal_bytes,
        }


def usage_from_report(
    run_id: str,
    tenant: str,
    workflow: str,
    state: str,
    report: Any = None,
    queued_wait_seconds: float = 0.0,
    journal_bytes: int = 0,
) -> RunUsage:
    """Build a :class:`RunUsage` from a run's report.

    ``report`` is duck-typed — the enforcer's ``ExecutionReport`` or the
    shared cluster's ``ParallelReport``: ``sim_time``, and of each of
    ``executions`` its ``engine``/``sim_seconds``/``cores``; ``retries`` and
    ``replans`` where the report counts them.  Pass None for runs that died
    before producing one — the queue wait and journal bytes are still
    attributable.
    """
    usage = RunUsage(
        run_id=run_id, tenant=tenant, workflow=workflow, state=state,
        queued_wait_seconds=max(queued_wait_seconds, 0.0),
        journal_bytes=journal_bytes,
    )
    if report is None:
        return usage
    usage.sim_seconds = float(getattr(report, "sim_time", 0.0) or 0.0)
    usage.retries = int(getattr(report, "retries", 0) or 0)
    usage.replans = int(getattr(report, "replans", 0) or 0)
    executions: Iterable[Any] = getattr(report, "executions", ()) or ()
    for execution in executions:
        engine = str(getattr(execution, "engine", "") or "")
        seconds = float(getattr(execution, "sim_seconds", 0.0) or 0.0)
        cores = int(getattr(execution, "cores", 0) or 0)
        usage.steps += 1
        usage.engine_sim_seconds[engine] = (
            usage.engine_sim_seconds.get(engine, 0.0) + seconds)
        if cores > 0:
            usage.engine_core_seconds[engine] = (
                usage.engine_core_seconds.get(engine, 0.0) + seconds * cores)
    return usage


@dataclass
class TenantUsage:
    """Aggregated totals of one tenant, newest run last."""

    tenant: str
    runs: int = 0
    runs_by_state: dict[str, int] = field(default_factory=dict)
    queued_wait_seconds: float = 0.0
    sim_seconds: float = 0.0
    engine_core_seconds: dict[str, float] = field(default_factory=dict)
    steps: int = 0
    retries: int = 0
    replans: int = 0
    journal_bytes: int = 0

    def add(self, usage: RunUsage) -> None:
        """Fold one run's usage into the totals."""
        self.runs += 1
        self.runs_by_state[usage.state] = (
            self.runs_by_state.get(usage.state, 0) + 1)
        self.queued_wait_seconds += usage.queued_wait_seconds
        self.sim_seconds += usage.sim_seconds
        for engine, core_seconds in usage.engine_core_seconds.items():
            self.engine_core_seconds[engine] = (
                self.engine_core_seconds.get(engine, 0.0) + core_seconds)
        self.steps += usage.steps
        self.retries += usage.retries
        self.replans += usage.replans
        self.journal_bytes += usage.journal_bytes

    def to_dict(self) -> dict[str, Any]:
        """JSON-able per-tenant aggregate (one ``GET /tenants`` row)."""
        return {
            "tenant": self.tenant,
            "runs": self.runs,
            "runsByState": dict(sorted(self.runs_by_state.items())),
            "queuedWaitSeconds": round(self.queued_wait_seconds, 6),
            "simSeconds": round(self.sim_seconds, 6),
            "engineCoreSeconds": {
                k: round(v, 6)
                for k, v in sorted(self.engine_core_seconds.items())
            },
            "totalCoreSeconds": round(
                sum(self.engine_core_seconds.values()), 6),
            "steps": self.steps,
            "retries": self.retries,
            "replans": self.replans,
            "journalBytes": self.journal_bytes,
        }


class TenantAccounts:  # thread-shared
    """Thread-safe per-tenant aggregation of :class:`RunUsage` samples.

    ``history_limit`` bounds the retained per-run samples (newest kept);
    the per-tenant aggregates are never trimmed.
    """

    def __init__(self, history_limit: int = 256) -> None:
        self.history_limit = history_limit
        self._lock: LockLike = make_lock("accounts")
        self._tenants: dict[str, TenantUsage] = {}  # guarded-by: _lock
        self._recent: list[RunUsage] = []  # guarded-by: _lock
        register_shared(self, "obs:accounts", self._lock)

    def record(self, usage: RunUsage) -> None:
        """Fold one run into the tenant's totals and the metrics registry."""
        with self._lock:
            note_access(self, "record")
            agg = self._tenants.get(usage.tenant)
            if agg is None:
                agg = self._tenants[usage.tenant] = TenantUsage(usage.tenant)
            agg.add(usage)
            self._recent.append(usage)
            if len(self._recent) > self.history_limit:
                del self._recent[:len(self._recent) - self.history_limit]
        for engine, core_seconds in usage.engine_core_seconds.items():
            _CORE_SECONDS.inc(core_seconds, tenant=usage.tenant, engine=engine)
        if usage.queued_wait_seconds > 0:
            _QUEUED_WAIT.inc(usage.queued_wait_seconds, tenant=usage.tenant)
        if usage.journal_bytes > 0:
            _JOURNAL_BYTES.inc(usage.journal_bytes, tenant=usage.tenant)

    def tenant(self, name: str) -> TenantUsage | None:
        """One tenant's aggregate, or None when never seen."""
        with self._lock:
            return self._tenants.get(name)

    def recent(self, n: int = 50, tenant: str | None = None) -> list[RunUsage]:
        """The newest ``n`` run samples (optionally one tenant's), oldest first."""
        with self._lock:
            samples = [u for u in self._recent
                       if tenant is None or u.tenant == tenant]
        return samples[-n:]

    def snapshot(self) -> dict[str, Any]:
        """JSON-able accounting snapshot (the ``GET /tenants`` body)."""
        with self._lock:
            tenants = [agg.to_dict()
                       for _, agg in sorted(self._tenants.items())]
            recent = [u.to_dict() for u in self._recent[-50:]]
        return {"tenants": tenants, "recentRuns": recent}
