"""The IReS External API — the §3.5 RESTful surface, in process.

The deliverable exposes IReS to the other ASAP components through a REST
API (list/materialize/execute workflows, manage operators and datasets,
inspect engines and models).  This module reproduces that surface as an
in-process router: :meth:`IResServer.handle` takes ``(method, path, body)``
and returns a :class:`Response` with a JSON-serializable payload, so any
transport (an actual HTTP server, tests, the CLI) can sit on top.

Routes:

====== ================================================= =====================
GET    /abstractWorkflows                                 list workflows
GET    /abstractWorkflows/{name}                          one workflow
POST   /abstractWorkflows/{name}                          define from graph
POST   /abstractWorkflows/{name}/materialize              plan it
POST   /abstractWorkflows/{name}/execute                  plan + run it
GET    /operators                                         materialized ops
POST   /operators/{name}                                  add one (properties)
GET    /operators/{name}                                  one description
DELETE /operators/{name}                                  remove it
GET    /abstractOperators                                 abstract ops
POST   /abstractOperators/{name}                          add one
GET    /datasets                                          datasets
POST   /datasets/{name}                                   add one
GET    /engines                                           engine catalogue
GET    /engines/health                                    cluster health report
POST   /engines/{name}/stop                               kill a service
POST   /engines/{name}/start                              restart a service
GET    /models/{algorithm}/{engine}                       trained model info
GET    /resilience                                        retry/breaker status
POST   /resilience/breakers/{engine}/reset                close one breaker
POST   /lint                                              static analysis
GET    /metrics                                           Prometheus text
GET    /plancache                                         plan-cache counters
DELETE /plancache                                         invalidate the cache
GET    /traces                                            collected run ids
GET    /traces/{run_id}                                   one run's Chrome trace
GET    /accuracy                                          prediction-error stats
GET    /explain                                           runs with provenance
GET    /explain/{run_id}                                  one run's explain report
POST   /runs                                              submit a run (async)
GET    /runs                                              list submitted runs
GET    /runs/{run_id}                                     one run's status
POST   /runs/{run_id}/cancel                              cancel queued/running
POST   /runs/{run_id}/recover                             resume from journal
GET    /runs/{run_id}/timeline                            merged run timeline
GET    /runs/{run_id}/profile                             one run's profile
GET    /profile                                           live service profile
GET    /profile/flamegraph                                profile as HTML
GET    /service                                           service stats
GET    /cluster                                           shared-cluster state
GET    /tenants                                           per-tenant accounting
GET    /slo                                               SLO burn-rate status
GET    /dashboard                                         live HTML dashboard
====== ================================================= =====================

The ``/runs`` and ``/service`` resources need an attached
:class:`~repro.api.service.IResService` (what ``ires serve`` wires up);
without one they answer 503.  ``POST /runs`` is asynchronous — it returns
202 with the run id immediately, or 429/503 with a ``retryAfter`` hint when
the service sheds load.

``/metrics`` responds with Prometheus text exposition (``Response.text``);
``/traces/{run_id}`` responds with a Chrome trace-event JSON object that
Perfetto loads directly.  ``POST /lint`` (body: optional ``workflow``,
``strict``) runs the :mod:`repro.analysis` static analyzer over the live
platform and returns the typed ``IRES0xx`` diagnostics report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.core.dataset import Dataset
from repro.core.operators import AbstractOperator, MaterializedOperator
from repro.core.planner import PlanningError
from repro.core.platform import IReS
from repro.core.workflow import WorkflowError
from repro.execution.enforcer import ExecutionFailed
from repro.obs.metrics import get_registry


class ApiError(Exception):
    """An error with an HTTP-style status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Response:
    """An HTTP-style status code plus a JSON-able body.

    Non-JSON endpoints (``/metrics``) set ``text`` instead of ``body`` and
    flag it with ``content_type``.
    """
    status: int
    body: dict = field(default_factory=dict)
    text: str | None = None
    content_type: str = "application/json"

    def json(self) -> str:
        """The body serialized as a JSON string."""
        return json.dumps(self.body, sort_keys=True)

    def payload(self) -> str:
        """What a transport should write: ``text`` if set, else the JSON."""
        return self.text if self.text is not None else self.json()


class IResServer:
    """Routes API requests to an :class:`IReS` platform instance."""

    def __init__(self, ires: IReS | None = None, service=None) -> None:
        self.ires = ires if ires is not None else IReS()
        #: optional IResService backing the async /runs resource
        self.service = service

    # -- entry point ---------------------------------------------------------
    def handle(self, method: str, path: str, body: dict | None = None) -> Response:
        """Dispatch one request; never raises, errors become responses."""
        body = body or {}
        parts = [p for p in path.split("/") if p]
        try:
            return self._route(method.upper(), parts, body)
        except ApiError as exc:
            return Response(exc.status, {"error": str(exc)})
        except (PlanningError, ExecutionFailed) as exc:
            return Response(409, {"error": str(exc)})
        except (WorkflowError, ValueError, KeyError) as exc:
            return Response(400, {"error": str(exc)})

    # -- routing -----------------------------------------------------------
    def _route(self, method: str, parts: list[str], body: dict) -> Response:
        if not parts:
            return Response(200, {"service": "IReS", "status": "up"})
        head, rest = parts[0], parts[1:]
        handler = getattr(self, f"_{head}", None)
        if handler is None:
            raise ApiError(404, f"unknown resource {head!r}")
        return handler(method, rest, body)

    @staticmethod
    def _expect(condition: bool, status: int, message: str) -> None:
        if not condition:
            raise ApiError(status, message)

    # -- /abstractWorkflows ---------------------------------------------------
    def _abstractWorkflows(self, method, rest, body) -> Response:
        ires = self.ires
        if not rest:
            self._expect(method == "GET", 405, "use GET")
            return Response(200, {"workflows": sorted(ires.workflows)})
        name = rest[0]
        if len(rest) == 1:
            if method == "GET":
                workflow = ires.workflows.get(name)
                self._expect(workflow is not None, 404, f"no workflow {name!r}")
                return Response(200, {
                    "name": name,
                    "target": workflow.target,
                    "operators": sorted(workflow.operators),
                    "datasets": sorted(workflow.datasets),
                })
            if method == "POST":
                graph = body.get("graph")
                self._expect(isinstance(graph, list), 400,
                             "body needs 'graph': [lines]")
                ires.workflow_from_graph(name, graph)
                return Response(201, {"created": name})
            raise ApiError(405, "use GET or POST")
        action = rest[1]
        workflow = ires.workflows.get(name)
        self._expect(workflow is not None, 404, f"no workflow {name!r}")
        self._expect(method == "POST", 405, "use POST")
        if action == "materialize":
            plan = ires.plan(workflow)
            return Response(200, {"name": name, "plan": _plan_json(plan)})
        if action == "execute":
            report = ires.execute(workflow)
            return Response(200, {"name": name, "report": _report_json(report)})
        raise ApiError(404, f"unknown action {action!r}")

    # -- /operators ------------------------------------------------------------
    def _operators(self, method, rest, body) -> Response:
        ires = self.ires
        if not rest:
            self._expect(method == "GET", 405, "use GET")
            return Response(200, {
                "operators": sorted(op.name for op in ires.library)})
        name = rest[0]
        if method == "GET":
            self._expect(name in ires.library, 404, f"no operator {name!r}")
            return Response(200, {
                "name": name,
                "properties": ires.library.get(name).metadata.to_properties(),
            })
        if method == "POST":
            properties = body.get("properties")
            self._expect(isinstance(properties, dict), 400,
                         "body needs 'properties': {...}")
            ires.register_operator(MaterializedOperator(name, properties))
            return Response(201, {"created": name})
        if method == "DELETE":
            self._expect(name in ires.library, 404, f"no operator {name!r}")
            ires.library.remove(name)
            return Response(200, {"deleted": name})
        raise ApiError(405, "use GET, POST or DELETE")

    # -- /abstractOperators -------------------------------------------------------
    def _abstractOperators(self, method, rest, body) -> Response:
        ires = self.ires
        if not rest:
            self._expect(method == "GET", 405, "use GET")
            return Response(200, {
                "abstractOperators": sorted(ires.abstract_operators)})
        name = rest[0]
        if method == "GET":
            op = ires.abstract_operators.get(name)
            self._expect(op is not None, 404, f"no abstract operator {name!r}")
            return Response(200, {
                "name": name, "properties": op.metadata.to_properties()})
        if method == "POST":
            properties = body.get("properties")
            self._expect(isinstance(properties, dict), 400,
                         "body needs 'properties': {...}")
            ires.register_abstract(AbstractOperator(name, properties))
            return Response(201, {"created": name})
        raise ApiError(405, "use GET or POST")

    # -- /datasets ---------------------------------------------------------------
    def _datasets(self, method, rest, body) -> Response:
        ires = self.ires
        if not rest:
            self._expect(method == "GET", 405, "use GET")
            return Response(200, {"datasets": sorted(ires.datasets)})
        name = rest[0]
        if method == "GET":
            dataset = ires.datasets.get(name)
            self._expect(dataset is not None, 404, f"no dataset {name!r}")
            return Response(200, {
                "name": name, "properties": dataset.metadata.to_properties()})
        if method == "POST":
            properties = body.get("properties")
            self._expect(isinstance(properties, dict), 400,
                         "body needs 'properties': {...}")
            ires.register_dataset(Dataset(name, properties, materialized=True))
            return Response(201, {"created": name})
        raise ApiError(405, "use GET or POST")

    # -- /engines ---------------------------------------------------------------
    def _engines(self, method, rest, body) -> Response:
        cloud = self.ires.cloud
        if not rest:
            self._expect(method == "GET", 405, "use GET")
            return Response(200, {"engines": {
                name: {"kind": engine.kind, "status": engine.status}
                for name, engine in sorted(cloud.engines.items())
            }})
        if rest[0] == "health":
            self._expect(method == "GET", 405, "use GET")
            return Response(200, {
                "nodes": cloud.cluster.run_health_checks(),
                "availableEngines": sorted(cloud.available_engines()),
            })
        name = rest[0]
        self._expect(name in cloud.engines, 404, f"no engine {name!r}")
        if len(rest) == 2 and method == "POST":
            if rest[1] == "stop":
                cloud.kill_engine(name)
                return Response(200, {"engine": name, "status": "OFF"})
            if rest[1] == "start":
                cloud.restart_engine(name)
                return Response(200, {"engine": name, "status": "ON"})
        raise ApiError(404, "unknown engine action")

    # -- /resilience ---------------------------------------------------------
    def _resilience(self, method, rest, body) -> Response:
        resilience = self.ires.executor.resilience
        self._expect(resilience is not None, 404, "resilience layer disabled")
        if not rest:
            self._expect(method == "GET", 405, "use GET")
            return Response(200, resilience.status())
        self._expect(rest[0] == "breakers" and len(rest) == 3, 404,
                     "use /resilience/breakers/{engine}/reset")
        engine, action = rest[1], rest[2]
        self._expect(engine in self.ires.cloud.engines, 404,
                     f"no engine {engine!r}")
        self._expect(action == "reset", 404, f"unknown action {action!r}")
        self._expect(method == "POST", 405, "use POST")
        breaker = resilience.reset_breaker(engine, self.ires.cloud.clock.now)
        return Response(200, {"engine": engine, "breaker": breaker.status()})

    # -- /lint ---------------------------------------------------------------
    def _lint(self, method, rest, body) -> Response:
        self._expect(method == "POST", 405, "use POST")
        self._expect(not rest, 404, "use /lint")
        workflow = body.get("workflow")
        if workflow is not None:
            self._expect(workflow in self.ires.workflows, 404,
                         f"no workflow {workflow!r}")
        strict = bool(body.get("strict", False))
        collector = self.ires.lint(workflow=workflow)
        return Response(200, collector.to_json(strict=strict))

    # -- /analyze ------------------------------------------------------------
    def _analyze(self, method, rest, body) -> Response:
        """Concurrency-correctness passes (IRES050–063) over Python source.

        ``POST /analyze`` with ``{"paths": [...], "strict": bool}``; paths
        default to the installed ``repro`` package, so a bare POST audits
        the scheduler's own code.
        """
        from pathlib import Path

        import repro
        from repro.analysis.concurrency import analyze_paths

        self._expect(method == "POST", 405, "use POST")
        self._expect(not rest, 404, "use /analyze")
        raw_paths = body.get("paths")
        if raw_paths is None:
            paths = [Path(repro.__file__).parent]
        else:
            self._expect(
                isinstance(raw_paths, list)
                and all(isinstance(p, str) for p in raw_paths),
                400, "body 'paths' must be a list of strings")
            missing = [p for p in raw_paths if not Path(p).exists()]
            self._expect(not missing, 404,
                         f"no such path(s): {', '.join(missing)}")
            paths = [Path(p) for p in raw_paths]
        strict = bool(body.get("strict", False))
        collector = analyze_paths(paths)
        return Response(200, collector.to_json(strict=strict))

    # -- /metrics ------------------------------------------------------------
    def _metrics(self, method, rest, body) -> Response:
        self._expect(method == "GET", 405, "use GET")
        self._expect(not rest, 404, "use /metrics")
        return Response(200, text=get_registry().render(),
                        content_type="text/plain; version=0.0.4")

    # -- /plancache ----------------------------------------------------------
    def _plancache(self, method, rest, body) -> Response:
        self._expect(not rest, 404, "use /plancache")
        cache = self.ires.plan_cache
        self._expect(cache is not None, 404,
                     "plan cache disabled (construct IReS with plan_cache)")
        if method == "GET":
            return Response(200, cache.stats())
        if method == "DELETE":
            dropped = cache.invalidate(reason="api", force=True)
            return Response(200, {"invalidated": dropped, **cache.stats()})
        raise ApiError(405, "use GET or DELETE")

    # -- /traces -------------------------------------------------------------
    def _traces(self, method, rest, body) -> Response:
        self._expect(method == "GET", 405, "use GET")
        tracer = self.ires.tracer
        if not rest:
            runs = [
                {"runId": run_id, "spans": len(tracer.spans(run_id))}
                for run_id in tracer.run_ids()
            ]
            return Response(200, {"runs": runs})
        self._expect(len(rest) == 1, 404, "use /traces/{run_id}")
        run_id = rest[0]
        spans = tracer.spans(run_id)
        self._expect(bool(spans), 404, f"no trace for run {run_id!r}")
        return Response(200, tracer.chrome_trace(run_id))

    # -- /accuracy -----------------------------------------------------------
    def _accuracy(self, method, rest, body) -> Response:
        self._expect(method == "GET", 405, "use GET")
        self._expect(not rest, 404, "use /accuracy")
        ledger = self.ires.ledger
        self._expect(ledger is not None and ledger.enabled, 404,
                     "accuracy ledger disabled (construct IReS with a ledger)")
        payload = ledger.report()
        drift = self.ires.drift
        if drift is not None:
            payload["alarms"] = [a.to_dict() for a in drift.alarms]
        return Response(200, payload)

    # -- /explain ------------------------------------------------------------
    def _explain(self, method, rest, body) -> Response:
        self._expect(method == "GET", 405, "use GET")
        executor = self.ires.executor
        if not rest:
            return Response(200, {"runs": list(executor.explains)})
        self._expect(len(rest) == 1, 404, "use /explain/{run_id}")
        report = executor.explain_report(rest[0])
        self._expect(report is not None, 404,
                     f"no provenance for run {rest[0]!r} (plan with "
                     "record_provenance=True)")
        return Response(200, report)

    # -- /runs ---------------------------------------------------------------
    def _require_service(self):
        self._expect(self.service is not None, 503,
                     "no execution service attached (start with `ires serve`)")
        return self.service

    def _runs(self, method, rest, body) -> Response:
        from repro.api.service import AdmissionError

        service = self._require_service()
        if not rest:
            if method == "GET":
                return Response(200, {
                    "runs": [rec.to_dict() for rec in service.runs()]})
            if method == "POST":
                workflow = body.get("workflow")
                self._expect(isinstance(workflow, str) and bool(workflow),
                             400, "body needs 'workflow': name")
                try:
                    rec = service.submit(
                        workflow,
                        tenant=str(body.get("tenant", "default")),
                        deadline_seconds=body.get("deadlineSeconds"),
                    )
                except AdmissionError as exc:
                    return Response(exc.status, {
                        "error": str(exc), "retryAfter": exc.retry_after})
                return Response(202, rec.to_dict())
            raise ApiError(405, "use GET or POST")
        run_id = rest[0]
        if len(rest) == 1:
            self._expect(method == "GET", 405, "use GET")
            rec = service.status(run_id)
            self._expect(rec is not None, 404, f"no run {run_id!r}")
            return Response(200, rec.to_dict())
        action = rest[1] if len(rest) == 2 else ""
        if action == "timeline":
            self._expect(method == "GET", 405, "use GET")
            return self._run_timeline(service, run_id)
        if action == "profile":
            self._expect(method == "GET", 405, "use GET")
            profile = service.run_profile(run_id)
            self._expect(profile is not None, 404,
                         f"no profile for run {run_id!r} (profiler off, "
                         "run unknown, or profile evicted)")
            return Response(200, profile.speedscope(name=f"run {run_id}"))
        self._expect(len(rest) == 2 and method == "POST", 405,
                     "use POST /runs/{run_id}/cancel|recover or "
                     "GET /runs/{run_id}/timeline|profile")
        if action == "cancel":
            try:
                return Response(200, service.cancel(run_id).to_dict())
            except KeyError:
                raise ApiError(404, f"no run {run_id!r}") from None
        if action == "recover":
            from repro.execution.journal import JournalError

            try:
                rec = service.recover(run_id)
            except FileNotFoundError:
                raise ApiError(404, f"no journal for run {run_id!r}") from None
            except JournalError as exc:
                raise ApiError(409, str(exc)) from None
            except AdmissionError as exc:
                return Response(exc.status, {
                    "error": str(exc), "retryAfter": exc.retry_after})
            return Response(202, rec.to_dict())
        raise ApiError(404, f"unknown run action {action!r}")

    # -- /profile ------------------------------------------------------------
    def _profile(self, method, rest, body) -> Response:
        """Live speedscope snapshot of the service's always-on profiler."""
        from repro.obs.profiling import flamegraph_html

        service = self._require_service()
        self._expect(method == "GET", 405, "use GET")
        self._expect(not rest or rest == ["flamegraph"], 404,
                     "use /profile or /profile/flamegraph")
        profile = service.profile_snapshot()
        self._expect(profile is not None, 404,
                     "profiler disabled (construct the service with "
                     "profiler=True)")
        doc = profile.speedscope(name="ires service")
        if rest:
            return Response(200, text=flamegraph_html(doc),
                            content_type="text/html; charset=utf-8")
        return Response(200, doc)

    # -- /service ------------------------------------------------------------
    def _service(self, method, rest, body) -> Response:
        service = self._require_service()
        self._expect(method == "GET", 405, "use GET")
        self._expect(not rest, 404, "use /service")
        return Response(200, service.stats())

    # -- /cluster ------------------------------------------------------------
    def _cluster(self, method, rest, body) -> Response:
        service = self._require_service()
        self._expect(method == "GET", 405, "use GET")
        self._expect(not rest, 404, "use /cluster")
        self._expect(service.cluster is not None, 404,
                     "shared-cluster scheduling disabled "
                     "(start with `ires serve --cluster`)")
        return Response(200, service.cluster.snapshot())

    # -- /tenants ------------------------------------------------------------
    def _tenants(self, method, rest, body) -> Response:
        service = self._require_service()
        self._expect(method == "GET", 405, "use GET")
        self._expect(not rest, 404, "use /tenants")
        self._expect(service.accounts is not None, 404,
                     "tenant accounting disabled (accounts=False)")
        return Response(200, service.accounts.snapshot())

    # -- /slo ----------------------------------------------------------------
    def _slo(self, method, rest, body) -> Response:
        service = self._require_service()
        self._expect(method == "GET", 405, "use GET")
        self._expect(not rest, 404, "use /slo")
        self._expect(service.slo is not None, 404,
                     "SLO tracking disabled (slo=False)")
        return Response(200, service.slo.status())

    # -- /dashboard ----------------------------------------------------------
    def _dashboard(self, method, rest, body) -> Response:
        from repro.obs.dashboard import render_dashboard

        service = self._require_service()
        self._expect(method == "GET", 405, "use GET")
        self._expect(not rest, 404, "use /dashboard")
        profile = service.profile_snapshot()
        html = render_dashboard(
            service=service.stats(),
            slo=service.slo.status() if service.slo is not None else {},
            tenants=(service.accounts.snapshot()
                     if service.accounts is not None else {}),
            runs={"runs": [rec.to_dict() for rec in service.runs()]},
            profile=(profile.speedscope(name="ires service")
                     if profile is not None else None),
        )
        return Response(200, text=html,
                        content_type="text/html; charset=utf-8")

    def _run_timeline(self, service, run_id: str) -> Response:
        """Merge one run's journal, spans, logs and record (GET .../timeline)."""
        from repro.execution.journal import JournalError, read_journal
        from repro.obs.logging import recent as recent_logs
        from repro.obs.timeline import build_timeline, timeline_to_dict

        rec = service.status(run_id)
        journal_records: list[dict] = []
        if service.journal_dir is not None:
            from repro.execution.journal import journal_path

            path = journal_path(service.journal_dir, run_id)
            if path.exists():
                try:
                    journal_records = read_journal(path)
                except JournalError:
                    journal_records = []
        spans: list = []
        for platform in [self.ires, *service.platforms()]:
            spans.extend(platform.tracer.spans(run_id))
        span_self = None
        profile = service.run_profile(run_id)
        if profile is not None:
            span_self = {
                span: seconds for span, seconds in
                profile.run_breakdown()
                .get(run_id, {}).get("selfSecondsBySpan", {}).items()
            }
        events = build_timeline(
            run_id,
            journal_records=journal_records,
            spans=spans,
            logs=recent_logs(n=2000, run_id=run_id),
            record=rec,
            span_self=span_self,
        )
        self._expect(bool(events), 404, f"no telemetry for run {run_id!r}")
        return Response(200, timeline_to_dict(run_id, events))

    # -- /models -------------------------------------------------------------
    def _models(self, method, rest, body) -> Response:
        self._expect(method == "GET", 405, "use GET")
        self._expect(len(rest) == 2, 400, "use /models/{algorithm}/{engine}")
        algorithm, engine = rest
        model = self.ires.modeler.get(algorithm, engine)
        self._expect(model is not None, 404,
                     f"no trained model for {algorithm}@{engine}")
        return Response(200, {
            "algorithm": algorithm,
            "engine": engine,
            "model": model.model_name,
            "samples": model.n_samples,
            "features": model.feature_names,
            # a model that could not be scored carries inf; JSON has none
            "cvScores": {k: round(v, 4) if math.isfinite(v) else None
                         for k, v in model.cv_scores.items()},
        })


def _plan_json(plan) -> dict:
    return {
        "cost": plan.cost,
        "steps": [
            {
                "operator": step.operator.name,
                "engine": step.engine,
                "abstract": step.abstract_name,
                "inputs": [d.name for d in step.inputs],
                "outputs": [d.name for d in step.outputs],
                "estimatedCost": step.estimated_cost,
                "isMove": step.is_move,
            }
            for step in plan.steps
        ],
    }


def _report_json(report) -> dict:
    return {
        "succeeded": report.succeeded,
        "runId": report.run_id,
        "simTime": report.sim_time,
        "replans": report.replans,
        "retries": report.retries,
        "cachedPlans": report.cached_plans,
        "planningSeconds": report.planning_seconds,
        "enginesUsed": report.engines_used(),
        "failures": report.failures,
    }
