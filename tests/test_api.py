"""Tests for the External API surface (repro.api.rest, §3.5)."""

import json

import pytest

from repro.api import IResServer
from repro.core import IReS
from repro.scenarios import setup_text_analytics


@pytest.fixture
def server():
    ires = IReS()
    setup_text_analytics(ires)
    srv = IResServer(ires)
    created = srv.handle("POST", "/datasets/webContent", {"properties": {
        "Constraints.Engine.FS": "*",
        "Constraints.type": "text",
        "Optimization.count": 25_000,
        "Optimization.size": 25_000_000,
    }})
    assert created.status == 201
    response = srv.handle("POST", "/abstractWorkflows/text", {
        "graph": ["webContent,tf_idf,0", "tf_idf,v,0",
                  "v,kmeans,0", "kmeans,c,0", "c,$$target"],
    })
    assert response.status == 201
    return srv


class TestRoot:
    def test_root_reports_up(self):
        response = IResServer().handle("GET", "/")
        assert response.status == 200
        assert response.body["service"] == "IReS"

    def test_unknown_resource_404(self):
        assert IResServer().handle("GET", "/nonsense").status == 404

    def test_response_json_serializable(self, server):
        response = server.handle("GET", "/engines")
        assert json.loads(response.json())


class TestWorkflows:
    def test_list_and_get(self, server):
        listing = server.handle("GET", "/abstractWorkflows")
        assert listing.body["workflows"] == ["text"]
        detail = server.handle("GET", "/abstractWorkflows/text")
        assert detail.status == 200
        assert detail.body["target"] == "c"
        assert "tf_idf" in detail.body["operators"]

    def test_get_missing_404(self, server):
        assert server.handle("GET", "/abstractWorkflows/none").status == 404

    def test_materialize_returns_plan(self, server):
        response = server.handle("POST", "/abstractWorkflows/text/materialize")
        assert response.status == 200
        plan = response.body["plan"]
        assert plan["cost"] > 0
        engines = {s["engine"] for s in plan["steps"] if not s["isMove"]}
        assert engines == {"scikit", "Spark"}  # the 25k-doc hybrid

    def test_execute_returns_report(self, server):
        response = server.handle("POST", "/abstractWorkflows/text/execute")
        assert response.status == 200
        report = response.body["report"]
        assert report["succeeded"] is True
        assert report["simTime"] > 0

    def test_post_requires_graph(self, server):
        response = server.handle("POST", "/abstractWorkflows/bad", {})
        assert response.status == 400

    def test_unknown_action_404(self, server):
        assert server.handle("POST", "/abstractWorkflows/text/fly").status == 404


class TestOperatorsAndDatasets:
    def test_operator_crud(self, server):
        created = server.handle("POST", "/operators/myop", {"properties": {
            "Constraints.OpSpecification.Algorithm.name": "myalg",
            "Constraints.Engine": "Spark",
        }})
        assert created.status == 201
        got = server.handle("GET", "/operators/myop")
        assert got.body["properties"]["Constraints.Engine"] == "Spark"
        listing = server.handle("GET", "/operators")
        assert "myop" in listing.body["operators"]
        deleted = server.handle("DELETE", "/operators/myop")
        assert deleted.status == 200
        assert server.handle("GET", "/operators/myop").status == 404

    def test_duplicate_operator_400(self, server):
        body = {"properties": {"Constraints.Engine": "Spark"}}
        assert server.handle("POST", "/operators/dup", body).status == 201
        assert server.handle("POST", "/operators/dup", body).status == 400

    def test_abstract_operator_listing(self, server):
        listing = server.handle("GET", "/abstractOperators")
        assert "tf_idf" in listing.body["abstractOperators"]

    def test_dataset_get(self, server):
        got = server.handle("GET", "/datasets/webContent")
        assert got.status == 200
        assert got.body["properties"]["Constraints.type"] == "text"
        assert server.handle("GET", "/datasets/none").status == 404


class TestEngines:
    def test_listing_and_health(self, server):
        listing = server.handle("GET", "/engines")
        assert listing.body["engines"]["Spark"]["status"] == "ON"
        health = server.handle("GET", "/engines/health")
        assert set(health.body["nodes"].values()) == {"HEALTHY"}
        assert "Spark" in health.body["availableEngines"]

    def test_stop_start_cycle(self, server):
        stop = server.handle("POST", "/engines/Spark/stop")
        assert stop.body["status"] == "OFF"
        health = server.handle("GET", "/engines/health")
        assert "Spark" not in health.body["availableEngines"]
        # planning now avoids Spark (conflict only if nothing remains)
        plan = server.handle("POST", "/abstractWorkflows/text/materialize")
        engines = {s["engine"] for s in plan.body["plan"]["steps"]
                   if not s["isMove"]}
        assert "Spark" not in engines
        start = server.handle("POST", "/engines/Spark/start")
        assert start.body["status"] == "ON"

    def test_unknown_engine_404(self, server):
        assert server.handle("POST", "/engines/Nope/stop").status == 404


class TestModels:
    def test_missing_model_404(self, server):
        assert server.handle("GET", "/models/TF_IDF/Spark").status == 404

    def test_model_info_after_execution(self, server):
        server.handle("POST", "/abstractWorkflows/text/execute")
        server.handle("POST", "/abstractWorkflows/text/execute")
        response = server.handle("GET", "/models/TF_IDF/scikit")
        assert response.status == 200
        assert response.body["samples"] >= 2

    def test_model_info_of_a_recurring_workflow_is_strict_json(self, server):
        """Six runs on the same inputs: every sample of a pair is one point,
        which RBFNetwork used to score NaN — a token JSON does not have."""
        import json

        def reject(token):
            raise AssertionError(f"non-finite {token} in /models body")

        for _ in range(6):
            server.handle("POST", "/abstractWorkflows/text/execute")
        response = server.handle("GET", "/models/TF_IDF/scikit")
        assert response.status == 200
        body = json.loads(response.payload(), parse_constant=reject)
        assert body["samples"] == 6
        assert set(body["cvScores"]) == set(server.ires.modeler.zoo)
        assert all(isinstance(score, float) for score in body["cvScores"].values())

    def test_an_unscorable_model_is_null_in_the_body(self, server):
        import json

        for _ in range(2):
            server.handle("POST", "/abstractWorkflows/text/execute")
        server.ires.modeler.get("TF_IDF", "scikit").cv_scores["Broken"] = float("inf")
        response = server.handle("GET", "/models/TF_IDF/scikit")
        body = json.loads(response.payload(), parse_constant=lambda t: 1 / 0)
        assert body["cvScores"]["Broken"] is None


class TestErrorPaths:
    def test_materialize_with_no_engines_conflicts(self, server):
        for engine in list(server.ires.cloud.engines):
            server.ires.cloud.kill_engine(engine)
        try:
            response = server.handle(
                "POST", "/abstractWorkflows/text/materialize")
            assert response.status == 409
            assert "error" in response.body
        finally:
            for engine in list(server.ires.cloud.engines):
                server.ires.cloud.restart_engine(engine)

    def test_wrong_method_405(self, server):
        assert server.handle("DELETE", "/abstractWorkflows").status == 405
        assert server.handle("PUT", "/datasets/webContent").status == 405

    def test_models_requires_two_segments(self, server):
        assert server.handle("GET", "/models/onlyone").status == 400

    def test_bad_graph_line_400(self, server):
        response = server.handle("POST", "/abstractWorkflows/broken", {
            "graph": ["not-an-edge"]})
        assert response.status == 400


class TestResilience:
    def test_status_route(self, server):
        response = server.handle("GET", "/resilience")
        assert response.status == 200
        assert response.body["retryPolicy"]["maxAttempts"] >= 1
        assert "counters" in response.body
        assert json.loads(response.json())

    def test_status_reflects_chaos_execution(self, server):
        server.ires.fault_injector.make_flaky("Spark", 1.0)
        server.handle("POST", "/abstractWorkflows/text/execute")
        response = server.handle("GET", "/resilience")
        breakers = response.body["breakers"]
        assert breakers.get("Spark", {}).get("state") == "open"
        assert response.body["counters"]["retries"] >= 1

    def test_breaker_reset_route(self, server):
        server.ires.fault_injector.make_flaky("Spark", 1.0)
        server.handle("POST", "/abstractWorkflows/text/execute")
        response = server.handle("POST", "/resilience/breakers/Spark/reset")
        assert response.status == 200
        assert response.body["breaker"]["state"] == "closed"

    def test_reset_unknown_engine_404(self, server):
        assert server.handle(
            "POST", "/resilience/breakers/NoSuch/reset").status == 404

    def test_report_includes_retries(self, server):
        response = server.handle("POST", "/abstractWorkflows/text/execute")
        assert response.status == 200
        assert response.body["report"]["retries"] == 0


class TestObservabilityEndpoints:
    def test_metrics_prometheus_text(self, server):
        name = "obs_metrics_wf"
        server.handle("POST", f"/abstractWorkflows/{name}", {
            "graph": ["webContent,tf_idf,0", "tf_idf,v,0",
                      "v,kmeans,0", "kmeans,c,0", "c,$$target"],
        })
        executed = server.handle("POST", f"/abstractWorkflows/{name}/execute")
        assert executed.status == 200
        response = server.handle("GET", "/metrics")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        assert response.text is not None
        assert "# TYPE ires_executor_steps_total counter" in response.text
        assert "ires_planner_plans_total" in response.text
        assert "ires_library_lookups_total" in response.text
        assert response.payload() == response.text

    def test_traces_listing_and_chrome_export(self, server):
        name = "obs_traces_wf"
        server.handle("POST", f"/abstractWorkflows/{name}", {
            "graph": ["webContent,tf_idf,0", "tf_idf,v,0",
                      "v,kmeans,0", "kmeans,c,0", "c,$$target"],
        })
        executed = server.handle("POST", f"/abstractWorkflows/{name}/execute")
        run_id = executed.body["report"]["runId"]
        listing = server.handle("GET", "/traces")
        assert listing.status == 200
        assert run_id in [r["runId"] for r in listing.body["runs"]]
        trace = server.handle("GET", f"/traces/{run_id}")
        assert trace.status == 200
        events = trace.body["traceEvents"]
        complete = [e for e in events if e.get("ph") == "X"]
        assert complete
        assert all(e["args"]["run_id"] == run_id for e in complete)
        assert json.loads(trace.json())  # body survives serialization

    def test_unknown_trace_404(self, server):
        response = server.handle("GET", "/traces/deadbeef0000")
        assert response.status == 404

    def test_metrics_rejects_post(self, server):
        assert server.handle("POST", "/metrics").status == 405


class TestLint:
    def test_lint_clean_platform(self, server):
        response = server.handle("POST", "/lint")
        assert response.status == 200
        assert response.body["ok"] is True
        assert response.body["counts"]["error"] == 0
        assert json.loads(response.json())

    def test_lint_reports_unimplemented_operator(self, server):
        # register a workflow whose operator nothing implements
        created = server.handle("POST", "/abstractOperators/ghost", {
            "properties": {
                "Constraints.OpSpecification.Algorithm.name": "Ghost",
                "Constraints.Input.number": 1,
                "Constraints.Output.number": 1,
            }})
        assert created.status == 201
        response = server.handle("POST", "/lint")
        assert response.status == 200
        assert response.body["ok"] is False
        assert "IRES010" in response.body["codes"]

    def test_lint_strict_flag(self, server):
        response = server.handle("POST", "/lint", {"strict": True})
        assert response.status == 200
        assert response.body["strict"] is True

    def test_lint_scoped_to_workflow(self, server):
        response = server.handle("POST", "/lint", {"workflow": "text"})
        assert response.status == 200
        assert response.body["ok"] is True

    def test_lint_unknown_workflow_404(self, server):
        assert server.handle(
            "POST", "/lint", {"workflow": "nope"}).status == 404

    def test_lint_requires_post(self, server):
        assert server.handle("GET", "/lint").status == 405


class TestAccuracyEndpoint:
    @pytest.fixture
    def obs_server(self):
        from repro.obs.accuracy import AccuracyLedger
        from repro.obs.drift import DriftDetector

        ires = IReS(ledger=AccuracyLedger(),
                    drift=DriftDetector(threshold=1e-9, min_samples=1,
                                        cooldown=0, refit=False),
                    record_provenance=True)
        setup_text_analytics(ires)
        srv = IResServer(ires)
        assert srv.handle("POST", "/datasets/webContent", {"properties": {
            "Constraints.Engine.FS": "*",
            "Constraints.type": "text",
            "Optimization.count": 25_000,
            "Optimization.size": 25_000_000,
        }}).status == 201
        assert srv.handle("POST", "/abstractWorkflows/text", {
            "graph": ["webContent,tf_idf,0", "tf_idf,v,0",
                      "v,kmeans,0", "kmeans,c,0", "c,$$target"],
        }).status == 201
        return srv

    def test_disabled_ledger_404(self, server):
        response = server.handle("GET", "/accuracy")
        assert response.status == 404
        assert "accuracy ledger disabled" in response.body["error"]

    def test_rejects_post(self, obs_server):
        assert obs_server.handle("POST", "/accuracy").status == 405

    def test_report_after_execution(self, obs_server):
        assert obs_server.handle(
            "POST", "/abstractWorkflows/text/execute").status == 200
        response = obs_server.handle("GET", "/accuracy")
        assert response.status == 200
        assert response.body["entries"] > 0
        pairs = {(p["operator"], p["engine"]): p
                 for p in response.body["pairs"]}
        assert any(op == "TF_IDF" for op, _ in pairs)
        for pair in pairs.values():
            assert pair["samples"] >= 1 and pair["mape"] >= 0.0
        # threshold 1e-9 with cooldown 0: every step raised a drift alarm
        assert len(response.body["alarms"]) > 0
        assert response.body["alarms"][0]["ewmaError"] > 0.0
        assert json.loads(response.json())


class TestExplainEndpoint:
    def test_runs_listing_empty_without_provenance(self, server):
        server.handle("POST", "/abstractWorkflows/text/execute")
        response = server.handle("GET", "/explain")
        assert response.status == 200
        assert response.body == {"runs": []}

    def test_explain_report_for_run(self, server):
        server.ires.planner.record_provenance = True
        report = server.handle(
            "POST", "/abstractWorkflows/text/execute").body["report"]
        run_id = report["runId"]
        listing = server.handle("GET", "/explain")
        assert run_id in listing.body["runs"]
        response = server.handle("GET", f"/explain/{run_id}")
        assert response.status == 200
        assert response.body["run_id"] == run_id
        (plan,) = response.body["plans"]
        chosen = [s["chosen"] for s in plan["steps"] if s["chosen"]]
        assert chosen and all(c["chosen"] is True for c in chosen)
        assert json.loads(response.json())

    def test_unknown_run_404(self, server):
        response = server.handle("GET", "/explain/nope")
        assert response.status == 404
        assert "no provenance" in response.body["error"]

    def test_rejects_post(self, server):
        assert server.handle("POST", "/explain").status == 405
