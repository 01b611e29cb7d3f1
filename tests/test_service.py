"""Tests for the asyncio execution service and its REST/HTTP surfaces."""

import asyncio
import json
import os
import threading
import types
import urllib.request

import pytest

from repro.api.rest import IResServer
from repro.api.service import (
    CANCELLED,
    DEADLINE,
    FAILED,
    INTERRUPTED,
    QUEUED,
    SUCCEEDED,
    AdmissionError,
    IResService,
)
from repro.core import IReS
from repro.execution.journal import journal_path, read_journal
from repro.scenarios import setup_helloworld


def _factory(journal_dir=None):
    """A per-worker platform factory with the helloworld chain registered."""
    def build():
        ires = IReS(journal_dir=journal_dir)
        make = setup_helloworld(ires)
        workflow = make()
        ires.workflows[workflow.name] = workflow
        return ires
    return build


class _StubPlatform:
    """A controllable platform stand-in: runs block until released."""

    def __init__(self):
        self.workflows = {"slow": object()}
        self.executor = types.SimpleNamespace(journal_dir=None)
        self.release = threading.Event()
        self.started = threading.Event()

    def execute(self, workflow, control=None, run_id=None, resume_from=None):
        self.started.set()
        while not self.release.wait(timeout=0.01):
            if control is not None:
                control.check()
        return types.SimpleNamespace(
            sim_time=1.0, replans=0, retries=0, executions=[],
            recovered_steps=0, cached_plans=0)


# -- admission control -------------------------------------------------------

def test_queue_limit_rejects_with_retry_after():
    service = IResService(_factory(), queue_limit=2)
    service.submit("helloworld-chain")
    service.submit("helloworld-chain")
    with pytest.raises(AdmissionError) as err:
        service.submit("helloworld-chain")
    assert err.value.status == 429
    assert err.value.retry_after > 0


def test_tenant_quota_rejects_only_the_noisy_tenant():
    service = IResService(_factory(), queue_limit=16, tenant_quota=2)
    service.submit("helloworld-chain", tenant="noisy")
    service.submit("helloworld-chain", tenant="noisy")
    with pytest.raises(AdmissionError, match="quota"):
        service.submit("helloworld-chain", tenant="noisy")
    service.submit("helloworld-chain", tenant="polite")  # unaffected


def test_draining_service_rejects_with_503():
    service = IResService(_factory())
    queued = service.submit("helloworld-chain")
    asyncio.run(service.shutdown(drain=False))
    with pytest.raises(AdmissionError) as err:
        service.submit("helloworld-chain")
    assert err.value.status == 503
    assert queued.state == INTERRUPTED  # never started, surfaced as such


def test_cancel_queued_run_never_starts():
    service = IResService(_factory())
    rec = service.submit("helloworld-chain")
    assert rec.state == QUEUED
    assert service.cancel(rec.run_id).state == CANCELLED
    assert rec.done.is_set()
    with pytest.raises(KeyError):
        service.cancel("nonexistent")


# -- execution ---------------------------------------------------------------

def test_submitted_runs_execute_concurrently_and_succeed():
    async def main():
        service = IResService(_factory(), workers=4, queue_limit=16)
        await service.start()
        recs = [service.submit("helloworld-chain", tenant=f"t{i % 2}")
                for i in range(8)]
        for rec in recs:
            await service.wait(rec.run_id, timeout=120)
        await service.shutdown()
        return recs, service

    recs, service = asyncio.run(main())
    assert all(rec.state == SUCCEEDED for rec in recs)
    assert all(rec.summary["steps"] > 0 for rec in recs)
    assert service.peak_active > 1  # genuinely concurrent
    stats = service.stats()
    assert stats["runsByState"][SUCCEEDED] == 8
    assert not stats["accepting"]


def test_unknown_workflow_fails_the_run_not_the_worker():
    async def main():
        service = IResService(_factory(), workers=1)
        await service.start()
        bad = service.submit("no-such-workflow")
        good = service.submit("helloworld-chain")
        await service.wait(bad.run_id, timeout=60)
        await service.wait(good.run_id, timeout=120)
        await service.shutdown()
        return bad, good

    bad, good = asyncio.run(main())
    assert bad.state == FAILED and "unknown workflow" in bad.error
    assert good.state == SUCCEEDED  # the worker survived


def test_tenant_fair_round_robin_dequeue():
    async def main():
        service = IResService(_factory(), workers=1, queue_limit=16)
        # queue before starting the worker so dequeue order is deterministic
        recs = [service.submit("helloworld-chain", tenant=t)
                for t in ("a", "a", "a", "b")]
        await service.start()
        for rec in recs:
            await service.wait(rec.run_id, timeout=240)
        await service.shutdown()
        return recs

    recs = asyncio.run(main())
    order = [r.tenant for r in sorted(recs, key=lambda r: r.started_at)]
    # round-robin: b's single run interleaves instead of waiting out all of a
    assert order == ["a", "b", "a", "a"]


def test_cancel_running_run_cooperatively():
    stub = _StubPlatform()

    async def main():
        service = IResService(lambda: stub, workers=1)
        await service.start()
        rec = service.submit("slow")
        await asyncio.to_thread(stub.started.wait, 10)
        service.cancel(rec.run_id)
        await service.wait(rec.run_id, timeout=10)
        await service.shutdown(drain=False)
        return rec

    rec = asyncio.run(main())
    assert rec.state == CANCELLED
    assert "cancelled" in rec.error


def test_more_waiters_than_executor_threads_all_return():
    """wait() used to park one thread of asyncio's default executor per
    waiter — the pool that also executes the runs — so ``cpu + 4`` waiters
    over queued runs left no thread to run them and nothing ever finished."""
    stub = _StubPlatform()
    stub.release.set()  # runs finish as soon as a worker thread takes them
    waiters = 2 * ((os.cpu_count() or 1) + 4)

    async def main():
        service = IResService(lambda: stub, workers=2, queue_limit=waiters)
        recs = [service.submit("slow") for _ in range(waiters)]
        waits = [asyncio.ensure_future(service.wait(rec.run_id))
                 for rec in recs]
        await asyncio.sleep(0)  # every waiter is parked before a run starts
        await service.start()
        done, pending = await asyncio.wait(waits, timeout=60)
        for task in pending:
            task.cancel()
        await service.shutdown(drain=False)
        return recs, done, pending

    recs, done, pending = asyncio.run(main())
    assert not pending
    assert {task.result().state for task in done} == {SUCCEEDED}
    assert all(rec.waiters == [] for rec in recs)


def test_wait_timeout_returns_the_unfinished_record():
    stub = _StubPlatform()

    async def main():
        service = IResService(lambda: stub, workers=1)
        await service.start()
        rec = service.submit("slow")
        waited = await service.wait(rec.run_id, timeout=0.05)
        parked = list(rec.waiters)
        await service.shutdown(drain=False)
        return rec, waited, parked

    rec, waited, parked = asyncio.run(main())
    assert waited is rec
    assert parked == []  # a timed-out waiter unregisters itself
    assert rec.state == CANCELLED  # and the record still reaches a terminal state


def test_deadline_exceeded_marks_run_deadline():
    stub = _StubPlatform()

    async def main():
        service = IResService(lambda: stub, workers=1,
                              default_deadline_seconds=0.05)
        await service.start()
        rec = service.submit("slow")
        await service.wait(rec.run_id, timeout=10)
        await service.shutdown(drain=False)
        return rec

    rec = asyncio.run(main())
    assert rec.state == DEADLINE


def test_graceful_drain_finishes_inflight_work():
    async def main():
        service = IResService(_factory(), workers=2)
        await service.start()
        recs = [service.submit("helloworld-chain") for _ in range(3)]
        await service.shutdown(drain=True)  # no explicit waits: drain does it
        return recs

    recs = asyncio.run(main())
    assert all(rec.state == SUCCEEDED for rec in recs)


def test_forced_shutdown_cancels_running_and_interrupts_queued():
    stub = _StubPlatform()

    async def main():
        service = IResService(lambda: stub, workers=1)
        await service.start()
        running = service.submit("slow")
        queued = service.submit("slow")
        await asyncio.to_thread(stub.started.wait, 10)
        await service.shutdown(drain=True, timeout=0.1)  # drain times out
        return running, queued

    running, queued = asyncio.run(main())
    assert running.state == CANCELLED
    assert queued.state == INTERRUPTED


# -- durability --------------------------------------------------------------

def _interrupt_journal(journal_dir) -> str:
    """Journal one run, then cut it after its first finished step."""
    ires = _factory(journal_dir=journal_dir)()
    report = ires.execute(ires.workflows["helloworld-chain"])
    path = journal_path(journal_dir, report.run_id)
    lines = path.read_text().splitlines()
    kept, seen = [], 0
    for line in lines:
        kept.append(line)
        if json.loads(line).get("kind") == "step_finished":
            seen += 1
            if seen >= 1:
                break
    path.write_text("\n".join(kept) + "\n")
    return report.run_id


def test_startup_recovery_requeues_interrupted_runs(tmp_path):
    run_id = _interrupt_journal(tmp_path)

    async def main():
        service = IResService(_factory(), workers=1, journal_dir=tmp_path)
        recovered = await service.start()
        assert [r.run_id for r in recovered] == [run_id]
        rec = await service.wait(run_id, timeout=120)
        await service.shutdown()
        return rec

    rec = asyncio.run(main())
    assert rec.state == SUCCEEDED
    assert rec.resume is not None
    assert rec.summary["recoveredSteps"] == 1
    records = read_journal(journal_path(tmp_path, run_id))
    assert records[-1]["kind"] == "run_finished"
    assert records[-1]["state"] == "succeeded"


def test_service_runs_are_journaled(tmp_path):
    async def main():
        service = IResService(_factory(), workers=1, journal_dir=tmp_path)
        await service.start()
        rec = service.submit("helloworld-chain")
        await service.wait(rec.run_id, timeout=120)
        await service.shutdown()
        return rec

    rec = asyncio.run(main())
    records = read_journal(journal_path(tmp_path, rec.run_id))
    assert records[0]["kind"] == "run_admitted"
    assert records[-1]["state"] == "succeeded"


def test_recover_rejects_active_or_succeeded_runs(tmp_path):
    async def main():
        service = IResService(_factory(), workers=1, journal_dir=tmp_path)
        await service.start()
        rec = service.submit("helloworld-chain")
        await service.wait(rec.run_id, timeout=120)
        with pytest.raises(ValueError, match="succeeded"):
            service.recover(rec.run_id)
        await service.shutdown()

    asyncio.run(main())


# -- REST surface ------------------------------------------------------------

def test_rest_runs_routes_without_service_answer_503():
    server = IResServer(IReS())
    assert server.handle("GET", "/runs").status == 503
    assert server.handle("GET", "/service").status == 503


def test_rest_runs_lifecycle(tmp_path):
    async def main():
        service = IResService(_factory(), workers=2, journal_dir=tmp_path)
        await service.start()
        server = IResServer(IReS(), service=service)
        submitted = server.handle("POST", "/runs",
                                  {"workflow": "helloworld-chain"})
        assert submitted.status == 202
        run_id = submitted.body["runId"]
        await service.wait(run_id, timeout=120)
        listing = server.handle("GET", "/runs")
        status = server.handle("GET", f"/runs/{run_id}")
        stats = server.handle("GET", "/service")
        missing = server.handle("GET", "/runs/nope")
        bad = server.handle("POST", "/runs", {})
        await service.shutdown()
        return listing, status, stats, missing, bad

    listing, status, stats, missing, bad = asyncio.run(main())
    assert listing.status == 200 and len(listing.body["runs"]) == 1
    assert status.body["state"] == SUCCEEDED
    assert stats.body["workers"] == 2
    assert missing.status == 404
    assert bad.status == 400


def test_rest_backpressure_maps_to_429():
    service = IResService(_factory(), queue_limit=1)
    server = IResServer(IReS(), service=service)
    assert server.handle("POST", "/runs",
                         {"workflow": "helloworld-chain"}).status == 202
    rejected = server.handle("POST", "/runs",
                             {"workflow": "helloworld-chain"})
    assert rejected.status == 429
    assert rejected.body["retryAfter"] > 0


def test_rest_cancel_and_recover_routes(tmp_path):
    run_id = _interrupt_journal(tmp_path)
    assert run_id
    # cancel (queued) works against a not-yet-started service
    service = IResService(_factory(), workers=1)
    server = IResServer(IReS(), service=service)
    rec = service.submit("helloworld-chain")
    cancelled = server.handle("POST", f"/runs/{rec.run_id}/cancel")
    assert cancelled.status == 200
    assert cancelled.body["state"] == CANCELLED
    assert server.handle("POST", "/runs/nope/cancel").status == 404

    async def recover_main():
        svc = IResService(_factory(), workers=1, journal_dir=tmp_path)
        srv = IResServer(IReS(), service=svc)
        # consume the startup auto-recovery first, then re-interrupt
        svc_recovered = await svc.start()
        for r in svc_recovered:
            await svc.wait(r.run_id, timeout=120)
        fresh_id = _interrupt_journal(tmp_path)
        response = srv.handle("POST", f"/runs/{fresh_id}/recover")
        assert response.status == 202
        await svc.wait(fresh_id, timeout=120)
        missing = srv.handle("POST", "/runs/nope/recover")
        await svc.shutdown()
        return response, missing, svc.status(fresh_id)

    response, missing, resumed = asyncio.run(recover_main())
    assert missing.status == 404
    assert resumed.state == SUCCEEDED
    assert resumed.summary["recoveredSteps"] == 1


# -- HTTP transport ----------------------------------------------------------

def test_http_transport_end_to_end():
    from repro.api.httpd import make_http_server

    async def main():
        service = IResService(_factory(), workers=1)
        await service.start()
        server = IResServer(IReS(), service=service)
        httpd = make_http_server(server, "127.0.0.1", 0)
        port = httpd.server_address[1]
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            def post(path, body):
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}{path}",
                    data=json.dumps(body).encode(), method="POST",
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request) as resp:
                    return resp.status, json.loads(resp.read())

            def get(path):
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}{path}") as resp:
                    return resp.status, resp.read()

            status, body = await asyncio.to_thread(
                post, "/runs", {"workflow": "helloworld-chain"})
            assert status == 202
            await service.wait(body["runId"], timeout=120)
            status, payload = await asyncio.to_thread(
                get, f"/runs/{body['runId']}")
            assert status == 200
            assert json.loads(payload)["state"] == SUCCEEDED
            status, payload = await asyncio.to_thread(get, "/metrics")
            assert status == 200
            assert b"ires_service_runs_total" in payload
            assert b"ires_service_queue_wait_seconds" in payload
        finally:
            httpd.shutdown()
            await service.shutdown()

    asyncio.run(main())


def test_http_telemetry_surfaces_and_cli_top():
    from repro.api.httpd import make_http_server
    from repro.cli import _render_top

    async def main():
        service = IResService(_factory(), workers=1)
        await service.start()
        server = IResServer(_factory()(), service=service)
        httpd = make_http_server(server, "127.0.0.1", 0)
        port = httpd.server_address[1]
        base = f"http://127.0.0.1:{port}"
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            rec = service.submit("helloworld-chain", tenant="http-t")
            await service.wait(rec.run_id, timeout=120)

            def get(path, method="GET"):
                request = urllib.request.Request(base + path, method=method)
                with urllib.request.urlopen(request) as resp:
                    return (resp.status, resp.read(),
                            dict(resp.headers.items()))

            status, payload, _ = await asyncio.to_thread(get, "/tenants")
            assert status == 200
            assert json.loads(payload)["tenants"][0]["tenant"] == "http-t"
            status, payload, _ = await asyncio.to_thread(get, "/slo")
            assert status == 200
            assert json.loads(payload)["activeAlarms"] == []
            status, payload, headers = await asyncio.to_thread(
                get, "/dashboard")
            assert status == 200
            assert headers["Content-Type"].startswith("text/html")
            assert headers["Cache-Control"] == "no-store"
            assert b"dashboard-data" in payload
            # HEAD routes like GET but elides the body
            status, payload, headers = await asyncio.to_thread(
                get, "/dashboard", "HEAD")
            assert status == 200 and payload == b""
            assert int(headers["Content-Length"]) > 0
            status, payload, _ = await asyncio.to_thread(
                get, f"/runs/{rec.run_id}/timeline")
            assert status == 200
            assert json.loads(payload)["runId"] == rec.run_id
            frame = await asyncio.to_thread(_render_top, base)
            assert "queue=" in frame and "tenant http-t" in frame
            return base
        finally:
            httpd.shutdown()
            await service.shutdown()

    asyncio.run(main())


def test_cli_tenants_and_top_unreachable_server_exit():
    from repro.cli import main as cli_main

    with pytest.raises(SystemExit, match="cannot reach"):
        cli_main(["tenants", "--server", "http://127.0.0.1:1"])
    with pytest.raises(SystemExit, match="cannot reach"):
        cli_main(["top", "--server", "http://127.0.0.1:1", "--once"])


def test_queue_wait_metrics_and_tenant_label():
    from repro.obs.metrics import REGISTRY

    service = IResService(_factory(), workers=1)

    async def main():
        await service.start()
        rec = service.submit("helloworld-chain", tenant="metrics-tenant")
        await service.wait(rec.run_id, timeout=120)

    asyncio.run(main())
    hist = REGISTRY.get("ires_service_queue_wait_seconds")
    assert hist is not None and hist.value() >= 1
    runs = REGISTRY.get("ires_service_runs_total")
    assert runs.value(status=SUCCEEDED, tenant="metrics-tenant") >= 1
    telemetry = REGISTRY.get("ires_service_telemetry_seconds")
    assert telemetry is not None and telemetry.value() >= 1


def test_retry_after_uses_measured_queue_wait_ewma():
    service = IResService(_factory(), workers=2, queue_limit=4)
    # cold start: no completed runs, only the latency-model fallback
    with service._lock:
        cold = service._retry_after_locked()
    assert 1.0 <= cold <= 60.0
    # warm: a measured queue-wait EWMA anchors the estimate and the
    # execution EWMA projects the backlog in front of a new submission
    service._queue_wait_ewma = 3.0
    service._exec_seconds_ewma = 10.0
    service._pending["t"] = __import__("collections").deque(
        [object(), object(), object(), object()])
    with service._lock:
        warm = service._retry_after_locked()
    assert warm == pytest.approx(3.0 + 10.0 * 4 / 2)
    service._queue_wait_ewma = 0.0
    with service._lock:
        floored = service._retry_after_locked()
    assert floored >= 1.0  # clamped to the [1, 60] hint range


def test_run_record_to_dict_is_json_able():
    service = IResService(_factory())
    rec = service.submit("helloworld-chain", tenant="t1",
                         deadline_seconds=5.0)
    payload = json.loads(json.dumps(rec.to_dict()))
    assert payload["workflow"] == "helloworld-chain"
    assert payload["tenant"] == "t1"
    assert payload["state"] == QUEUED
    assert payload["deadlineSeconds"] == 5.0
    assert payload["runId"] == rec.run_id
