"""Tests for service-grade telemetry: the flight recorder, end-to-end job
tracing, SLO latency accounting, request-id correlation, and the /metrics
endpoint.

The HTTP tests run a real ThreadingHTTPServer; the daemon tests run real
executor threads, so the spans and histograms asserted here are produced
by the same code paths an operator would scrape in production.
"""

import json
import os
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.errors import RunFailure
from repro.obs import (
    FlightRecorder,
    NullFlightRecorder,
    TraceCollector,
    load_flight_dump,
    validate_exposition,
)
from repro.obs.trace import validate_trace_events
from repro.runner import FailureRecord, FleetRunner, ResultStore
from repro.service import DONE, FAILED, build_service, make_server, serve_in_thread
from repro.service.cli import make_sigquit_handler
from repro.service.http import preset_configs
from repro.service.journal import Journal
from repro.service.queue import JobQueue
from repro.sim.serialization import config_to_dict

N = 2000


# --------------------------------------------------------------- harness

class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_service(tmp_path, **kwargs):
    queue_kwargs = kwargs.pop("queue_kwargs", {})
    return build_service(
        tmp_path / "journal.wal", tmp_path / "ckpt", fsync=False,
        queue_kwargs=queue_kwargs, **kwargs,
    )


def submit_preset(service, preset="baseline_server", workload="hmmer_like",
                  n=N, **kwargs):
    payload = config_to_dict(preset_configs()[preset])
    job, _ = service.submit_config(payload, workload, n, **kwargs)
    return job


def request(url, method="GET", payload=None, headers=None):
    """Return (status, headers, body) with body parsed per content type."""
    data = json.dumps(payload).encode() if payload is not None else None
    all_headers = {"Content-Type": "application/json"} if data else {}
    all_headers.update(headers or {})
    req = urllib.request.Request(url, data=data, method=method,
                                 headers=all_headers)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            raw = resp.read().decode()
            status, resp_headers = resp.status, dict(resp.headers)
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode()
        status, resp_headers = exc.code, dict(exc.headers)
    if resp_headers.get("Content-Type", "").startswith("application/json"):
        return status, resp_headers, json.loads(raw) if raw else {}
    return status, resp_headers, raw


@pytest.fixture
def api(tmp_path):
    """A served (but not started) service; yields (base_url, service)."""
    service = make_service(
        tmp_path, queue_kwargs={"max_depth": 8, "quota": 8}
    )
    server = make_server(service)
    serve_in_thread(server)
    host, port = server.server_address
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()
        service.queue.journal.close()


def submit_body(preset="baseline_server", **overrides):
    body = {"preset": preset, "workload": "hmmer_like", "n_instrs": N}
    body.update(overrides)
    return body


class CrashingRunner:
    """Stands in for a fleet whose worker dies on this config every time."""

    def __init__(self):
        self.failures = []

    def run(self, config, workload, n_instrs):
        self.failures.append(FailureRecord(
            config_name=config.name, workload=workload, n_instrs=n_instrs,
            error_type="WorkerCrashError", message="simulated worker death",
            elapsed_s=0.0, attempts=1,
        ))
        raise RunFailure(
            f"worker crashed on {config.name}",
            config_name=config.name, workload=workload, n_instrs=n_instrs,
            attempts=1, elapsed_s=0.0,
        )


# ------------------------------------------------------- flight recorder

class TestFlightRecorder:
    def test_ring_evicts_oldest(self):
        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.record("tick", i=i)
        assert len(rec) == 3
        assert [e["i"] for e in rec.events()] == [2, 3, 4]
        assert rec.recorded == 5

    def test_events_filter_by_kind_and_count(self):
        rec = FlightRecorder()
        rec.record("submit", job="j1")
        rec.record("lease", job="j1")
        rec.record("submit", job="j2")
        assert [e["job"] for e in rec.events(kind="submit")] == ["j1", "j2"]
        assert [e["job"] for e in rec.events(n=1, kind="submit")] == ["j2"]

    def test_sequence_numbers_are_stable_across_eviction(self):
        rec = FlightRecorder(capacity=2)
        for i in range(4):
            rec.record("tick", i=i)
        assert [e["seq"] for e in rec.events()] == [3, 4]

    def test_dump_round_trip(self, tmp_path):
        rec = FlightRecorder()
        rec.record("submit", job="j1")
        rec.record("done", job="j1")
        path = tmp_path / "dump.jsonl"
        rec.dump(path, reason="test")
        header, events = load_flight_dump(path)
        assert header["reason"] == "test"
        assert header["recorded_total"] == 2
        assert [e["kind"] for e in events] == ["submit", "done"]

    def test_dump_to_dir_avoids_collisions(self, tmp_path):
        rec = FlightRecorder(clock=FakeClock(1234.0))
        rec.record("tick")
        first = rec.dump_to_dir(tmp_path, reason="a")
        second = rec.dump_to_dir(tmp_path, reason="b")
        assert first != second
        assert first.name.startswith("flightrec-")
        assert load_flight_dump(second)[0]["reason"] == "b"

    def test_load_rejects_non_dump_files(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"kind": "not-a-dump"}\n')
        with pytest.raises(ValueError):
            load_flight_dump(path)

    def test_null_recorder_is_disabled_and_undumpable(self):
        rec = NullFlightRecorder()
        rec.record("anything", x=1)
        assert not rec.enabled
        assert len(rec) == 0
        with pytest.raises(RuntimeError):
            rec.dump("nowhere.jsonl")


# ------------------------------------------------------------ trace core

class TestTraceCollector:
    def test_counter_timestamps_strictly_increase(self):
        # A frozen clock is the coarse-clock worst case: every raw sample
        # lands on the same tick, so the collector must nudge each one.
        collector = TraceCollector(clock=lambda: 5.0)
        collector.counter("c", {"v": 1})
        collector.counter("c", {"v": 2})
        collector.counter("c", {"v": 3})
        stamps = [e["ts"] for e in collector.events if e["ph"] == "C"]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 3

    def test_complete_records_retroactive_span(self):
        collector = TraceCollector()
        start = collector.now_us()
        collector.complete("job:queue-wait", start, 125.0, "service",
                           {"job_id": "j1"})
        (event,) = collector.events
        assert event["ph"] == "X"
        assert event["dur"] == 125.0
        assert validate_trace_events({"traceEvents": [event]}) == []

    def test_merge_rebases_onto_parent_wall_clock(self):
        parent = TraceCollector()
        child = TraceCollector()
        with obs.use_tracer(child):
            with obs.span("worker:run", "worker", {"trace_id": "t1"}):
                pass
        parent.merge_events(child.events, wall_t0=child.wall_t0)
        merged = [e for e in parent.events if e["name"] == "worker:run"]
        assert merged
        assert merged[0]["args"]["trace_id"] == "t1"
        assert merged[0]["ts"] >= 0
        assert validate_trace_events({"traceEvents": parent.events}) == []


# ----------------------------------------------- queue-level observability

class TestQueueObservability:
    def make_queue(self, tmp_path, clock=None, recorder=None, **kwargs):
        kwargs.setdefault("max_depth", 8)
        kwargs.setdefault("quota", 8)
        journal = Journal(tmp_path / "q.wal", fsync=False)
        return JobQueue(journal, clock=clock or FakeClock(),
                        recorder=recorder, **kwargs)

    def test_trace_id_survives_journal_replay(self, tmp_path):
        queue = self.make_queue(tmp_path)
        job, _ = queue.submit({"name": "cfg"}, "wl", 1000,
                              fingerprint="fp0", trace_id="req-abc123",
                              workload_fingerprint="wfp-wl")
        queue.journal.close()
        reopened = self.make_queue(tmp_path)
        assert reopened.get(job.job_id).trace_id == "req-abc123"
        reopened.journal.close()

    def test_lease_expiry_counts_separately_from_failed(self, tmp_path):
        clock = FakeClock()
        queue = self.make_queue(tmp_path, clock=clock,
                                lease_s=1.0, max_attempts=1)
        job, _ = queue.submit({"name": "cfg"}, "wl", 1000, fingerprint="fp0",
                              workload_fingerprint="wfp-wl")
        assert queue.lease("w0") is not None
        clock.advance(5.0)
        (reclaimed,) = queue.expire_leases()
        assert reclaimed.job_id == job.job_id
        assert queue.get(job.job_id).state == FAILED
        assert queue.counters.lease_expiry_failed == 1
        assert queue.counters.failed == 0
        stats = queue.stats()
        assert stats["counters"]["lease_expiry_failed"] == 1
        assert stats["error_rate"] == 1.0
        queue.journal.close()

    def test_stats_exposes_breaker_states_and_journal_counters(self, tmp_path):
        queue = self.make_queue(tmp_path)
        queue.submit({"name": "cfg"}, "wl", 1000, fingerprint="fp0",
                     workload_fingerprint="wfp-wl")
        stats = queue.stats()
        assert stats["breaker_states"] == {
            "closed": 0, "open": 0, "half_open": 0,
        }
        assert stats["error_rate"] == 0.0
        assert stats["journal"]["appends"] >= 1
        assert stats["journal"]["compactions"] == 0
        queue.journal.close()

    def test_queue_events_reach_the_recorder(self, tmp_path):
        recorder = FlightRecorder()
        queue = self.make_queue(tmp_path, recorder=recorder)
        job, _ = queue.submit({"name": "cfg"}, "wl", 1000,
                              fingerprint="fp0", trace_id="t1",
                              workload_fingerprint="wfp-wl")
        queue.lease("w0")
        queue.complete(job.job_id, "w0", {"ipc": 1.0})
        kinds = [e["kind"] for e in recorder.events()]
        assert kinds == ["submit", "lease", "done"]
        lease_event = recorder.events(kind="lease")[0]
        assert lease_event["trace_id"] == "t1"
        assert lease_event["queue_wait_s"] >= 0.0
        queue.journal.close()


# ------------------------------------------------- daemon spans and SLOs

class TestDaemonTelemetry:
    def test_job_lifecycle_spans_share_the_trace_id(self, tmp_path):
        collector = TraceCollector()
        with obs.use_tracer(collector):
            service = make_service(tmp_path)
            job = submit_preset(service, trace_id="req-42")
            service.start()
            try:
                assert service.wait_idle(timeout=30)
            finally:
                service.stop()
        assert service.queue.get(job.job_id).state == DONE
        names = {e["name"] for e in collector.events}
        assert {"job:submit", "job:queue-wait", "job:run",
                "job:result-write", "job:done"} <= names
        for name in ("job:submit", "job:run", "job:done"):
            matching = [e for e in collector.events if e["name"] == name]
            assert matching[0]["args"]["trace_id"] == "req-42"
        assert validate_trace_events({"traceEvents": collector.events}) == []
        service.queue.journal.close()

    def test_service_stats_reports_slo_quantiles(self, tmp_path):
        service = make_service(tmp_path)
        submit_preset(service)
        service.start()
        try:
            assert service.wait_idle(timeout=30)
        finally:
            service.stop()
        stats = service.service_stats()
        assert stats["uptime_s"] > 0.0
        import repro

        assert stats["version"] == repro.__version__
        latency = stats["latency"]
        assert set(latency) == {
            "queue_wait", "lease_to_start", "run", "result_write",
        }
        for phase in ("queue_wait", "run", "result_write"):
            assert latency[phase]["count"] >= 1
            assert latency[phase]["p50_s"] >= 0.0
            assert latency[phase]["p99_s"] >= latency[phase]["p50_s"]
        service.queue.journal.close()

    def test_worker_crash_dumps_the_flight_recorder(self, tmp_path):
        service = make_service(
            tmp_path,
            runner_factory=CrashingRunner,
            queue_kwargs={"max_attempts": 1},
            poll_s=0.01,
        )
        job = submit_preset(service)
        service.start()
        try:
            deadline_hit = False
            import time as _time
            deadline = _time.monotonic() + 30
            while _time.monotonic() < deadline:
                if service.queue.get(job.job_id).state == FAILED:
                    deadline_hit = True
                    break
                _time.sleep(0.02)
            assert deadline_hit
        finally:
            service.stop()
        dumps = sorted(tmp_path.glob("flightrec-*.jsonl"))
        assert dumps
        header, events = load_flight_dump(dumps[0])
        assert header["reason"] == "worker-crash"
        assert any(e["kind"] == "worker_crash" for e in events)
        service.queue.journal.close()

    def test_sigquit_handler_dumps_without_raising(self, tmp_path, capsys):
        service = make_service(tmp_path)
        submit_preset(service)
        handler = make_sigquit_handler(service)
        handler(None, None)
        dumps = sorted(tmp_path.glob("flightrec-*.jsonl"))
        assert len(dumps) == 1
        header, events = load_flight_dump(dumps[0])
        assert header["reason"] == "sigquit"
        assert any(e["kind"] == "submit" for e in events)
        assert str(dumps[0]) in capsys.readouterr().err
        service.queue.journal.close()

    def test_metrics_snapshot_has_slo_histograms(self, tmp_path):
        service = make_service(tmp_path)
        snapshot = service.telemetry_snapshot()
        assert "job.queue_wait_seconds" in snapshot["histograms"]
        assert "service" in snapshot["providers"]
        service.queue.journal.close()


# ------------------------------------------------------------- HTTP layer

class TestRequestCorrelation:
    def test_response_carries_a_request_id(self, api):
        url, _ = api
        _, headers, _ = request(f"{url}/api/v1/healthz")
        assert headers["X-Request-Id"]

    def test_inbound_request_id_is_adopted(self, api):
        url, service = api
        status, headers, body = request(
            f"{url}/api/v1/jobs", "POST", submit_body(),
            headers={"X-Request-Id": "trace-me-42"},
        )
        assert status == 202
        assert headers["X-Request-Id"] == "trace-me-42"
        assert service.queue.get(body["job_id"]).trace_id == "trace-me-42"

    def test_invalid_inbound_id_is_replaced(self, api):
        url, _ = api
        _, headers, _ = request(
            f"{url}/api/v1/healthz",
            headers={"X-Request-Id": "bad id with spaces!"},
        )
        assert headers["X-Request-Id"] != "bad id with spaces!"
        assert headers["X-Request-Id"]


class TestMetricsEndpoint:
    def test_scrape_is_spec_valid_and_names_slo_series(self, api):
        url, _ = api
        request(f"{url}/api/v1/jobs", "POST", submit_body())
        status, headers, text = request(f"{url}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        assert validate_exposition(text) == []
        assert "repro_job_queue_wait_seconds_bucket" in text
        assert 'repro_snapshot{provider="service",key="depth"} 1' in text


class TestEventsEndpoint:
    def test_events_listing_with_filters(self, api):
        url, _ = api
        _, _, job = request(f"{url}/api/v1/jobs", "POST", submit_body())
        request(f"{url}/api/v1/jobs/{job['job_id']}/cancel", "POST", {})
        status, _, body = request(f"{url}/api/v1/events")
        assert status == 200
        kinds = [e["kind"] for e in body["events"]]
        assert "submit" in kinds and "cancelled" in kinds
        assert body["recorded_total"] >= 2
        assert body["capacity"] > 0
        _, _, filtered = request(f"{url}/api/v1/events?kind=submit&n=1")
        assert [e["kind"] for e in filtered["events"]] == ["submit"]


# ------------------------------------------------ fleet trace propagation

class TestFleetTracePropagation:
    def test_worker_spans_merge_with_the_parent_trace(self, tmp_path):
        collector = TraceCollector()
        config = preset_configs()["baseline_server"]
        with obs.use_tracer(collector):
            runner = FleetRunner(ResultStore(tmp_path), jobs=1)
            runner.trace_args = {"job_id": "j1", "trace_id": "tr-fleet"}
            result = runner.run(config, "hmmer_like", N)
        assert result.instructions >= N
        worker_spans = [
            e for e in collector.events if e["name"] == "worker:run"
        ]
        assert worker_spans
        span = worker_spans[0]
        assert span["args"]["trace_id"] == "tr-fleet"
        assert span["args"]["job_id"] == "j1"
        # The span was recorded in the worker process, then rebased onto
        # the parent timeline — it keeps the worker's pid and a valid ts.
        assert span["pid"] != os.getpid()
        assert span["ts"] >= 0
        assert validate_trace_events({"traceEvents": collector.events}) == []

    def test_workers_do_not_trace_when_parent_has_no_tracer(self, tmp_path):
        config = preset_configs()["baseline_server"]
        runner = FleetRunner(ResultStore(tmp_path), jobs=1)
        result = runner.run(config, "hmmer_like", N)
        assert result.instructions >= N
        assert obs.tracer() is None
