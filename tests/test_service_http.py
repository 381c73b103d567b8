"""Tests for the stdlib HTTP API over the campaign service.

Each test drives a real ThreadingHTTPServer on an OS-assigned port with
urllib — the same client path the CLI uses — so status codes, headers and
body shapes are exercised end to end.
"""

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.service import build_service, make_server, preset_configs, serve_in_thread


def request(url, method="GET", payload=None):
    """Return (status, headers, parsed-json-body), HTTPError-tolerant."""
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        body = exc.read()
        return exc.code, dict(exc.headers), json.loads(body) if body else {}


@pytest.fixture
def api(tmp_path):
    """A served (but not started) service: jobs stay pending, tests are
    deterministic.  Yields (base_url, service)."""
    service = build_service(
        tmp_path / "journal.wal", tmp_path / "ckpt", fsync=False,
        queue_kwargs={"max_depth": 8, "quota": 8},
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
    body = {"preset": preset, "workload": "hmmer_like", "n_instrs": 2000}
    body.update(overrides)
    return body


class TestBasics:
    def test_healthz(self, api):
        url, _ = api
        status, _, body = request(f"{url}/api/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0.0
        from repro import __version__

        assert body["version"] == __version__

    def test_kept_alive_connection_does_not_stall(self, api):
        # Headers and body go out as two writes; without TCP_NODELAY the
        # second waits for the client's delayed ACK (~40 ms per request).
        url, _ = api
        host, port = url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/api/v1/healthz")
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read())
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.25, f"20 kept-alive requests took {elapsed:.3f} s"

    def test_unknown_route_404(self, api):
        url, _ = api
        assert request(f"{url}/api/v1/nope")[0] == 404
        assert request(f"{url}/api/v1/nope", "POST", {})[0] == 404

    def test_stats(self, api):
        url, _ = api
        request(f"{url}/api/v1/jobs", "POST", submit_body())
        status, _, body = request(f"{url}/api/v1/stats")
        assert status == 200
        assert body["depth"] == 1
        assert body["states"]["pending"] == 1

    def test_jobs_listing(self, api):
        url, _ = api
        request(f"{url}/api/v1/jobs", "POST", submit_body())
        status, _, body = request(f"{url}/api/v1/jobs")
        assert status == 200
        assert [j["config_name"] for j in body["jobs"]] == ["baseline_server"]


class TestSubmit:
    def test_accepted_with_job_row(self, api):
        url, _ = api
        status, _, body = request(f"{url}/api/v1/jobs", "POST", submit_body())
        assert status == 202
        assert body["state"] == "pending"
        assert body["deduped"] is False
        assert body["job_id"].startswith("j")

    def test_duplicate_is_deduped(self, api):
        url, _ = api
        _, _, first = request(f"{url}/api/v1/jobs", "POST", submit_body())
        status, _, second = request(f"{url}/api/v1/jobs", "POST", submit_body())
        assert status == 202
        assert second["deduped"] is True
        assert second["job_id"] == first["job_id"]

    def test_inline_config_payload(self, api):
        url, _ = api
        from repro.sim.serialization import config_to_dict

        config = config_to_dict(preset_configs()["baseline_client"])
        status, _, body = request(
            f"{url}/api/v1/jobs", "POST",
            {"config": config, "workload": "mcf_like", "n_instrs": 2000},
        )
        assert status == 202
        assert body["config_name"] == "baseline_client"

    @pytest.mark.parametrize(
        "mutation",
        [
            {"preset": None},                       # neither config nor preset
            {"preset": "no_such_machine"},          # unknown preset
            {"workload": ""},                       # empty workload
            {"workload": None},
            {"n_instrs": 0},
            {"n_instrs": "many"},
            {"preset": "baseline_server", "config": {"name": "x"}},  # both
        ],
    )
    def test_malformed_submissions_400(self, api, mutation):
        url, _ = api
        body = submit_body()
        body.update(mutation)
        body = {k: v for k, v in body.items() if v is not None}
        status, _, response = request(f"{url}/api/v1/jobs", "POST", body)
        assert status == 400
        assert response["error"]

    def test_invalid_config_rejected_at_the_boundary(self, api):
        url, _ = api
        from repro.sim.serialization import config_to_dict

        config = config_to_dict(preset_configs()["baseline_server"])
        config["l1d"]["size_kb"] = -4
        status, _, body = request(
            f"{url}/api/v1/jobs", "POST",
            {"config": config, "workload": "mcf_like", "n_instrs": 2000},
        )
        assert status == 400

    def test_queue_full_429_with_retry_after(self, tmp_path):
        service = build_service(
            tmp_path / "j.wal", tmp_path / "ckpt", fsync=False,
            queue_kwargs={"max_depth": 1, "shed_watermark": 1.1},
        )
        server = make_server(service)
        serve_in_thread(server)
        host, port = server.server_address
        url = f"http://{host}:{port}"
        try:
            assert request(f"{url}/api/v1/jobs", "POST", submit_body())[0] == 202
            status, headers, body = request(
                f"{url}/api/v1/jobs", "POST", submit_body("baseline_client")
            )
            assert status == 429
            assert body["error_type"] == "QueueFull"
            assert int(headers["Retry-After"]) >= 1
        finally:
            server.shutdown()
            server.server_close()
            service.queue.journal.close()


class TestStatusAndResult:
    def test_status_round_trip(self, api):
        url, _ = api
        _, _, job = request(f"{url}/api/v1/jobs", "POST", submit_body())
        status, _, body = request(f"{url}/api/v1/jobs/{job['job_id']}")
        assert status == 200
        assert body["state"] == "pending"
        assert body["workload"] == "hmmer_like"

    def test_unknown_job_404(self, api):
        url, _ = api
        assert request(f"{url}/api/v1/jobs/j999999")[0] == 404
        assert request(f"{url}/api/v1/jobs/j999999/result")[0] == 404
        assert request(f"{url}/api/v1/jobs/j999999/cancel", "POST", {})[0] == 404

    def test_result_while_pending_202(self, api):
        url, _ = api
        _, _, job = request(f"{url}/api/v1/jobs", "POST", submit_body())
        status, _, body = request(f"{url}/api/v1/jobs/{job['job_id']}/result")
        assert status == 202
        assert body["state"] == "pending"

    def test_result_of_cancelled_410(self, api):
        url, _ = api
        _, _, job = request(f"{url}/api/v1/jobs", "POST", submit_body())
        request(f"{url}/api/v1/jobs/{job['job_id']}/cancel", "POST", {})
        assert request(f"{url}/api/v1/jobs/{job['job_id']}/result")[0] == 410

    def test_done_job_serves_result(self, api):
        url, service = api
        service.start()
        try:
            _, _, job = request(f"{url}/api/v1/jobs", "POST", submit_body())
            assert service.wait_idle(timeout=30)
            status, _, body = request(f"{url}/api/v1/jobs/{job['job_id']}/result")
            assert status == 200
            assert body["degraded"] is False
            result = body["result"]
            assert result["instructions"] >= 2000
            assert result["cycles"] > 0
        finally:
            service.stop()


class TestCancel:
    def test_cancel_pending(self, api):
        url, _ = api
        _, _, job = request(f"{url}/api/v1/jobs", "POST", submit_body())
        status, _, body = request(
            f"{url}/api/v1/jobs/{job['job_id']}/cancel", "POST", {}
        )
        assert status == 202
        assert body["state"] == "cancelled"

    def test_double_cancel_409(self, api):
        url, _ = api
        _, _, job = request(f"{url}/api/v1/jobs", "POST", submit_body())
        request(f"{url}/api/v1/jobs/{job['job_id']}/cancel", "POST", {})
        status, _, body = request(
            f"{url}/api/v1/jobs/{job['job_id']}/cancel", "POST", {}
        )
        assert status == 409
        assert body["error_type"] == "JobStateError"


class TestPresets:
    def test_fig10_family_present(self):
        names = set(preset_configs())
        assert {"baseline_server", "baseline_client", "CATCH"} <= names
        assert any(name.startswith("noL2") for name in names)


class TestSafeMode:
    def test_submission_503_with_retry_after(self, api):
        url, service = api
        service.enter_safe_mode("ENOSPC: disk full")
        status, headers, body = request(
            f"{url}/api/v1/jobs", "POST", submit_body()
        )
        assert status == 503
        assert body["error_type"] == "SafeModeActive"
        assert int(headers["Retry-After"]) >= 1
        service.exit_safe_mode()
        status, _, _ = request(f"{url}/api/v1/jobs", "POST", submit_body())
        assert status == 202

    def test_healthz_degrades_and_recovers(self, api):
        url, service = api
        service.enter_safe_mode("EIO: journal")
        status, _, body = request(f"{url}/api/v1/healthz")
        assert status == 200  # the daemon itself is alive and answering
        assert body["status"] == "degraded"
        assert body["safe_mode"]["active"] is True
        assert "EIO" in body["safe_mode"]["reason"]
        service.exit_safe_mode()
        _, _, body = request(f"{url}/api/v1/healthz")
        assert body["status"] == "ok"

    def test_reads_still_served_in_safe_mode(self, api):
        url, service = api
        _, _, created = request(f"{url}/api/v1/jobs", "POST", submit_body())
        service.enter_safe_mode("ENOSPC: x")
        status, _, body = request(f"{url}/api/v1/jobs/{created['job_id']}")
        assert status == 200
        assert body["state"] == "pending"


class TestInjectFault:
    def test_valid_sim_level_spec_accepted(self, api):
        url, service = api
        status, _, body = request(
            f"{url}/api/v1/jobs", "POST",
            submit_body(inject_fault="raise:at=500"),
        )
        assert status == 202
        job = service.queue.get(body["job_id"])
        assert job.inject_fault == "raise:at=500"

    def test_unknown_fault_kind_400(self, api):
        url, _ = api
        status, _, body = request(
            f"{url}/api/v1/jobs", "POST",
            submit_body(inject_fault="disk-on-fire"),
        )
        assert status == 400
        assert "unknown fault kind" in body["error"]

    def test_worker_kind_rejected_under_thread_isolation(self, api):
        url, service = api
        assert service.isolation == "thread"
        status, _, body = request(
            f"{url}/api/v1/jobs", "POST",
            submit_body(inject_fault="worker-crash:at=500"),
        )
        assert status == 400
        assert "process isolation" in body["error"]

    def test_non_string_spec_400(self, api):
        url, _ = api
        status, _, body = request(
            f"{url}/api/v1/jobs", "POST", submit_body(inject_fault=7)
        )
        assert status == 400


class TestClientHardening:
    """The CLI's request layer: jittered retries for idempotent GETs only,
    and a one-line, distinct-exit-code story for an unreachable daemon."""

    def test_get_retries_with_full_jitter(self):
        import random

        from repro.service.cli import ServiceUnreachable, _request

        sleeps = []
        with pytest.raises(ServiceUnreachable):
            _request(
                "http://127.0.0.1:9/api/v1/healthz",
                retries=3, backoff_s=0.5, rng=random.Random(42),
                sleep=sleeps.append, timeout=0.5,
            )
        assert len(sleeps) == 3  # one per retry, none after the last
        expected = [0.5 * (2 ** a) for a in range(3)]
        for got, ceiling in zip(sleeps, expected):
            assert 0.0 <= got < ceiling  # full jitter: uniform under 2^a

    def test_post_never_retries(self):
        from repro.service.cli import ServiceUnreachable, _request

        sleeps = []
        with pytest.raises(ServiceUnreachable):
            _request(
                "http://127.0.0.1:9/api/v1/jobs", method="POST",
                payload={}, retries=5, sleep=sleeps.append, timeout=0.5,
            )
        assert sleeps == []  # a POST may have side effects: no blind retry

    def test_http_error_is_a_served_response_not_a_retry(self, api):
        url, _ = api
        from repro.service.cli import _request

        sleeps = []
        status, body = _request(
            f"{url}/api/v1/nope", retries=3, sleep=sleeps.append
        )
        assert status == 404
        assert sleeps == []

    def test_unreachable_message_and_exit_code(self, capsys):
        from repro.service.cli import EXIT_UNREACHABLE, main

        code = main([
            "status", "j000001", "--url", "http://127.0.0.1:9",
            "--retries", "0", "--timeout", "0.5",
        ])
        assert code == EXIT_UNREACHABLE == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one line, not a traceback
        assert "cannot reach service" in err
        assert "is the daemon running?" in err

    def test_cli_fsck_dispatch(self, tmp_path, capsys):
        from repro.service.cli import main

        service = build_service(
            tmp_path / "journal.wal", tmp_path / "ckpt", fsync=False
        )
        service.queue.journal.close()
        assert main(["fsck", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out
