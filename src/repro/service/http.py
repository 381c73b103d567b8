"""Stdlib HTTP API over the campaign service (no new dependencies).

A thin, threaded JSON layer (``http.server.ThreadingHTTPServer``) over
:class:`~repro.service.daemon.CampaignService`.  Endpoints:

=======  ==========================  ===========================================
Method   Path                        Meaning
=======  ==========================  ===========================================
POST     ``/api/v1/jobs``            submit ``{config|preset, workload,
                                     n_instrs, priority?, submitter?}`` —
                                     202 with the job row (``deduped`` marks
                                     an idempotent hit)
GET      ``/api/v1/jobs/<id>``       job status (the full state-machine row)
GET      ``/api/v1/jobs/<id>/result``serialized RunResult — 200 when done,
                                     202 while pending/leased, 410 for
                                     failed/cancelled
POST     ``/api/v1/jobs/<id>/cancel``cancel (immediate for pending, flagged
                                     for leased)
GET      ``/api/v1/jobs``            all job rows
GET      ``/api/v1/stats``           queue statistics + SLO latency quantiles
                                     + daemon identity
GET      ``/api/v1/events``          flight-recorder ring (``?n=``, ``?kind=``)
GET      ``/api/v1/healthz``         liveness probe (uptime, version)
GET      ``/metrics``                Prometheus text exposition of the
                                     service registry
=======  ==========================  ===========================================

Typed admission rejections (:class:`~repro.errors.QueueFull`,
:class:`~repro.errors.QuotaExceeded`, :class:`~repro.errors.CircuitOpen`)
map to **429** with a ``Retry-After`` header carrying the queue's hint;
:class:`~repro.errors.SafeModeActive` (disk-fault safe mode) maps to
**503** + ``Retry-After`` and flips ``/healthz`` to ``degraded``;
:class:`~repro.errors.ConfigError` and malformed bodies map to **400**,
unknown jobs to **404**, invalid state transitions to **409**.

Submissions may carry ``inject_fault`` — a
:meth:`~repro.runner.faultinject.FaultInjector.from_spec` string armed for
that job's runs (the chaos-testing hook).  It is validated at admission:
process-level kinds are refused under thread isolation.

``preset`` names a server-side configuration
(:func:`preset_configs`: the Skylake baselines plus the fig10 variants) so
clients can drive paper campaigns without shipping a config payload.

Request correlation: every request is assigned a correlation id — the
inbound ``X-Request-Id`` header when it is well-formed, a fresh random id
otherwise — which is echoed back as ``X-Request-Id`` on the response.  A
submission's correlation id becomes the job's ``trace_id``: journaled with
the job, tagged onto every lifecycle span and flight-recorder event, and
shipped back from fleet workers, so one id follows a request end-to-end
(HTTP → queue → worker) through the merged trace.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from .. import __version__, obs
from ..errors import (
    AdmissionError,
    ConfigError,
    JobNotFound,
    JobStateError,
    SafeModeActive,
)
from ..obs import (
    PROMETHEUS_CONTENT_TYPE,
    current_tid,
    get_logger,
    log_event,
    render_prometheus,
)
from ..plugins.workloads import MIX_SEPARATOR
from ..sim.config import fig10_configs, skylake_client, skylake_server
from ..sim.serialization import config_to_dict
from .daemon import CampaignService

logger = get_logger("service.http")

_JOB_PATH = re.compile(r"^/api/v1/jobs/([A-Za-z0-9_-]+)(/result|/cancel)?$")

#: Inbound ``X-Request-Id`` values we are willing to adopt: short, printable,
#: header/JSON/label-safe.  Anything else gets a fresh generated id.
_REQUEST_ID = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Cap on request bodies; a config payload is a few KiB.
MAX_BODY_BYTES = 1 << 20


def preset_configs() -> dict:
    """Named server-side configurations clients may submit by ``preset``."""
    presets = {}
    for config in (skylake_server(), skylake_client(), *fig10_configs()):
        presets[config.name] = config
    return presets


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the service; one instance per request (threaded)."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: headers and body are two writes, and on a kept-alive
    #: connection Nagle would hold the body for the client's delayed ACK.
    disable_nagle_algorithm = True
    service: CampaignService  # injected by make_server's subclass
    request_id: str = ""

    # ------------------------------------------------------------- plumbing

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        log_event(
            logger, logging.DEBUG, "http", request=format % args,
            client=self.client_address[0], request_id=self.request_id,
        )

    def _assign_request_id(self) -> str:
        """Adopt a well-formed inbound ``X-Request-Id`` or mint one."""
        inbound = self.headers.get("X-Request-Id") or ""
        if _REQUEST_ID.match(inbound):
            self.request_id = inbound
        else:
            self.request_id = uuid.uuid4().hex[:16]
        return self.request_id

    def _json(self, status: int, payload: dict, headers: dict | None = None) -> None:
        body = json.dumps(payload, indent=2).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.request_id:
            self.send_header("X-Request-Id", self.request_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _text(
        self, status: int, text: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.request_id:
            self.send_header("X-Request-Id", self.request_id)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, *, error_type: str = "",
               headers: dict | None = None) -> None:
        self._json(
            status,
            {"error": message, "error_type": error_type or "Error"},
            headers,
        )

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b"{}"
        payload = json.loads(raw or b"{}")
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # --------------------------------------------------------------- routes

    def do_GET(self) -> None:  # noqa: N802
        path, _, query = self.path.partition("?")
        rid = self._assign_request_id()
        with obs.span(
            "http:GET", "http", {"path": path, "trace_id": rid},
            tid=current_tid(),
        ):
            try:
                if path == "/metrics":
                    self._text(
                        200,
                        render_prometheus(self.service.telemetry_snapshot()),
                        PROMETHEUS_CONTENT_TYPE,
                    )
                elif path == "/api/v1/healthz":
                    self._json(200, self._health())
                elif path == "/api/v1/stats":
                    self._json(200, self.service.service_stats())
                elif path == "/api/v1/events":
                    self._events(query)
                elif path == "/api/v1/jobs":
                    self._json(
                        200,
                        {"jobs": [job.to_dict() for job in self.service.queue.jobs()]},
                    )
                else:
                    match = _JOB_PATH.match(path)
                    if match and match.group(2) is None:
                        self._job_status(match.group(1))
                    elif match and match.group(2) == "/result":
                        self._job_result(match.group(1))
                    else:
                        self._error(404, f"no route {path}")
            except JobNotFound as exc:
                self._error(404, str(exc), error_type="JobNotFound")
            except ValueError as exc:
                self._error(400, str(exc) or repr(exc), error_type="ValueError")
            except Exception as exc:  # the server must outlive any request
                log_event(
                    logger, logging.ERROR, "request error",
                    error=repr(exc), request_id=rid,
                )
                self._error(500, repr(exc), error_type="InternalError")

    def do_POST(self) -> None:  # noqa: N802
        path, _, _query = self.path.partition("?")
        rid = self._assign_request_id()
        with obs.span(
            "http:POST", "http", {"path": path, "trace_id": rid},
            tid=current_tid(),
        ):
            try:
                if path == "/api/v1/jobs":
                    self._submit()
                    return
                match = _JOB_PATH.match(path)
                if match and match.group(2) == "/cancel":
                    self._cancel(match.group(1))
                    return
                self._error(404, f"no route {path}")
            except SafeModeActive as exc:
                # 503, not 429: the *service's* disk is the problem, and
                # the client should retry the same request after the hint.
                self._error(
                    503, str(exc), error_type="SafeModeActive",
                    headers={"Retry-After": str(int(exc.retry_after_s + 0.5) or 1)},
                )
            except AdmissionError as exc:
                self._error(
                    429, str(exc), error_type=type(exc).__name__,
                    headers={"Retry-After": str(int(exc.retry_after_s + 0.5) or 1)},
                )
            except JobNotFound as exc:
                # Before the 400 clause: JobNotFound is also a KeyError.
                self._error(404, str(exc), error_type="JobNotFound")
            except (ConfigError, ValueError, KeyError, TypeError) as exc:
                self._error(400, str(exc) or repr(exc), error_type=type(exc).__name__)
            except JobStateError as exc:
                self._error(409, str(exc), error_type="JobStateError")
            except Exception as exc:
                log_event(
                    logger, logging.ERROR, "request error",
                    error=repr(exc), request_id=rid,
                )
                self._error(500, repr(exc), error_type="InternalError")

    # -------------------------------------------------------------- handlers

    def _health(self) -> dict:
        started = self.service.started_at
        safe = self.service.safe_mode_status()
        return {
            "status": "degraded" if safe["active"] else "ok",
            "safe_mode": safe,
            "uptime_s": round(time.time() - started, 3) if started else 0.0,
            "version": __version__,
        }

    def _events(self, query: str) -> None:
        params = parse_qs(query)
        n = int(params["n"][0]) if "n" in params else None
        kind = params["kind"][0] if "kind" in params else None
        recorder = self.service.recorder
        self._json(200, {
            "events": recorder.events(n=n, kind=kind),
            "recorded_total": recorder.recorded,
            "capacity": recorder.capacity,
        })

    def _submit(self) -> None:
        body = self._read_body()
        config_payload = body.get("config")
        preset = body.get("preset")
        if (config_payload is None) == (preset is None):
            raise ValueError("submit exactly one of 'config' or 'preset'")
        if preset is not None:
            presets = preset_configs()
            if preset not in presets:
                raise ValueError(
                    f"unknown preset {preset!r} "
                    f"(choices: {', '.join(sorted(presets))})"
                )
            config_payload = config_to_dict(presets[preset])
        workload = body.get("workload")
        if isinstance(workload, list):
            # A multi-programmed mix: a tuple of workload refs in the
            # submit API, carried internally as the "+"-joined display ref.
            if not workload or not all(
                isinstance(m, str) and m and MIX_SEPARATOR not in m
                for m in workload
            ):
                raise ValueError(
                    "'workload' list must contain non-empty workload names"
                )
            workload = MIX_SEPARATOR.join(workload)
        if not isinstance(workload, str) or not workload:
            raise ValueError(
                "'workload' must be a non-empty string or list of names"
            )
        n_instrs = body.get("n_instrs")
        if not isinstance(n_instrs, int) or n_instrs <= 0:
            raise ValueError("'n_instrs' must be a positive integer")
        inject_fault = body.get("inject_fault")
        if inject_fault is not None and (
            not isinstance(inject_fault, str) or not inject_fault
        ):
            raise ValueError("'inject_fault' must be a non-empty string")
        job, deduped = self.service.submit_config(
            config_payload,
            workload,
            n_instrs,
            priority=body.get("priority", "normal"),
            submitter=str(body.get("submitter", "anonymous")),
            trace_id=self.request_id,
            inject_fault=inject_fault,
        )
        self._json(202, dict(job.to_dict(), deduped=deduped))

    def _job_status(self, job_id: str) -> None:
        self._json(200, self.service.queue.get(job_id).to_dict())

    def _job_result(self, job_id: str) -> None:
        job = self.service.queue.get(job_id)
        if job.state in ("pending", "leased"):
            self._json(202, {"state": job.state, "job_id": job_id})
            return
        if job.state != "done":
            self._error(
                410, f"job {job_id} is {job.state}", error_type="JobStateError",
            )
            return
        payload = self.service.result_payload(job)
        if payload is None:
            # Done per the journal but the checkpoint is gone (deleted or
            # quarantined): surface it rather than 500 on a KeyError.
            self._error(
                503, f"result for {job_id} is not in the store",
                error_type="CheckpointError",
            )
            return
        self._json(200, {
            "job_id": job_id,
            "degraded": job.degraded,
            "requested_n_instrs": job.requested_n_instrs,
            "cached": job.cached,
            "cache_provenance": job.cache_provenance,
            "result": payload,
        })

    def _cancel(self, job_id: str) -> None:
        job = self.service.queue.cancel(job_id)
        self._json(202, job.to_dict())


def make_server(
    service: CampaignService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Build the HTTP server bound to ``service`` (port 0 = OS-assigned)."""

    class _Handler(ServiceHandler):
        pass

    _Handler.service = service
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    return server


def serve_in_thread(server: ThreadingHTTPServer) -> threading.Thread:
    """Run ``server.serve_forever`` on a daemon thread (tests and the CLI)."""
    thread = threading.Thread(
        target=server.serve_forever, name="svc-http", daemon=True,
        kwargs={"poll_interval": 0.1},
    )
    thread.start()
    return thread
