"""``python -m repro.service`` — daemon and client command line.

Server::

    python -m repro.service serve STATE_DIR [--host H] [--port P]
        [--workers N] [--isolation thread|process] [--timeout S]
        [--retries N] [--max-rss-mb M]
        [--max-depth N] [--quota N] [--lease-s S] [--max-attempts N]
        [--shed-watermark F] [--shed-n-instrs N]
        [--breaker-threshold N] [--breaker-cooldown-s S]
        [--no-fsync] [observability flags]

``STATE_DIR`` holds everything the service owns: ``journal.wal`` (the
write-ahead journal), ``ckpt/`` (the result checkpoint store) and
``service.json`` (a ready file with ``{pid, host, port, url}``, written
atomically once the socket is bound — scripts wait on it instead of
parsing logs).  Restarting after *any* kind of death — graceful, crash,
``kill -9`` — is the same command again: the journal replays, dead leases
are reclaimed, completed results are served from the store.

SIGINT/SIGTERM shut down gracefully: in-flight jobs finish or are
released, the journal is compacted and fsync'd, the ready file is removed.
SIGQUIT is the diagnostics signal: the daemon dumps its flight-recorder
ring to ``STATE_DIR/flightrec-<ts>.jsonl`` and keeps serving; the same
dump fires automatically on worker-crash evidence and on an unhandled
daemon exception.

``serve --chaos SPEC`` (repeatable, testing only) arms a deterministic
storage fault plan beneath the daemon's own durable writes
(:mod:`repro.service.chaos`) — the CI chaos-smoke job serves this way,
kills the daemon, and proves recovery with ``fsck``.

Clients (plain stdlib ``urllib``, talking to a running daemon)::

    python -m repro.service submit --url URL (--preset NAME | --config PATH)
        --workload WL --n-instrs N [--priority P] [--submitter S] [--wait]
        [--inject-fault SPEC]
    python -m repro.service status --url URL JOB_ID
    python -m repro.service result --url URL JOB_ID
    python -m repro.service cancel --url URL JOB_ID
    python -m repro.service stats  --url URL
    python -m repro.service metrics --url URL
    python -m repro.service events --url URL [--n N] [--kind K]
    python -m repro.service fsck STATE_DIR [--repair] [--json]

``metrics`` prints the daemon's Prometheus text exposition verbatim (what
a scraper sees at ``GET /metrics``); ``events`` prints the flight-recorder
ring as JSON; ``fsck`` is the offline crash-consistency checker
(:mod:`repro.service.fsck`), also reachable as
``python -m repro.service.fsck``.

Every client command accepts ``--timeout S`` (per-request socket deadline,
default 30), and idempotent GETs additionally retry with exponential
backoff and full jitter (``--retries``, ``--backoff-s``) — so a daemon
mid-restart looks like latency, not an error.  A service that stays
unreachable is reported as a one-line message, never a traceback.

Exit codes: 0 success; 1 request/served error; 2 usage; 4 a ``--wait``
ended on a job that failed or was cancelled; 5 the service is unreachable
(connection refused/timed out after retries).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from .. import obs
from ..cache import add_cache_args, cache_from_args
from ..ioutil import atomic_write_json, set_io_backend
from .chaos import FAULT_KINDS, ChaosFS
from .daemon import build_service
from .http import make_server, serve_in_thread

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_JOB_FAILED = 4
EXIT_UNREACHABLE = 5

READY_FILE = "service.json"

#: Client-side request defaults (overridable per command).
DEFAULT_TIMEOUT_S = 30.0
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF_S = 0.5


class ServiceUnreachable(Exception):
    """The daemon could not be reached (refused/timed out after retries)."""

    def __init__(self, url: str, reason) -> None:
        super().__init__(
            f"cannot reach service at {url}: {reason} "
            f"(is the daemon running?)"
        )
        self.url = url
        self.reason = reason


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.service",
        description="Durable campaign service: daemon and HTTP client",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the campaign daemon")
    serve.add_argument("state_dir", help="journal + checkpoint + ready-file dir")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0 = OS-assigned; see ready file)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="executor threads (default 1)")
    serve.add_argument("--isolation", choices=("thread", "process"),
                       default="thread",
                       help="run jobs in-process or in per-job worker "
                            "subprocesses (crash containment)")
    serve.add_argument("--timeout", type=float, metavar="S",
                       help="per-run wall-clock deadline")
    serve.add_argument("--retries", type=int, default=0, metavar="N",
                       help="runner-level retries per attempt (the queue "
                            "additionally re-leases up to --max-attempts)")
    serve.add_argument("--max-rss-mb", type=float, metavar="M",
                       help="per-worker RSS kill guard (process isolation)")
    serve.add_argument("--max-depth", type=int, default=256, metavar="N",
                       help="bound on pending+leased jobs (default 256)")
    serve.add_argument("--quota", type=int, default=64, metavar="N",
                       help="per-submitter active-job quota (default 64)")
    serve.add_argument("--lease-s", type=float, default=120.0, metavar="S",
                       help="job lease duration (default 120)")
    serve.add_argument("--max-attempts", type=int, default=3, metavar="N",
                       help="lease grants before a job fails terminally")
    serve.add_argument("--shed-watermark", type=float, default=0.75,
                       metavar="F",
                       help="active/max-depth fraction above which "
                            "low-priority jobs degrade to quick estimates")
    serve.add_argument("--shed-n-instrs", type=int, default=24_000,
                       metavar="N", help="quick-mode length shed jobs run at")
    serve.add_argument("--breaker-threshold", type=int, default=3, metavar="N",
                       help="worker crashes that quarantine a config")
    serve.add_argument("--breaker-cooldown-s", type=float, default=300.0,
                       metavar="S", help="quarantine cooldown before a probe")
    serve.add_argument("--no-fsync", action="store_true",
                       help="skip per-append journal fsync (testing only: "
                            "trades power-loss durability for speed)")
    serve.add_argument("--chaos", action="append", default=[], metavar="SPEC",
                       help="arm a deterministic storage fault beneath the "
                            "daemon's durable writes (testing only; "
                            "repeatable): kind[:path=SUBSTR][:after_ops=N]"
                            "[:times=N], kinds: " + ", ".join(FAULT_KINDS))
    add_cache_args(serve)
    obs.add_observability_args(serve)

    def client(name: str, help_: str, job_arg: bool = True):
        cmd = sub.add_parser(name, help=help_)
        cmd.add_argument("--url", required=True,
                         help="service base URL, e.g. http://127.0.0.1:8642")
        cmd.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S,
                         metavar="S",
                         help=f"per-request socket deadline "
                              f"(default {DEFAULT_TIMEOUT_S:g})")
        cmd.add_argument("--retries", type=int, default=DEFAULT_RETRIES,
                         metavar="N",
                         help=f"connection retries for idempotent GETs "
                              f"(default {DEFAULT_RETRIES})")
        cmd.add_argument("--backoff-s", type=float, default=DEFAULT_BACKOFF_S,
                         metavar="S",
                         help=f"retry backoff base, doubled per attempt with "
                              f"full jitter (default {DEFAULT_BACKOFF_S:g})")
        if job_arg:
            cmd.add_argument("job_id")
        return cmd

    submit = client("submit", "submit one job", job_arg=False)
    group = submit.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="server-side config name")
    group.add_argument("--config", metavar="PATH",
                       help="JSON file with a serialized SimConfig")
    submit.add_argument("--workload", required=True)
    submit.add_argument("--n-instrs", type=int, required=True)
    submit.add_argument("--priority", default="normal",
                        choices=("low", "normal", "high"))
    submit.add_argument("--submitter", default="cli")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job reaches a terminal state")
    submit.add_argument("--poll-s", type=float, default=0.5)
    submit.add_argument("--inject-fault", metavar="SPEC",
                        help="arm a deterministic fault for this job's runs "
                             "(kind[:at=N][:times=N]; worker-* kinds need a "
                             "process-isolation daemon)")

    client("status", "fetch one job's state-machine row")
    client("result", "fetch a done job's full RunResult payload")
    client("cancel", "cancel a pending (or flag a leased) job")
    client("stats", "queue statistics and journal replay stats", job_arg=False)
    client("metrics", "print the daemon's Prometheus text exposition",
           job_arg=False)
    events = client("events", "print the flight-recorder event ring",
                    job_arg=False)
    events.add_argument("--n", type=int, metavar="N",
                        help="only the most recent N events")
    events.add_argument("--kind", metavar="K",
                        help="only events of one kind (e.g. lease_expired)")
    wait = client("wait", "block until a job is terminal")
    wait.add_argument("--poll-s", type=float, default=0.5)

    fsck = sub.add_parser(
        "fsck",
        help="offline crash-consistency check of a service state dir",
    )
    fsck.add_argument("state_dir")
    fsck.add_argument("--repair", action="store_true",
                      help="quarantine and rebuild (refused while a daemon "
                           "is live)")
    fsck.add_argument("--json", action="store_true", dest="as_json",
                      help="machine-readable report")
    return parser


# ----------------------------------------------------------------- daemon


def make_sigquit_handler(service):
    """The SIGQUIT action: dump the flight recorder, keep serving.

    Factored out so tests can exercise the dump path without delivering a
    real signal.  The handler never raises — a diagnostics request must
    not become the incident.
    """

    def _on_sigquit(_signum, _frame):
        try:
            path = service.dump_flight_recorder("sigquit")
        except Exception as exc:  # pragma: no cover - defensive
            print(f"flight-recorder dump failed: {exc!r}", file=sys.stderr)
            return
        if path is not None:
            print(f"flight recorder dumped to {path}", file=sys.stderr)

    return _on_sigquit


def _serve(args: argparse.Namespace) -> int:
    state_dir = Path(args.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    if args.chaos:
        # Process-lifetime install: the shim dies with the daemon, and a
        # chaos daemon exists to be killed and recovered from anyway.
        chaos = ChaosFS(args.chaos, root=state_dir)
        set_io_backend(chaos)
        print(
            f"storage chaos armed: {len(chaos.rules)} fault rule(s)",
            file=sys.stderr,
        )
    with obs.observability_session(args):
        service = build_service(
            state_dir / "journal.wal",
            state_dir / "ckpt",
            fsync=not args.no_fsync,
            queue_kwargs=dict(
                max_depth=args.max_depth,
                quota=args.quota,
                lease_s=args.lease_s,
                max_attempts=args.max_attempts,
                shed_watermark=args.shed_watermark,
                shed_n_instrs=args.shed_n_instrs,
                breaker_threshold=args.breaker_threshold,
                breaker_cooldown_s=args.breaker_cooldown_s,
            ),
            workers=args.workers,
            isolation=args.isolation,
            timeout_s=args.timeout,
            retries=args.retries,
            max_rss_mb=args.max_rss_mb,
            cache=cache_from_args(args),
        )
        server = make_server(service, args.host, args.port)
        host, port = server.server_address[:2]
        ready_path = state_dir / READY_FILE
        atomic_write_json(ready_path, {
            "pid": os.getpid(),
            "host": host,
            "port": port,
            "url": f"http://{host}:{port}",
        })
        stopping = []

        def _on_signal(signum, _frame):
            stopping.append(signum)
            # A second signal while draining kills us the hard way — the
            # journal makes that safe too.
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)

        signal.signal(signal.SIGINT, _on_signal)
        signal.signal(signal.SIGTERM, _on_signal)
        if hasattr(signal, "SIGQUIT"):
            signal.signal(signal.SIGQUIT, make_sigquit_handler(service))
        service.start()
        replay = service.queue.replay_stats
        print(
            f"service ready at http://{host}:{port} "
            f"(journal: {replay.records} records replayed"
            + (f", {replay.torn_bytes} torn bytes truncated"
               if replay.torn_bytes else "")
            + f"; queue depth {service.queue.depth()})",
            file=sys.stderr,
        )
        http_thread = serve_in_thread(server)
        try:
            while not stopping:
                time.sleep(0.1)
        except BaseException:
            # An unhandled daemon exception is exactly what the flight
            # recorder exists for: dump the last seconds, then die loudly.
            service.dump_flight_recorder("daemon-exception")
            raise
        finally:
            print("shutting down: draining in-flight jobs", file=sys.stderr)
            server.shutdown()
            http_thread.join(timeout=5.0)
            server.server_close()
            service.stop()
            try:
                ready_path.unlink()
            except OSError:
                pass
        return EXIT_OK


# ----------------------------------------------------------------- client


def _request(
    url: str,
    *,
    method: str = "GET",
    payload: dict | None = None,
    timeout: float = DEFAULT_TIMEOUT_S,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
    rng: random.Random | None = None,
    sleep=time.sleep,
):
    """One JSON request; connection failures retry idempotent GETs only.

    Retries use exponential backoff with *full jitter*
    (``backoff_s * 2**attempt * random()``) so a fleet of clients hammering
    a restarting daemon spreads out instead of synchronising.  An HTTP
    error status is a *served* response — returned, never retried.  A
    still-unreachable service raises :class:`ServiceUnreachable`.
    """
    data = json.dumps(payload).encode() if payload is not None else None
    attempts = (retries + 1) if method == "GET" else 1
    rand = rng.random if rng is not None else random.random
    last: Exception | None = None
    for attempt in range(attempts):
        request = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, json.loads(response.read() or b"{}")
        except urllib.error.HTTPError as exc:
            body = exc.read()
            try:
                return exc.code, json.loads(body or b"{}")
            except json.JSONDecodeError:
                return exc.code, {"error": body.decode(errors="replace")}
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            last = exc
            if attempt + 1 < attempts:
                sleep(backoff_s * (2 ** attempt) * rand())
    reason = getattr(last, "reason", None) or last
    raise ServiceUnreachable(url, reason)


def _request_text(
    url: str,
    *,
    timeout: float = DEFAULT_TIMEOUT_S,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
    sleep=time.sleep,
) -> tuple[int, str]:
    """GET a non-JSON endpoint (the Prometheus exposition) verbatim."""
    last: Exception | None = None
    for attempt in range(retries + 1):
        try:
            request = urllib.request.Request(url)
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, response.read().decode()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode(errors="replace")
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            last = exc
            if attempt < retries:
                sleep(backoff_s * (2 ** attempt) * random.random())
    reason = getattr(last, "reason", None) or last
    raise ServiceUnreachable(url, reason)


def _print(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _request_opts(args: argparse.Namespace) -> dict:
    return {
        "timeout": args.timeout,
        "retries": args.retries,
        "backoff_s": args.backoff_s,
    }


def _wait_terminal(base: str, job_id: str, poll_s: float, opts: dict) -> int:
    while True:
        status, payload = _request(f"{base}/api/v1/jobs/{job_id}", **opts)
        if status != 200:
            _print(payload)
            return EXIT_ERROR
        if payload["state"] in ("done", "failed", "cancelled"):
            _print(payload)
            return EXIT_OK if payload["state"] == "done" else EXIT_JOB_FAILED
        time.sleep(poll_s)


def _client(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    opts = _request_opts(args)
    if args.command == "submit":
        body: dict = {
            "workload": args.workload,
            "n_instrs": args.n_instrs,
            "priority": args.priority,
            "submitter": args.submitter,
        }
        if args.preset:
            body["preset"] = args.preset
        else:
            body["config"] = json.loads(Path(args.config).read_text())
        if args.inject_fault:
            body["inject_fault"] = args.inject_fault
        status, payload = _request(
            f"{base}/api/v1/jobs", method="POST", payload=body, **opts
        )
        if status != 202:
            _print(payload)
            return EXIT_ERROR
        if args.wait:
            # One JSON document on stdout either way: the ack goes to
            # stderr, the terminal row to stdout.
            print(json.dumps(payload), file=sys.stderr)
            return _wait_terminal(base, payload["job_id"], args.poll_s, opts)
        _print(payload)
        return EXIT_OK
    if args.command == "status":
        status, payload = _request(f"{base}/api/v1/jobs/{args.job_id}", **opts)
    elif args.command == "result":
        status, payload = _request(
            f"{base}/api/v1/jobs/{args.job_id}/result", **opts
        )
    elif args.command == "cancel":
        status, payload = _request(
            f"{base}/api/v1/jobs/{args.job_id}/cancel", method="POST", **opts
        )
    elif args.command == "stats":
        status, payload = _request(f"{base}/api/v1/stats", **opts)
    elif args.command == "metrics":
        status, text = _request_text(f"{base}/metrics", **opts)
        sys.stdout.write(text)
        return EXIT_OK if status == 200 else EXIT_ERROR
    elif args.command == "events":
        params = []
        if args.n is not None:
            params.append(f"n={args.n}")
        if args.kind:
            params.append(f"kind={args.kind}")
        suffix = "?" + "&".join(params) if params else ""
        status, payload = _request(f"{base}/api/v1/events{suffix}", **opts)
    elif args.command == "wait":
        return _wait_terminal(base, args.job_id, args.poll_s, opts)
    else:  # pragma: no cover - argparse guards this
        return EXIT_USAGE
    _print(payload)
    return EXIT_OK if 200 <= status < 300 else EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    if args.command == "fsck":
        from .fsck import main as fsck_main

        fsck_argv = [args.state_dir]
        if args.repair:
            fsck_argv.append("--repair")
        if args.as_json:
            fsck_argv.append("--json")
        return fsck_main(fsck_argv)
    try:
        return _client(args)
    except ServiceUnreachable as exc:
        # One line, a distinct exit code, no traceback: "the daemon is not
        # up" is an operational state, not a client crash.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE


if __name__ == "__main__":
    sys.exit(main())
