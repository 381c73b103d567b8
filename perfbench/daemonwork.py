"""The ``daemon-slice`` workload: one closed-loop client against the daemon.

Each cycle starts a fresh daemon (``python -m repro.service serve``, one
executor thread, fresh state dir, fresh ``--cache-dir``) and submits the 48
fig10 quick pairs by preset, one at a time, each only after the previous
result was fetched: the **cold pass** simulates, checkpoints, fills the
cache and journals every job.  A second fresh daemon sharing only the cache
dir then takes the same 48 submissions, each an exact cache hit at
admission: the **warm pass**.

The client is this process, with one keep-alive HTTP connection.  Every
served payload is checked against the committed digests, and each warm
payload must be byte-equal to its cold one.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import common

#: Client poll interval while a job is pending.  Short against a job's
#: ~0.15 s, long enough not to steal the daemon's interpreter lock.
POLL_S = 0.01

#: Bound on any one wait for the daemon (start, a job, shutdown).
WAIT_S = 60.0

#: The daemon runs pinned to one CPU.  The two CPUs of a small VM drift in
#: speed independently, so a calibration means something for the daemon
#: only when taken on the daemon's CPU (see ``run_cycle``).
DAEMON_CPU = max(os.sched_getaffinity(0))


class DaemonError(RuntimeError):
    pass


class Daemon:
    """One daemon process on a fresh state dir; optionally traced.

    It is spawned from this process while pinned to :data:`DAEMON_CPU`, so
    it inherits that CPU, and its spawn-to-ready time is bracketed by
    calibrations on the same CPU (``setup_s`` raw, ``setup_norm_s``).
    """

    def __init__(self, workdir: Path, cache_dir: Path, trace_out: Path | None = None):
        self.state = Path(tempfile.mkdtemp(prefix="state-", dir=workdir))
        self.log_path = self.state.with_suffix(".log")
        serve = ["serve", str(self.state), "--workers", "1",
                 "--cache-dir", str(cache_dir)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.service", *serve]
        else:
            launcher = str(common.BENCH_DIR / "launcher.py")
            cmd = [sys.executable, launcher, "--out", str(trace_out), "--", *serve]
        self._log = open(self.log_path, "w")
        ready = self.state / "service.json"
        with on_cpu(DAEMON_CPU):
            before = common.calibrate()
            t_spawn = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, env=common.child_env(), cwd=common.ROOT,
                stdout=self._log, stderr=subprocess.STDOUT,
            )
            while not ready.exists():
                if self.proc.poll() is not None or time.perf_counter() > t_spawn + WAIT_S:
                    self.stop()
                    raise DaemonError(f"daemon did not start:\n{self.log_tail()}")
                time.sleep(0.002)
            self.setup_s = time.perf_counter() - t_spawn
            self.setup_norm_s = common.normalise(self.setup_s, before, common.calibrate())
        info = json.loads(ready.read_text())
        self.host, self.port = info["host"], info["port"]

    def log_tail(self) -> str:
        self._log.flush()
        return "".join(self.log_path.read_text().splitlines(True)[-20:])

    def stop(self) -> int:
        """Graceful shutdown (SIGINT); waits until the process has ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=WAIT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


class Client:
    """Closed-loop client: one request at a time, one connection per request.

    That is how the repository's own client (``python -m repro.service
    submit --wait``) talks to the daemon.  On a kept-alive connection each
    response of the daemon waits ~40 ms (headers and body go out in two
    writes; Nagle's algorithm holds the second until the client's delayed
    ACK), which would quantise every latency into 40 ms steps.
    """

    def __init__(self, daemon: Daemon, collector=None) -> None:
        self.address = (daemon.host, daemon.port)
        self.collector = collector

    def request(self, method: str, path: str, body: dict | None = None, span: str = ""):
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Connection": "close"}
        if data:
            headers["Content-Type"] = "application/json"
        start_us = self.collector.now_us() if self.collector else 0.0
        t0 = time.perf_counter()
        conn = http.client.HTTPConnection(*self.address, timeout=WAIT_S)
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            payload = json.loads(response.read() or b"null")
        finally:
            conn.close()
        dur = time.perf_counter() - t0
        if self.collector is not None and span:
            self.collector.complete(span, start_us, dur * 1e6, cat="client")
        return response.status, payload, dur

    def run_job(self, preset: str, workload: str, n: int) -> dict:
        """Submit one job and wait for its result; a dict describing it."""
        t0 = time.perf_counter()
        status, row, submit_s = self.request("POST", "/api/v1/jobs", {
            "preset": preset, "workload": workload, "n_instrs": n,
            "submitter": "bench",
        }, span="client.submit")
        if status != 202:
            return {"ok": False, "error": f"submit refused: {status} {row}"}
        job_id = row["job_id"]
        deadline = t0 + WAIT_S
        while True:
            status, body, result_s = self.request(
                "GET", f"/api/v1/jobs/{job_id}/result", span="client.result",
            )
            if status == 200:
                break
            if status != 202 or time.perf_counter() > deadline:
                return {"ok": False, "job_id": job_id,
                        "error": f"job ended {status} {body}"}
            time.sleep(POLL_S)
        return {
            "ok": True,
            "job_id": job_id,
            "latency_s": time.perf_counter() - t0,
            "submit_s": submit_s,
            "result_s": result_s,
            "cached_at_submit": bool(row.get("cached")),
            "digest": common.payload_digest(body["result"]),
            "payload": json.dumps(body["result"], sort_keys=True),
            "instructions": body["result"]["instructions"],
            "cycles": body["result"]["cycles"],
        }

    def stats(self) -> dict:
        return self.request("GET", "/api/v1/stats")[1]


def run_pass(daemon: Daemon, jobs, n: int, collector=None) -> dict:
    """Submit ``jobs`` in order, closed loop; the daemon stays up."""
    client = Client(daemon, collector)
    start_us = collector.now_us() if collector else 0.0
    t0 = time.perf_counter()
    results = [client.run_job(preset, wl, n) for preset, wl in jobs]
    wall_s = time.perf_counter() - t0
    end_us = collector.now_us() if collector else 0.0
    stats = client.stats()
    return {
        "results": results,
        "wall_s": wall_s,
        "window_us": (start_us, end_us),
        "stats": stats,
        "peak_rss_mb": common.peak_rss_mb(daemon.proc.pid),
    }


def run_cycle(workdir: Path, jobs, n: int, traced: bool = False, collector=None) -> dict:
    """A cold pass then a warm pass, each on its own fresh daemon.

    The warm pass is bracketed by calibrations taken on the daemon's CPU:
    its jobs are CPU and I/O work with no fixed waits.  The client waits on
    each response, so sharing the daemon's CPU for the pass costs it
    nothing.  Cold jobs are dominated by fixed waits (the executor's idle
    poll) and are not calibrated.
    """
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
    cycle: dict = {"jobs": jobs, "setup": []}
    for name in ("cold", "warm"):
        trace_out = workdir / f"{name}-layers.json" if traced else None
        daemon = Daemon(workdir, cache_dir, trace_out)
        cycle["setup"].append((daemon.setup_norm_s, daemon.setup_s))
        try:
            if name == "warm":
                with on_cpu(DAEMON_CPU):
                    before = common.calibrate()
                    cycle[name] = run_pass(daemon, jobs, n, collector)
                    cycle[name]["calib"] = (before, common.calibrate())
            else:
                cycle[name] = run_pass(daemon, jobs, n, collector)
        finally:
            rc = daemon.stop()
        if rc != 0:
            raise DaemonError(f"daemon exited {rc}:\n{daemon.log_tail()}")
        if traced:
            cycle[name]["layers"] = json.loads(trace_out.read_text())
    return cycle


@contextlib.contextmanager
def on_cpu(cpu: int):
    """Run this process on ``cpu`` for the block."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def setup_probe(workdir: Path) -> tuple[float, float]:
    """``(normalised, raw)`` spawn-to-ready of one daemon on fresh dirs."""
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
    daemon = Daemon(workdir, cache_dir)
    daemon.stop()
    return daemon.setup_norm_s, daemon.setup_s


def check_cycle(cycle: dict, golden: dict | None, failures: list) -> int:
    """Count failed jobs: refused, failed, or served a wrong payload."""
    failed = 0
    cold = cycle["cold"]["results"]
    warm = cycle["warm"]["results"]
    for c, w, (preset, wl) in zip(cold, warm, cycle["jobs"]):
        key = common.pair_key(preset, wl)
        for name, job in (("cold", c), ("warm", w)):
            if not job["ok"]:
                failed += 1
                failures.append(f"{name} {key}: {job['error']}")
            elif golden is not None and job["digest"] != golden[key]:
                failed += 1
                failures.append(f"{name} {key}: payload differs from golden")
        if c["ok"] and w["ok"] and c["payload"] != w["payload"]:
            failed += 1
            failures.append(f"warm {key}: payload differs from cold pass")
    return failed


def fresh_workdir() -> Path:
    common.WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="daemon-", dir=common.WORK))


def remove(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
