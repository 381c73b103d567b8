"""The long-lived campaign service: executors, housekeeping, lifecycle.

:class:`CampaignService` glues the durable queue (:mod:`repro.service.queue`)
to the existing execution stack (:mod:`repro.runner`):

* **Executor threads** lease jobs, run them through a per-thread runner
  bound to one shared :class:`~repro.runner.store.ResultStore` (opened with
  ``resume=True``, so a job re-run after a crash is a checkpoint hit and
  its payload is byte-identical to the first run), then journal the
  outcome.  Two isolation modes:

  - ``thread`` (default): an in-process
    :class:`~repro.runner.runner.ExperimentRunner`; the simulator's
    per-instruction hook renews the lease and honours cancellation.
  - ``process``: a per-thread single-worker
    :class:`~repro.runner.fleet.FleetRunner`, buying crash/OOM containment
    and hard timeouts; worker-death evidence
    (``WorkerCrashError``/``WorkerOOMError``) feeds the queue's circuit
    breaker.  While an executor is blocked in the fleet, the housekeeping
    thread renews its lease — hang protection is the fleet's hard kill.

* A **housekeeping thread** expires stale leases, publishes queue gauges
  to the service registry and (in process mode) renews in-flight leases.

* **Graceful shutdown** (:meth:`stop`): executors stop leasing, the
  in-flight jobs finish or are released back to ``pending``, the journal
  is compacted and closed.  Ungraceful death needs no handling at all —
  that is the journal's job: on the next start, replay reclaims every
  leased job and the store serves everything already completed.

* **Disk-fault safe mode** — storage-fault evidence (ENOSPC/EIO/EDQUOT/
  EROFS, see :func:`repro.ioutil.is_storage_fault`) from any durable write
  flips the service into safe mode: submissions are refused with
  :class:`~repro.errors.SafeModeActive` (HTTP 503 + ``Retry-After``), the
  affected job's lease is recovered *without journaling* (the journal's
  disk is the suspect), and housekeeping probes the filesystem with a real
  atomic write until it heals, then exits safe mode with a durable journal
  record.  No acknowledged job is ever lost to safe mode: acks only ever
  happen after durable writes succeeded.

Exactly-once contract: a run's checkpoint (``store.put``) lands *before*
its ``done`` journal record.  A crash between the two re-runs the job, but
the re-run is a store hit returning the identical payload — so an
acknowledged job completes exactly once as observed by any client, and its
result bytes never depend on how many crashes it survived.

Observability (see OBSERVABILITY.md, "Operating the service"):

* **Metrics** — the service records into :attr:`CampaignService.registry`:
  the *global* obs registry when one is active, otherwise a private
  always-on :class:`~repro.obs.registry.MetricsRegistry`.  Service-side
  events are per-*job* (a handful per second at most), so they are exempt
  from the per-instruction zero-overhead contract — the global
  ``NULL_REGISTRY`` stays empty either way, which
  ``tests/test_obs_overhead.py`` asserts.  :meth:`telemetry_snapshot`
  feeds the daemon's ``GET /metrics`` Prometheus exposition.
* **SLO latency accounting** — per-job phase durations (queue-wait,
  lease-to-start, run, result-write) land in quantile-capable histograms
  named ``job.<phase>_seconds``; :meth:`service_stats` summarises them as
  p50/p95/p99 for ``/api/v1/stats``.  Run latency covers *successful*
  runs; failures are visible through ``error_rate`` instead.
* **Tracing** — when a global tracer is active, every job emits lifecycle
  spans: ``job:submit`` (instant) → ``job:queue-wait`` (a retroactive span
  covering submit→lease) → ``job:run`` → ``job:result-write`` →
  ``job:done`` (instant), all tagged with the job's ``trace_id`` so one
  request is followable HTTP → queue → worker in a single Perfetto view.
* **Flight recorder** — the queue records operational events into the
  shared ring; :meth:`dump_flight_recorder` writes it to
  ``<flightrec_dir>/flightrec-<ts>.jsonl`` on worker-crash evidence (and
  is the hook the CLI wires to ``SIGQUIT`` and daemon crash paths).
"""

from __future__ import annotations

import logging
import threading
import time
from pathlib import Path
from typing import Callable

from .. import __version__, obs
from ..errors import ReproError, RunFailure, SafeModeActive
from ..ioutil import atomic_write_text, dir_fsync_failures, is_storage_fault
from ..obs import (
    MetricsRegistry,
    NULL_FLIGHT_RECORDER,
    FlightRecorder,
    current_tid,
    get_logger,
    log_event,
)
from ..runner import (
    ExperimentRunner,
    FleetRunner,
    ResultStore,
    config_fingerprint,
)
from ..plugins.workloads import is_mix, mix_names, workload_fingerprint
from ..runner.faultinject import WORKER_KINDS, FaultInjector
from ..sim.serialization import config_from_dict, config_to_dict, result_to_dict
from .journal import Journal
from .queue import CRASH_ERROR_TYPES, DONE, PENDING, Job, JobQueue

logger = get_logger("service")

#: Retired instructions between lease-renewal/cancellation checks in the
#: in-process executor's instruction hook.
RENEW_CHECK_INTERVAL = 8192

#: Bucket upper bounds (seconds) for the per-job SLO phase histograms:
#: sub-millisecond result writes up to multi-minute runs.
SLO_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: The SLO phases and their registry histogram names.
SLO_PHASES: dict[str, str] = {
    "queue_wait": "job.queue_wait_seconds",
    "lease_to_start": "job.lease_to_start_seconds",
    "run": "job.run_seconds",
    "result_write": "job.result_write_seconds",
}


class _JobCancelled(ReproError):
    """Internal: a leased job's cancellation flag was honoured mid-run."""


class _ExecutorHook:
    """Per-instruction hook: renew the lease, honour cancellation."""

    def __init__(self, service: "CampaignService", job: Job, owner: str) -> None:
        self._service = service
        self._job_id = job.job_id
        self._owner = owner
        self._countdown = RENEW_CHECK_INTERVAL

    def __call__(self, _retired: int) -> None:
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = RENEW_CHECK_INTERVAL
        queue = self._service.queue
        job = queue.get(self._job_id)
        if job.cancel_requested:
            raise _JobCancelled(f"job {self._job_id} cancelled mid-run")
        queue.renew(self._job_id, self._owner)


class CampaignService:
    """The serving loop around a :class:`JobQueue` and a result store.

    Args:
        queue: the durable queue (already recovered via journal replay).
        store: shared result store; must be constructed with
            ``resume=True`` so post-crash re-runs are checkpoint hits.
        workers: executor threads.
        isolation: ``"thread"`` (in-process runs) or ``"process"``
            (per-job worker subprocesses via a single-worker fleet).
        timeout_s / retries / max_rss_mb: forwarded to each executor's
            runner (``max_rss_mb`` needs process isolation).
        poll_s: idle executor sleep between lease attempts.
        recorder: the flight recorder shared with the queue (the no-op
            one unless :func:`build_service` wired a real ring).
        flightrec_dir: where :meth:`dump_flight_recorder` writes dumps.
        cache: optional content-addressed result cache
            (:class:`repro.cache.ResultCache`).  Consulted at *submit*
            time: an exact hit completes the job immediately via the
            ``done-cached`` journal outcome (no lease, no simulation)
            after first copying the result into the store, so
            ``result_payload`` stays byte-identical to a real run.
    """

    def __init__(
        self,
        queue: JobQueue,
        store: ResultStore,
        *,
        workers: int = 1,
        isolation: str = "thread",
        timeout_s: float | None = None,
        retries: int = 0,
        max_rss_mb: float | None = None,
        poll_s: float = 0.1,
        safe_mode_probe_s: float = 5.0,
        runner_factory: Callable[[], ExperimentRunner] | None = None,
        recorder=None,
        flightrec_dir: str | Path | None = None,
        cache=None,
    ) -> None:
        if isolation not in ("thread", "process"):
            raise ValueError(f"unknown isolation {isolation!r}")
        if max_rss_mb is not None and isolation != "process":
            raise ValueError("max_rss_mb requires isolation='process'")
        self.queue = queue
        self.store = store
        self.workers = max(1, workers)
        self.isolation = isolation
        self.timeout_s = timeout_s
        self.retries = retries
        self.max_rss_mb = max_rss_mb
        self.poll_s = poll_s
        #: Minimum seconds between disk-recovery probes while in safe mode.
        self.safe_mode_probe_s = safe_mode_probe_s
        self.recorder = recorder if recorder is not None else NULL_FLIGHT_RECORDER
        self.flightrec_dir = Path(flightrec_dir) if flightrec_dir else None
        self.cache = cache
        self._runner_factory = runner_factory or self._default_runner
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._inflight: dict[str, str] = {}   # thread name -> job id
        self._inflight_lock = threading.Lock()
        self.started_at: float | None = None
        # Disk-fault safe mode: set on ENOSPC/EIO evidence from any durable
        # write, cleared by a successful housekeeping probe.  While set,
        # submissions are refused with SafeModeActive (HTTP 503).
        self._safe_mode_lock = threading.Lock()
        self._safe_mode_reason: str | None = None
        self._safe_mode_since: float | None = None
        self._safe_mode_last_probe: float | None = None
        self.safe_mode_entries = 0
        #: Pending queue-wait span anchors: job id -> submit ts (µs on the
        #: active tracer's timeline), consumed at lease time.
        self._marks: dict[str, float] = {}
        self._marks_lock = threading.Lock()
        #: The service's metrics home.  When global obs is enabled (e.g.
        #: ``serve --trace-out/--metrics-out``) the service *adopts* that
        #: registry and detaches it from the global slot: service-level
        #: accounting lands where the operator asked for it, while job
        #: runs execute uninstrumented — results and checkpoints stay
        #: byte-identical to a serial run no matter how the daemon itself
        #: is observed.  Otherwise a private always-on registry that only
        #: ``/metrics`` ever reads.
        active = obs.metrics()
        if active.enabled:
            self.registry: MetricsRegistry = active
            obs.set_registry(None)
        else:
            self.registry = MetricsRegistry()
        self._slo = {
            phase: self.registry.histogram(name, SLO_LATENCY_BUCKETS)
            for phase, name in SLO_PHASES.items()
        }
        self.registry.register_provider("service", self.queue.stats)
        if self.cache is not None:
            self.registry.register_provider("cache", self.cache.stats_dict)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Spawn the executor and housekeeping threads."""
        if self._threads:
            raise RuntimeError("service already started")
        self._stop.clear()
        self.started_at = time.time()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._executor_loop, name=f"svc-exec-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        keeper = threading.Thread(
            target=self._housekeeping_loop, name="svc-keeper", daemon=True
        )
        keeper.start()
        self._threads.append(keeper)
        log_event(
            logger, logging.INFO, "service started",
            workers=self.workers, isolation=self.isolation,
            queue_depth=self.queue.depth(),
        )

    def stop(self, *, timeout: float | None = None) -> None:
        """Graceful shutdown: drain executors, compact and close the journal.

        In-flight jobs finish (their results are checkpointed and
        journaled); nothing new is leased.  Safe to call more than once.
        """
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        self.queue.compact()
        self.queue.journal.close()
        log_event(
            logger, logging.INFO, "service stopped",
            **{k: v for k, v in self.queue.stats()["states"].items()},
        )

    def wait_idle(self, timeout: float | None = None, poll_s: float = 0.05) -> bool:
        """Block until no job is pending or leased (testing/drain helper)."""
        import time as _time

        deadline = None if timeout is None else _time.monotonic() + timeout
        while not self.queue.idle():
            if deadline is not None and _time.monotonic() > deadline:
                return False
            _time.sleep(poll_s)
        return True

    # ------------------------------------------------------------ admission

    def submit_config(
        self,
        config_payload: dict,
        workload: str,
        n_instrs: int,
        *,
        priority: int | str = "normal",
        submitter: str = "anonymous",
        trace_id: str = "",
        inject_fault: str | None = None,
    ) -> tuple[Job, bool]:
        """Validate and admit one submission (the HTTP layer's entry point).

        The configuration is round-tripped through the canonical serializer
        and eagerly validated, so a nonsense machine is rejected at the
        API boundary (:class:`~repro.errors.ConfigError`), never leased.
        ``trace_id`` is the request's correlation id; it is journaled with
        the job and tagged onto every downstream span and flight event.

        ``inject_fault`` (a :meth:`FaultInjector.from_spec` string) arms a
        deterministic fault for this job's runs — the chaos-testing hook.
        It is validated *here*, at admission: a malformed spec is a 400,
        and the process-level kinds (``worker-crash``/``worker-oom``/
        ``worker-hang``) are rejected outright under thread isolation,
        where they would take down the daemon itself instead of a
        disposable worker.
        """
        with self._safe_mode_lock:
            safe_reason = self._safe_mode_reason
        if safe_reason is not None:
            raise SafeModeActive(
                f"service is in disk-fault safe mode ({safe_reason}); "
                f"submissions are suspended until storage recovers",
                retry_after_s=max(1.0, self.safe_mode_probe_s),
                reason=safe_reason,
            )
        if inject_fault:
            injector = FaultInjector.from_spec(inject_fault)  # ValueError -> 400
            if injector.kind in WORKER_KINDS and self.isolation != "process":
                raise ValueError(
                    f"fault kind {injector.kind!r} kills the hosting process "
                    f"and is only admissible under process isolation; this "
                    f"daemon runs --isolation {self.isolation}"
                )
            if is_mix(workload):
                raise ValueError(
                    "fault injection is not supported for multi-programmed "
                    "mix jobs"
                )
        if is_mix(workload) and not mix_names(workload):
            raise ValueError(f"mix reference {workload!r} has no members")
        config = config_from_dict(config_payload)
        config.validate()
        job, deduped = self.queue.submit(
            config_to_dict(config),
            workload,
            int(n_instrs),
            fingerprint=config_fingerprint(config),
            config_name=config.name,
            priority=priority,
            submitter=submitter,
            trace_id=trace_id,
            inject_fault=inject_fault or None,
            workload_fingerprint=workload_fingerprint(workload),
        )
        tracer = obs.tracer()
        if tracer is not None:
            args = {
                "job_id": job.job_id, "trace_id": job.trace_id,
                "config": job.config_name, "workload": job.workload,
            }
            tracer.instant(
                "job:dedup" if deduped else "job:submit",
                "service", args, tid=current_tid(),
            )
            if not deduped:
                with self._marks_lock:
                    self._marks[job.job_id] = tracer.now_us()
        if not deduped and self.cache is not None and job.state == PENDING:
            # The queue installs a journal-round-tripped copy of the job;
            # completion mutates that copy, so return it, not the stale
            # pre-commit instance.
            job = self._complete_from_cache(job, config) or job
        return job, deduped

    def _complete_from_cache(self, job: Job, config) -> Job | None:
        """Try to complete a freshly admitted job straight from the cache.

        Exact hit: the result is first copied into the store (so
        ``result_payload`` serves it byte-identically, and the
        exactly-once contract keeps its checkpoint-before-journal order),
        then the job is journaled ``done-cached``.

        Any failure leaves the job pending: it simply runs for real.
        Storage-fault evidence flips safe mode like every other durable
        write, but never loses the job.
        """
        try:
            hit = self.cache.lookup(config, job.workload, job.n_instrs)
        except OSError as exc:
            log_event(
                logger, logging.WARNING, "cache lookup failed",
                job=job.job_id, error=repr(exc),
            )
            return None
        if hit is None:
            return None
        result = hit.result
        summary = {
            "ipc": result.ipc,
            "cycles": result.cycles,
            "instructions": result.instructions,
            "avg_load_latency": result.avg_load_latency,
            "degraded": job.degraded,
            "cached": True,
        }
        try:
            # Checkpoint before the done-cached journal record: a crash
            # between the two re-runs the job as a store hit, still
            # byte-identical (the exactly-once contract, cache edition).
            self.store.put(config, job.workload, job.n_instrs, result)
            return self.queue.complete_cached(
                job.job_id, summary=summary, provenance=dict(hit.provenance),
            )
        except OSError as exc:
            if is_storage_fault(exc):
                self.enter_safe_mode(f"{type(exc).__name__}: {exc}")
                return None
            log_event(
                logger, logging.WARNING, "cache completion failed",
                job=job.job_id, error=repr(exc),
            )
        except ReproError as exc:
            # The job moved under us (e.g. cancelled between submit and
            # here); it is no longer ours to complete.
            log_event(
                logger, logging.WARNING, "cache completion rejected",
                job=job.job_id, error=repr(exc),
            )
        return None

    def result_payload(self, job: Job) -> dict | None:
        """The stored :class:`RunResult` for a done job, serialized."""
        if job.state != DONE:
            return None
        config = config_from_dict(job.config)
        result = self.store.get(config, job.workload, job.n_instrs)
        return result_to_dict(result) if result is not None else None

    # ------------------------------------------------------------ executors

    def _default_runner(self) -> ExperimentRunner:
        if self.isolation == "process":
            return FleetRunner(
                self.store,
                jobs=1,
                timeout_s=self.timeout_s,
                retries=self.retries,
                max_rss_mb=self.max_rss_mb,
                cache=self.cache,
            )
        return ExperimentRunner(
            self.store, timeout_s=self.timeout_s, retries=self.retries,
            cache=self.cache,
        )

    def _executor_loop(self) -> None:
        owner = threading.current_thread().name
        runner = self._runner_factory()
        while not self._stop.is_set():
            job = self.queue.lease(owner)
            if job is None:
                self._stop.wait(self.poll_s)
                continue
            leased_pc = time.perf_counter()
            self._observe_lease(job)
            with self._inflight_lock:
                self._inflight[owner] = job.job_id
            try:
                self._run_job(runner, job, owner, leased_pc)
            finally:
                with self._inflight_lock:
                    self._inflight.pop(owner, None)

    def _observe_lease(self, job: Job) -> None:
        """Account the queue-wait phase and close its trace span."""
        now = self.queue.clock()
        if job.submitted_at:
            self._slo["queue_wait"].record(max(0.0, now - job.submitted_at))
        tracer = obs.tracer()
        if tracer is None:
            return
        with self._marks_lock:
            mark = self._marks.pop(job.job_id, None)
        args = {"job_id": job.job_id, "trace_id": job.trace_id}
        if mark is not None:
            end = tracer.now_us()
            tracer.complete(
                "job:queue-wait", mark, end - mark, "service", args,
                tid=current_tid(),
            )
        else:
            # No submit mark on this tracer's timeline (a job recovered
            # from the journal, or submitted before tracing started).
            tracer.instant("job:leased", "service", args, tid=current_tid())

    def _run_job(
        self,
        runner: ExperimentRunner,
        job: Job,
        owner: str,
        leased_pc: float | None = None,
    ) -> None:
        config = config_from_dict(job.config)
        if self.isolation == "thread":
            runner.instruction_hook = _ExecutorHook(self, job, owner)
        if isinstance(runner, FleetRunner):
            # Workers tag every span they ship back with the job identity,
            # so the merged trace reads end-to-end by trace_id.
            runner.trace_args = {
                "job_id": job.job_id, "trace_id": job.trace_id,
            }
        span_args = {
            "job_id": job.job_id, "trace_id": job.trace_id,
            "config": job.config_name, "workload": job.workload,
            "n_instrs": job.n_instrs,
        }
        restore_factory = None
        if job.inject_fault:
            # Per-job fault arming (validated at admission; journal replay
            # may still surface a spec this daemon's isolation refuses, so
            # re-check rather than crash).
            try:
                injector = FaultInjector.from_spec(job.inject_fault)
                if injector.kind in WORKER_KINDS and not isinstance(
                    runner, FleetRunner
                ):
                    raise ValueError(
                        f"fault kind {injector.kind!r} requires process "
                        f"isolation"
                    )
            except ValueError as exc:
                self.queue.fail(
                    job.job_id, owner,
                    error_type="ConfigError", message=str(exc), crash=False,
                )
                return
            if isinstance(runner, FleetRunner):
                runner.injectors = [injector]
            else:
                restore_factory = runner.simulator_factory
                runner.simulator_factory = injector.simulator_factory
        start_pc = time.perf_counter()
        if leased_pc is not None:
            self._slo["lease_to_start"].record(max(0.0, start_pc - leased_pc))
        try:
            with obs.span("job:run", "service", span_args, tid=current_tid()):
                result = runner.run(config, job.workload, job.n_instrs)
        except _JobCancelled:
            self.queue.fail(
                job.job_id, owner,
                error_type="Cancelled", message="cancelled mid-run",
                crash=False,
            )
            return
        except RunFailure:
            record = runner.failures[-1] if runner.failures else None
            error_type = record.error_type if record else "RunFailure"
            self.queue.fail(
                job.job_id, owner,
                error_type=error_type,
                message=record.message if record else "run failed",
            )
            if error_type in CRASH_ERROR_TYPES:
                self.dump_flight_recorder("worker-crash")
            return
        except Exception as exc:  # containment: an executor never dies
            if is_storage_fault(exc):
                # The checkpoint write (or the store beneath it) hit disk
                # trouble.  Failing the job would journal — onto the same
                # failing disk — so instead: safe mode, non-journaled lease
                # recovery, and the job re-runs after the disk heals.
                self._contain_storage_fault(job, owner, exc)
                return
            log_event(
                logger, logging.ERROR, "executor error",
                job=job.job_id, error=repr(exc),
            )
            self.queue.fail(
                job.job_id, owner,
                error_type=type(exc).__name__, message=str(exc), crash=False,
            )
            return
        finally:
            if job.inject_fault:
                if isinstance(runner, FleetRunner):
                    runner.injectors = []
                elif restore_factory is not None:
                    runner.simulator_factory = restore_factory
        self._slo["run"].record(time.perf_counter() - start_pc)
        summary = {
            "ipc": result.ipc,
            "cycles": result.cycles,
            "instructions": result.instructions,
            "avg_load_latency": result.avg_load_latency,
            "degraded": job.degraded,
        }
        write_pc = time.perf_counter()
        try:
            with obs.span(
                "job:result-write", "service",
                {"job_id": job.job_id, "trace_id": job.trace_id},
                tid=current_tid(),
            ):
                self.queue.complete(job.job_id, owner, summary)
        except ReproError as exc:
            # Lease lost mid-run (expired and reclaimed, or cancelled):
            # the result is checkpointed either way, so a re-run is a hit.
            log_event(
                logger, logging.WARNING, "completion rejected",
                job=job.job_id, error=repr(exc),
            )
            return
        except OSError as exc:
            # The `done` journal append hit the disk.  The checkpoint is
            # already on disk, so after recovery the re-run is a store hit
            # and the client still observes exactly-once.
            if is_storage_fault(exc):
                self._contain_storage_fault(job, owner, exc)
                return
            raise
        self._slo["result_write"].record(time.perf_counter() - write_pc)
        obs.instant(
            "job:done", "service",
            {"job_id": job.job_id, "trace_id": job.trace_id},
            tid=current_tid(),
        )

    # ---------------------------------------------------------- housekeeping

    def _housekeeping_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.queue.expire_leases()
                if self.isolation == "process":
                    self._renew_inflight()
                self._maybe_probe_safe_mode()
                self._publish_gauges()
            except Exception as exc:  # housekeeping must never die
                log_event(
                    logger, logging.ERROR, "housekeeping error",
                    error=repr(exc),
                )
            self._stop.wait(max(self.poll_s, 0.05))

    def _renew_inflight(self) -> None:
        """Keep leases alive while executors block inside the fleet.

        Hang protection is not lost: the fleet's hard deadline kills a
        stuck worker, the executor returns, and renewal stops with it.
        """
        with self._inflight_lock:
            inflight = dict(self._inflight)
        for owner, job_id in inflight.items():
            try:
                self.queue.renew(job_id, owner)
            except ReproError:
                pass  # job finished or was reclaimed between snapshots

    # ------------------------------------------------------------- safe mode

    @property
    def safe_mode(self) -> bool:
        """True while the service is refusing writes over disk faults."""
        return self._safe_mode_reason is not None

    def safe_mode_status(self) -> dict:
        with self._safe_mode_lock:
            return {
                "active": self._safe_mode_reason is not None,
                "reason": self._safe_mode_reason,
                "since": self._safe_mode_since,
                "entries": self.safe_mode_entries,
            }

    def enter_safe_mode(self, reason: str) -> None:
        """Stop admitting writes: the disk under the journal/store is failing.

        Idempotent.  The entry is journaled *best-effort* (the journal may
        be the very thing that failed), recorded in the flight ring, and
        surfaced through the ``service.safe_mode`` gauge, ``/healthz``, and
        every refused submission's 503.
        """
        with self._safe_mode_lock:
            if self._safe_mode_reason is not None:
                return
            self._safe_mode_reason = reason
            self._safe_mode_since = time.time()
            self._safe_mode_last_probe = None
            self.safe_mode_entries += 1
        self.recorder.record("safe_mode_enter", reason=reason)
        log_event(
            logger, logging.ERROR,
            "entering safe mode: storage fault evidence; writes suspended",
            reason=reason,
        )
        self.dump_flight_recorder("safe-mode")
        try:
            self.queue.journal.append({
                "op": "safe_mode", "active": True, "reason": reason,
                "at": time.time(),
            })
        except (OSError, ReproError):
            pass  # expected: the journal's disk is likely the failing one

    def exit_safe_mode(self) -> None:
        """Resume admitting writes (called after a probe write succeeded).

        The exit record *must* journal durably — if it cannot, the disk is
        still sick and the service stays in safe mode.
        """
        with self._safe_mode_lock:
            if self._safe_mode_reason is None:
                return
            reason = self._safe_mode_reason
            since = self._safe_mode_since
            self._safe_mode_reason = None
            self._safe_mode_since = None
        try:
            self.queue.journal.append({
                "op": "safe_mode", "active": False, "at": time.time(),
            })
        except (OSError, ReproError) as exc:
            with self._safe_mode_lock:  # still sick: stay in safe mode
                self._safe_mode_reason = reason
                self._safe_mode_since = since
            log_event(
                logger, logging.WARNING,
                "safe-mode exit aborted: journal append still failing",
                error=repr(exc),
            )
            return
        duration = round(time.time() - since, 3) if since else None
        self.recorder.record("safe_mode_exit", reason=reason, duration_s=duration)
        log_event(
            logger, logging.INFO, "exiting safe mode: storage recovered",
            reason=reason, duration_s=duration,
        )

    def _maybe_probe_safe_mode(self) -> None:
        """While in safe mode, periodically test the disk with a real write."""
        if not self.safe_mode:
            return
        now = time.monotonic()
        with self._safe_mode_lock:
            last = self._safe_mode_last_probe
            if last is not None and now - last < self.safe_mode_probe_s:
                return
            self._safe_mode_last_probe = now
        probe = self.queue.journal.path.with_suffix(".probe")
        try:
            # The probe is the same durable atomic-write path real state
            # uses, on the same filesystem — a pass means journal appends
            # should succeed again.
            atomic_write_text(probe, "safe-mode probe\n")
        except OSError as exc:
            log_event(
                logger, logging.DEBUG, "safe-mode probe failed",
                error=repr(exc),
            )
            return
        self.exit_safe_mode()

    def _contain_storage_fault(self, job: Job, owner: str, exc: BaseException) -> None:
        """Containment for a storage fault raised while running ``job``.

        Enters safe mode and gives the lease back *without journaling*
        (see :meth:`JobQueue.recover_lease`) — the job stays pending and
        re-runs once the disk recovers, and any checkpoint that did land
        makes that re-run a byte-identical store hit.
        """
        log_event(
            logger, logging.ERROR, "storage fault while running job",
            job=job.job_id, error=repr(exc),
        )
        self.enter_safe_mode(f"{type(exc).__name__}: {exc}")
        try:
            self.queue.recover_lease(job.job_id, owner)
        except ReproError:
            pass  # lease already expired/reclaimed; replay covers the rest

    # ------------------------------------------------------------- telemetry

    def service_stats(self) -> dict:
        """Queue stats plus daemon identity and SLO latency quantiles
        (the ``/api/v1/stats`` payload)."""
        stats = self.queue.stats()
        stats["uptime_s"] = (
            round(time.time() - self.started_at, 3)
            if self.started_at is not None else 0.0
        )
        stats["version"] = __version__
        stats["safe_mode"] = self.safe_mode_status()
        stats["dir_fsync_failures"] = dir_fsync_failures()
        stats["latency"] = {
            phase: {
                "count": hist.count,
                "mean_s": round(hist.mean, 6),
                # Empty histograms have no quantiles: null, never 0.0 (and
                # never NaN, which is not valid JSON).
                "p50_s": None if hist.count == 0 else round(hist.quantile(0.50), 6),
                "p95_s": None if hist.count == 0 else round(hist.quantile(0.95), 6),
                "p99_s": None if hist.count == 0 else round(hist.quantile(0.99), 6),
            }
            for phase, hist in self._slo.items()
        }
        if self.cache is not None:
            stats["cache"] = self.cache.stats_dict()
        return stats

    def telemetry_snapshot(self) -> dict:
        """The service registry's snapshot (the ``GET /metrics`` source)."""
        return self.registry.snapshot()

    def dump_flight_recorder(self, reason: str) -> Path | None:
        """Write the flight-recorder ring to ``flightrec_dir`` (post-mortem).

        A no-op (returning ``None``) when no real recorder or directory is
        wired; dump failures are logged, never raised — a broken disk must
        not take the incident path down with it.
        """
        if not self.recorder.enabled or self.flightrec_dir is None:
            return None
        try:
            path = self.recorder.dump_to_dir(self.flightrec_dir, reason=reason)
        except OSError as exc:
            log_event(
                logger, logging.ERROR, "flight-recorder dump failed",
                reason=reason, error=repr(exc),
            )
            return None
        log_event(
            logger, logging.WARNING, "flight recorder dumped",
            path=str(path), reason=reason, events=len(self.recorder),
        )
        return path

    def _publish_gauges(self) -> None:
        registry = self.registry
        stats = self.queue.stats()
        registry.gauge("service.queue.depth").set(stats["depth"])
        registry.gauge("service.queue.leased").set(stats["states"]["leased"])
        counters = stats["counters"]
        for name in (
            "completed", "done_cached", "failed", "cancelled",
            "shed_degraded", "rejected_full", "rejected_quota",
            "rejected_breaker", "leases_expired", "lease_expiry_failed",
        ):
            registry.gauge(f"service.{name}").set(counters[name])
        if self.cache is not None:
            cstats = self.cache.stats
            registry.gauge("cache.exact_hits").set(cstats.exact_hits)
            registry.gauge("cache.misses").set(cstats.misses)
            registry.gauge("cache.bytes").set(self.cache.bytes())
        registry.gauge("service.safe_mode").set(1 if self.safe_mode else 0)
        registry.gauge("service.safe_mode_entries").set(self.safe_mode_entries)
        registry.gauge("service.dir_fsync_failures").set(dir_fsync_failures())


def build_service(
    journal_path,
    checkpoint_dir,
    *,
    fsync: bool = True,
    queue_kwargs: dict | None = None,
    recorder: FlightRecorder | None = None,
    flightrec_dir: str | Path | None = None,
    **service_kwargs,
) -> CampaignService:
    """Convenience constructor: journal + recovered queue + resuming store.

    This is the one true recipe for standing the service up — the CLI and
    the tests both use it, so crash recovery is exercised the same way
    everywhere: replay the journal, reclaim dead leases, and open the
    store with ``resume=True`` so completed work is never re-simulated.

    One :class:`FlightRecorder` ring is created here (unless injected) and
    shared by the queue and the service, so queue-side events (admissions,
    lease churn) and service-side dumps see the same history; dumps land
    next to the journal unless ``flightrec_dir`` says otherwise.
    """
    journal = Journal(journal_path, fsync=fsync)
    if recorder is None:
        recorder = FlightRecorder()
    qkw = dict(queue_kwargs or {})
    qkw.setdefault("recorder", recorder)
    queue = JobQueue(journal, **qkw)
    store = ResultStore(checkpoint_dir, resume=True)
    if flightrec_dir is None:
        flightrec_dir = Path(journal_path).parent
    return CampaignService(
        queue, store,
        recorder=recorder, flightrec_dir=flightrec_dir,
        **service_kwargs,
    )
