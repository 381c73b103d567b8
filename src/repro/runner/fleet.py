"""Process-isolated parallel campaign executor: the fleet.

:class:`FleetRunner` is an :class:`~repro.runner.runner.ExperimentRunner`
whose ``run``/``sweep`` dispatch ``(config, workload, n_instrs)`` jobs to a
pool of isolated worker subprocesses (:mod:`repro.runner.worker`).  It keeps
the serial runner's whole contract — store hits, checkpoints, failure
records, stats — and adds the guarantees only process isolation can give:

* **Hard deadlines.** The cooperative per-instruction deadline still runs
  *inside* each worker (clean :class:`~repro.errors.RunTimeoutError`s for
  merely-slow runs), but the parent also enforces a hard wall-clock kill —
  ``timeout_s`` plus slack — that stops hangs the cooperative check cannot
  (a stuck native call, a hook that never returns).
* **Crash containment.** A worker that exits nonzero, is signalled, or is
  OOM-killed becomes a :class:`~repro.runner.runner.FailureRecord` (error
  type :class:`~repro.errors.WorkerCrashError`) and a replacement worker is
  spawned; the campaign keeps going.
* **Watchdog.** The parent polls worker liveness every dispatch-loop tick
  using heartbeats and ``/proc``; with ``max_rss_mb`` set it kills workers
  whose resident set exceeds the guard
  (:class:`~repro.errors.WorkerOOMError`) before the kernel's OOM killer
  picks a victim for us.
* **Graceful shutdown.** SIGINT/SIGTERM kill the workers, keep every
  already-completed result (each was flushed to the
  :class:`~repro.runner.store.ResultStore` the moment it arrived) and write
  a resume manifest, so ``--resume`` picks up exactly where the campaign
  stopped.
* **Determinism.** Results are returned in submission order and
  checkpointed by the parent through the same store layer as the serial
  path, so a parallel campaign's result payloads are byte-identical to a
  serial one's.

Workers are spawned (not forked): each is a fresh interpreter, so a
campaign inherits no parent state beyond the job payloads — the same
property that makes crashes containable makes results reproducible.
"""

from __future__ import annotations

import logging
import os
import queue as queue_mod
import signal
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import multiprocessing as mp

from .. import obs
from ..errors import (
    RunFailure,
    RunTimeoutError,
    WorkerCrashError,
    WorkerOOMError,
)
from ..ioutil import atomic_write_json
from ..obs import get_logger, log_event
from ..plugins.workloads import workload_fingerprint
from ..sim.config import SimConfig
from ..sim.metrics import RunResult
from ..sim.serialization import config_to_dict, result_from_dict
from .faultinject import FaultInjector
from .runner import ExperimentRunner, FailureRecord
from .store import ResultStore
from .worker import HEARTBEAT_INTERVAL_S, worker_main

#: Resume-manifest schema version and file name (under the checkpoint dir).
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: Seconds the dispatch loop blocks on the result queue per tick; bounds
#: watchdog latency.
POLL_INTERVAL_S = 0.05

#: Seconds to wait for a dead worker's final message before declaring the
#: job crashed (a "done" written just before exit may still be in flight).
DEAD_WORKER_GRACE_S = 1.0

logger = get_logger("runner.fleet")


def hard_deadline_s(timeout_s: float | None) -> float | None:
    """The parent's kill deadline: cooperative timeout plus slack.

    The slack gives the in-worker cooperative deadline first shot at a
    clean :class:`RunTimeoutError`; the hard kill is the backstop for runs
    that can no longer execute Python (hangs, stuck syscalls).
    """
    if timeout_s is None:
        return None
    return timeout_s + max(1.0, 0.25 * timeout_s)


def proc_rss_mb(pid: int) -> float | None:
    """Current RSS of ``pid`` in MiB via ``/proc`` (``None`` off Linux)."""
    try:
        with open(f"/proc/{pid}/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)
    except (OSError, ValueError, IndexError):
        return None


@dataclass
class _Job:
    """One dispatched unit: the position in the caller's submission order."""

    index: int
    config: SimConfig
    workload: str
    n_instrs: int
    fault: dict | None = None


@dataclass
class _Worker:
    """Parent-side view of one worker process."""

    worker_id: int
    proc: object                 # multiprocessing Process
    job_q: object                # its private job queue
    job: _Job | None = None
    started: float | None = None     # monotonic dispatch time of `job`
    last_beat: float | None = None
    beat_rss_mb: float | None = None
    dead_since: float | None = None  # noticed dead; draining grace window


@dataclass
class FleetStats:
    """Process-level counters (the run-level ones live in ``RunnerStats``)."""

    workers_spawned: int = 0
    workers_killed: int = 0      #: killed by the watchdog (deadline/RSS)
    workers_crashed: int = 0     #: died on their own (exit/signal/OOM)
    hard_timeouts: int = 0
    rss_kills: int = 0
    jobs_dispatched: int = 0


class _Interrupted(BaseException):
    """Internal: SIGTERM converted to an exception in the dispatch loop."""


class FleetRunner(ExperimentRunner):
    """Parallel, process-isolated drop-in for :class:`ExperimentRunner`.

    Args:
        store: shared result store; the *parent* performs every
            ``store.put`` (and therefore every checkpoint write), so a
            killed worker can never leave a torn checkpoint.
        jobs: worker processes; ``0`` means ``os.cpu_count()``.
        timeout_s: cooperative per-run deadline, enforced inside workers;
            the parent hard-kills at :func:`hard_deadline_s` of it.
        retries: in-worker retry budget for transient failures.
        max_rss_mb: optional per-worker RSS guard; exceeding it is a
            watchdog kill recorded as :class:`WorkerOOMError`.
        fault_specs: ``--inject-fault`` spec strings (or prebuilt
            :class:`FaultInjector`s).  The *parent* arms them — matching
            and the ``times`` budget stay campaign-global even though the
            sabotage executes inside whichever worker draws the job.
        heartbeat_s: worker heartbeat period.
        mp_context: multiprocessing start method (default ``spawn``).
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        *,
        jobs: int = 0,
        timeout_s: float | None = None,
        retries: int = 0,
        backoff_s: float = 0.25,
        max_rss_mb: float | None = None,
        fault_specs: Sequence[str | FaultInjector] = (),
        heartbeat_s: float = HEARTBEAT_INTERVAL_S,
        grace_s: float = DEAD_WORKER_GRACE_S,
        mp_context: str = "spawn",
        cache=None,
    ) -> None:
        super().__init__(
            store, timeout_s=timeout_s, retries=retries, backoff_s=backoff_s,
            cache=cache,
        )
        self.jobs = jobs if jobs > 0 else (os.cpu_count() or 1)
        self.max_rss_mb = max_rss_mb
        self.heartbeat_s = heartbeat_s
        self.grace_s = grace_s
        self.mp_context = mp_context
        self.injectors = [
            spec if isinstance(spec, FaultInjector) else FaultInjector.from_spec(spec)
            for spec in fault_specs
        ]
        self.fleet_stats = FleetStats()
        #: The last manifest written (also persisted under the checkpoint
        #: dir when one is configured).
        self.last_manifest: dict | None = None
        #: Extra args stamped onto the ``worker:run`` span of every job
        #: dispatched while set — the campaign service points this at the
        #: current job's ``{job_id, trace_id}`` so worker spans correlate
        #: with the daemon's lifecycle spans after the trace merge.
        self.trace_args: dict = {}
        self._next_worker_id = 0

    # ------------------------------------------------------------- running

    def run(self, config: SimConfig, workload: str, n_instrs: int) -> RunResult:
        """Run one measurement in an isolated worker (store hits stay free)."""
        (result,) = self.run_many([(config, workload, n_instrs)])
        if result is None:
            raise self._failure_exc(self.failures[-1])
        return result

    def run_many(
        self, jobs: Sequence[tuple[SimConfig, str, int]]
    ) -> list[RunResult | None]:
        """Run a batch of jobs across the pool, in submission order.

        Returns one entry per submitted job: the :class:`RunResult`, or
        ``None`` for a job whose failure was contained (its
        :class:`FailureRecord` is appended to :attr:`failures`).  Raises
        ``KeyboardInterrupt`` after flushing state if the campaign is
        interrupted.
        """
        from ..plugins.compose import apply_active_selection

        ordered: list[RunResult | None] = [None] * len(jobs)
        misses: list[_Job] = []
        first_dispatch: dict[tuple, int] = {}
        duplicates: list[tuple[int, int]] = []
        for i, (config, workload, n_instrs) in enumerate(jobs):
            # Selection overrides are applied in the parent, so workers
            # receive already re-composed configurations.
            config = apply_active_selection(config)
            config.validate()
            ordered[i] = self._recall(config, workload, n_instrs)
            if ordered[i] is not None:
                continue
            key = (
                self.store.fingerprint(config),
                workload_fingerprint(workload),
                n_instrs,
            )
            if key in first_dispatch:
                duplicates.append((i, first_dispatch[key]))
                continue
            first_dispatch[key] = i
            misses.append(_Job(
                i, config, workload, n_instrs,
                fault=self._arm_fault(config.name, workload),
            ))
        statuses: dict[int, str] = {}
        if misses:
            try:
                self._execute(misses, ordered, statuses)
            except (KeyboardInterrupt, _Interrupted):
                self._write_manifest(jobs, ordered, statuses, interrupted=True)
                raise KeyboardInterrupt from None
        for i, first in duplicates:
            ordered[i] = ordered[first]
        self._write_manifest(jobs, ordered, statuses, interrupted=False)
        return ordered

    def sweep(
        self,
        configs: Iterable[SimConfig],
        workloads: Iterable[str],
        n_instrs: int,
    ) -> dict[str, dict[str, RunResult]]:
        """Parallel sweep; completes every job before reporting failures.

        Unlike the serial runner (which raises at the *first* failed run),
        the fleet finishes the rest of the sweep first — every completed
        result is checkpointed — and then raises a single
        :class:`RunFailure` naming the casualties, so a later ``--resume``
        re-runs only the failed jobs.
        """
        configs = list(configs)
        workloads = list(workloads)
        jobs = [
            (config, workload, n_instrs)
            for config in configs
            for workload in workloads
        ]
        results = self.run_many(jobs)
        failed = [i for i, result in enumerate(results) if result is None]
        if failed:
            config, workload, n = jobs[failed[0]]
            raise RunFailure(
                f"{len(failed)} of {len(jobs)} jobs failed in parallel sweep "
                f"(first: {config.name}/{workload}; see failure report)",
                config_name=config.name,
                workload=workload,
                n_instrs=n,
                attempts=1,
                elapsed_s=0.0,
            )
        by_index = iter(results)
        return {
            config.name: {workload: next(by_index) for workload in workloads}
            for config in configs
        }

    # ------------------------------------------------------- dispatch loop

    def _execute(
        self,
        misses: list[_Job],
        ordered: list[RunResult | None],
        statuses: dict[int, str],
    ) -> None:
        ctx = mp.get_context(self.mp_context)
        self._ensure_child_import_path()
        result_q = ctx.Queue()
        pending = deque(misses)
        workers: list[_Worker] = []
        progress = (
            obs.Progress(len(misses), label="fleet")
            if len(misses) > 1
            else None
        )
        previous_term = self._install_sigterm()
        try:
            for _ in range(min(self.jobs, len(misses))):
                workers.append(self._spawn(ctx, result_q))
            while len(statuses) < len(misses):
                self._dispatch(workers, pending)
                message = self._poll(result_q)
                if message is not None:
                    self._handle(message, workers, ordered, statuses, progress)
                self._watchdog(workers, pending, ctx, result_q, statuses, progress)
        except (KeyboardInterrupt, _Interrupted):
            log_event(
                logger, logging.WARNING, "campaign interrupted",
                completed=sum(1 for s in statuses.values() if s == "completed"),
                failed=sum(1 for s in statuses.values() if s == "failed"),
                pending=len(misses) - len(statuses),
            )
            self._shutdown(workers, result_q, kill=True)
            raise
        else:
            self._shutdown(workers, result_q, kill=False)
        finally:
            self._restore_sigterm(previous_term)

    def _dispatch(self, workers: list[_Worker], pending: deque) -> None:
        for worker in workers:
            if worker.job is None and pending and worker.proc.is_alive():
                job = pending.popleft()
                worker.job_q.put(self._payload(job))
                worker.job = job
                worker.started = self.clock()
                worker.last_beat = worker.started
                worker.dead_since = None
                self.fleet_stats.jobs_dispatched += 1
                log_event(
                    logger, logging.DEBUG, "job dispatched",
                    worker=worker.worker_id, config=job.config.name,
                    workload=job.workload, index=job.index,
                )

    def _poll(self, result_q):
        try:
            return result_q.get(timeout=POLL_INTERVAL_S)
        except queue_mod.Empty:
            return None

    def _handle(self, message, workers, ordered, statuses, progress) -> None:
        kind = message[0]
        worker = self._worker_by_id(workers, message[1])
        if kind == "beat":
            if worker is not None:
                worker.last_beat = self.clock()
                worker.beat_rss_mb = message[3]
            return
        if kind == "log":
            payload = message[2]
            log_event(
                logging.getLogger(payload.get("logger", "repro")),
                payload.get("level", logging.INFO),
                payload.get("event", ""),
                worker=message[1],
                **payload.get("fields", {}),
            )
            return
        _, worker_id, index, body, job_stats = message
        if worker is None or worker.job is None or worker.job.index != index:
            # A terminal message for a job the watchdog already failed
            # (e.g. the kill raced a just-completed run): the watchdog's
            # verdict stands, drop the late message.
            return
        job = worker.job
        worker.job = None
        worker.started = None
        self.stats.executed += job_stats.get("executed", 0)
        self.stats.retries += job_stats.get("retries", 0)
        self.stats.timeouts += job_stats.get("timeouts", 0)
        self._merge_trace(job_stats)
        if kind == "done":
            result = result_from_dict(body)
            self.store.put(job.config, job.workload, job.n_instrs, result)
            self._cache_put(job.config, job.workload, job.n_instrs, result)
            ordered[job.index] = result
            statuses[job.index] = "completed"
            self.stats.completed += 1
            self._merge_obs(job, result)
            log_event(
                logger, logging.INFO, "job completed",
                worker=worker_id, config=job.config.name,
                workload=job.workload, ipc=round(result.ipc, 4),
            )
        else:  # "fail"
            record = FailureRecord(**body)
            self.failures.append(record)
            statuses[job.index] = "failed"
            self.stats.failures += 1
            log_event(
                logger, logging.ERROR, "job failed in worker",
                worker=worker_id, config=job.config.name,
                workload=job.workload, error_type=record.error_type,
                message=record.message,
            )
        if progress is not None:
            progress.tick(f"{job.config.name}/{job.workload}")

    # ----------------------------------------------------------- watchdog

    def _watchdog(
        self, workers, pending, ctx, result_q, statuses, progress
    ) -> None:
        now = self.clock()
        kill_after = hard_deadline_s(self.timeout_s)
        for i, worker in enumerate(workers):
            if worker.job is None:
                if not worker.proc.is_alive() and pending:
                    # An idle worker died between jobs; keep pool capacity.
                    workers[i] = self._respawn(worker, ctx, result_q)
                continue
            if not worker.proc.is_alive():
                # Grace window: its final message may still be in flight.
                if worker.dead_since is None:
                    worker.dead_since = now
                    continue
                if now - worker.dead_since < self.grace_s:
                    continue
                exitcode = worker.proc.exitcode
                self.fleet_stats.workers_crashed += 1
                cause = WorkerCrashError(
                    (
                        f"worker killed by signal {-exitcode}"
                        + (" (possible OOM kill)" if exitcode == -signal.SIGKILL else "")
                        if exitcode is not None and exitcode < 0
                        else f"worker exited with code {exitcode}"
                    )
                    + " without reporting a result",
                    exitcode=exitcode,
                )
                self._fail_running_job(worker, cause, statuses, progress)
                workers[i] = self._respawn(worker, ctx, result_q)
                continue
            elapsed = now - (worker.started or now)
            if kill_after is not None and elapsed > kill_after:
                self.fleet_stats.hard_timeouts += 1
                cause = RunTimeoutError(
                    f"hard deadline: worker unresponsive past the "
                    f"{self.timeout_s:g}s cooperative timeout "
                    f"({elapsed:.1f}s elapsed), killed",
                    elapsed_s=elapsed,
                    timeout_s=self.timeout_s or 0.0,
                )
                self.stats.timeouts += 1
                self._kill(worker)
                self._fail_running_job(worker, cause, statuses, progress)
                workers[i] = self._respawn(worker, ctx, result_q)
                continue
            if self.max_rss_mb is not None:
                rss = proc_rss_mb(worker.proc.pid)
                if rss is None:
                    rss = worker.beat_rss_mb
                if rss is not None and rss > self.max_rss_mb:
                    self.fleet_stats.rss_kills += 1
                    cause = WorkerOOMError(
                        f"worker RSS {rss:.0f} MiB exceeded the "
                        f"{self.max_rss_mb:g} MiB guard, killed",
                        rss_mb=rss,
                        limit_mb=self.max_rss_mb,
                    )
                    self._kill(worker)
                    self._fail_running_job(worker, cause, statuses, progress)
                    workers[i] = self._respawn(worker, ctx, result_q)

    def _fail_running_job(
        self, worker: _Worker, cause: Exception, statuses, progress
    ) -> None:
        job = worker.job
        assert job is not None
        elapsed = self.clock() - (worker.started or self.clock())
        record = FailureRecord(
            config_name=job.config.name,
            workload=job.workload,
            n_instrs=job.n_instrs,
            error_type=type(cause).__name__,
            message=str(cause),
            elapsed_s=elapsed,
            attempts=1,
            attempt_errors=[repr(cause)],
        )
        self.failures.append(record)
        statuses[job.index] = "failed"
        self.stats.failures += 1
        worker.job = None
        worker.started = None
        registry = obs.metrics()
        if registry.enabled:
            registry.counter("fleet.jobs.failed").inc()
        log_event(
            logger, logging.ERROR, "job failed at process level",
            worker=worker.worker_id, config=job.config.name,
            workload=job.workload, error_type=record.error_type,
            message=record.message, elapsed_s=round(elapsed, 2),
        )
        if progress is not None:
            progress.tick(f"{job.config.name}/{job.workload} (failed)")

    # ------------------------------------------------------ pool lifecycle

    def _spawn(self, ctx, result_q) -> _Worker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        job_q = ctx.Queue()
        init = {
            "heartbeat_s": self.heartbeat_s,
            "metrics": obs.metrics().enabled,
            "trace": obs.tracer() is not None,
            "log_level": self._worker_log_level(),
        }
        proc = ctx.Process(
            target=worker_main,
            args=(worker_id, job_q, result_q, init),
            name=f"repro-fleet-{worker_id}",
            daemon=True,
        )
        proc.start()
        self.fleet_stats.workers_spawned += 1
        registry = obs.metrics()
        if registry.enabled:
            registry.gauge("fleet.workers").set(self.fleet_stats.workers_spawned)
        log_event(
            logger, logging.DEBUG, "worker spawned",
            worker=worker_id, pid=proc.pid,
        )
        return _Worker(worker_id=worker_id, proc=proc, job_q=job_q)

    def _respawn(self, dead: _Worker, ctx, result_q) -> _Worker:
        try:
            dead.job_q.close()
        except Exception:
            pass
        return self._spawn(ctx, result_q)

    def _kill(self, worker: _Worker) -> None:
        self.fleet_stats.workers_killed += 1
        try:
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        except Exception:
            pass
        log_event(
            logger, logging.WARNING, "worker killed",
            worker=worker.worker_id, pid=worker.proc.pid,
        )

    def _shutdown(self, workers: list[_Worker], result_q, *, kill: bool) -> None:
        for worker in workers:
            if kill:
                try:
                    worker.proc.kill()
                except Exception:
                    pass
            else:
                try:
                    worker.job_q.put(None)
                except Exception:
                    pass
        for worker in workers:
            worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():
                try:
                    worker.proc.kill()
                    worker.proc.join(timeout=2.0)
                except Exception:
                    pass
            try:
                worker.job_q.close()
            except Exception:
                pass
        # Drain stragglers (beats/logs written before workers exited) so the
        # queue's feeder thread can't wedge interpreter shutdown.
        while True:
            try:
                result_q.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                break
        result_q.close()

    # ------------------------------------------------------------ plumbing

    def _payload(self, job: _Job) -> dict:
        return {
            "index": job.index,
            "config": config_to_dict(job.config),
            "workload": job.workload,
            "n_instrs": job.n_instrs,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "backoff_s": self.backoff_s,
            "fault": job.fault,
            "trace_args": dict(self.trace_args),
        }

    def _arm_fault(self, config_name: str, workload: str) -> dict | None:
        """Parent-side arming keeps ``times`` budgets campaign-global."""
        for injector in self.injectors:
            if injector._arm(config_name, workload):
                return {"kind": injector.kind, "at": injector.at_instruction}
        return None

    def _worker_by_id(self, workers: list[_Worker], worker_id: int):
        for worker in workers:
            if worker.worker_id == worker_id:
                return worker
        return None

    def _worker_log_level(self) -> int | None:
        root = logging.getLogger("repro")
        if root.level and root.level != logging.NOTSET and any(
            not isinstance(h, logging.NullHandler) for h in root.handlers
        ):
            return root.level
        return None

    def _merge_trace(self, job_stats: dict) -> None:
        """Rebase a worker's shipped spans onto the parent's timeline.

        Workers record into their own collector and ship
        ``{wall_t0, events}`` with their terminal message; the wall-clock
        anchor lets :meth:`TraceCollector.merge_events` line both
        timelines up, and the worker's own ``pid`` keeps it on a separate
        Perfetto process track.
        """
        trace = job_stats.get("trace")
        collector = obs.tracer()
        if not trace or collector is None:
            return
        collector.merge_events(
            trace.get("events", ()), wall_t0=trace.get("wall_t0")
        )

    def _merge_obs(self, job: _Job, result: RunResult) -> None:
        """Fold a worker's shipped telemetry into the parent's registry."""
        registry = obs.metrics()
        if not registry.enabled:
            return
        registry.counter("fleet.jobs.completed").inc()
        telemetry = result.telemetry or {}
        for phase, seconds in (telemetry.get("phases") or {}).items():
            registry.histogram(
                f"fleet.phase.{phase}_s", bounds=(0.1, 0.5, 1, 5, 30, 120)
            ).record(seconds)

    def _failure_exc(self, record: FailureRecord) -> RunFailure:
        return RunFailure(
            f"{record.config_name}/{record.workload} failed in worker "
            f"({record.error_type}: {record.message})",
            config_name=record.config_name,
            workload=record.workload,
            n_instrs=record.n_instrs,
            attempts=record.attempts,
            elapsed_s=record.elapsed_s,
        )

    def _ensure_child_import_path(self) -> None:
        """Make sure spawned interpreters can import this package.

        ``spawn`` children inherit ``PYTHONPATH`` from the environment but
        not ``sys.path`` mutations, so a parent running from a source tree
        (``PYTHONPATH=src`` or an editable install) prepends the package
        root for its children.
        """
        import repro

        root = str(Path(repro.__file__).resolve().parents[1])
        existing = os.environ.get("PYTHONPATH", "")
        if root not in existing.split(os.pathsep):
            os.environ["PYTHONPATH"] = (
                root + (os.pathsep + existing if existing else "")
            )

    # ------------------------------------------------------------ signals

    def _install_sigterm(self):
        def _on_term(_signum, _frame):
            raise _Interrupted()

        try:
            return signal.signal(signal.SIGTERM, _on_term)
        except ValueError:  # not the main thread
            return None

    def _restore_sigterm(self, previous) -> None:
        if previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except ValueError:
                pass

    # ------------------------------------------------------------ manifest

    def _write_manifest(
        self,
        jobs: Sequence[tuple[SimConfig, str, int]],
        ordered: Sequence[RunResult | None],
        statuses: dict[int, str],
        *,
        interrupted: bool,
    ) -> dict:
        rows = []
        counts = {"completed": 0, "failed": 0, "pending": 0}
        for i, (config, workload, n_instrs) in enumerate(jobs):
            if ordered[i] is not None:
                status = "completed"
            else:
                status = statuses.get(i, "pending")
            counts[status] += 1
            rows.append({
                "config": config.name,
                "workload": workload,
                "n_instrs": n_instrs,
                "fingerprint": self.store.fingerprint(config)[:12],
                "status": status,
            })
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "status": "interrupted" if interrupted else "complete",
            "written_at": time.time(),
            "total": len(rows),
            "counts": counts,
            "jobs": rows,
        }
        self.last_manifest = manifest
        directory = self.store.checkpoint_dir
        if directory is not None:
            path = Path(directory) / MANIFEST_NAME
            atomic_write_json(path, manifest)
            log_event(
                logger, logging.INFO, "resume manifest written",
                path=str(path), status=manifest["status"], **counts,
            )
        return manifest
