"""Durable job queue: WAL-backed state machine with leases and admission.

Every mutation is journaled (:mod:`repro.service.journal`) *before* it is
applied in memory, so the queue's full state is recoverable by replay after
a crash at any instant.  Jobs move through an explicit state machine::

    submit ──> pending ──lease──> leased ──complete──> done
                  ^                  │ │ └──fail (attempts left)──┐
                  │                  │ └──fail (spent)──> failed  │
                  │                  └──lease expiry / release────┤
                  └───────────────────────────────────────────────┘
    pending | leased ──cancel──> cancelled

``done``, ``failed`` and ``cancelled`` are terminal.  Ownership is
lease-based: a worker must hold a live lease to complete or fail a job, and
leases that expire (hung worker) or that belong to a previous daemon
incarnation (replay finds a job still ``leased``) are reclaimed to
``pending`` — the attempt was already counted when the lease was granted,
so a job that keeps killing its workers converges to ``failed`` instead of
looping forever.

Robustness behaviours layered on the state machine:

* **Idempotent dedup** — submissions are keyed by ``(config_fingerprint,
  workload_fingerprint, requested n_instrs)``; re-submitting an active or
  completed job returns the existing one, so client retries and replayed
  submissions never double-run or double-count a measurement.
  The key uses the length the caller *asked for*, not the one shedding
  clamped to — and a full-length submission never dedups against a
  degraded quick estimate, so clamped results can only ever be served to
  callers whose response carries ``degraded`` provenance.
* **Admission control** — the queue is depth-bounded
  (:class:`~repro.errors.QueueFull`) and per-submitter quota'd
  (:class:`~repro.errors.QuotaExceeded`); both rejections carry a
  ``retry_after_s`` hint derived from the observed mean service time.
* **Load shedding** — above the shed watermark, *low-priority* submissions
  are degraded to quick-mode estimates (``n_instrs`` clamped) instead of
  rejected; the job carries ``degraded`` provenance and the requested
  length, so a consumer can tell an estimate from a full measurement.
* **Circuit breaker** — configurations whose workers repeatedly crash
  (:class:`FailureRecord <repro.runner.runner.FailureRecord>` evidence:
  ``WorkerCrashError``/``WorkerOOMError``) are quarantined: further
  submissions raise :class:`~repro.errors.CircuitOpen` until a cooldown
  passes, after which one half-open probe job is admitted; its success
  closes the circuit, its failure re-opens it.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import asdict, dataclass, field
from time import time as _wall_clock
from typing import Callable, Iterable

from ..errors import (
    CircuitOpen,
    JobNotFound,
    JobStateError,
    QueueFull,
    QuotaExceeded,
)
from ..obs import NULL_FLIGHT_RECORDER, get_logger, log_event
from .journal import Journal, ReplayStats

logger = get_logger("service.queue")

# Job states (the journal stores the strings, so they are part of the
# on-disk format — append-only, never renumber).
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL = frozenset({DONE, FAILED, CANCELLED})

#: Priority names accepted at the API boundary, mapped to scheduling rank.
PRIORITIES = {"low": 0, "normal": 1, "high": 2}

#: ``FailureRecord.error_type`` values that count as crash evidence for the
#: circuit breaker (a worker *process* died, not a mere run error).
CRASH_ERROR_TYPES = frozenset({"WorkerCrashError", "WorkerOOMError"})


@dataclass
class Job:
    """One queued measurement and its full state-machine context."""

    job_id: str
    seq: int
    fingerprint: str
    config_name: str
    config: dict                 #: serialized SimConfig payload
    workload: str
    n_instrs: int
    #: Content digest of the workload (see ``repro.plugins.workloads``):
    #: the identity half of the dedup key.  Required: a journal record
    #: without it fails replay (reported in ``replay_state`` errors).
    workload_fingerprint: str
    priority: int = PRIORITIES["normal"]
    submitter: str = "anonymous"
    #: End-to-end correlation id: assigned at the API boundary (from the
    #: request's ``X-Request-Id``), journaled with the job, and tagged onto
    #: every span/log/flight-recorder event the job generates downstream.
    trace_id: str = ""
    state: str = PENDING
    submitted_at: float = 0.0
    finished_at: float | None = None
    #: Load-shedding provenance: when degraded, ``n_instrs`` was clamped
    #: from ``requested_n_instrs`` and the result is a quick-mode estimate.
    degraded: bool = False
    requested_n_instrs: int | None = None
    #: Optional fault-injection spec (``repro.runner.faultinject`` syntax)
    #: armed for this job's runs — chaos-testing provenance travels with
    #: the job.  Validated at admission (see ``daemon.submit_config``).
    inject_fault: str | None = None
    #: Result-cache provenance: a cached job completed straight from the
    #: content-addressed result cache (the ``done-cached`` journal outcome)
    #: without ever holding a lease.  ``cache_provenance`` is the cache's
    #: hit record (``{"cache_hit": True, "key": [...]}``).
    cached: bool = False
    cache_provenance: dict | None = None
    attempts: int = 0
    lease_owner: str | None = None
    lease_expires_at: float | None = None
    cancel_requested: bool = False
    summary: dict | None = None  #: small result summary (full result in store)
    error: dict | None = None
    #: Per-attempt error context accumulated across requeues.
    attempt_errors: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.workload_fingerprint:
            raise ValueError(f"job {self.job_id} has no workload_fingerprint")

    @property
    def key(self) -> tuple[str, str, int]:
        """Dedup key: the length the caller *requested*, not the clamped one.

        A shed job runs at ``n_instrs`` (clamped) but occupies the key of
        ``requested_n_instrs`` — so a quick-mode submission at the clamped
        length never collides with it, and a later full-length submission
        of the same point finds it (and, per :meth:`JobQueue.submit`, runs
        fresh instead of accepting the estimate).  The workload half is the
        *fingerprint* (content identity), never the display name.
        """
        return (
            self.fingerprint,
            self.workload_fingerprint,
            self.requested_n_instrs or self.n_instrs,
        )

    @property
    def active(self) -> bool:
        return self.state not in TERMINAL

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Job":
        return cls(**payload)


@dataclass
class _Breaker:
    """Per-fingerprint circuit state (crash counting / quarantine)."""

    failures: int = 0
    opened_at: float | None = None
    probing: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


# ------------------------------------------------------- pure state replay
#
# The journal-application logic lives in module functions over plain dicts
# so that offline tooling (``repro.service.fsck``) can reconstruct queue
# state from a scanned journal without constructing a JobQueue — which
# would *mutate* the journal (replay truncates torn tails).  JobQueue
# routes its own ``_apply`` through the same functions, so there is one
# replay semantics, used both online and offline.


def install_job(job: Job, jobs: dict, by_key: dict) -> None:
    """Install ``job``, updating the latest-job-per-key dedup index."""
    jobs[job.job_id] = job
    # The dedup index tracks the *latest* job per key; terminal
    # failed/cancelled jobs stay addressable by id but do not block a
    # fresh submission of the same point.
    existing = by_key.get(job.key)
    current = jobs.get(existing) if existing else None
    if (
        current is None
        or current.seq <= job.seq
        or current.state in (FAILED, CANCELLED)
    ):
        by_key[job.key] = job.job_id


def _check_state(job: Job, allowed: set, op: str) -> None:
    if job.state not in allowed:
        raise JobStateError(
            f"cannot {op} job {job.job_id} in state {job.state!r}"
        )


def apply_record(
    record: dict, jobs: dict, by_key: dict, breakers: dict
) -> Job | None:
    """Apply one journal record to queue state; returns any installed job.

    Raises :class:`JobNotFound`/:class:`JobStateError` on a record that is
    invalid against the current state (a journal corruption signal).
    """
    op = record["op"]
    if op == "safe_mode":
        # Audit-only: records when the daemon entered/left disk-fault safe
        # mode.  No queue-state effect (jobs were never lost to safe mode).
        return None
    if op == "job":  # compaction snapshot: install verbatim
        job = Job.from_dict(record["job"])
        install_job(job, jobs, by_key)
        return job
    if op == "breaker":
        breakers[record["fingerprint"]] = _Breaker(
            failures=record.get("failures", 0),
            opened_at=record.get("opened_at"),
            probing=record.get("probing", False),
        )
        return None
    if op == "submit":
        job = Job.from_dict(record["job"])
        install_job(job, jobs, by_key)
        return job
    job = jobs.get(record["id"])
    if job is None:
        raise JobNotFound(f"journal references unknown job {record['id']!r}")
    if op == "lease":
        # A lease over an already-leased job is a *takeover*: the previous
        # lease was recovered in memory without journaling (the storage-
        # fault path, see JobQueue.recover_lease) and the attempt was
        # refunded — so only a grant from pending counts an attempt.
        _check_state(job, {PENDING, LEASED}, op)
        if job.state == PENDING:
            job.attempts += 1
        job.state = LEASED
        job.lease_owner = record["owner"]
        job.lease_expires_at = record["expires_at"]
    elif op == "release":
        _check_state(job, {LEASED}, op)
        job.state = PENDING
        job.lease_owner = None
        job.lease_expires_at = None
    elif op == "requeue":
        _check_state(job, {LEASED}, op)
        job.state = PENDING
        job.lease_owner = None
        job.lease_expires_at = None
        if record.get("error"):
            job.attempt_errors.append(record["error"])
    elif op == "done":
        _check_state(job, {LEASED}, op)
        job.state = DONE
        job.summary = record.get("summary")
        job.finished_at = record.get("at")
        job.lease_owner = None
        job.lease_expires_at = None
    elif op == "done-cached":
        # Completed straight from the result cache at submit time: the job
        # never held a lease (PENDING -> DONE is legal only here) and its
        # provenance records which cache entry served it.
        _check_state(job, {PENDING}, op)
        job.state = DONE
        job.cached = True
        job.cache_provenance = record.get("provenance")
        job.summary = record.get("summary")
        job.finished_at = record.get("at")
    elif op == "fail":
        _check_state(job, {LEASED, PENDING}, op)
        job.state = FAILED
        job.error = record.get("error")
        job.finished_at = record.get("at")
        job.lease_owner = None
        job.lease_expires_at = None
    elif op == "cancel":
        _check_state(job, {PENDING, LEASED}, op)
        job.state = CANCELLED
        job.finished_at = record.get("at")
        job.lease_owner = None
        job.lease_expires_at = None
    elif op == "cancel_requested":
        _check_state(job, {LEASED}, op)
        job.cancel_requested = True
    else:
        raise JobStateError(f"unknown journal op {op!r}")
    return None


def replay_state(
    records: Iterable[dict],
) -> tuple[dict[str, Job], dict, dict, list[str]]:
    """Pure replay of journal records into ``(jobs, by_key, breakers, errors)``.

    The offline counterpart of :meth:`JobQueue._recover`: invalid records
    are skipped and reported, never fatal, and nothing on disk is touched.
    """
    jobs: dict[str, Job] = {}
    by_key: dict = {}
    breakers: dict = {}
    errors: list[str] = []
    for record in records:
        try:
            apply_record(record, jobs, by_key, breakers)
        except Exception as exc:
            errors.append(f"replay skipped record: {exc!r}")
    return jobs, by_key, breakers, errors


@dataclass
class QueueCounters:
    """Monotonic service counters (also exported through the obs registry)."""

    submitted: int = 0
    deduped: int = 0
    completed: int = 0
    #: Jobs completed straight from the result cache at submit time (no
    #: lease, no simulation) — a subset of ``completed``.
    done_cached: int = 0
    failed: int = 0
    cancelled: int = 0
    requeued: int = 0
    shed_degraded: int = 0
    rejected_full: int = 0
    rejected_quota: int = 0
    rejected_breaker: int = 0
    leases_expired: int = 0
    leases_recovered: int = 0    #: leases reclaimed by crash-recovery replay
    #: Jobs terminally failed because their last lease *expired* (a hung or
    #: vanished worker) — kept distinct from ``failed``, which counts
    #: worker-reported failures, so an operator can tell "the code is
    #: broken" from "workers keep disappearing" at a glance.
    lease_expiry_failed: int = 0


class JobQueue:
    """The WAL-backed queue (thread-safe; one instance per service).

    Args:
        journal: the write-ahead journal; replayed at construction.
        max_depth: bound on *active* (pending + leased) jobs.
        quota: bound on one submitter's active jobs.
        lease_s: lease duration granted to workers (renewable).
        max_attempts: lease grants before a job is terminally failed.
        shed_watermark: active/max_depth fraction above which low-priority
            submissions are degraded to quick estimates.
        shed_n_instrs: the quick-mode trace length shed jobs are clamped to.
        breaker_threshold: consecutive crash-type failures of one
            fingerprint that open its circuit.
        breaker_cooldown_s: quarantine duration before a half-open probe.
        clock: wall-clock source (injectable for tests; leases and breaker
            cooldowns use wall time so hints survive restarts sanely).
    """

    def __init__(
        self,
        journal: Journal,
        *,
        max_depth: int = 256,
        quota: int = 64,
        lease_s: float = 120.0,
        max_attempts: int = 3,
        shed_watermark: float = 0.75,
        shed_n_instrs: int = 24_000,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 300.0,
        clock: Callable[[], float] = _wall_clock,
        recorder=None,
    ) -> None:
        self.journal = journal
        #: Flight recorder for operational events (admissions, rejections,
        #: lease churn, breaker transitions); the shared no-op by default.
        self.recorder = recorder if recorder is not None else NULL_FLIGHT_RECORDER
        self.max_depth = max_depth
        self.quota = quota
        self.lease_s = lease_s
        self.max_attempts = max_attempts
        self.shed_watermark = shed_watermark
        self.shed_n_instrs = shed_n_instrs
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.clock = clock
        self.counters = QueueCounters()
        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[tuple[str, str, int], str] = {}
        self._breakers: dict[str, _Breaker] = {}
        self._next_seq = 1
        #: Exponential moving average of observed job service seconds —
        #: feeds the retry-after hints.  Starts at a sane guess.
        self._mean_service_s = 30.0
        self.replay_stats = self._recover()

    # ------------------------------------------------------------ recovery

    def _recover(self) -> ReplayStats:
        records, stats = self.journal.replay()
        for record in records:
            try:
                self._apply(record, recovering=True)
            except Exception as exc:
                # A record that replays to an invalid transition is a bug,
                # but one bad record must not cost the queue: log and keep
                # replaying (mirrors checkpoint quarantine philosophy).
                stats.errors.append(f"replay skipped record: {exc!r}")
                log_event(
                    logger, logging.WARNING, "replay skipped record",
                    error=repr(exc), record_op=record.get("op"),
                )
        recovered = 0
        for job in self._jobs.values():
            if job.state == LEASED:
                # The lease holder died with the previous incarnation.
                job.state = PENDING
                job.lease_owner = None
                job.lease_expires_at = None
                recovered += 1
        self.counters.leases_recovered = recovered
        if records or stats.torn_bytes:
            log_event(
                logger, logging.INFO, "journal replayed",
                records=stats.records, jobs=len(self._jobs),
                leases_recovered=recovered, torn_bytes=stats.torn_bytes,
            )
        return stats

    def compact(self) -> None:
        """Rewrite the journal as a snapshot of live state (bounded replay)."""
        with self._lock:
            payloads = [
                {"op": "job", "job": job.to_dict()}
                for job in sorted(self._jobs.values(), key=lambda j: j.seq)
            ]
            payloads += [
                {"op": "breaker", "fingerprint": fp, **breaker.to_dict()}
                for fp, breaker in self._breakers.items()
                if breaker.failures or breaker.opened_at is not None
            ]
            self.journal.rewrite(payloads)

    # ---------------------------------------------------------- journaling

    def _commit(self, record: dict) -> None:
        """Journal first, then apply: the WAL write is the commit point."""
        self.journal.append(record)
        self._apply(record)

    def _apply(self, record: dict, *, recovering: bool = False) -> None:
        installed = apply_record(
            record, self._jobs, self._by_key, self._breakers
        )
        if installed is not None:
            self._next_seq = max(self._next_seq, installed.seq + 1)

    # ------------------------------------------------------------ admission

    def submit(
        self,
        config: dict,
        workload: str,
        n_instrs: int,
        *,
        fingerprint: str,
        config_name: str = "",
        priority: int | str = "normal",
        submitter: str = "anonymous",
        trace_id: str = "",
        inject_fault: str | None = None,
        workload_fingerprint: str,
    ) -> tuple[Job, bool]:
        """Admit one submission; returns ``(job, deduped)``.

        Raises :class:`QueueFull`, :class:`QuotaExceeded` or
        :class:`CircuitOpen` (all :class:`~repro.errors.AdmissionError`
        with a ``retry_after_s`` hint) instead of queuing unboundedly.
        """
        if isinstance(priority, str):
            if priority not in PRIORITIES:
                raise ValueError(f"unknown priority {priority!r}")
            rank = PRIORITIES[priority]
        else:
            rank = int(priority)
        with self._lock:
            now = self.clock()
            self._check_breaker(
                fingerprint, now, trace_id=trace_id, config_name=config_name
            )
            degraded = False
            requested = None
            active = sum(1 for j in self._jobs.values() if j.active)
            shedding = active >= self.shed_watermark * self.max_depth
            if (
                shedding
                and rank <= PRIORITIES["low"]
                and n_instrs > self.shed_n_instrs
            ):
                # Degrade instead of failing: a quick estimate with
                # provenance beats a rejection for best-effort callers.
                degraded = True
                requested = n_instrs
                n_instrs = self.shed_n_instrs
            # Dedup by the *requested* length (Job.key semantics) — looked
            # up before the clamp could disguise this submission as a quick
            # one.  A full-length submission never dedups against a
            # degraded job: serving a clamped estimate to a caller whose
            # response carries no degraded provenance would silently swap
            # a measurement for a guess, so the full request runs fresh
            # (and takes over the key's dedup slot).  Degraded-against-
            # degraded and anything-against-full still dedup: those
            # responses carry honest provenance.
            existing_id = self._by_key.get(
                (fingerprint, workload_fingerprint, requested or n_instrs)
            )
            if existing_id is not None:
                existing = self._jobs[existing_id]
                if (existing.active or existing.state == DONE) and not (
                    existing.degraded and not degraded
                ):
                    self.counters.deduped += 1
                    self.recorder.record(
                        "dedup", job_id=existing.job_id, trace_id=trace_id,
                        config=config_name, workload=workload,
                        submitter=submitter,
                    )
                    return existing, True
            if active >= self.max_depth:
                self.counters.rejected_full += 1
                self.recorder.record(
                    "reject_full", config=config_name, workload=workload,
                    trace_id=trace_id, submitter=submitter, depth=active,
                )
                raise QueueFull(
                    f"queue depth {active} is at the {self.max_depth}-job "
                    f"bound",
                    retry_after_s=self._retry_after(),
                )
            mine = sum(
                1 for j in self._jobs.values()
                if j.active and j.submitter == submitter
            )
            if mine >= self.quota:
                self.counters.rejected_quota += 1
                self.recorder.record(
                    "reject_quota", config=config_name, workload=workload,
                    trace_id=trace_id, submitter=submitter, held=mine,
                )
                raise QuotaExceeded(
                    f"submitter {submitter!r} holds {mine} active jobs "
                    f"(quota {self.quota})",
                    retry_after_s=self._retry_after(),
                )
            seq = self._next_seq
            job = Job(
                job_id=f"j{seq:06d}",
                seq=seq,
                fingerprint=fingerprint,
                config_name=config_name,
                config=config,
                workload=workload,
                n_instrs=n_instrs,
                workload_fingerprint=workload_fingerprint,
                priority=rank,
                submitter=submitter,
                trace_id=trace_id,
                submitted_at=now,
                degraded=degraded,
                requested_n_instrs=requested,
                inject_fault=inject_fault,
            )
            self._commit({"op": "submit", "job": job.to_dict()})
            self.counters.submitted += 1
            if degraded:
                self.counters.shed_degraded += 1
            self.recorder.record(
                "submit", job_id=job.job_id, trace_id=trace_id,
                config=config_name, workload=workload, n_instrs=n_instrs,
                priority=rank, submitter=submitter, degraded=degraded,
            )
            log_event(
                logger, logging.INFO, "job submitted",
                job=job.job_id, config=config_name, workload=workload,
                n=n_instrs, priority=rank, submitter=submitter,
                degraded=degraded,
            )
            return job, False

    def _retry_after(self) -> float:
        return max(1.0, round(self._mean_service_s, 1))

    def _check_breaker(
        self, fingerprint: str, now: float, *,
        trace_id: str = "", config_name: str = "",
    ) -> None:
        breaker = self._breakers.get(fingerprint)
        if breaker is None or breaker.opened_at is None:
            return
        remaining = breaker.opened_at + self.breaker_cooldown_s - now
        if remaining > 0:
            self.counters.rejected_breaker += 1
            self.recorder.record(
                "reject_breaker", fingerprint=fingerprint[:12],
                config=config_name, trace_id=trace_id,
                failures=breaker.failures, retry_in_s=round(remaining, 1),
            )
            raise CircuitOpen(
                f"config {fingerprint[:12]} is quarantined after "
                f"{breaker.failures} worker crash(es); retry in "
                f"{remaining:.0f}s",
                retry_after_s=max(1.0, remaining),
            )
        # Cooldown over: half-open — admit submissions; the next leased job
        # of this fingerprint is the probe.

    # ------------------------------------------------------------- leasing

    def lease(self, owner: str) -> Job | None:
        """Grant the best pending job to ``owner``, or ``None`` if idle.

        Highest priority first, FIFO within a priority.  A fingerprint in
        half-open quarantine releases at most one probe job at a time.
        """
        with self._lock:
            now = self.clock()
            best: Job | None = None
            for job in self._jobs.values():
                if job.state != PENDING:
                    continue
                if not self._admissible_for_lease(job.fingerprint, now):
                    continue
                if best is None or (job.priority, -job.seq) > (
                    best.priority, -best.seq
                ):
                    best = job
            if best is None:
                return None
            breaker = self._breakers.get(best.fingerprint)
            if breaker is not None and breaker.opened_at is not None:
                breaker.probing = True  # the half-open probe is in flight
            self._commit({
                "op": "lease",
                "id": best.job_id,
                "owner": owner,
                "expires_at": now + self.lease_s,
            })
            self.recorder.record(
                "lease", job_id=best.job_id, trace_id=best.trace_id,
                owner=owner, attempts=best.attempts,
                queue_wait_s=round(max(0.0, now - best.submitted_at), 6)
                if best.submitted_at else None,
            )
            log_event(
                logger, logging.DEBUG, "job leased",
                job=best.job_id, owner=owner, attempts=best.attempts,
            )
            return best

    def _admissible_for_lease(self, fingerprint: str, now: float) -> bool:
        breaker = self._breakers.get(fingerprint)
        if breaker is None or breaker.opened_at is None:
            return True
        if breaker.probing:
            return False
        return now >= breaker.opened_at + self.breaker_cooldown_s

    def renew(self, job_id: str, owner: str) -> None:
        """Extend a live lease (in-memory only: leases never survive a
        restart, so renewals have no recovery value worth an fsync)."""
        with self._lock:
            job = self._get(job_id)
            self._check_owner(job, owner, "renew")
            job.lease_expires_at = self.clock() + self.lease_s

    def release(self, job_id: str, owner: str) -> None:
        """Voluntarily give a lease back (graceful shutdown path)."""
        with self._lock:
            job = self._get(job_id)
            self._check_owner(job, owner, "release")
            self._commit({"op": "release", "id": job_id})

    def recover_lease(self, job_id: str, owner: str) -> Job:
        """Give a lease back *without journaling* (storage-fault path).

        When a job's checkpoint write hit a storage fault, the journal may
        be on the same failing disk — requeuing must not require a durable
        append.  Releasing in memory only is crash-consistent: if the
        daemon dies before the disk recovers, startup replay finds the job
        still ``leased`` and reclaims it to ``pending`` anyway.  The
        attempt is refunded because the *disk* failed, not the job.
        """
        with self._lock:
            job = self._get(job_id)
            self._check_owner(job, owner, "recover")
            job.state = PENDING
            job.lease_owner = None
            job.lease_expires_at = None
            job.attempts = max(0, job.attempts - 1)
            self.counters.leases_recovered += 1
            self.recorder.record(
                "lease_recovered", job_id=job_id, trace_id=job.trace_id,
                owner=owner,
            )
            return job

    def expire_leases(self) -> list[Job]:
        """Reclaim jobs whose lease expired (hung worker); returns them."""
        with self._lock:
            now = self.clock()
            reclaimed = []
            for job in list(self._jobs.values()):
                if job.state != LEASED or job.lease_expires_at is None:
                    continue
                if now < job.lease_expires_at:
                    continue
                self.counters.leases_expired += 1
                self.recorder.record(
                    "lease_expired", job_id=job.job_id, trace_id=job.trace_id,
                    owner=job.lease_owner, attempts=job.attempts,
                )
                log_event(
                    logger, logging.WARNING, "lease expired",
                    job=job.job_id, owner=job.lease_owner,
                    attempts=job.attempts,
                )
                error = {
                    "error_type": "LeaseExpired",
                    "message": f"lease held by {job.lease_owner!r} expired",
                }
                if job.attempts >= self.max_attempts:
                    # Expiry-driven terminal failures get their own counter
                    # (lease_expiry_failed), never folded into `failed`.
                    self._terminal_fail(job, error, now, counter="lease_expiry_failed")
                else:
                    self._commit({
                        "op": "requeue", "id": job.job_id,
                        "error": error["message"],
                    })
                    self.counters.requeued += 1
                reclaimed.append(job)
            return reclaimed

    def _check_owner(self, job: Job, owner: str, op: str) -> None:
        if job.state != LEASED or job.lease_owner != owner:
            raise JobStateError(
                f"cannot {op} job {job.job_id}: state {job.state!r}, "
                f"lease owner {job.lease_owner!r} (caller {owner!r})"
            )

    # ------------------------------------------------------------ completion

    def complete(self, job_id: str, owner: str, summary: dict | None = None) -> Job:
        """Mark a leased job done (the full result lives in the store)."""
        with self._lock:
            job = self._get(job_id)
            self._check_owner(job, owner, "complete")
            now = self.clock()
            if job.submitted_at:
                self._observe_service_time(now - job.submitted_at)
            self._commit({
                "op": "done", "id": job_id, "summary": summary, "at": now,
            })
            self.counters.completed += 1
            self._breaker_success(job.fingerprint)
            self.recorder.record(
                "done", job_id=job_id, trace_id=job.trace_id, owner=owner,
                config=job.config_name, workload=job.workload,
                degraded=job.degraded,
            )
            log_event(
                logger, logging.INFO, "job done",
                job=job_id, config=job.config_name, workload=job.workload,
                degraded=job.degraded,
            )
            return job

    def complete_cached(
        self,
        job_id: str,
        *,
        summary: dict | None = None,
        provenance: dict | None = None,
    ) -> Job:
        """Complete a *pending* job straight from the result cache.

        No lease is involved: the daemon resolved the job against the
        content-addressed cache at submit time, so the job goes
        PENDING -> DONE via the distinct ``done-cached`` journal outcome,
        carrying the cache's provenance record.  The observed service time
        is *not* fed into the retry-after EMA — instant cache completions
        would drag the hint toward zero and make rejected callers hammer
        the queue.
        """
        with self._lock:
            job = self._get(job_id)
            _check_state(job, {PENDING}, "complete_cached")
            now = self.clock()
            self._commit({
                "op": "done-cached", "id": job_id, "summary": summary,
                "provenance": provenance, "at": now,
            })
            self.counters.completed += 1
            self.counters.done_cached += 1
            self.recorder.record(
                "done_cached", job_id=job_id, trace_id=job.trace_id,
                config=job.config_name, workload=job.workload,
            )
            log_event(
                logger, logging.INFO, "job completed from cache",
                job=job_id, config=job.config_name, workload=job.workload,
            )
            return job

    def fail(
        self,
        job_id: str,
        owner: str,
        *,
        error_type: str,
        message: str,
        crash: bool | None = None,
    ) -> Job:
        """Record a failed attempt; requeues or terminally fails the job.

        ``crash`` marks worker-process-death evidence for the circuit
        breaker; by default it is derived from ``error_type`` against
        :data:`CRASH_ERROR_TYPES` (the ``FailureRecord`` vocabulary).
        """
        with self._lock:
            job = self._get(job_id)
            self._check_owner(job, owner, "fail")
            now = self.clock()
            if crash is None:
                crash = error_type in CRASH_ERROR_TYPES
            if crash:
                self._breaker_failure(job.fingerprint, now)
            else:
                self._breaker_success(job.fingerprint)
            error = {"error_type": error_type, "message": message}
            if crash:
                self.recorder.record(
                    "worker_crash", job_id=job_id, trace_id=job.trace_id,
                    owner=owner, error_type=error_type, message=message,
                    attempts=job.attempts,
                )
            if job.cancel_requested:
                self._commit({"op": "cancel", "id": job_id, "at": now})
                self.counters.cancelled += 1
                self.recorder.record(
                    "cancelled", job_id=job_id, trace_id=job.trace_id,
                )
            elif job.attempts >= self.max_attempts or self._is_open(
                job.fingerprint, now
            ):
                self._terminal_fail(job, error, now)
            else:
                self._commit({
                    "op": "requeue", "id": job_id,
                    "error": f"{error_type}: {message}",
                })
                self.counters.requeued += 1
                self.recorder.record(
                    "requeue", job_id=job_id, trace_id=job.trace_id,
                    error_type=error_type, attempts=job.attempts,
                )
            return job

    def _terminal_fail(
        self, job: Job, error: dict, now: float, *, counter: str = "failed"
    ) -> None:
        error = dict(error, attempts=job.attempts,
                     attempt_errors=list(job.attempt_errors))
        self._commit({"op": "fail", "id": job.job_id, "error": error, "at": now})
        setattr(self.counters, counter, getattr(self.counters, counter) + 1)
        self.recorder.record(
            "failed", job_id=job.job_id, trace_id=job.trace_id,
            config=job.config_name, workload=job.workload,
            error_type=error.get("error_type"), attempts=job.attempts,
        )
        log_event(
            logger, logging.ERROR, "job failed terminally",
            job=job.job_id, config=job.config_name, workload=job.workload,
            error_type=error.get("error_type"), attempts=job.attempts,
        )

    def cancel(self, job_id: str) -> Job:
        """Cancel a pending job now, or flag a leased one for cancellation."""
        with self._lock:
            job = self._get(job_id)
            if job.state == PENDING:
                self._commit({"op": "cancel", "id": job_id, "at": self.clock()})
                self.counters.cancelled += 1
                self.recorder.record(
                    "cancelled", job_id=job_id, trace_id=job.trace_id,
                )
            elif job.state == LEASED:
                if not job.cancel_requested:
                    self._commit({"op": "cancel_requested", "id": job_id})
            else:
                raise JobStateError(
                    f"cannot cancel job {job_id} in terminal state "
                    f"{job.state!r}"
                )
            return job

    # ------------------------------------------------------ circuit breaker

    def _breaker_failure(self, fingerprint: str, now: float) -> None:
        breaker = self._breakers.setdefault(fingerprint, _Breaker())
        breaker.failures += 1
        breaker.probing = False
        if breaker.failures >= self.breaker_threshold or breaker.opened_at:
            breaker.opened_at = now  # (re-)open: cooldown restarts
            self.recorder.record(
                "breaker_open", fingerprint=fingerprint[:12],
                failures=breaker.failures,
            )
            log_event(
                logger, logging.WARNING, "circuit opened",
                fingerprint=fingerprint[:12], failures=breaker.failures,
            )
        self.journal.append({
            "op": "breaker", "fingerprint": fingerprint, **breaker.to_dict(),
        })

    def _breaker_success(self, fingerprint: str) -> None:
        breaker = self._breakers.get(fingerprint)
        if breaker is None:
            return
        was_open = breaker.opened_at is not None
        self._breakers.pop(fingerprint, None)
        self.journal.append({
            "op": "breaker", "fingerprint": fingerprint,
            "failures": 0, "opened_at": None, "probing": False,
        })
        if was_open:
            self.recorder.record(
                "breaker_close", fingerprint=fingerprint[:12],
            )
            log_event(
                logger, logging.INFO, "circuit closed by successful probe",
                fingerprint=fingerprint[:12],
            )

    def _is_open(self, fingerprint: str, now: float) -> bool:
        breaker = self._breakers.get(fingerprint)
        return (
            breaker is not None
            and breaker.opened_at is not None
            and now < breaker.opened_at + self.breaker_cooldown_s
        )

    # ------------------------------------------------------------- queries

    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(f"no job {job_id!r}")
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            return self._get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def depth(self) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.active)

    def idle(self) -> bool:
        with self._lock:
            return not any(j.active for j in self._jobs.values())

    def _observe_service_time(self, seconds: float) -> None:
        self._mean_service_s += 0.2 * (seconds - self._mean_service_s)

    def stats(self) -> dict:
        """Plain-data queue statistics (the ``/stats`` endpoint's core)."""
        with self._lock:
            now = self.clock()
            by_state: dict[str, int] = {
                s: 0 for s in (PENDING, LEASED, DONE, FAILED, CANCELLED)
            }
            for job in self._jobs.values():
                by_state[job.state] += 1
            breaker_states = {"closed": 0, "open": 0, "half_open": 0}
            for breaker in self._breakers.values():
                if breaker.opened_at is None:
                    breaker_states["closed"] += 1
                elif now < breaker.opened_at + self.breaker_cooldown_s:
                    breaker_states["open"] += 1
                else:
                    breaker_states["half_open"] += 1
            c = self.counters
            terminal = c.completed + c.failed + c.lease_expiry_failed
            error_rate = (
                (c.failed + c.lease_expiry_failed) / terminal if terminal else 0.0
            )
            return {
                "depth": by_state[PENDING] + by_state[LEASED],
                "max_depth": self.max_depth,
                "states": by_state,
                "counters": asdict(c),
                "error_rate": round(error_rate, 6),
                "breaker_states": breaker_states,
                "mean_service_s": round(self._mean_service_s, 3),
                "breakers": {
                    fp[:12]: breaker.to_dict()
                    for fp, breaker in self._breakers.items()
                },
                "journal": {
                    "appends": self.journal.appends,
                    "compactions": self.journal.rewrites,
                },
                "journal_replay": self.replay_stats.to_dict(),
            }

    # ------------------------------------------------------------ iteration

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def __iter__(self) -> Iterable[Job]:
        return iter(self.jobs())
