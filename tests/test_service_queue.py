"""Tests for the WAL-backed job queue: state machine, leases, admission,
dedup, shedding, circuit breaker and crash-recovery replay."""

import pytest

from repro.errors import (
    CircuitOpen,
    JobNotFound,
    JobStateError,
    QueueFull,
    QuotaExceeded,
)
from repro.service.journal import Journal
from repro.service.queue import (
    CANCELLED,
    DONE,
    FAILED,
    LEASED,
    PENDING,
    JobQueue,
)


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_queue(tmp_path, clock=None, **kwargs):
    kwargs.setdefault("max_depth", 8)
    kwargs.setdefault("quota", 8)
    kwargs.setdefault("lease_s", 60.0)
    kwargs.setdefault("shed_n_instrs", 1000)
    journal = Journal(tmp_path / "j.wal", fsync=False)
    return JobQueue(journal, clock=clock or FakeClock(), **kwargs)


def submit(queue, i=0, *, workload="wl", n=50_000, **kwargs):
    kwargs.setdefault("fingerprint", f"fp{i:04d}")
    kwargs.setdefault("config_name", f"cfg{i}")
    # The name stands in for the workload's content digest.
    kwargs.setdefault("workload_fingerprint", workload)
    job, deduped = queue.submit({"name": f"cfg{i}"}, workload, n, **kwargs)
    return job, deduped


def reopen(queue, tmp_path, clock=None, **kwargs):
    """Simulate a crash-restart: fresh queue over the same journal."""
    queue.journal.close()
    return make_queue(tmp_path, clock=clock, **kwargs)


class TestStateMachine:
    def test_submit_lease_complete(self, tmp_path):
        queue = make_queue(tmp_path)
        job, deduped = submit(queue)
        assert (job.state, deduped) == (PENDING, False)
        leased = queue.lease("w0")
        assert leased.job_id == job.job_id
        assert leased.state == LEASED
        assert leased.attempts == 1
        done = queue.complete(job.job_id, "w0", {"ipc": 1.5})
        assert done.state == DONE
        assert done.summary == {"ipc": 1.5}
        assert queue.idle()

    def test_complete_requires_the_lease_owner(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = submit(queue)
        queue.lease("w0")
        with pytest.raises(JobStateError, match="lease owner"):
            queue.complete(job.job_id, "intruder")

    def test_complete_without_lease_rejected(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = submit(queue)
        with pytest.raises(JobStateError):
            queue.complete(job.job_id, "w0")

    def test_unknown_job(self, tmp_path):
        queue = make_queue(tmp_path)
        with pytest.raises(JobNotFound):
            queue.get("j999999")

    def test_cancel_pending_is_terminal(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = submit(queue)
        assert queue.cancel(job.job_id).state == CANCELLED
        with pytest.raises(JobStateError, match="terminal"):
            queue.cancel(job.job_id)
        assert queue.lease("w0") is None

    def test_cancel_leased_flags_then_fail_finishes_it(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = submit(queue)
        queue.lease("w0")
        assert queue.cancel(job.job_id).cancel_requested
        queue.fail(job.job_id, "w0", error_type="Cancelled", message="mid-run")
        assert queue.get(job.job_id).state == CANCELLED

    def test_fail_requeues_until_attempts_spent(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=2)
        job, _ = submit(queue)
        queue.lease("w0")
        queue.fail(job.job_id, "w0", error_type="InjectedFault", message="x")
        assert queue.get(job.job_id).state == PENDING
        queue.lease("w1")
        queue.fail(job.job_id, "w1", error_type="InjectedFault", message="x")
        refreshed = queue.get(job.job_id)
        assert refreshed.state == FAILED
        assert refreshed.error["error_type"] == "InjectedFault"
        assert refreshed.error["attempts"] == 2
        assert len(refreshed.attempt_errors) == 1  # first attempt's error

    def test_release_returns_job_to_pending(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = submit(queue)
        queue.lease("w0")
        queue.release(job.job_id, "w0")
        assert queue.get(job.job_id).state == PENDING
        assert queue.lease("w1") is not None


class TestScheduling:
    def test_priority_then_fifo(self, tmp_path):
        queue = make_queue(tmp_path)
        low, _ = submit(queue, 0, priority="low")
        normal_a, _ = submit(queue, 1, priority="normal")
        high, _ = submit(queue, 2, priority="high")
        normal_b, _ = submit(queue, 3, priority="normal")
        order = [queue.lease("w").job_id for _ in range(4)]
        assert order == [high.job_id, normal_a.job_id, normal_b.job_id, low.job_id]

    def test_unknown_priority_rejected(self, tmp_path):
        queue = make_queue(tmp_path)
        with pytest.raises(ValueError, match="priority"):
            submit(queue, priority="urgent")


class TestDedup:
    def test_active_job_deduped(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = submit(queue, 0)
        again, deduped = submit(queue, 0)
        assert deduped and again.job_id == job.job_id
        assert queue.counters.deduped == 1

    def test_done_job_deduped(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = submit(queue, 0)
        queue.lease("w0")
        queue.complete(job.job_id, "w0")
        again, deduped = submit(queue, 0)
        assert deduped and again.state == DONE

    def test_failed_job_resubmittable(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=1)
        job, _ = submit(queue, 0)
        queue.lease("w0")
        queue.fail(job.job_id, "w0", error_type="RunFailure", message="x")
        fresh, deduped = submit(queue, 0)
        assert not deduped and fresh.job_id != job.job_id

    def test_different_length_is_a_different_job(self, tmp_path):
        queue = make_queue(tmp_path)
        a, _ = submit(queue, 0, n=50_000)
        b, deduped = submit(queue, 0, n=100_000)
        assert not deduped and a.job_id != b.job_id


class TestAdmission:
    def test_queue_full_typed_rejection(self, tmp_path):
        queue = make_queue(tmp_path, max_depth=2, shed_watermark=1.1)
        submit(queue, 0)
        submit(queue, 1)
        with pytest.raises(QueueFull) as info:
            submit(queue, 2)
        assert info.value.retry_after_s >= 1.0
        assert queue.counters.rejected_full == 1
        assert len(queue) == 2  # nothing was enqueued

    def test_per_submitter_quota(self, tmp_path):
        queue = make_queue(tmp_path, quota=1)
        submit(queue, 0, submitter="alice")
        with pytest.raises(QuotaExceeded, match="alice"):
            submit(queue, 1, submitter="alice")
        # A different submitter still gets in.
        job, _ = submit(queue, 1, submitter="bob")
        assert job.state == PENDING
        assert queue.counters.rejected_quota == 1

    def test_terminal_jobs_free_depth_and_quota(self, tmp_path):
        queue = make_queue(tmp_path, max_depth=1, quota=1, shed_watermark=1.1)
        job, _ = submit(queue, 0, submitter="alice")
        queue.lease("w0")
        queue.complete(job.job_id, "w0")
        next_job, _ = submit(queue, 1, submitter="alice")
        assert next_job.state == PENDING


class TestLoadShedding:
    def test_low_priority_degrades_above_watermark(self, tmp_path):
        queue = make_queue(
            tmp_path, max_depth=4, shed_watermark=0.5, shed_n_instrs=1000
        )
        submit(queue, 0)
        submit(queue, 1)  # depth 2 >= 0.5 * 4: shedding active
        job, _ = submit(queue, 2, priority="low", n=50_000)
        assert job.degraded
        assert job.n_instrs == 1000
        assert job.requested_n_instrs == 50_000
        assert queue.counters.shed_degraded == 1

    def test_normal_priority_not_shed(self, tmp_path):
        queue = make_queue(tmp_path, max_depth=4, shed_watermark=0.5)
        submit(queue, 0)
        submit(queue, 1)
        job, _ = submit(queue, 2, priority="normal", n=50_000)
        assert not job.degraded and job.n_instrs == 50_000

    def test_below_watermark_low_priority_runs_full(self, tmp_path):
        queue = make_queue(tmp_path, max_depth=8, shed_watermark=0.75)
        job, _ = submit(queue, 0, priority="low", n=50_000)
        assert not job.degraded


class TestLeases:
    def test_expiry_reclaims_to_pending(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock, lease_s=10.0)
        job, _ = submit(queue)
        queue.lease("w0")
        clock.advance(11.0)
        reclaimed = queue.expire_leases()
        assert [j.job_id for j in reclaimed] == [job.job_id]
        assert queue.get(job.job_id).state == PENDING
        assert queue.counters.leases_expired == 1

    def test_renewal_defers_expiry(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock, lease_s=10.0)
        job, _ = submit(queue)
        queue.lease("w0")
        clock.advance(8.0)
        queue.renew(job.job_id, "w0")
        clock.advance(8.0)
        assert queue.expire_leases() == []
        assert queue.get(job.job_id).state == LEASED

    def test_expiry_exhausts_attempts_to_failed(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock, lease_s=10.0, max_attempts=2)
        job, _ = submit(queue)
        for _ in range(2):
            queue.lease("w0")
            clock.advance(11.0)
            queue.expire_leases()
        refreshed = queue.get(job.job_id)
        assert refreshed.state == FAILED
        assert refreshed.error["error_type"] == "LeaseExpired"


class TestCircuitBreaker:
    def crash(self, queue, job_id, worker="w0"):
        queue.lease(worker)
        queue.fail(
            job_id, worker, error_type="WorkerCrashError", message="boom"
        )

    def test_opens_after_threshold_crashes(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(
            tmp_path, clock=clock, breaker_threshold=2, max_attempts=10
        )
        job, _ = submit(queue, 0)
        self.crash(queue, job.job_id)
        self.crash(queue, job.job_id)
        # The circuit is open: the job was terminally failed and fresh
        # submissions of the same config are rejected.
        assert queue.get(job.job_id).state == FAILED
        with pytest.raises(CircuitOpen) as info:
            submit(queue, 0)
        assert info.value.retry_after_s > 0
        assert queue.counters.rejected_breaker == 1
        # Other configs are unaffected.
        other, _ = submit(queue, 1)
        assert other.state == PENDING

    def test_half_open_probe_closes_on_success(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(
            tmp_path, clock=clock, breaker_threshold=1,
            breaker_cooldown_s=100.0, max_attempts=10,
        )
        job, _ = submit(queue, 0)
        self.crash(queue, job.job_id)
        clock.advance(101.0)  # cooldown over: half-open
        probe, deduped = submit(queue, 0)
        assert not deduped
        leased = queue.lease("w1")
        assert leased.job_id == probe.job_id
        # Only one probe at a time: a second pending job of the same
        # fingerprint is withheld while the probe is in flight.
        submit(queue, 0, workload="wl2")
        assert queue.lease("w2") is None
        queue.complete(probe.job_id, "w1")
        assert queue.lease("w2") is not None  # circuit closed

    def test_half_open_probe_failure_reopens(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(
            tmp_path, clock=clock, breaker_threshold=1,
            breaker_cooldown_s=100.0, max_attempts=10,
        )
        job, _ = submit(queue, 0)
        self.crash(queue, job.job_id)
        clock.advance(101.0)
        probe, _ = submit(queue, 0)
        self.crash(queue, probe.job_id, "w1")
        with pytest.raises(CircuitOpen):
            submit(queue, 0, workload="wl3")

    def test_non_crash_failures_do_not_trip_it(self, tmp_path):
        queue = make_queue(tmp_path, breaker_threshold=1, max_attempts=10)
        job, _ = submit(queue, 0)
        queue.lease("w0")
        queue.fail(job.job_id, "w0", error_type="RunTimeoutError", message="slow")
        again, _ = submit(queue, 0, workload="wl2")
        assert again.state == PENDING


class TestRecovery:
    def test_replay_rebuilds_exact_state(self, tmp_path):
        queue = make_queue(tmp_path)
        a, _ = submit(queue, 0)
        b, _ = submit(queue, 1)
        c, _ = submit(queue, 2)
        queue.lease("w0")  # leases a? (priority fifo: a)
        queue.complete(a.job_id, "w0", {"ipc": 2.0})
        queue.cancel(c.job_id)

        recovered = reopen(queue, tmp_path)
        assert len(recovered) == 3
        assert recovered.get(a.job_id).state == DONE
        assert recovered.get(a.job_id).summary == {"ipc": 2.0}
        assert recovered.get(b.job_id).state == PENDING
        assert recovered.get(c.job_id).state == CANCELLED
        # The dedup index survives: resubmitting the done point dedups.
        again, deduped = submit(recovered, 0)
        assert deduped and again.job_id == a.job_id

    def test_leased_jobs_reclaimed_after_crash(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = submit(queue)
        queue.lease("w0")
        recovered = reopen(queue, tmp_path)
        refreshed = recovered.get(job.job_id)
        assert refreshed.state == PENDING
        assert refreshed.lease_owner is None
        assert refreshed.attempts == 1  # the dead lease still counted
        assert recovered.counters.leases_recovered == 1

    def test_lease_after_unjournaled_recovery_replays_cleanly(self, tmp_path):
        """recover_lease deliberately skips the journal (the disk is the
        suspect), so a valid WAL can carry lease-after-lease.  Replay must
        treat the second grant as a takeover — no skipped records, no
        double-counted attempt — so fsck sees a consistent journal."""
        queue = make_queue(tmp_path)
        job, _ = submit(queue)
        queue.lease("w0")
        queue.recover_lease(job.job_id, "w0")  # memory-only release
        released = queue.get(job.job_id)
        assert released.state == PENDING and released.attempts == 0
        queue.lease("w1")  # journals a lease over the still-LEASED WAL state

        recovered = reopen(queue, tmp_path)
        assert recovered.replay_stats.errors == []
        refreshed = recovered.get(job.job_id)
        assert refreshed.state == PENDING  # dead lease reclaimed at startup
        assert refreshed.attempts == 1  # the refund survives replay

    def test_breaker_state_survives_restart(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(
            tmp_path, clock=clock, breaker_threshold=1, max_attempts=10
        )
        job, _ = submit(queue, 0)
        queue.lease("w0")
        queue.fail(job.job_id, "w0", error_type="WorkerOOMError", message="oom")
        recovered = reopen(queue, tmp_path, clock=clock, breaker_threshold=1)
        with pytest.raises(CircuitOpen):
            submit(recovered, 0, workload="wl2")

    def test_compaction_preserves_state_and_bounds_journal(self, tmp_path):
        queue = make_queue(tmp_path)
        jobs = [submit(queue, i)[0] for i in range(4)]
        leased = queue.lease("w0")
        queue.complete(leased.job_id, "w0")
        queue.compact()
        records, _ = Journal(tmp_path / "j.wal", fsync=False).replay()
        assert all(r["op"] in ("job", "breaker") for r in records)
        recovered = reopen(queue, tmp_path)
        assert {j.job_id: j.state for j in recovered.jobs()} == {
            j.job_id: queue.get(j.job_id).state for j in jobs
        }

    def test_torn_journal_tail_costs_only_the_torn_record(self, tmp_path):
        queue = make_queue(tmp_path)
        a, _ = submit(queue, 0)
        b, _ = submit(queue, 1)
        queue.journal.close()
        path = tmp_path / "j.wal"
        with open(path, "ab") as fh:
            fh.write(b"J1 00000000 5 {torn")  # the crash-torn final append
        recovered = make_queue(tmp_path)
        assert recovered.replay_stats.torn_bytes > 0
        assert {j.job_id for j in recovered.jobs()} == {a.job_id, b.job_id}

    def test_stats_shape(self, tmp_path):
        queue = make_queue(tmp_path)
        submit(queue)
        stats = queue.stats()
        assert stats["depth"] == 1
        assert stats["states"]["pending"] == 1
        assert stats["counters"]["submitted"] == 1
        assert "journal_replay" in stats
