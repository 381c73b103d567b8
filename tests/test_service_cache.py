"""Service-side tests for the result-cache tier and the keying bugfixes.

Covers the ``done-cached`` journal outcome (completion without a lease,
replay, counters), submit-time cache resolution through a real daemon
(byte-identical payloads across daemons, exact keys only), the
degraded-dedup leak regression, and fsck's view of cached jobs.
"""

import json

import pytest

from repro.cache import ResultCache
from repro.errors import JobStateError
from repro.service import DONE, PENDING, build_service, make_server, serve_in_thread
from repro.runner import ExperimentRunner, ResultStore
from repro.service.fsck import check_state_dir, repair_state_dir
from repro.service.http import preset_configs
from repro.service.journal import Journal
from repro.service.queue import JobQueue
from repro.sim.serialization import config_to_dict, result_to_dict

N = 2000
WL = "hmmer_like"


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def make_queue(state_dir, **kwargs):
    kwargs.setdefault("max_depth", 8)
    kwargs.setdefault("quota", 8)
    kwargs.setdefault("shed_n_instrs", 1000)
    state_dir.mkdir(parents=True, exist_ok=True)
    journal = Journal(state_dir / "journal.wal", fsync=False)
    return JobQueue(journal, clock=FakeClock(), **kwargs)


def submit(queue, *, fingerprint="fp0", workload=WL, n=50_000, **kwargs):
    kwargs.setdefault("config_name", "cfg")
    # The name stands in for the workload's content digest.
    kwargs.setdefault("workload_fingerprint", workload)
    job, deduped = queue.submit(
        {"name": "cfg"}, workload, n, fingerprint=fingerprint, **kwargs
    )
    return job, deduped


def make_service(state_dir, **kwargs):
    queue_kwargs = kwargs.pop("queue_kwargs", {})
    return build_service(
        state_dir / "journal.wal", state_dir / "ckpt", fsync=False,
        queue_kwargs=queue_kwargs, **kwargs,
    )


def submit_preset(service, preset="baseline_server", workload=WL, n=N, **kw):
    payload = config_to_dict(preset_configs()[preset])
    job, deduped = service.submit_config(payload, workload, n, **kw)
    return job, deduped


def run_to_idle(service, timeout=60):
    service.start()
    try:
        assert service.wait_idle(timeout=timeout)
    finally:
        service.stop()


class TestDoneCachedJournal:
    def test_pending_to_done_without_a_lease(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = submit(queue)
        assert job.state == PENDING
        done = queue.complete_cached(
            job.job_id, summary={"ipc": 1.0, "cached": True},
            provenance={"cache_hit": True, "key": ["fp0", WL, 50_000]},
        )
        assert done.state == DONE
        assert done.cached is True
        assert done.cache_provenance["cache_hit"] is True
        assert done.lease_owner is None
        assert done.attempts == 0
        assert queue.counters.done_cached == 1
        assert queue.counters.completed == 1
        assert queue.idle()

    def test_only_pending_jobs_can_complete_cached(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = submit(queue)
        queue.lease("w0")
        with pytest.raises(JobStateError):
            queue.complete_cached(job.job_id)

    def test_replay_preserves_cached_completion(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = submit(queue)
        queue.complete_cached(
            job.job_id, summary={"ipc": 2.0},
            provenance={"cache_hit": True, "key": ["fp0", WL, 50_000]},
        )
        queue.journal.close()
        replayed = make_queue(tmp_path)
        back = replayed.get(job.job_id)
        assert back.state == DONE
        assert back.cached is True
        assert back.cache_provenance["cache_hit"] is True
        assert back.summary == {"ipc": 2.0}
        replayed.journal.close()

    def test_cached_completion_does_not_feed_retry_hint(self, tmp_path):
        queue = make_queue(tmp_path)
        before = queue._retry_after()
        job, _ = submit(queue)
        queue.complete_cached(job.job_id)
        assert queue._retry_after() == before


class TestDedupLeakRegression:
    """A full-length submission must never dedup against a clamped
    quick-mode result (the degraded-dedup leak)."""

    SHED = dict(max_depth=4, shed_watermark=0.5, shed_n_instrs=1000)

    def _degraded_done(self, queue):
        """Shed one low-priority job into degraded mode and complete it."""
        submit(queue, fingerprint="fill0")
        submit(queue, fingerprint="fill1")
        shed, _ = submit(queue, fingerprint="fp0", priority="low")
        assert shed.degraded and shed.n_instrs == 1000
        assert shed.requested_n_instrs == 50_000
        while True:
            leased = queue.lease("w0")
            queue.complete(leased.job_id, "w0", {"ipc": 1.0})
            if leased.job_id == shed.job_id:
                return shed

    def test_full_length_resubmit_is_not_deduped(self, tmp_path):
        queue = make_queue(tmp_path, **self.SHED)
        shed = self._degraded_done(queue)
        fresh, deduped = submit(queue, fingerprint="fp0")
        assert deduped is False
        assert fresh.job_id != shed.job_id
        assert fresh.degraded is False
        assert fresh.n_instrs == 50_000
        # The full job takes over the key's dedup slot: a *third* identical
        # full-length submission dedups against it, not the estimate.
        again, deduped = submit(queue, fingerprint="fp0")
        assert deduped is True
        assert again.job_id == fresh.job_id

    def test_degraded_against_degraded_still_dedups(self, tmp_path):
        queue = make_queue(tmp_path, **self.SHED)
        submit(queue, fingerprint="fill0")
        submit(queue, fingerprint="fill1")
        shed, _ = submit(queue, fingerprint="fp0", priority="low")
        assert shed.degraded
        again, deduped = submit(queue, fingerprint="fp0", priority="low")
        assert deduped is True
        assert again.job_id == shed.job_id

    def test_shed_job_holds_the_requested_length_key(self, tmp_path):
        queue = make_queue(tmp_path, **self.SHED)
        submit(queue, fingerprint="fill0")
        submit(queue, fingerprint="fill1")
        shed, _ = submit(queue, fingerprint="fp0", priority="low")
        assert shed.key == ("fp0", WL, 50_000)
        # A genuine 1000-instruction request is a *different* point: it
        # must not collide with the clamp artifact.
        quick, deduped = submit(queue, fingerprint="fp0", n=1000)
        assert deduped is False
        assert quick.key == ("fp0", WL, 1000)


class TestDaemonCacheResolution:
    def test_second_daemon_serves_byte_identical_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = make_service(tmp_path / "svc1", cache=cache)
        job1, _ = submit_preset(first)
        run_to_idle(first)
        done1 = first.queue.get(job1.job_id)
        assert done1.state == DONE and done1.cached is False
        payload1 = first.result_payload(done1)
        assert cache.stats.puts == 1

        # Fresh state dir, same cache: the job completes at submit time.
        second = make_service(tmp_path / "svc2", cache=cache)
        job2, deduped = submit_preset(second)
        assert deduped is False
        assert job2.state == DONE
        assert job2.cached is True
        assert job2.cache_provenance["cache_hit"] is True
        assert job2.summary["cached"] is True
        assert second.queue.counters.done_cached == 1
        assert json.dumps(second.result_payload(job2), sort_keys=True) == (
            json.dumps(payload1, sort_keys=True)
        )
        # Zero re-simulation: the executors never had anything to lease.
        run_to_idle(second, timeout=10)
        assert second.queue.counters.done_cached == 1
        # The exact hit re-checkpoints into the new campaign's store, so
        # fsck sees a complete state dir.
        assert check_state_dir(tmp_path / "svc2").ok

    def test_longer_request_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        warm = make_service(tmp_path / "warm", cache=cache)
        submit_preset(warm, n=N)
        run_to_idle(warm)

        # The same point at another length is a different key: it runs.
        cold = make_service(tmp_path / "cold", cache=cache)
        job, _ = submit_preset(cold, n=2 * N)
        assert job.state == PENDING and job.cached is False
        assert cache.stats.exact_hits == 0
        cold.queue.journal.close()

    def test_cached_job_result_over_http(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        warm = make_service(tmp_path / "warm", cache=cache)
        first, _ = submit_preset(warm)
        run_to_idle(warm)
        measured = warm.result_payload(warm.queue.get(first.job_id))

        service = make_service(tmp_path / "svc", cache=cache)
        job, _ = submit_preset(service)
        server = make_server(service)
        serve_in_thread(server)
        host, port = server.server_address
        try:
            import urllib.request

            with urllib.request.urlopen(
                f"http://{host}:{port}/api/v1/jobs/{job.job_id}/result",
                timeout=10,
            ) as resp:
                assert resp.status == 200
                body = json.loads(resp.read())
        finally:
            server.shutdown()
            server.server_close()
            service.queue.journal.close()
        assert body["cached"] is True
        assert body["cache_provenance"]["cache_hit"] is True
        assert json.dumps(body["result"], sort_keys=True) == (
            json.dumps(measured, sort_keys=True)
        )

    def test_service_stats_and_gauges_expose_cache_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        service = make_service(tmp_path / "svc", cache=cache)
        job1, _ = submit_preset(service)
        run_to_idle(service)
        job2, _ = submit_preset(
            service, workload="mcf_like"
        )  # different key: a miss
        stats = service.service_stats()
        assert stats["counters"]["done_cached"] == 0
        assert stats["cache"]["puts"] == 1
        assert stats["cache"]["misses"] >= 1
        assert stats["cache"]["entries"] == 1
        assert stats["cache"]["bytes"] > 0


class TestFsckCacheAwareness:
    def test_exact_cached_done_without_checkpoint_is_flagged(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = submit(queue)
        queue.complete_cached(
            job.job_id, provenance={"cache_hit": True, "key": ["fp0", WL, 50_000]}
        )
        queue.journal.close()
        report = check_state_dir(tmp_path)
        assert any(f.code == "done-no-checkpoint" for f in report.errors)

    def test_old_near_cached_done_is_demoted_and_rerun_exactly(self, tmp_path):
        # A journal written by an older daemon that served estimates: a
        # done-cached job with near_hit provenance and no checkpoint.
        state = tmp_path / "svc"
        old = make_service(state)
        job, _ = submit_preset(old)
        old.queue.complete_cached(
            job.job_id, summary={"ipc": 1.0, "cached": True},
            provenance={
                "near_hit": True, "mode": "lower_n",
                "source_key": ["fp0", WL, N // 2],
                "requested_n_instrs": N, "source_n_instrs": N // 2,
            },
        )
        old.queue.journal.close()

        report = check_state_dir(state)
        codes = [f.code for f in report.errors]
        assert codes == ["done-no-checkpoint"]

        repaired = repair_state_dir(state)
        assert repaired.ok
        assert any(f"demoted {job.job_id}" in r for r in repaired.repairs)

        service = make_service(state)
        demoted = service.queue.get(job.job_id)
        assert demoted.state == PENDING
        assert demoted.cached is False and demoted.cache_provenance is None
        run_to_idle(service)
        done = service.queue.get(job.job_id)
        assert done.state == DONE and done.cached is False
        config = preset_configs()["baseline_server"]
        exact = ExperimentRunner(ResultStore()).run(config, WL, N)
        assert json.dumps(service.result_payload(done), sort_keys=True) == (
            json.dumps(result_to_dict(exact), sort_keys=True)
        )
        assert check_state_dir(state).ok

    def test_degraded_and_full_pair_is_not_a_dedup_duplicate(self, tmp_path):
        queue = make_queue(
            tmp_path, **TestDedupLeakRegression.SHED
        )
        helper = TestDedupLeakRegression()
        helper._degraded_done(queue)
        fresh, deduped = submit(queue, fingerprint="fp0")
        assert not deduped
        queue.complete(queue.lease("w0").job_id, "w0", {"ipc": 1.0})
        queue.journal.close()
        report = check_state_dir(tmp_path)
        assert not any(f.code == "dedup-duplicate" for f in report.findings)

    def test_two_full_jobs_on_one_key_are_still_flagged(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = submit(queue)
        clone = dict(queue.get(job.job_id).to_dict(), job_id="j999999", seq=999)
        queue.journal.append({"op": "submit", "job": clone})
        queue.journal.close()
        report = check_state_dir(tmp_path)
        assert any(f.code == "dedup-duplicate" for f in report.errors)
