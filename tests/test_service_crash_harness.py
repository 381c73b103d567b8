"""The prefix-replay crash harness: the standing exactly-once proof.

A scripted campaign runs with :class:`repro.service.chaos.ChaosFS` recording
every syscall-boundary mutation.  An *ack ledger* notes the op-log length at
the instant each queue acknowledgement returned to its caller.  Then, for
100+ seeded random cut points — including torn final writes — the op-log
prefix is replayed into a fresh directory (the exact disk a ``kill -9`` at
that instant leaves) and the service recovers from it.  The contract under
test:

* every mutation acknowledged at or before the cut survives recovery with
  its acknowledged state (done stays done, failed stays failed, ...);
* nothing is duplicated: one live job per dedup key, ever;
* recovery itself never errors — a prefix of syscalls is always a valid
  journal prefix;
* with checkpoints in the picture (the daemon test), ``fsck`` finds no
  invariant errors at any cut and acked results are byte-identical to a
  serial run.
"""

import json

import pytest

from repro.runner import ExperimentRunner, ResultStore
from repro.service import build_service
from repro.service.chaos import ChaosFS, cut_points, replay_prefix
from repro.service.fsck import check_state_dir
from repro.service.http import preset_configs
from repro.service.journal import Journal
from repro.service.queue import CANCELLED, DONE, FAILED, LEASED, JobQueue
from repro.sim.serialization import config_to_dict, result_to_dict


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        self.t += 0.01
        return self.t


def recover(state_dir):
    """Crash-recover a queue from a replayed prefix directory."""
    return JobQueue(Journal(state_dir / "journal.wal", fsync=False),
                    clock=FakeClock())


class TestQueueExactlyOnce:
    """Queue-only harness: scripted mutations, acks pinned to op counts."""

    def run_scripted_campaign(self, root):
        """Drive a queue through every state transition under recording.

        Returns ``(ops, ledger)`` where ledger entries are
        ``(expectation, job_id, op_count_at_ack, extra)``.
        """
        chaos = ChaosFS(root=root)
        ledger = []

        def ack(kind, job, extra=None):
            ledger.append((kind, job.job_id, len(chaos.ops), extra))

        with chaos.install():
            queue = JobQueue(
                Journal(root / "journal.wal"), clock=FakeClock(),
                max_attempts=2, max_depth=16, quota=16,
            )
            jobs = []
            for i in range(6):
                job, _ = queue.submit(
                    {"name": f"cfg{i}"}, "wl", 50_000,
                    fingerprint=f"fp{i:04d}", config_name=f"cfg{i}",
                    workload_fingerprint="wfp-wl",
                )
                jobs.append(job)
                ack("exists", job)

            # j0: clean completion.
            queue.lease("w0")
            queue.complete(jobs[0].job_id, "w0", {"ipc": 1.5})
            ack("done", jobs[0], {"ipc": 1.5})

            # j1: fail, requeue, fail again -> terminal.
            queue.lease("w0")
            queue.fail(jobs[1].job_id, "w0",
                       error_type="RunFailure", message="attempt 1")
            queue.lease("w0")
            queue.fail(jobs[1].job_id, "w0",
                       error_type="RunFailure", message="attempt 2")
            ack("failed", jobs[1])

            # j2: cancelled while pending.
            queue.cancel(jobs[2].job_id)
            ack("cancelled", jobs[2])

            # Compact mid-history: cuts landing inside the rewrite's
            # temp-write/rename window must still recover cleanly.
            queue.compact()

            # j3: completed after the compaction.
            queue.lease("w1")
            queue.complete(jobs[3].job_id, "w1", {"ipc": 0.9})
            ack("done", jobs[3], {"ipc": 0.9})

            # j4: left leased — the crash takes its worker with it.
            queue.lease("w1")

            # j5: a late submission that stays pending.
            job, _ = queue.submit(
                {"name": "late"}, "wl", 50_000,
                fingerprint="fp-late", config_name="late",
                workload_fingerprint="wfp-wl",
            )
            ack("exists", job)
            queue.journal.close()
        return chaos.ops, ledger

    def check_cut(self, state_dir, ledger, cut_index):
        queue = recover(state_dir)
        stats = queue.replay_stats
        # A torn-tail decode note is expected crash debris; a committed
        # record that fails to *replay* is not.
        skipped = [e for e in stats.errors if "replay skipped" in e]
        assert not skipped, f"cut {cut_index}: recovery errors {skipped}"
        for kind, job_id, acked_at, extra in ledger:
            if acked_at > cut_index:
                continue  # acked after the crash: no promise to keep
            job = queue._jobs.get(job_id)
            assert job is not None, (
                f"cut {cut_index}: acked job {job_id} lost"
            )
            if kind == "done":
                assert job.state == DONE, (
                    f"cut {cut_index}: {job_id} acked done, now {job.state}"
                )
                assert job.summary == extra
            elif kind == "failed":
                assert job.state == FAILED
            elif kind == "cancelled":
                assert job.state == CANCELLED
        # Recovery reclaims every dead lease.
        assert not any(j.state == LEASED for j in queue._jobs.values())
        # No duplicates: at most one live/done holder per dedup key.
        holders: dict = {}
        for job in queue._jobs.values():
            if job.state in (FAILED, CANCELLED):
                continue
            holders.setdefault(job.key, []).append(job.job_id)
        dupes = {k: v for k, v in holders.items() if len(v) > 1}
        assert not dupes, f"cut {cut_index}: duplicate live jobs {dupes}"
        queue.journal.close()

    def test_exactly_once_across_100_plus_cut_points(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        ops, ledger = self.run_scripted_campaign(work)
        assert len(ops) > 10
        assert any(kind == "done" for kind, *_ in ledger)

        cuts = cut_points(ops, 110, seed=7)
        assert len(cuts) >= 100
        for serial, (index, partial) in enumerate(cuts):
            state_dir = tmp_path / f"cut-{serial}"
            replay_prefix(ops, state_dir, index, partial_bytes=partial)
            self.check_cut(state_dir, ledger, index)

    def test_torn_final_write_never_loses_a_prior_ack(self, tmp_path):
        """Dedicated byte-sweep of the last journal append: every torn
        prefix of the final record keeps all earlier acks intact."""
        work = tmp_path / "work"
        work.mkdir()
        ops, ledger = self.run_scripted_campaign(work)
        last_write = max(
            i for i, e in enumerate(ops)
            if e["op"] == "write" and e["path"] == "journal.wal"
        )
        data = ops[last_write]["data"]
        for cut_bytes in range(len(data) + 1):
            state_dir = tmp_path / f"torn-{cut_bytes}"
            replay_prefix(ops, state_dir, last_write, partial_bytes=cut_bytes)
            self.check_cut(state_dir, ledger, last_write)


class TestServiceExactlyOnce:
    """Full-stack harness: real daemon, real checkpoints, fsck at each cut."""

    N = 2000

    def run_campaign(self, state_dir):
        chaos = ChaosFS(root=state_dir)
        presets = preset_configs()
        with chaos.install():
            service = build_service(
                state_dir / "journal.wal", state_dir / "ckpt",
                poll_s=0.01,
            )
            for preset in ("baseline_server", "CATCH"):
                service.submit_config(
                    config_to_dict(presets[preset]), "hmmer_like", self.N,
                )
            service.start()
            try:
                assert service.wait_idle(timeout=60)
            finally:
                service.stop()
                service.queue.journal.close()
        return chaos.ops

    def serial_results(self):
        runner = ExperimentRunner(store=ResultStore())
        presets = preset_configs()
        return {
            preset: result_to_dict(
                runner.run(presets[preset], "hmmer_like", self.N)
            )
            for preset in ("baseline_server", "CATCH")
        }

    def test_fsck_clean_and_results_serial_identical_at_every_cut(
        self, tmp_path
    ):
        state = tmp_path / "state"
        state.mkdir()
        ops = self.run_campaign(state)
        serial = self.serial_results()

        # The completed campaign itself is fsck-clean...
        report = check_state_dir(state)
        assert report.ok, [f.message for f in report.findings]
        assert report.checked["done_jobs"] == 2

        # ...and so is the recovery from every one of 40 seeded cuts.
        for serial_no, (index, partial) in enumerate(
            cut_points(ops, 40, seed=11)
        ):
            cut_dir = tmp_path / f"cut-{serial_no}"
            replay_prefix(ops, cut_dir, index, partial_bytes=partial)
            report = check_state_dir(cut_dir)
            errors = [f"{f.code}: {f.message}" for f in report.errors]
            assert report.ok, f"cut {index}: {errors}"

        # At the full prefix, every checkpointed result is byte-identical
        # to the serial runner's.
        full = tmp_path / "full"
        replay_prefix(ops, full)
        checkpoints = sorted((full / "ckpt").glob("*.json"))
        assert len(checkpoints) == 2
        by_config = {
            json.loads(p.read_text())["config"]["name"]: p
            for p in checkpoints
        }
        for preset, expected in serial.items():
            payload = json.loads(by_config[preset].read_text())
            assert payload["result"] == expected

    def test_acked_done_jobs_survive_service_recovery(self, tmp_path):
        """Recover a *service* (not just a queue) from a mid-campaign cut:
        done jobs stay done and their results serve from the store."""
        state = tmp_path / "state"
        state.mkdir()
        ops = self.run_campaign(state)
        cut_dir = tmp_path / "recovered"
        replay_prefix(ops, cut_dir)  # the post-crash full prefix
        service = build_service(
            cut_dir / "journal.wal", cut_dir / "ckpt", fsync=False,
        )
        try:
            done = [j for j in service.queue.jobs() if j.state == DONE]
            assert len(done) == 2
            for job in done:
                assert service.result_payload(job) is not None
        finally:
            service.queue.journal.close()
