"""Tests for the offline crash-consistency checker (repro.service.fsck).

A golden state dir — one real campaign run to completion — is corrupted one
seeded class at a time; ``check`` must name each class, ``--repair`` must
quarantine-and-rebuild back to a passing state, and repair must refuse to
touch a state dir a live daemon is serving.
"""

import json
import os
import shutil

import pytest

from repro.cache.cli import main as cache_main
from repro.service import DONE, PENDING, build_service
from repro.service.fsck import (
    EXIT_ERRORS,
    EXIT_OK,
    EXIT_REFUSED,
    check_state_dir,
    main,
    repair_state_dir,
)
from repro.service.http import preset_configs
from repro.service.journal import Journal, encode_record, scan_journal
from repro.service.queue import JobQueue, replay_state
from repro.sim.serialization import config_to_dict


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """One completed campaign: journal + checkpoint + flight dump."""
    state = tmp_path_factory.mktemp("golden")
    service = build_service(
        state / "journal.wal", state / "ckpt", fsync=False, poll_s=0.01,
    )
    service.submit_config(
        config_to_dict(preset_configs()["baseline_server"]),
        "hmmer_like", 2000,
    )
    service.start()
    try:
        assert service.wait_idle(timeout=60)
    finally:
        service.stop()
    service.dump_flight_recorder("golden")
    service.queue.journal.close()
    return state


@pytest.fixture
def state(golden, tmp_path):
    """A disposable copy of the golden state dir."""
    target = tmp_path / "state"
    shutil.copytree(golden, target)
    return target


def codes(report):
    return {f.code for f in report.findings}


def append_records(state, payloads):
    with open(state / "journal.wal", "ab") as fh:
        for payload in payloads:
            fh.write(encode_record(payload))


def checkpoint_file(state):
    files = [
        p for p in (state / "ckpt").glob("*.json") if ".corrupt" not in p.name
    ]
    assert len(files) == 1
    return files[0]


class TestCheckClean:
    def test_golden_state_is_clean(self, state):
        report = check_state_dir(state)
        assert report.ok
        assert report.findings == []
        assert report.checked["done_jobs"] == 1
        assert report.checked["checkpoints"] == 1
        assert report.checked["flight_dumps"] == 1

    def test_empty_dir_warns_but_is_ok(self, tmp_path):
        report = check_state_dir(tmp_path)
        assert report.ok
        assert codes(report) == {"journal-missing"}


class TestCorruptionClasses:
    def test_torn_journal_tail(self, state):
        with open(state / "journal.wal", "ab") as fh:
            fh.write(b"J1 deadbeef 99 {half a rec")
        report = check_state_dir(state)
        assert report.ok  # a torn tail is debris, not an invariant break
        assert "journal-torn-tail" in codes(report)
        # Strictly read-only: the torn bytes are still there afterwards.
        assert (state / "journal.wal").read_bytes().endswith(b"{half a rec")

    def test_invalid_record(self, state):
        append_records(state, [{"op": "done", "id": "j-no-such"}])
        report = check_state_dir(state)
        assert not report.ok
        assert "journal-invalid-record" in codes(report)

    def test_orphan_lease(self, state):
        append_records(state, [
            {"op": "submit", "job": _job_dict("j009901", 991)},
            {"op": "lease", "id": "j009901", "owner": "w-dead",
             "expires_at": 1e12},
        ])
        report = check_state_dir(state)
        assert report.ok  # recoverable by replay, so a warning
        assert "orphan-lease" in codes(report)

    def test_done_without_checkpoint(self, state):
        checkpoint_file(state).unlink()
        report = check_state_dir(state)
        assert not report.ok
        assert "done-no-checkpoint" in codes(report)

    def test_done_with_corrupt_checkpoint(self, state):
        checkpoint_file(state).write_text("{not json")
        report = check_state_dir(state)
        assert not report.ok
        assert "done-corrupt-checkpoint" in codes(report)
        assert "checkpoint-corrupt" in codes(report)

    def test_duplicate_dedup_key(self, state):
        twin = _job_dict("j009902", 992)
        twin2 = dict(twin, job_id="j009903", seq=993)
        append_records(state, [
            {"op": "submit", "job": twin},
            {"op": "submit", "job": twin2},
        ])
        report = check_state_dir(state)
        assert not report.ok
        assert "dedup-duplicate" in codes(report)

    def test_tmp_residue(self, state):
        (state / "ckpt" / "half-written.json.tmp").write_text("{")
        report = check_state_dir(state)
        assert report.ok
        assert "tmp-residue" in codes(report)

    def test_corrupt_flight_dump(self, state):
        dump = next(state.glob("flightrec-*.jsonl"))
        dump.write_text('{"ok": true}\n{broken line\n')
        report = check_state_dir(state)
        assert report.ok
        assert "flight-dump-corrupt" in codes(report)

    def test_live_daemon_warning(self, state):
        (state / "service.json").write_text(
            json.dumps({"pid": os.getpid()})
        )
        report = check_state_dir(state)
        assert "daemon-alive" in codes(report)

    def test_dead_pid_in_ready_file_is_quiet(self, state):
        (state / "service.json").write_text(json.dumps({"pid": 2 ** 22 + 11}))
        report = check_state_dir(state)
        assert "daemon-alive" not in codes(report)


class TestOneEntryFormat:
    def test_cache_ls_lists_daemon_checkpoints(self, state, capsys):
        assert cache_main(["ls", str(state / "ckpt"), "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert (row["workload"], row["n_instrs"]) == ("hmmer_like", 2000)
        assert row["entry"] == checkpoint_file(state).name

    @pytest.mark.parametrize("old_name", [False, True])
    def test_pre_unification_checkpoint_is_corrupt(self, state, old_name):
        path = checkpoint_file(state)
        payload = json.loads(path.read_text())
        payload["checkpoint_version"] = payload.pop("entry_version")
        if old_name:
            # The name-keyed stem of the pre-fingerprint store.
            fp = payload["fingerprint"]
            path.unlink()
            path = path.with_name(
                f"baseline_server--hmmer_like--2000--{fp[:12]}.json"
            )
        path.write_text(json.dumps(payload))
        report = check_state_dir(state)
        assert not report.ok
        corrupt = [f for f in report.findings if f.code == "checkpoint-corrupt"]
        assert [f.path for f in corrupt] == [str(path)]

    def test_record_without_workload_fingerprint_fails_replay(self, state):
        job = _job_dict("j009904", 994)
        del job["workload_fingerprint"]
        append_records(state, [{"op": "submit", "job": job}])
        records, _ = scan_journal(state / "journal.wal")
        jobs, _, _, errors = replay_state(records)
        assert "j009904" not in jobs
        assert len(errors) == 1 and "workload_fingerprint" in errors[0]
        assert "journal-invalid-record" in codes(check_state_dir(state))
        report = repair_state_dir(state)
        assert report.ok
        assert "dropped 1 journal record(s) that did not replay" in (
            report.repairs
        )


class TestRepair:
    def test_repair_clean_state_is_a_no_op_compaction(self, state):
        report = repair_state_dir(state)
        assert report.ok
        assert any("rewrote journal" in r for r in report.repairs)

    def test_repair_truncates_torn_tail(self, state):
        with open(state / "journal.wal", "ab") as fh:
            fh.write(b"garbage-tail")
        report = repair_state_dir(state)
        assert report.ok
        assert "journal-torn-tail" not in codes(report)
        assert any("torn journal bytes" in r for r in report.repairs)

    def test_repair_drops_invalid_records(self, state):
        append_records(state, [{"op": "done", "id": "j-no-such"}])
        report = repair_state_dir(state)
        assert report.ok
        assert any("did not replay" in r for r in report.repairs)

    def test_repair_reclaims_orphan_lease(self, state):
        append_records(state, [
            {"op": "submit", "job": _job_dict("j009901", 991)},
            {"op": "lease", "id": "j009901", "owner": "w-dead",
             "expires_at": 1e12},
        ])
        report = repair_state_dir(state)
        assert report.ok
        assert any("reclaimed orphan lease" in r for r in report.repairs)
        queue = JobQueue(Journal(state / "journal.wal", fsync=False))
        assert queue.get("j009901").state == PENDING
        queue.journal.close()

    def test_repair_demotes_done_without_checkpoint(self, state):
        checkpoint_file(state).unlink()
        report = repair_state_dir(state)
        assert report.ok
        assert any("demoted" in r for r in report.repairs)
        queue = JobQueue(Journal(state / "journal.wal", fsync=False))
        jobs = queue.jobs()
        assert len(jobs) == 1
        assert jobs[0].state == PENDING
        assert jobs[0].summary is None
        queue.journal.close()

    def test_repair_quarantines_corrupt_checkpoint(self, state):
        path = checkpoint_file(state)
        path.write_text("{not json")
        report = repair_state_dir(state)
        assert report.ok
        assert not path.exists()
        assert path.with_suffix(".json.corrupt").exists()
        # The acked job it backed was demoted for a deterministic re-run.
        assert any("demoted" in r for r in report.repairs)

    def test_repair_deletes_tmp_residue(self, state):
        residue = state / "ckpt" / "half.json.tmp"
        residue.write_text("{")
        report = repair_state_dir(state)
        assert report.ok
        assert not residue.exists()

    def test_repair_quarantines_corrupt_flight_dump(self, state):
        dump = next(state.glob("flightrec-*.jsonl"))
        dump.write_text("{broken\n")
        report = repair_state_dir(state)
        assert report.ok
        assert not dump.exists()
        assert dump.with_suffix(".jsonl.corrupt").exists()

    def test_repair_refuses_live_daemon(self, state):
        (state / "service.json").write_text(
            json.dumps({"pid": os.getpid()})
        )
        with pytest.raises(RuntimeError, match="live daemon"):
            repair_state_dir(state)

    def test_repaired_state_serves_again(self, state):
        """After a multi-class corruption + repair, a real service stands
        up on the state dir and finishes the demoted job."""
        checkpoint_file(state).unlink()       # lose the acked result
        with open(state / "journal.wal", "ab") as fh:
            fh.write(b"torn!")                 # tear the tail
        assert not check_state_dir(state).ok
        assert repair_state_dir(state).ok

        service = build_service(
            state / "journal.wal", state / "ckpt", fsync=False, poll_s=0.01,
        )
        service.start()
        try:
            assert service.wait_idle(timeout=60)
        finally:
            service.stop()
            service.queue.journal.close()
        report = check_state_dir(state)
        assert report.ok
        assert report.checked["done_jobs"] == 1


class TestCli:
    def test_clean_exit_zero(self, state, capsys):
        assert main([str(state)]) == EXIT_OK
        assert "clean" in capsys.readouterr().out

    def test_errors_exit_one(self, state, capsys):
        checkpoint_file(state).unlink()
        assert main([str(state)]) == EXIT_ERRORS
        assert "done-no-checkpoint" in capsys.readouterr().out

    def test_repair_then_clean(self, state, capsys):
        checkpoint_file(state).unlink()
        assert main([str(state), "--repair"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "repaired:" in out

    def test_json_report(self, state, capsys):
        assert main([str(state), "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["checked"]["done_jobs"] == 1

    def test_missing_dir_refused(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == EXIT_REFUSED

    def test_repair_refusal_exit_code(self, state, capsys):
        (state / "service.json").write_text(
            json.dumps({"pid": os.getpid()})
        )
        assert main([str(state), "--repair"]) == EXIT_REFUSED
        assert "refusing" in capsys.readouterr().err


def _job_dict(job_id: str, seq: int) -> dict:
    """A minimal valid journal-job payload for hand-seeded records."""
    return {
        "job_id": job_id,
        "seq": seq,
        "fingerprint": "f" * 64,
        "config_name": "seeded",
        "config": {"name": "seeded"},
        "workload": "wl",
        "workload_fingerprint": "e" * 64,
        "n_instrs": 1000,
        "state": "pending",
        "submitted_at": 1.0,
    }
