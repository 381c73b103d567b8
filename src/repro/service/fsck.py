"""``python -m repro.service.fsck`` — offline crash-consistency checker.

Reconciles the three persistence layers a campaign service leaves on disk —
the write-ahead journal, the checkpoint store, and any flight-recorder
dumps — against the service's invariants:

* **No acked job lost** — every journal-``done`` job has a present,
  readable, fingerprint-matching checkpoint (the payload a client was
  promised).
* **No duplicate results** — at most one non-failed/cancelled job per
  dedup key ``(fingerprint, workload, n_instrs)``.
* **No orphan leases** — a ``leased`` job in a journal nobody is serving
  belongs to a dead daemon (recoverable: startup replay reclaims it).
* **Journal integrity** — every record decodes (CRC + length + JSON) and
  replays to a valid state transition; a torn *tail* is expected crash
  debris, anything else is corruption.
* **Store hygiene** — checkpoint files are valid current-format entries
  (:func:`repro.cache.result_cache.read_entry`) named for the key they
  hold; no stray ``*.tmp`` residue from interrupted atomic writes.

Check mode is strictly **read-only** (it uses
:func:`repro.service.journal.scan_journal` and
:func:`repro.service.queue.replay_state`, never the mutating replay), so
it can run against a crashed state dir without disturbing evidence.

``--repair`` quarantines and rebuilds: the torn journal tail is truncated
(preserved in a ``*.torn`` sidecar), invalid records are dropped, orphan
leases are reclaimed, ``done`` jobs whose checkpoint is missing or corrupt
are demoted back to ``pending`` (their deterministic re-run produces a
byte-identical payload, so the client-visible contract survives), corrupt
checkpoints and flight dumps are renamed ``*.corrupt``, tmp residue is
deleted, and the journal is compacted from the repaired state.  Repair
refuses to run while the state dir's ready file names a live daemon.

Exit codes: 0 clean (or repaired to clean); 1 errors found (or repair left
errors); 2 usage / refused (live daemon).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from ..cache.result_cache import EntryKey, entry_path, quarantine, read_entry
from ..errors import CheckpointError
from .journal import Journal, scan_journal
from .queue import CANCELLED, DONE, FAILED, LEASED, PENDING, Job, replay_state

READY_FILE = "service.json"

EXIT_OK = 0
EXIT_ERRORS = 1
EXIT_REFUSED = 2


@dataclass
class Finding:
    """One fsck observation: an invariant violation or recoverable debris."""

    severity: str   #: "error" (invariant broken) or "warning" (recoverable)
    code: str       #: stable machine-readable kind, e.g. "done-no-checkpoint"
    message: str
    path: str | None = None

    def to_dict(self) -> dict:
        return {
            "severity": self.severity, "code": self.code,
            "message": self.message, "path": self.path,
        }


@dataclass
class FsckReport:
    """Everything one check (or check-after-repair) pass found."""

    findings: list[Finding] = field(default_factory=list)
    checked: dict = field(default_factory=dict)
    repairs: list[str] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, severity: str, code: str, message: str,
            path: str | Path | None = None) -> None:
        self.findings.append(
            Finding(severity, code, message, str(path) if path else None)
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "checked": self.checked,
            "findings": [f.to_dict() for f in self.findings],
            "repairs": list(self.repairs),
        }


def _done_checkpoint_problem(
    checkpoint_dir: Path, job: Job
) -> tuple[str, str, Path] | None:
    """``(code, message, path)`` when a done job's checkpoint — keyed from
    journal fields alone — cannot serve its acked result, else ``None``."""
    key = EntryKey(
        job.fingerprint, job.workload_fingerprint, job.workload, job.n_instrs
    )
    path = entry_path(checkpoint_dir, key)
    try:
        entry = read_entry(path, key)
    except CheckpointError as exc:
        return (
            "done-corrupt-checkpoint",
            f"job {job.job_id}'s checkpoint fails validation: {exc}",
            path,
        )
    if entry is not None:
        return None
    if path.exists():
        return (
            "done-corrupt-checkpoint",
            f"job {job.job_id}'s checkpoint answers a different key",
            path,
        )
    return (
        "done-no-checkpoint",
        f"job {job.job_id} is journal-done but its checkpoint is missing — "
        f"an acknowledged result would 503; --repair demotes it to pending "
        f"(the deterministic re-run restores the identical payload)",
        path,
    )


def _daemon_pid(state_dir: Path) -> int | None:
    """The live daemon's pid per the ready file, or ``None``."""
    ready = state_dir / READY_FILE
    if not ready.exists():
        return None
    try:
        pid = json.loads(ready.read_text()).get("pid")
    except (OSError, json.JSONDecodeError, AttributeError):
        return None
    if not isinstance(pid, int):
        return None
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return None
    except PermissionError:
        return pid  # exists, owned by someone else
    except OSError:
        return None
    return pid


# ------------------------------------------------------------------ checking


def check_state_dir(state_dir: str | Path) -> FsckReport:
    """Read-only reconciliation of one service state directory."""
    state_dir = Path(state_dir)
    journal_path = state_dir / "journal.wal"
    checkpoint_dir = state_dir / "ckpt"
    report = FsckReport()

    pid = _daemon_pid(state_dir)
    if pid is not None:
        report.add(
            "warning", "daemon-alive",
            f"ready file names live pid {pid}; state is in flux "
            f"(and --repair will refuse)",
            state_dir / READY_FILE,
        )

    # --- journal: decode + replay ----------------------------------------
    if not journal_path.exists():
        report.add(
            "warning", "journal-missing",
            "no journal.wal (never served, or state dir is wrong)",
            journal_path,
        )
        records: list[dict] = []
    else:
        records, stats = scan_journal(journal_path)
        report.checked["journal_records"] = stats.records
        if stats.torn_bytes:
            report.add(
                "warning", "journal-torn-tail",
                f"{stats.torn_bytes} torn/corrupt tail bytes after "
                f"{stats.records} committed records "
                f"({stats.errors[-1] if stats.errors else 'undecodable'}) — "
                f"expected crash debris; startup replay or --repair "
                f"truncates it",
                journal_path,
            )
    jobs, by_key, _breakers, replay_errors = replay_state(records)
    report.checked["jobs"] = len(jobs)
    for error in replay_errors:
        report.add(
            "error", "journal-invalid-record",
            f"committed record does not replay: {error}",
            journal_path,
        )

    # --- queue invariants -------------------------------------------------
    for job in jobs.values():
        if job.state == LEASED:
            report.add(
                "warning", "orphan-lease",
                f"job {job.job_id} is leased by {job.lease_owner!r} but no "
                f"daemon is serving this journal; startup replay or "
                f"--repair reclaims it to pending",
            )
    live_by_key: dict = {}
    for job in jobs.values():
        if job.state in (FAILED, CANCELLED):
            continue
        live_by_key.setdefault(job.key, []).append(job)
    for key, holders in sorted(live_by_key.items()):
        # A degraded quick estimate and a fresh full-length run legally
        # coexist on one key: submit never dedups a full-length request
        # against a clamped estimate.  Duplicates are only jobs with the
        # same degraded-ness.
        for degraded in (False, True):
            same = [j for j in holders if j.degraded == degraded]
            if len(same) > 1:
                ids = ", ".join(sorted(j.job_id for j in same))
                report.add(
                    "error", "dedup-duplicate",
                    f"{len(same)} live {'degraded ' if degraded else ''}jobs "
                    f"({ids}) share dedup key "
                    f"{key[0][:12]}/{key[1]}/{key[2]} — duplicate results "
                    f"possible",
                )
        index_id = by_key.get(key)
        if index_id is not None and all(j.job_id != index_id for j in holders):
            report.add(
                "error", "dedup-index-stale",
                f"dedup index points key {key[0][:12]}/{key[1]}/{key[2]} "
                f"at {index_id}, which is not a live holder",
            )

    # --- WAL <-> checkpoint store ----------------------------------------
    done_checked = 0
    for job in jobs.values():
        if job.state != DONE:
            continue
        done_checked += 1
        problem = _done_checkpoint_problem(checkpoint_dir, job)
        if problem is not None:
            report.add("error", *problem)
    report.checked["done_jobs"] = done_checked

    # --- store hygiene ----------------------------------------------------
    swept = 0
    if checkpoint_dir.is_dir():
        for path in sorted(checkpoint_dir.iterdir()):
            if path.name.endswith(".tmp"):
                report.add(
                    "warning", "tmp-residue",
                    "interrupted atomic write left a temp file; --repair "
                    "deletes it",
                    path,
                )
                continue
            if ".corrupt" in path.suffixes or ".corrupt" in path.name:
                continue  # already quarantined by a previous run/resume
            if path.suffix != ".json":
                continue
            swept += 1
            try:
                entry = read_entry(path)
            except CheckpointError as exc:
                report.add(
                    "error", "checkpoint-corrupt",
                    f"checkpoint fails validation: {exc}",
                    path,
                )
                continue
            if entry_path(checkpoint_dir, entry["key"]) != path:
                report.add(
                    "warning", "checkpoint-misnamed",
                    "file name does not match the key stored inside it "
                    "(renamed by hand?)",
                    path,
                )
    report.checked["checkpoints"] = swept

    # --- flight-recorder dumps -------------------------------------------
    dumps = 0
    for path in sorted(state_dir.glob("flightrec-*.jsonl")):
        if ".corrupt" in path.name:
            continue
        dumps += 1
        try:
            lines = path.read_text().splitlines()
        except OSError as exc:
            report.add(
                "warning", "flight-dump-corrupt",
                f"dump is unreadable: {exc}; --repair quarantines it", path,
            )
            continue
        for i, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                json.loads(line)
            except json.JSONDecodeError as exc:
                report.add(
                    "warning", "flight-dump-corrupt",
                    f"dump is not valid JSONL (line {i}): {exc}; --repair "
                    f"quarantines it",
                    path,
                )
                break
    report.checked["flight_dumps"] = dumps
    return report


# ------------------------------------------------------------------ repairing


def repair_state_dir(state_dir: str | Path) -> FsckReport:
    """Quarantine-and-rebuild repair, then a fresh check of the result.

    Raises :class:`RuntimeError` if the state dir's ready file names a
    live daemon (repairing under a writer would corrupt, not repair).
    """
    state_dir = Path(state_dir)
    journal_path = state_dir / "journal.wal"
    checkpoint_dir = state_dir / "ckpt"
    pid = _daemon_pid(state_dir)
    if pid is not None:
        raise RuntimeError(
            f"refusing to repair {state_dir}: ready file names live daemon "
            f"pid {pid} (stop it first)"
        )
    repairs: list[str] = []

    # 1. Journal: truncate any torn tail (sidecar preserved), drop records
    #    that do not replay, reclaim orphan leases, demote acked jobs whose
    #    checkpoint is gone, then rewrite compacted.
    if journal_path.exists():
        journal = Journal(journal_path)
        records, stats = journal.replay()
        if stats.torn_bytes:
            repairs.append(
                f"truncated {stats.torn_bytes} torn journal bytes "
                f"(sidecar: {stats.torn_sidecar})"
            )
        jobs, _by_key, breakers, replay_errors = replay_state(records)
        if replay_errors:
            repairs.append(
                f"dropped {len(replay_errors)} journal record(s) that did "
                f"not replay"
            )
        for job in jobs.values():
            if job.state == LEASED:
                job.state = PENDING
                job.lease_owner = None
                job.lease_expires_at = None
                repairs.append(f"reclaimed orphan lease on {job.job_id}")
            elif job.state == DONE and _done_checkpoint_problem(
                checkpoint_dir, job
            ) is not None:
                job.state = PENDING
                job.summary = None
                job.finished_at = None
                job.lease_owner = None
                job.lease_expires_at = None
                job.cached = False
                job.cache_provenance = None
                repairs.append(
                    f"demoted {job.job_id} to pending (checkpoint "
                    f"missing/corrupt; deterministic re-run restores "
                    f"the identical payload)"
                )
        payloads = [
            {"op": "job", "job": job.to_dict()}
            for job in sorted(jobs.values(), key=lambda j: j.seq)
        ]
        payloads += [
            {"op": "breaker", "fingerprint": fp, **breaker.to_dict()}
            for fp, breaker in breakers.items()
            if breaker.failures or breaker.opened_at is not None
        ]
        journal.rewrite(payloads)
        journal.close()
        repairs.append(
            f"rewrote journal: {len(payloads)} compacted record(s)"
        )

    # 2. Store: delete tmp residue, collect corrupt checkpoints.
    corrupt: list[Path] = []
    if checkpoint_dir.is_dir():
        for path in sorted(checkpoint_dir.iterdir()):
            if path.name.endswith(".tmp"):
                path.unlink(missing_ok=True)
                repairs.append(f"deleted tmp residue {path.name}")
                continue
            if ".corrupt" in path.name or path.suffix != ".json":
                continue
            try:
                read_entry(path)
            except CheckpointError:
                corrupt.append(path)

    # 3. Flight dumps: collect unparsable ones.
    for path in sorted(state_dir.glob("flightrec-*.jsonl")):
        if ".corrupt" in path.name:
            continue
        try:
            for line in path.read_text().splitlines():
                if line.strip():
                    json.loads(line)
        except (OSError, json.JSONDecodeError):
            corrupt.append(path)

    # 4. Quarantine everything collected (renamed ``*.corrupt``).
    for path in corrupt:
        target = quarantine(path)
        repairs.append(
            f"quarantined {path.name} -> {target.name}" if target
            else f"could not quarantine {path.name}"
        )

    report = check_state_dir(state_dir)
    report.repairs = repairs
    return report


# ----------------------------------------------------------------------- CLI


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service.fsck",
        description="Offline crash-consistency check for a service state dir "
                    "(WAL <-> checkpoint store <-> flight dumps)",
    )
    parser.add_argument(
        "state_dir",
        help="the daemon's state directory (journal.wal + ckpt/)",
    )
    parser.add_argument(
        "--repair", action="store_true",
        help="quarantine and rebuild instead of only reporting "
             "(refused while a daemon is live)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable report on stdout",
    )
    args = parser.parse_args(argv)

    state_dir = Path(args.state_dir)
    if not state_dir.is_dir():
        print(f"fsck: {state_dir} is not a directory", file=sys.stderr)
        return EXIT_REFUSED
    if args.repair:
        try:
            report = repair_state_dir(state_dir)
        except RuntimeError as exc:
            print(f"fsck: {exc}", file=sys.stderr)
            return EXIT_REFUSED
    else:
        report = check_state_dir(state_dir)

    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for repair in report.repairs:
            print(f"repaired: {repair}")
        for finding in report.findings:
            location = f" [{finding.path}]" if finding.path else ""
            print(f"{finding.severity}: {finding.code}: "
                  f"{finding.message}{location}")
        checked = ", ".join(f"{k}={v}" for k, v in report.checked.items())
        verdict = "clean" if report.ok else f"{len(report.errors)} error(s)"
        print(f"fsck {state_dir}: {verdict} "
              f"({len(report.warnings)} warning(s); {checked})")
    return EXIT_OK if report.ok else EXIT_ERRORS


if __name__ == "__main__":
    sys.exit(main())
