"""The runner's checkpoint/resume store: a per-campaign view of result entries.

A :class:`ResultStore` is an in-memory map of completed runs, optionally
backed by a checkpoint directory.  The directory holds one entry per run in
the shared entry format of :mod:`repro.cache.result_cache` — the same key
(``(config fingerprint, workload fingerprint, workload, n_instrs)``), file
name, envelope, validator and ``*.corrupt`` quarantine as the
cross-campaign result cache, so ``python -m repro.cache ls DIR`` lists a
campaign's checkpoints too.  This module adds only the campaign policy:

* entries are written durably and atomically on every :meth:`put` (a
  corrupt file at the path is replaced), so when ``put`` returns a valid
  entry for the key is on disk — the daemon journals ``done`` on this;
* with ``resume=True`` earlier entries are served from disk; an unreadable
  or earlier-format file is quarantined and counted, never fatal — a
  corrupt checkpoint costs one re-simulation, not the campaign.
"""

from __future__ import annotations

from pathlib import Path

from ..cache.result_cache import (
    EntryKey,
    config_fingerprint,
    entry_path,
    quarantine,
    read_entry,
    write_entry,
)
from ..errors import CheckpointError
from ..sim.config import SimConfig
from ..sim.metrics import RunResult


class ResultStore:
    """In-memory result cache with an optional on-disk checkpoint layer.

    Args:
        checkpoint_dir: directory for per-run JSON checkpoints; ``None``
            keeps the store memory-only (the default runner's behaviour,
            equivalent to the old per-process memoisation).
        resume: when true, previously checkpointed results are served from
            disk; when false an existing directory is only *written* to,
            never read (a fresh campaign that still checkpoints).
    """

    def __init__(
        self,
        checkpoint_dir: str | Path | None = None,
        *,
        resume: bool = False,
    ) -> None:
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.resume = resume
        self._memory: dict[EntryKey, RunResult] = {}
        #: Corrupt/wrong-schema checkpoint files skipped during reads.
        self.corrupt_skipped = 0
        #: Where each corrupt checkpoint was moved (``*.corrupt`` files).
        self.quarantined: list[Path] = []
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)

    def fingerprint(self, config: SimConfig) -> str:
        """The (process-wide memoized) :func:`config_fingerprint`."""
        return config_fingerprint(config)

    def get(
        self, config: SimConfig, workload: str, n_instrs: int
    ) -> RunResult | None:
        """Return a stored result, or ``None`` when the run must execute."""
        key = EntryKey.of(config, workload, n_instrs)
        hit = self._memory.get(key)
        if hit is not None:
            return hit
        if self.checkpoint_dir is None or not self.resume:
            return None
        path = entry_path(self.checkpoint_dir, key)
        try:
            entry = read_entry(path, key)
        except CheckpointError as exc:
            self.corrupt_skipped += 1
            moved_to = quarantine(path, exc)
            if moved_to is not None:
                self.quarantined.append(moved_to)
            return None
        if entry is None:
            return None
        self._memory[key] = entry["result"]
        return entry["result"]

    def put(
        self, config: SimConfig, workload: str, n_instrs: int, result: RunResult
    ) -> None:
        """Record one completed run (and checkpoint it if configured).

        The memory map is populated only *after* the checkpoint lands: a
        write that hit ENOSPC/EIO must not leave a phantom entry that would
        let a retry skip the re-write and ack a result with no durable copy.
        """
        key = EntryKey.of(config, workload, n_instrs)
        if self.checkpoint_dir is not None:
            write_entry(
                entry_path(self.checkpoint_dir, key), key, config, result
            )
        self._memory[key] = result

    def __len__(self) -> int:
        return len(self._memory)

    def clear(self) -> None:
        """Drop the in-memory layer (disk checkpoints are kept)."""
        self._memory.clear()
