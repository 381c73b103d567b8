"""Result entries on disk, and the content-addressed cache over them.

Every stored measurement — a campaign checkpoint or a shared-cache entry —
is one JSON **entry** in one format, defined only here:

* **Key** (:class:`EntryKey`): config fingerprint (SHA-256 of the canonical
  config JSON, :func:`config_fingerprint`), workload fingerprint (SHA-256
  of the workload's *content*, :func:`repro.plugins.workloads
  .workload_fingerprint`), display name and ``n_instrs``.  Any parameter
  change gives a new key; names that merely match never collide.
* **Path** (:func:`entry_path`): ``<fp[:24]>--<wfp[:16]>--<safe name>--<n>
  .json``; the full digests are stored inside and verified on read.
* **Envelope**: ``{"entry_version", <key fields>, "config", "result"}``,
  written durably and atomically (:func:`write_entry`) and read through
  one validator (:func:`read_entry`).
* **Quarantine** (:func:`quarantine`): an unreadable, wrong-schema or
  earlier-format file is renamed ``*.corrupt`` and costs one
  re-simulation, never a crash and never a wrong answer.

Two views share the format: the per-campaign checkpoint store
(:class:`repro.runner.store.ResultStore`: "did **this campaign** already
run this point?") and :class:`ResultCache` ("did **anyone, ever**?"), so
``python -m repro.cache ls`` lists a checkpoint directory as readily as a
cache.  The cache answers with:

* **Exact hits** — same key.  The stored :class:`RunResult` is returned
  untouched (re-checkpointing it is byte-identical); the
  ``{"cache_hit": True}`` provenance travels in
  :attr:`CacheHit.provenance`, never inside the result payload.
* **Misses** — anything else.  There are no approximate answers: every
  result the cache serves is a measurement of exactly the requested key.

Cache puts are first-write-wins (content-addressed, so a re-put is a
no-op); :meth:`ResultCache.gc` evicts least-recently-used entries down to
a byte budget, never **pinned** ones (``*.pin`` sidecars, e.g.
golden-parity baselines).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import weakref
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

from ..errors import CheckpointError
from ..ioutil import atomic_write_json, io_backend
from ..obs import get_logger, log_event
from ..plugins.workloads import workload_fingerprint
from ..sim.config import SimConfig
from ..sim.metrics import RunResult
from ..sim.serialization import (
    RESULT_FORMAT_VERSION,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)

#: Schema version of the entry envelope (the file around the result).
ENTRY_FORMAT_VERSION = 1

#: Config-fingerprint prefix length in entry file names (96 bits).
FP_PREFIX = 24

#: Workload-fingerprint prefix length in entry file names (64 bits).
WLFP_PREFIX = 16

_UNSAFE = re.compile(r"[^A-Za-z0-9._+-]+")
_STEM = re.compile(
    rf"([0-9a-f]{{{FP_PREFIX}}})--[0-9a-f]{{{WLFP_PREFIX}}}--(.+)--(\d+)\Z"
)

logger = get_logger("cache")


#: Process-wide fingerprint memo.  ``SimConfig`` is a frozen (hashable,
#: weakref-able) dataclass, so the digest of a given config object is
#: immutable — cache it once instead of re-serializing the full canonical
#: JSON on every submit/store/cache touch.  Weak keys keep campaign-sized
#: config churn from pinning dead configs in memory.
_FINGERPRINTS: "weakref.WeakKeyDictionary[SimConfig, str]" = (
    weakref.WeakKeyDictionary()
)


def config_fingerprint(config: SimConfig) -> str:
    """Stable hex digest of a configuration's canonical JSON form (memoized)."""
    fp = _FINGERPRINTS.get(config)
    if fp is None:
        canonical = json.dumps(config_to_dict(config), sort_keys=True)
        fp = hashlib.sha256(canonical.encode()).hexdigest()
        _FINGERPRINTS[config] = fp
    return fp


def _safe(name: str) -> str:
    return _UNSAFE.sub("_", name) or "unnamed"


class EntryKey(NamedTuple):
    """The identity of one stored measurement (field names = envelope keys)."""

    fingerprint: str            #: :func:`config_fingerprint` of the machine
    workload_fingerprint: str   #: content digest of the workload
    workload: str               #: display name (rides along in the stem)
    n_instrs: int

    @classmethod
    def of(cls, config: SimConfig, workload: str, n_instrs: int) -> "EntryKey":
        return cls(
            config_fingerprint(config), workload_fingerprint(workload),
            workload, n_instrs,
        )


def entry_path(directory: Path, key: EntryKey) -> Path:
    """Where ``key``'s entry lives: ``<fp>--<wfp>--<safe name>--<n>.json``."""
    stem = (
        f"{key.fingerprint[:FP_PREFIX]}--"
        f"{key.workload_fingerprint[:WLFP_PREFIX]}--"
        f"{_safe(key.workload)}--{key.n_instrs}"
    )
    return directory / f"{stem}.json"


def _parse_stem(stem: str) -> tuple[str, str, int] | None:
    """Inverse of the :func:`entry_path` stem: ``(fp_prefix, name, n)``.

    Both fingerprint prefixes have fixed lengths and ``n_instrs`` is the
    trailing integer, so a workload whose *sanitized* name contains ``--``
    still parses unambiguously.  Any other name (a fleet manifest, a file
    of an earlier format) is ``None``.
    """
    match = _STEM.match(stem)
    return (match[1], match[2], int(match[3])) if match else None


def write_entry(
    path: Path, key: EntryKey, config: SimConfig, result: RunResult
) -> None:
    """Durably and atomically write one entry (replacing any file there)."""
    atomic_write_json(path, {
        "entry_version": ENTRY_FORMAT_VERSION,
        **key._asdict(),
        "config": config_to_dict(config),
        "result": result_to_dict(result),
    })


def read_entry(path: Path, key: EntryKey | None = None) -> dict | None:
    """Read and validate one entry file.

    Returns the envelope with ``"result"`` deserialized and ``"key"`` the
    entry's :class:`EntryKey`; ``None`` when the file is absent or, given
    ``key``, healthy but answering a different key (a truncated-prefix or
    sanitized-name collision).  Raises :class:`CheckpointError` when the
    file is unreadable or not a current-format entry.
    """
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable entry {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"entry {path} is not an object")
    if payload.get("entry_version") != ENTRY_FORMAT_VERSION:
        raise CheckpointError(
            f"entry {path} has version {payload.get('entry_version')!r}, "
            f"expected {ENTRY_FORMAT_VERSION}"
        )
    for name in (*EntryKey._fields, "config"):
        if not payload.get(name):
            raise CheckpointError(f"entry {path} lacks {name!r}")
    result_payload = payload.get("result")
    if (
        not isinstance(result_payload, dict)
        or result_payload.get("format_version") != RESULT_FORMAT_VERSION
    ):
        raise CheckpointError(f"entry {path} has a bad result payload")
    payload["key"] = EntryKey(*(payload[name] for name in EntryKey._fields))
    if key is not None and payload["key"] != key:
        return None
    try:
        payload["result"] = result_from_dict(result_payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"entry {path} failed to deserialize: {exc}"
        ) from exc
    return payload


def quarantine(path: Path, error: Exception | None = None) -> Path | None:
    """Move a corrupt file to ``<name>.corrupt`` (numbered on collision).

    With ``error``, the move is logged as a WARNING.  A rename failure
    returns ``None``: the caller degrades to skip-and-count instead of
    aborting.
    """
    target = path.with_suffix(path.suffix + ".corrupt")
    serial = 0
    while target.exists():
        serial += 1
        target = path.with_suffix(f"{path.suffix}.corrupt.{serial}")
    try:
        io_backend().replace(path, target)
    except OSError:
        target = None
    if error is not None:
        log_event(
            logger, logging.WARNING, "quarantined corrupt entry",
            path=str(path), error=str(error),
            moved_to=str(target) if target else None,
        )
    return target


@dataclass
class CacheStats:
    """Monotonic counters for one :class:`ResultCache` instance."""

    exact_hits: int = 0
    misses: int = 0
    puts: int = 0               #: entries actually written (re-puts skipped)
    evictions: int = 0
    corrupt_quarantined: int = 0


@dataclass(frozen=True)
class CacheHit:
    """One cache answer: the result plus how it was derived.

    ``provenance`` is ``{"cache_hit": True, "key": [...]}``.
    """

    result: RunResult
    provenance: dict = field(default_factory=dict)


@dataclass
class _Entry:
    """Metadata of one on-disk entry (the ``ls``/``gc`` row)."""

    path: Path
    fingerprint_prefix: str
    workload: str
    n_instrs: int
    bytes: int
    mtime: float
    pinned: bool


class ResultCache:
    """Size-bounded, content-addressed result cache over a directory.

    Args:
        cache_dir: the shared entry directory (created if missing).  Unlike
            a checkpoint dir this is meant to be long-lived and shared
            across campaigns/daemons.
        max_bytes: optional byte budget; exceeding it after a put triggers
            an automatic LRU :meth:`gc`.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        max_bytes: int | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------- access

    def lookup(
        self, config: SimConfig, workload: str, n_instrs: int
    ) -> CacheHit | None:
        """Answer one request: an exact hit, or ``None`` (a miss)."""
        key = EntryKey.of(config, workload, n_instrs)
        path = entry_path(self.cache_dir, key)
        entry = self._load(path, key)
        if entry is not None:
            self.stats.exact_hits += 1
            self._touch(path)
            return CacheHit(
                result=entry["result"],
                provenance={
                    "cache_hit": True,
                    "key": [key.fingerprint, workload, n_instrs],
                },
            )
        self.stats.misses += 1
        return None

    def put(
        self,
        config: SimConfig,
        workload: str,
        n_instrs: int,
        result: RunResult,
        *,
        pin: bool = False,
    ) -> bool:
        """Record one *measured* result; returns whether a write happened.

        Content-addressed: if the entry already exists the write is skipped
        (first write wins, which keeps exact hits byte-stable forever).
        """
        key = EntryKey.of(config, workload, n_instrs)
        path = entry_path(self.cache_dir, key)
        if pin:
            self._pin_path(path).touch()
        if path.exists():
            return False
        write_entry(path, key, config, result)
        self.stats.puts += 1
        if self.max_bytes is not None and self.bytes() > self.max_bytes:
            self.gc()
        return True

    @staticmethod
    def _raw_key(fingerprint: str, workload: str, n_instrs: int) -> EntryKey:
        return EntryKey(
            fingerprint, workload_fingerprint(workload), workload, n_instrs
        )

    def _load(self, path: Path, key: EntryKey) -> dict | None:
        """:func:`read_entry`, with corrupt files quarantined and counted."""
        try:
            return read_entry(path, key)
        except CheckpointError as exc:
            self.stats.corrupt_quarantined += 1
            quarantine(path, exc)
            return None

    @staticmethod
    def _touch(path: Path) -> None:
        """Bump an entry's mtime (the LRU clock); best-effort."""
        try:
            os.utime(path)
        except OSError:
            pass

    # ------------------------------------------------------------ pinning

    @staticmethod
    def _pin_path(path: Path) -> Path:
        return path.with_suffix(path.suffix + ".pin")

    def pin(self, fingerprint: str, workload: str, n_instrs: int) -> bool:
        """Protect one entry from eviction (golden baselines and the like)."""
        key = self._raw_key(fingerprint, workload, n_instrs)
        path = entry_path(self.cache_dir, key)
        if not path.exists():
            return False
        self._pin_path(path).touch()
        return True

    def unpin(self, fingerprint: str, workload: str, n_instrs: int) -> bool:
        key = self._raw_key(fingerprint, workload, n_instrs)
        pin = self._pin_path(entry_path(self.cache_dir, key))
        if not pin.exists():
            return False
        pin.unlink()
        return True

    # ----------------------------------------------------------- inventory

    def entries(self) -> list[_Entry]:
        """Metadata rows for every parseable entry (oldest first)."""
        rows = []
        for path in self.cache_dir.glob("*.json"):
            parsed = _parse_stem(path.stem)
            if parsed is None:
                continue
            fp_prefix, workload, n_instrs = parsed
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append(_Entry(
                path=path,
                fingerprint_prefix=fp_prefix,
                workload=workload,
                n_instrs=n_instrs,
                bytes=stat.st_size,
                mtime=stat.st_mtime,
                pinned=self._pin_path(path).exists(),
            ))
        rows.sort(key=lambda e: (e.mtime, e.path.name))
        return rows

    def bytes(self) -> int:
        """Total entry bytes on disk."""
        return sum(entry.bytes for entry in self.entries())

    def __len__(self) -> int:
        return len(self.entries())

    # ----------------------------------------------------------- eviction

    def gc(
        self, max_bytes: int | None = None, *, dry_run: bool = False
    ) -> dict:
        """Evict least-recently-used unpinned entries down to a byte budget.

        Pinned entries are *never* evicted, even if the pins alone exceed
        the budget.  Returns a report dict (the ``gc`` CLI's JSON).
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is None:
            raise ValueError("gc needs a byte budget (max_bytes)")
        rows = self.entries()
        total = sum(row.bytes for row in rows)
        evicted: list[str] = []
        freed = 0
        for row in rows:  # oldest first: LRU order
            if total - freed <= budget:
                break
            if row.pinned:
                continue
            if not dry_run:
                try:
                    row.path.unlink()
                except OSError:
                    continue
                self.stats.evictions += 1
            evicted.append(row.path.name)
            freed += row.bytes
        return {
            "budget_bytes": budget,
            "bytes_before": total,
            "bytes_after": total - freed,
            "evicted": len(evicted),
            "freed_bytes": freed,
            "pinned_kept": sum(1 for row in rows if row.pinned),
            "dry_run": dry_run,
            "evicted_entries": evicted,
        }

    # ------------------------------------------------------------ telemetry

    def stats_dict(self) -> dict:
        """Counters plus a live size snapshot (the metrics provider)."""
        rows = self.entries()
        return dict(
            asdict(self.stats),
            entries=len(rows),
            bytes=sum(row.bytes for row in rows),
            pinned=sum(1 for row in rows if row.pinned),
            max_bytes=self.max_bytes,
        )
