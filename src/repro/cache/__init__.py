"""Stored results: one entry format, two views (see ARCHITECTURE.md,
"Result store and cache").

:mod:`repro.cache.result_cache` owns the on-disk entry — key, path,
envelope, validator and ``*.corrupt`` quarantine — for both views over it:
the per-campaign checkpoint store (:class:`repro.runner.store.ResultStore`)
and the cross-campaign :class:`ResultCache`.  The cache's exact hits return
stored results byte-identically with ``cache_hit`` provenance; anything
else is a miss that re-simulates, so every served result is a measurement.
``python -m repro.cache`` administers any entry directory — a shared cache
or a campaign/daemon checkpoint dir (``ls``/``stats``/``gc``/``pin``/
``unpin``).

Consumers wire a cache in with the shared argparse helpers below — the
experiment CLI (``python -m repro.experiments ... --cache-dir``) and the
service daemon (``python -m repro.service serve --cache-dir``) accept the
same flags and build the same object.
"""

from __future__ import annotations

import argparse

from .result_cache import (
    ENTRY_FORMAT_VERSION,
    CacheHit,
    CacheStats,
    ResultCache,
)


def add_cache_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--cache-*`` flags (one vocabulary everywhere)."""
    group = parser.add_argument_group("result cache (see repro.cache)")
    group.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed result cache shared across campaigns: "
             "exact (config, workload, n_instrs) re-runs are served from "
             "DIR instead of re-simulating",
    )
    group.add_argument(
        "--cache-max-mb", type=float, metavar="M",
        help="byte budget for --cache-dir; exceeding it evicts "
             "least-recently-used unpinned entries",
    )


def cache_from_args(args: argparse.Namespace) -> ResultCache | None:
    """Build the cache an invocation's ``--cache-*`` flags describe."""
    if not getattr(args, "cache_dir", None):
        if getattr(args, "cache_max_mb", None) is not None:
            raise SystemExit("--cache-max-mb requires --cache-dir")
        return None
    max_bytes = (
        int(args.cache_max_mb * 1024 * 1024)
        if getattr(args, "cache_max_mb", None) is not None
        else None
    )
    return ResultCache(args.cache_dir, max_bytes=max_bytes)


__all__ = [
    "ENTRY_FORMAT_VERSION",
    "CacheHit",
    "CacheStats",
    "ResultCache",
    "add_cache_args",
    "cache_from_args",
]
