"""Set-associative cache with fill ready-times (MSHR-like in-flight modeling).

Every resident line carries a ``ready`` cycle: the time at which its fill
completes.  A demand access that finds the line present but not yet ready pays
the residual fill latency, which is how the timing model credits partially
timely prefetches (the paper's Figure 11 timeliness analysis depends on this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from .replacement import ReplacementPolicy, make_policy


@dataclass(slots=True)
class CacheLine:
    """Metadata for one resident cache line."""

    tag: int
    ready: float = 0.0          #: cycle when the fill completes
    dirty: bool = False
    prefetched: bool = False    #: filled by a prefetch, not yet demand-hit
    pc: int = -1                #: PC that caused the fill (for stats)
    repl: int = 0               #: replacement metadata (LIP, SRRIP, NRU,
                                #: Random; LRU uses the set's dict order)
    src: int = 0                #: Level the fill came from (in-flight hits
                                #: are attributed to this level, not L1)


@dataclass(slots=True)
class CacheStats:
    """Demand/prefetch activity counters for one cache."""

    hits: int = 0
    misses: int = 0
    inflight_hits: int = 0       #: hits on a line whose fill was in flight
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0
    prefetch_fills: int = 0
    prefetch_useful: int = 0     #: prefetched lines that saw a demand hit
    prefetch_unused: int = 0     #: prefetched lines evicted without a hit
    reads: int = 0               #: total read accesses (for power)
    writes: int = 0              #: total write accesses (for power)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)


class Cache:
    """A single set-associative cache array.

    Addresses handed to this class are *line* addresses (byte address >> 6);
    the hierarchy layer does the shifting.

    Args:
        name: label used in stats dumps (``L1D``, ``L2``, ``LLC`` ...).
        size_bytes: total capacity.
        assoc: associativity (ways).
        line_size: line size in bytes (default 64).
        latency: round-trip hit latency in cycles.
        replacement: replacement policy name (see ``repro.caches.replacement``).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        latency: int,
        line_size: int = 64,
        replacement: str = "lru",
        hashed_index: bool = False,
    ) -> None:
        self.name = name
        self.assoc = assoc
        self.line_size = line_size
        self.latency = latency
        self.hashed_index = hashed_index
        # Paper LLC capacities (5.5/6.5/9.5 MB at 11 ways) do not give
        # power-of-2 set counts, so indexing is modulo, not a bit mask.
        self.num_sets = max(1, size_bytes // (assoc * line_size))
        self.size_bytes = self.num_sets * assoc * line_size
        self._sets: list[dict[int, CacheLine]] = [{} for _ in range(self.num_sets)]
        self.policy: ReplacementPolicy = make_policy(replacement)
        self.stats = CacheStats()
        # Registering with the no-op registry costs nothing; with a live one,
        # snapshots read the stats this cache keeps anyway (name-keyed, so a
        # rebuilt hierarchy replaces rather than leaks providers).
        obs.metrics().register_provider(f"cache.{name}", self._telemetry_snapshot)

    def _telemetry_snapshot(self) -> dict:
        """Stats counters plus derived rates, for the metrics registry."""
        out = {
            field_name: getattr(self.stats, field_name)
            for field_name in self.stats.__dataclass_fields__
        }
        out["hit_rate"] = self.stats.hit_rate
        out["occupancy"] = self.occupancy()
        return out

    # -- addressing -------------------------------------------------------

    def set_index(self, line_addr: int) -> int:
        """Set index: plain address bits (L1/L2 style) or, with
        ``hashed_index``, a Fibonacci hash (Skylake-LLC style) so power-of-2
        address strides spread over all sets instead of camping on a few."""
        if self.hashed_index:
            # 64-bit Fibonacci hashing: high address bits (e.g. the per-core
            # address-space offsets in MP runs) must influence the set too.
            h = (line_addr * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            return ((h >> 24) ^ (h >> 48)) % self.num_sets
        return line_addr % self.num_sets

    def _locate(self, line_addr: int) -> tuple[dict[int, CacheLine], int]:
        return self._sets[self.set_index(line_addr)], line_addr

    # -- queries (no state change) ----------------------------------------

    def contains(self, line_addr: int) -> bool:
        """True if the line is resident (regardless of fill completion)."""
        # set_index is inlined here and in access/fill: these run once or
        # more per simulated instruction and the call overhead shows up in
        # profiles (see benchmarks/bench_kernel.py).
        if self.hashed_index:
            h = (line_addr * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            index = ((h >> 24) ^ (h >> 48)) % self.num_sets
        else:
            index = line_addr % self.num_sets
        return line_addr in self._sets[index]

    def peek(self, line_addr: int) -> CacheLine | None:
        """Return the resident line without updating replacement state."""
        cache_set, tag = self._locate(line_addr)
        return cache_set.get(tag)

    # -- demand access ------------------------------------------------------

    def access(self, line_addr: int, now: float, *, write: bool = False) -> CacheLine | None:
        """Demand lookup: returns the line on hit (updating LRU), else None.

        Stats are updated; dirty bit is set on a write hit.
        """
        if self.hashed_index:
            h = (line_addr * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            index = ((h >> 24) ^ (h >> 48)) % self.num_sets
        else:
            index = line_addr % self.num_sets
        cache_set = self._sets[index]
        stats = self.stats
        if write:
            stats.writes += 1
        else:
            stats.reads += 1
        line = cache_set.get(line_addr)
        if line is None:
            stats.misses += 1
            return None
        stats.hits += 1
        if line.ready > now:
            stats.inflight_hits += 1
        if line.prefetched:
            stats.prefetch_useful += 1
            line.prefetched = False
        if write:
            line.dirty = True
        self.policy.on_hit(cache_set, line)
        return line

    # -- fills / evictions ---------------------------------------------------

    def fill(
        self,
        line_addr: int,
        ready: float,
        *,
        dirty: bool = False,
        prefetched: bool = False,
        pc: int = -1,
        src: int = 0,
    ) -> tuple[int, CacheLine] | None:
        """Install a line; returns the evicted ``(line_addr, CacheLine)`` if any.

        If the line is already resident the existing entry is refreshed (its
        ready time is only ever moved *earlier*, never later — a demand fill
        cannot slow down an in-flight prefetch).
        """
        if self.hashed_index:
            h = (line_addr * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            index = ((h >> 24) ^ (h >> 48)) % self.num_sets
        else:
            index = line_addr % self.num_sets
        cache_set = self._sets[index]
        stats = self.stats
        existing = cache_set.get(line_addr)
        if existing is not None:
            existing.ready = min(existing.ready, ready)
            existing.dirty = existing.dirty or dirty
            return None

        victim: tuple[int, CacheLine] | None = None
        if len(cache_set) >= self.assoc:
            vtag = self.policy.victim(cache_set)
            vline = cache_set.pop(vtag)
            stats.evictions += 1
            if vline.dirty:
                stats.dirty_evictions += 1
            if vline.prefetched:
                stats.prefetch_unused += 1
            victim = (vtag, vline)

        # Positional: (tag, ready, dirty, prefetched, pc, repl, src).
        line = CacheLine(line_addr, ready, dirty, prefetched, pc, 0, src)
        cache_set[line_addr] = line
        self.policy.on_fill(cache_set, line)
        stats.fills += 1
        stats.writes += 1
        if prefetched:
            stats.prefetch_fills += 1
        return victim

    def invalidate(self, line_addr: int) -> CacheLine | None:
        """Remove a line (back-invalidation); returns it if it was resident."""
        cache_set, tag = self._locate(line_addr)
        line = cache_set.pop(tag, None)
        if line is not None:
            self.stats.invalidations += 1
        return line

    # -- introspection -------------------------------------------------------

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(s) for s in self._sets)

    def resident_lines(self) -> list[int]:
        """All resident line addresses (for invariant checks in tests)."""
        out: list[int] = []
        for cache_set in self._sets:
            out.extend(cache_set)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name}, {self.size_bytes >> 10}KB, {self.assoc}-way, "
            f"lat={self.latency})"
        )
