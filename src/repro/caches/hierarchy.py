"""Multi-level cache hierarchy with inclusive/exclusive LLC policies.

Reproduces the two baseline organisations of the paper:

* **Skylake-server-like** (Section V): private 32 KB L1I/L1D (5-cycle), private
  1 MB L2 (15-cycle round trip, non-inclusive of L1, no back-invalidates), and
  a shared 11-way *exclusive* LLC (40-cycle round trip).  An LLC hit moves the
  line into the L2 (deallocating the LLC copy); an L2 victim is filled into
  the LLC; memory fills bypass the LLC.
* **Skylake-client-like** (Section VI-F): 256 KB L2 with a shared *inclusive*
  LLC — every fill also allocates in the LLC, and an LLC eviction
  back-invalidates the line from all cores' L1/L2.

A two-level configuration (``l2=None``) models the CATCH "noL2" designs; the
LLC is then mostly-inclusive of the tiny L1 (no back-invalidates), which is
the natural design once the L2 is gone.

Timing: every resident line carries a fill ``ready`` time, so demand accesses
that race an in-flight (prefetch) fill pay only the residual latency.  Ring
hop latency is folded into the configured LLC round-trip (the paper quotes
round-trip numbers); the ring model is still invoked for traffic/energy
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable

from .. import obs
from ..interconnect.ring import RingInterconnect
from ..memory.controller import MemoryController
from .cache import Cache


class Level(IntEnum):
    """Where a request was served from."""

    L1 = 0
    L2 = 1
    LLC = 2
    MEM = 3


#: ``LEVELS[i] is Level(i)``, without an enum construction per in-flight hit.
LEVELS = tuple(Level)

#: Drop speculative DRAM reads once the data bus is booked this many cycles
#: ahead (memory-controller prefetch throttling, cf. FDP [32]).
PREFETCH_BACKLOG_LIMIT = 200

#: Optional per-access latency override, used by the oracle studies of
#: Figure 4 (e.g. "serve all non-critical L2 hits at LLC latency").  Receives
#: ``(pc, level, latency)`` and returns the latency to charge.
LatencyPolicy = Callable[[int, Level, float], float]


@dataclass(slots=True)
class AccessResult:
    """Outcome of one demand access."""

    latency: float
    level: Level          #: level that owned the data (L1 includes in-flight)
    inflight: bool = False  #: the line was still being filled when hit


@dataclass(slots=True)
class HierarchyStats:
    """Per-core demand/prefetch serve counts (loads and code separately)."""

    load_served: dict[Level, int] = field(
        default_factory=lambda: {lvl: 0 for lvl in Level}
    )
    code_served: dict[Level, int] = field(
        default_factory=lambda: {lvl: 0 for lvl in Level}
    )
    load_latency_sum: float = 0.0
    stores: int = 0
    l1_prefetches: int = 0
    l2_prefetches: int = 0

    @property
    def loads(self) -> int:
        return sum(self.load_served.values())

    @property
    def l1_load_hit_rate(self) -> float:
        total = self.loads
        return self.load_served[Level.L1] / total if total else 0.0

    @property
    def avg_load_latency(self) -> float:
        total = self.loads
        return self.load_latency_sum / total if total else 0.0


@dataclass(frozen=True)
class LevelSpec:
    """Size/latency description of one cache level.

    ``replacement`` names an entry in the ``repro.plugins`` ``POLICIES``
    registry (``python -m repro.sim plugins --family replacement-policies``);
    ``SimConfig.validate()`` resolves it eagerly, so an unknown name fails
    at configuration time with a did-you-mean rather than at first access.
    """

    size_kb: float
    assoc: int
    latency: int
    replacement: str = "lru"
    hashed_index: bool = False

    def build(self, name: str, extra_latency: int = 0) -> Cache:
        return Cache(
            name,
            int(self.size_kb * 1024),
            self.assoc,
            self.latency + extra_latency,
            replacement=self.replacement,
            hashed_index=self.hashed_index,
        )


class CacheHierarchy:
    """The full on-die cache system shared by ``n_cores`` cores.

    Args:
        n_cores: number of cores (private L1s/L2s are replicated per core).
        l1i, l1d: per-core L1 specs.
        l2: per-core private L2 spec, or ``None`` for a two-level hierarchy.
        llc: shared LLC spec, or ``None`` (no LLC — oracle studies only).
        llc_policy: ``"exclusive"`` or ``"inclusive"`` (of the private L2).
        memory: memory controller (a default DDR4-2400 one if omitted).
        extra_latency: optional dict mapping ``Level`` to added cycles
            (latency-sensitivity studies, Figures 3 and 15).
    """

    def __init__(
        self,
        n_cores: int,
        l1i: LevelSpec,
        l1d: LevelSpec,
        l2: LevelSpec | None,
        llc: LevelSpec | None,
        llc_policy: str = "exclusive",
        memory: MemoryController | None = None,
        ring: RingInterconnect | None = None,
        extra_latency: dict[Level, int] | None = None,
    ) -> None:
        if llc_policy not in ("exclusive", "inclusive"):
            raise ValueError(f"unknown llc_policy {llc_policy!r}")
        extra = extra_latency or {}
        self.n_cores = n_cores
        self.llc_policy = llc_policy
        self.l1i = [
            l1i.build(f"L1I{c}", extra.get(Level.L1, 0)) for c in range(n_cores)
        ]
        self.l1d = [
            l1d.build(f"L1D{c}", extra.get(Level.L1, 0)) for c in range(n_cores)
        ]
        self.l2 = (
            [l2.build(f"L2.{c}", extra.get(Level.L2, 0)) for c in range(n_cores)]
            if l2
            else None
        )
        self.llc = llc.build("LLC", extra.get(Level.LLC, 0)) if llc else None
        self.memory = memory or MemoryController()
        self.ring = ring or RingInterconnect(n_cores)
        self.stats = [HierarchyStats() for _ in range(n_cores)]
        self.latency_policy: LatencyPolicy | None = None
        # Observability: bind a load-latency histogram only when a live
        # registry is active, so the disabled hot path pays one None check.
        registry = obs.metrics()
        if registry.enabled:
            self._load_lat_hist = registry.histogram(
                "hierarchy.load_latency_cycles", obs.LOAD_LATENCY_BUCKETS
            )
            registry.register_provider("hierarchy", self._telemetry_snapshot)
        else:
            self._load_lat_hist = None

    def reset_stats(self) -> None:
        """Zero all activity counters while keeping cache/DRAM state.

        Called at the warmup/measurement boundary so reported statistics
        cover only the measured region (standard sampling methodology).
        """
        self.stats = [HierarchyStats() for _ in range(self.n_cores)]
        for caches in (self.l1i, self.l1d, self.l2 or []):
            for cache in caches:
                cache.stats.reset()
        if self.llc is not None:
            self.llc.stats.reset()
        self.ring.stats = type(self.ring.stats)()
        self.memory.traffic = type(self.memory.traffic)()
        self.memory.dram.stats = type(self.memory.dram.stats)()

    def _telemetry_snapshot(self) -> dict:
        """Per-core serve/latency counters for the metrics registry."""
        return {
            f"core{c}": {
                "loads": stats.loads,
                "load_served": {lvl.name: n for lvl, n in stats.load_served.items()},
                "code_served": {lvl.name: n for lvl, n in stats.code_served.items()},
                "avg_load_latency": stats.avg_load_latency,
                "l1_load_hit_rate": stats.l1_load_hit_rate,
                "stores": stats.stores,
                "l1_prefetches": stats.l1_prefetches,
                "l2_prefetches": stats.l2_prefetches,
            }
            for c, stats in enumerate(self.stats)
        }

    # ------------------------------------------------------------------ util

    def _charge(self, pc: int, level: Level, latency: float) -> float:
        if self.latency_policy is not None:
            return self.latency_policy(pc, level, latency)
        return latency

    # ------------------------------------------------------------ fill paths

    def _l1_fill(
        self, l1: Cache, core: int, line_addr: int, ready: float,
        *, dirty: bool = False, prefetched: bool = False, pc: int = -1,
        src: Level = Level.L1,
    ) -> None:
        """Fill into an L1 and handle its victim."""
        victim = l1.fill(
            line_addr, ready, dirty=dirty, prefetched=prefetched, pc=pc, src=src
        )
        if victim is None:
            return
        vaddr, vline = victim
        if not vline.dirty:
            return  # clean L1 victims are silently dropped
        if self.l2 is not None:
            l2 = self.l2[core]
            resident = l2.peek(vaddr)
            if resident is not None:
                resident.dirty = True
                l2.stats.writes += 1
            else:
                # Allocate on writeback; the L2 victim cascades outward.
                self._l2_fill(core, vaddr, ready, dirty=True)
        elif self.llc is not None:
            resident = self.llc.peek(vaddr)
            self.ring.data(core, vaddr)
            if resident is not None:
                resident.dirty = True
                self.llc.stats.writes += 1
            else:
                self._llc_fill(core, vaddr, ready, dirty=True)
        else:
            self.memory.write(vaddr, ready)

    def _l2_fill(
        self, core: int, line_addr: int, ready: float,
        *, dirty: bool = False, prefetched: bool = False,
    ) -> None:
        """Fill into the private L2 and handle its victim."""
        assert self.l2 is not None
        victim = self.l2[core].fill(line_addr, ready, dirty=dirty, prefetched=prefetched)
        if victim is None:
            return
        vaddr, vline = victim
        if self.llc is None:
            if vline.dirty:
                self.memory.write(vaddr, ready)
            return
        if self.llc_policy == "exclusive":
            # Every L2 victim (clean or dirty) allocates into the LLC.
            self.ring.data(core, vaddr)
            self._llc_fill(core, vaddr, ready, dirty=vline.dirty)
        else:
            # Inclusive LLC already holds the line; just update dirtiness.
            resident = self.llc.peek(vaddr)
            if vline.dirty:
                self.ring.data(core, vaddr)
                if resident is not None:
                    resident.dirty = True
                    self.llc.stats.writes += 1
                else:  # inclusion was broken by an earlier LLC eviction
                    self.memory.write(vaddr, ready)

    def _llc_fill(
        self, core: int, line_addr: int, ready: float, *, dirty: bool = False
    ) -> None:
        """Fill into the shared LLC and handle its victim."""
        assert self.llc is not None
        victim = self.llc.fill(line_addr, ready, dirty=dirty)
        if victim is None:
            return
        vaddr, vline = victim
        vdirty = vline.dirty
        if self.llc_policy == "inclusive":
            # Back-invalidate the line from every core's private caches.
            for c in range(self.n_cores):
                for private in (self.l1i[c], self.l1d[c]):
                    inv = private.invalidate(vaddr)
                    if inv is not None and inv.dirty:
                        vdirty = True
                if self.l2 is not None:
                    inv = self.l2[c].invalidate(vaddr)
                    if inv is not None and inv.dirty:
                        vdirty = True
        if vdirty:
            self.memory.write(vaddr, ready)

    # -------------------------------------------------------------- lookups

    def _outer_lookup(
        self, core: int, line_addr: int, now: float, *, code: bool,
    ) -> tuple[float, Level, bool]:
        """Resolve a request that missed the L1: L2 -> LLC -> memory.

        Returns ``(latency, level, inflight)``.  Updates all cache state
        (moves/fills at outer levels) but does NOT fill the L1 — callers do
        that so they can attach prefetch metadata.
        """
        # L2
        if self.l2 is not None:
            l2 = self.l2[core]
            line = l2.access(line_addr, now)
            if line is not None:
                # A hit pays the residual fill time if that is longer.
                inflight = line.ready > now
                return max(l2.latency, line.ready - now), Level.L2, inflight
        # LLC (over the ring)
        if self.llc is not None:
            self.ring.request(core, line_addr)
            line = self.llc.access(line_addr, now)
            if line is not None:
                self.ring.data(core, line_addr)
                inflight = line.ready > now
                lat = max(self.llc.latency, line.ready - now)
                ready = now + lat
                if self.llc_policy == "exclusive" and self.l2 is not None:
                    # Exclusive: the line moves from the LLC into the L2.
                    dirty = line.dirty
                    self.llc.invalidate(line_addr)
                    self._l2_fill(core, line_addr, ready, dirty=dirty)
                elif self.l2 is not None:
                    self._l2_fill(core, line_addr, ready)
                return lat, Level.LLC, inflight
        # Memory
        llc_lat = self.llc.latency if self.llc is not None else 0
        mem_lat = self.memory.read(line_addr, now + llc_lat)
        lat = llc_lat + mem_lat
        ready = now + lat
        if self.llc is not None:
            self.ring.data(core, line_addr)
        if self.llc_policy == "inclusive" and self.llc is not None:
            self._llc_fill(core, line_addr, ready)
        elif self.llc is not None and self.l2 is None:
            # Two-level hierarchy: memory fills allocate in the LLC too.
            self._llc_fill(core, line_addr, ready)
        if self.l2 is not None:
            self._l2_fill(core, line_addr, ready)
        return lat, Level.MEM, False

    # --------------------------------------------------------------- demand

    def load(self, core: int, pc: int, line_addr: int, now: float) -> AccessResult:
        """Demand data load; returns latency and serving level.

        A hit on a line whose fill is still in flight is attributed to the
        level the fill came from (the load effectively pays that level's
        latency), which is what the criticality detector must see.
        """
        stats = self.stats[core]
        l1 = self.l1d[core]
        line = l1.access(line_addr, now)
        if line is not None:
            # Residual latency and _charge inlined: this is the per-load hot path.
            lat = l1.latency
            ready = line.ready
            if ready > now:
                inflight = True
                resid = ready - now
                if resid > lat:
                    lat = resid
            else:
                inflight = False
            level = LEVELS[line.src] if inflight else Level.L1
            if self.latency_policy is not None:
                lat = self.latency_policy(pc, level, lat)
            stats.load_served[level] += 1
            stats.load_latency_sum += lat
            if self._load_lat_hist is not None:
                self._load_lat_hist.record(lat)
            return AccessResult(lat, level, inflight)
        lat, level, inflight = self._outer_lookup(core, line_addr, now, code=False)
        if self.latency_policy is not None:
            lat = self.latency_policy(pc, level, lat)
        self._l1_fill(l1, core, line_addr, now + lat, pc=pc, src=level)
        stats.load_served[level] += 1
        stats.load_latency_sum += lat
        if self._load_lat_hist is not None:
            self._load_lat_hist.record(lat)
        return AccessResult(lat, level, inflight)

    def store(self, core: int, pc: int, line_addr: int, now: float) -> AccessResult:
        """Demand store (write-allocate, write-back)."""
        self.stats[core].stores += 1
        l1 = self.l1d[core]
        line = l1.access(line_addr, now, write=True)
        if line is not None:
            inflight = line.ready > now
            return AccessResult(max(l1.latency, line.ready - now), Level.L1, inflight)
        lat, level, inflight = self._outer_lookup(core, line_addr, now, code=False)
        self._l1_fill(l1, core, line_addr, now + lat, dirty=True, pc=pc, src=level)
        return AccessResult(lat, level, inflight)

    def code_fetch(self, core: int, code_line: int, now: float) -> AccessResult:
        """Instruction fetch through the code L1."""
        l1i = self.l1i[core]
        line = l1i.access(code_line, now)
        if line is not None:
            inflight = line.ready > now
            level = LEVELS[line.src] if inflight else Level.L1
            self.stats[core].code_served[level] += 1
            return AccessResult(max(l1i.latency, line.ready - now), level, inflight)
        lat, level, inflight = self._outer_lookup(core, code_line, now, code=True)
        self._l1_fill(l1i, core, code_line, now + lat, src=level)
        self.stats[core].code_served[level] += 1
        return AccessResult(lat, level, inflight)

    # ------------------------------------------------------------ prefetches

    def prefetch_l1(
        self, core: int, line_addr: int, now: float, pc: int = -1, *, code: bool = False
    ) -> tuple[Level, float] | None:
        """Prefetch a line into the L1 (data or code).

        This is the L1 fill entry point for every prefetcher that targets
        the L1: the TACT components and any core-scope ``PREFETCHERS``
        registry entry (in-tree ``next-line``/``ip-stride`` or out-of-tree
        via ``$REPRO_PLUGINS`` — see ARCHITECTURE.md).  Returns the source
        level and the fill latency, or ``None`` if the line is already in
        the L1 (no prefetch issued).
        """
        l1 = self.l1i[core] if code else self.l1d[core]
        if l1.contains(line_addr):
            return None
        if (
            self.where(core, line_addr) is None
            and self.memory.backlog(now) > PREFETCH_BACKLOG_LIMIT
        ):
            return None  # DRAM congested: drop the speculative read
        self.stats[core].l1_prefetches += 1
        lat, level, _ = self._outer_lookup(core, line_addr, now, code=code)
        self._l1_fill(l1, core, line_addr, now + lat, prefetched=True, pc=pc, src=level)
        return level, lat

    def prefetch_l2(self, core: int, line_addr: int, now: float) -> None:
        """Baseline stream prefetch into the L2 (and LLC when inclusive).

        Skipped when the line is already on-die at the L2 level or inner,
        and dropped entirely when DRAM is congested (prefetch throttling).
        In a two-level hierarchy the stream prefetcher fills the LLC instead.
        """
        if self.memory.backlog(now) > PREFETCH_BACKLOG_LIMIT:
            return
        self.stats[core].l2_prefetches += 1
        if self.l2 is not None:
            l2 = self.l2[core]
            if l2.contains(line_addr) or self.l1d[core].contains(line_addr):
                return
            if self.llc is not None and self.llc.contains(line_addr):
                return  # already on-die; the demand path will move it in
            mem_lat = self.memory.read(line_addr, now)
            ready = now + mem_lat
            if self.llc is not None:
                self.ring.data(core, line_addr)
            self._l2_fill(core, line_addr, ready, prefetched=True)
            if self.llc is not None and self.llc_policy == "inclusive":
                self._llc_fill(core, line_addr, ready)
        elif self.llc is not None:
            if (
                self.llc.contains(line_addr)
                or self.l1d[core].contains(line_addr)
            ):
                return
            mem_lat = self.memory.read(line_addr, now)
            self.ring.data(core, line_addr)
            self._llc_fill(core, line_addr, now + mem_lat)

    # ----------------------------------------------------------- inspection

    def where(self, core: int, line_addr: int) -> Level | None:
        """Innermost level currently holding the line (None = memory only)."""
        if self.l1d[core].contains(line_addr) or self.l1i[core].contains(line_addr):
            return Level.L1
        if self.l2 is not None and self.l2[core].contains(line_addr):
            return Level.L2
        if self.llc is not None and self.llc.contains(line_addr):
            return Level.LLC
        return None

    def serve_latency(self, core: int, line_addr: int) -> float:
        """Latency a demand load would pay right now (no state change)."""
        level = self.where(core, line_addr)
        if level is Level.L1:
            return self.l1d[core].latency
        if level is Level.L2:
            assert self.l2 is not None
            return self.l2[core].latency
        if level is Level.LLC:
            assert self.llc is not None
            return self.llc.latency
        llc_lat = self.llc.latency if self.llc is not None else 0
        return llc_lat + (self.memory.fixed_latency or 160)

    def check_inclusion(self) -> list[str]:
        """Verify inclusion/exclusion invariants; returns violation strings.

        Used by property tests: under the inclusive policy every line in a
        private cache must be in the LLC; under the exclusive policy no line
        may be in both an L2 and the LLC.
        """
        problems: list[str] = []
        if self.llc is None:
            return problems
        if self.llc_policy == "inclusive":
            for c in range(self.n_cores):
                privates = [self.l1i[c], self.l1d[c]]
                if self.l2 is not None:
                    privates.append(self.l2[c])
                for cache in privates:
                    for addr in cache.resident_lines():
                        if not self.llc.contains(addr):
                            problems.append(f"{cache.name}: {addr:#x} not in LLC")
        elif self.l2 is not None:
            for c in range(self.n_cores):
                for addr in self.l2[c].resident_lines():
                    if self.llc.contains(addr):
                        problems.append(f"L2.{c}: {addr:#x} duplicated in LLC")
        return problems
