"""Baseline hardware prefetchers (present in all configurations).

The paper's baseline machine has two prefetchers that CATCH sits on top of:

* a **PC-based stride prefetcher at the L1** [41] with prefetch distance 1 —
  TACT-Deep-Self extends exactly this mechanism to deeper distances for
  critical PCs only;
* an **aggressive multi-stream prefetcher** [32], [35] that detects
  sequential streams within 4 KB pages and prefetches into the L2 (and LLC).

These train on the demand stream and issue through the hierarchy's
``prefetch_l1`` / ``prefetch_l2`` entry points.

Every prefetcher declares *when* it trains via the ``TRAIN_ON`` class
attribute the core's kernels dispatch on:

* ``"load"`` — ``train(pc, addr, now)`` on every demand load;
* ``"miss"`` — ``train(line, now)`` on every load the L1 missed.

New prefetchers register in :data:`repro.plugins.prefetchers.PREFETCHERS`
and become selectable via ``SimConfig.prefetchers`` / ``--prefetchers``
(see ``ARCHITECTURE.md`` for a worked example).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..workloads.trace import LINE_SHIFT
from .hierarchy import CacheHierarchy

PAGE_SHIFT = 12
LINES_PER_PAGE = 1 << (PAGE_SHIFT - LINE_SHIFT)


@dataclass(slots=True)
class _StrideEntry:
    last_addr: int = -1
    stride: int = 0
    confidence: int = 0


class L1StridePrefetcher:
    """PC-indexed stride prefetcher, distance 1, prefetching into the L1.

    Args:
        core: core id this prefetcher belongs to.
        hierarchy: the shared cache hierarchy.
        table_size: number of tracked PCs (direct-mapped by PC hash).
        min_confidence: consecutive identical strides needed before issuing.
    """

    TRAIN_ON = "load"

    def __init__(
        self,
        core: int,
        hierarchy: CacheHierarchy,
        table_size: int = 256,
        min_confidence: int = 2,
    ) -> None:
        self.core = core
        self.hierarchy = hierarchy
        self.table_size = table_size
        self.min_confidence = min_confidence
        self._table: dict[int, _StrideEntry] = {}
        self.issued = 0
        obs.metrics().register_provider(
            f"prefetch.l1stride.core{core}",
            lambda: {"issued": self.issued, "tracked_pcs": len(self._table)},
        )

    def entry_for(self, pc: int) -> _StrideEntry | None:
        """Expose the learned entry for a PC (used by TACT-Deep-Self)."""
        return self._table.get(pc)

    def train(self, pc: int, addr: int, now: float) -> None:
        """Observe a demand load and possibly issue a distance-1 prefetch."""
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.table_size:
                # FIFO capacity eviction stands in for direct-mapped conflict.
                self._table.pop(next(iter(self._table)))
            entry = _StrideEntry()
            self._table[pc] = entry
        if entry.last_addr >= 0:
            delta = addr - entry.last_addr
            if delta == entry.stride and delta != 0:
                if entry.confidence < 3:
                    entry.confidence += 1
            else:
                entry.stride = delta
                entry.confidence = 0
        entry.last_addr = addr
        if entry.confidence >= self.min_confidence and entry.stride != 0:
            target_line = (addr + entry.stride) >> LINE_SHIFT
            if target_line != addr >> LINE_SHIFT:
                self.hierarchy.prefetch_l1(self.core, target_line, now, pc=pc)
                self.issued += 1


@dataclass(slots=True)
class _Stream:
    page: int
    last_line: int      #: last line offset accessed within the page
    direction: int = 0  #: +1 ascending, -1 descending, 0 untrained
    confidence: int = 0


class L2StreamPrefetcher:
    """Multi-stream sequential prefetcher into the L2 (LLC when no L2).

    Tracks up to ``max_streams`` concurrently active 4 KB-page streams.  Once
    a stream's direction is confirmed twice, every subsequent access in the
    stream prefetches ``degree`` further lines ahead.
    """

    TRAIN_ON = "miss"

    def __init__(
        self,
        core: int,
        hierarchy: CacheHierarchy,
        max_streams: int = 16,
        degree: int = 2,
    ) -> None:
        self.core = core
        self.hierarchy = hierarchy
        self.max_streams = max_streams
        self.degree = degree
        self._streams: dict[int, _Stream] = {}
        self.issued = 0
        obs.metrics().register_provider(
            f"prefetch.l2stream.core{core}",
            lambda: {"issued": self.issued, "active_streams": len(self._streams)},
        )

    def train(self, line_addr: int, now: float) -> None:
        """Observe an L1 miss (the stream prefetcher trains below the L1)."""
        page = line_addr >> (PAGE_SHIFT - LINE_SHIFT)
        offset = line_addr & (LINES_PER_PAGE - 1)
        stream = self._streams.get(page)
        if stream is None:
            if len(self._streams) >= self.max_streams:
                self._streams.pop(next(iter(self._streams)))
            self._streams[page] = _Stream(page=page, last_line=offset)
            return
        step = offset - stream.last_line
        if step == 0:
            return
        # Streams are *sequential-line* runs: a non-unit step means the
        # next-line prefetches would fetch lines the program never touches,
        # so confidence only builds on unit steps (bandwidth protection).
        direction = 1 if step > 0 else -1
        if step == direction:
            stream.direction = direction
            stream.confidence = min(stream.confidence + 1, 3)
        else:
            stream.direction = direction
            stream.confidence = 0
        stream.last_line = offset
        if stream.confidence >= 1:
            base = (page << (PAGE_SHIFT - LINE_SHIFT)) + offset
            for ahead in range(1, self.degree + 1):
                target_offset = offset + direction * ahead
                if 0 <= target_offset < LINES_PER_PAGE:
                    self.hierarchy.prefetch_l2(self.core, base + direction * ahead, now)
                    self.issued += 1


class NextLinePrefetcher:
    """One-block-lookahead prefetcher into the L1 (Smith's classic OBL).

    The simplest conventional baseline: whenever a demand load touches a
    *new* cache line, prefetch the sequentially next line.  No PC state, no
    confidence — the registry entry exists so CATCH/TACT can be compared
    against the cheapest hardware prefetcher that is not "nothing".
    """

    TRAIN_ON = "load"

    def __init__(self, core: int, hierarchy: CacheHierarchy) -> None:
        self.core = core
        self.hierarchy = hierarchy
        self._last_line = -1
        self.issued = 0
        obs.metrics().register_provider(
            f"prefetch.nextline.core{core}",
            lambda: {"issued": self.issued},
        )

    def train(self, pc: int, addr: int, now: float) -> None:
        """Observe a demand load; issue line+1 on the first touch of a line."""
        line = addr >> LINE_SHIFT
        if line != self._last_line:
            self._last_line = line
            self.hierarchy.prefetch_l1(self.core, line + 1, now, pc=pc)
            self.issued += 1
