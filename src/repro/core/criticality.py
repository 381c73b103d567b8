"""Criticality detector: buffered DDG + critical load table (Section IV-A).

This is the complete ~3 KB hardware block: the retire stream feeds the
buffered graph; every completed walk records the PCs of loads found on the
critical path *that were served by the L2 or LLC* into the critical-load
table.  TACT consults :meth:`CriticalityDetector.is_critical`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..caches.hierarchy import Level
from .critical_table import CriticalLoadTable, table_area_bytes
from .ddg import BufferedDDG, CriticalLoad, graph_area_bytes

#: Levels whose critical hits the detector records (the whole point of CATCH
#: is accelerating loads that hit *on-die but beyond the L1*).
RECORD_LEVELS = (int(Level.L2), int(Level.LLC))


class CriticalityDetector:
    """Hardware criticality detection, composed per core.

    Args:
        rob_size: core ROB depth (sizes the buffered graph).
        table_entries: critical table capacity (32 in the paper).
        record_levels: serving levels that qualify a critical load for the
            table.  The oracle studies override this (e.g. record L1 hits).
        rename_latency: D-E edge weight, matching the core.
    """

    def __init__(
        self,
        rob_size: int = 224,
        table_entries: int = 32,
        record_levels: tuple[int, ...] = RECORD_LEVELS,
        rename_latency: int = 1,
        epoch_instructions: int = 100_000,
        table_policy: str = "lru",
    ) -> None:
        self.table = CriticalLoadTable(
            entries=table_entries,
            ways=min(8, table_entries),
            epoch_instructions=epoch_instructions,
            policy=table_policy,
        )
        self.record_levels = record_levels
        self.graph = BufferedDDG(
            rob_size=rob_size,
            rename_latency=rename_latency,
            on_walk=self._record_walk,
        )
        #: Cumulative critical observations per PC (oracle ranking input).
        self.critical_pc_counts: Counter[int] = Counter()

    def _record_walk(self, found: list[CriticalLoad]) -> None:
        for load in found:
            self.critical_pc_counts[load.pc] += 1
            if load.level in self.record_levels:
                self.table.observe_critical(load.pc)

    # ------------------------------------------------------------- interface

    def on_retire(
        self, idx, instr, exec_lat, producers, level, mispredicted, e_time
    ) -> None:
        """Feed one retired instruction (call in retire order); the fields
        are those of :meth:`repro.cpu.engine.Engine.on_retire`."""
        self.graph.add(idx, instr, exec_lat, producers, level, mispredicted)
        self.table.tick_retire()

    def is_critical(self, pc: int) -> bool:
        return self.table.is_critical(pc)

    def is_tracked(self, pc: int) -> bool:
        return self.table.is_tracked(pc)

    def top_critical_pcs(self, n: int) -> list[int]:
        """The ``n`` most frequently critical PCs (oracle studies, Fig 5)."""
        return [pc for pc, _ in self.critical_pc_counts.most_common(n)]


@dataclass(frozen=True)
class DetectorArea:
    """Area summary reproducing the paper's ~3 KB claim (Table I)."""

    graph_bytes: float
    pc_bytes: float
    table_bytes: float

    @property
    def total_kb(self) -> float:
        return (self.graph_bytes + self.pc_bytes + self.table_bytes) / 1024


def detector_area(rob_size: int = 224, table_entries: int = 32) -> DetectorArea:
    g = graph_area_bytes(rob_size)
    return DetectorArea(
        graph_bytes=g["graph_bytes"],
        pc_bytes=g["pc_bytes"],
        table_bytes=table_area_bytes(table_entries),
    )
