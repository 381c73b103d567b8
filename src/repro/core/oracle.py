"""Oracle studies — Sections III-B and III-C.

Two oracle mechanisms drive the paper's motivation:

* :class:`OraclePrefetchEngine` (Figure 5): for a chosen set of critical load
  PCs, every L1 miss that would hit the L2/LLC is converted into an L1 hit by
  a zero-time prefetch, and all code fetches hit the L1I.  Baseline hardware
  prefetchers are disabled during oracle runs (training them under an oracle
  is ill-defined, as the paper notes).

* :func:`make_latency_policy` (Figure 4): re-prices hits at one level to the
  next level's latency, either for all loads or only for non-critical ones,
  using a critical-PC set learned by the hardware detector in a profiling
  pass.

Both consume the output of :func:`profile_critical_pcs`, which runs the
criticality detector over a baseline execution and ranks load PCs by how
often they appear on the critical path (the paper's "past predicts future",
applied across runs instead of within one).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..caches.hierarchy import Level
from ..cpu.core import CoreParams, OOOCore
from ..cpu.engine import Engine
from ..workloads.trace import Instr, Op, Trace
from .catch_engine import CatchConfig, CatchEngine


def profile_critical_pcs(
    trace: Trace,
    hierarchy_factory,
    core_params: CoreParams | None = None,
    top_n: int | None = None,
) -> list[int]:
    """Run a detector-only pass and rank critical load PCs by frequency.

    Args:
        trace: workload to profile.
        hierarchy_factory: zero-argument callable building a fresh hierarchy
            (the profiling run must not share cache state with the study run).
        core_params: core configuration.
        top_n: truncate the ranking (Figure 5 sweeps 32..2048; None = all).
    """
    engine = CatchEngine(CatchConfig(detector_only=True))
    core = OOOCore(0, hierarchy_factory(), core_params, engine)
    core.run(trace)
    assert engine.detector is not None
    ranked = engine.detector.top_critical_pcs(top_n or len(engine.detector.critical_pc_counts))
    return ranked


class _FixedCriticalSet:
    """Critical-table stand-in backed by a fixed PC set (oracle detector)."""

    def __init__(self, pcs: frozenset[int]) -> None:
        self._pcs = pcs

    def critical_count(self) -> int:
        return len(self._pcs)

    def is_critical(self, pc: int) -> bool:
        return pc in self._pcs

    def is_tracked(self, pc: int) -> bool:
        return pc in self._pcs

    def observe_critical(self, pc: int) -> None:
        pass  # the set is fixed; nothing is learned

    def tick_retire(self) -> None:
        pass


class OracleDetector:
    """Criticality "detector" that already knows the answer.

    Wraps a fixed critical-PC set (typically from
    :func:`profile_critical_pcs` on a prior run) behind the same interface
    as :class:`~repro.core.criticality.CriticalityDetector`, so TACT can be
    driven by perfect knowledge: registry name ``oracle``, with the set
    supplied via ``CatchConfig.oracle_pcs``.  Upper-bounds what any online
    identification mechanism could achieve for a given table size.
    """

    def __init__(self, pcs) -> None:
        self.pcs = frozenset(pcs)
        self.table = _FixedCriticalSet(self.pcs)
        self.critical_pc_counts: Counter[int] = Counter()
        self.flagged = 0

    def on_retire(
        self, idx, instr, exec_lat, producers, level, mispredicted, e_time
    ) -> None:
        if instr.op is Op.LOAD and instr.pc in self.pcs:
            self.flagged += 1
            self.critical_pc_counts[instr.pc] += 1

    def is_critical(self, pc: int) -> bool:
        return pc in self.pcs

    def is_tracked(self, pc: int) -> bool:
        return pc in self.pcs

    def top_critical_pcs(self, n: int) -> list[int]:
        return [pc for pc, _ in self.critical_pc_counts.most_common(n)]


@dataclass
class OracleStats:
    prefetches: int = 0
    converted_loads: int = 0   #: L1 misses turned into hits


class OraclePrefetchEngine(Engine):
    """Zero-time critical prefetcher (Figure 5 oracle).

    Args:
        critical_pcs: PCs whose loads are converted (ignored if ``all_pcs``).
        all_pcs: convert every load L1 miss that would hit on-die.
        perfect_code: make all code fetches L1I hits (paper's oracle does).
    """

    def __init__(
        self,
        critical_pcs: set[int] | None = None,
        all_pcs: bool = False,
        perfect_code: bool = True,
    ) -> None:
        self.critical_pcs = critical_pcs or set()
        self.all_pcs = all_pcs
        self.perfect_code = perfect_code
        self.stats = OracleStats()
        self._core = None

    def attach(self, core_id: int, core) -> None:
        self._core = core
        self.core_id = core_id
        if self.perfect_code:
            core.frontend.perfect_code = True

    def before_load(self, instr: Instr, idx: int, now: float) -> None:
        """Zero-time prefetch: if the line is on-die beyond the L1, fill the
        L1 instantly so the demand access hits."""
        if not self.all_pcs and instr.pc not in self.critical_pcs:
            return
        hierarchy = self._core.hierarchy
        where = hierarchy.where(self.core_id, instr.line)
        if where in (Level.L2, Level.LLC):
            outcome = hierarchy.prefetch_l1(self.core_id, instr.line, now)
            if outcome is not None:
                # Zero-time: force the fill to be complete right now.
                line = hierarchy.l1d[self.core_id].peek(instr.line)
                if line is not None:
                    line.ready = now
                self.stats.prefetches += 1
                self.stats.converted_loads += 1


def make_latency_policy(
    mode: str,
    critical_pcs: set[int],
    level_from: Level,
    latency_to: float,
):
    """Latency-conversion oracle for Figure 4.

    Args:
        mode: ``"all"`` (convert every hit at ``level_from``) or
            ``"noncritical"`` (convert only loads whose PC is not critical).
        critical_pcs: the profiled critical set.
        level_from: hits at this level are re-priced.
        latency_to: the replacement latency (the next level's, or memory's).

    Returns:
        A ``(pc, level, latency) -> latency`` callable for
        ``CacheHierarchy.latency_policy``, with a ``converted``/``total``
        counter dict attached as ``policy.counts``.
    """
    if mode not in ("all", "noncritical"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    counts = {"converted": 0, "total": 0}

    def policy(pc: int, level: Level, latency: float) -> float:
        if level is not level_from:
            return latency
        counts["total"] += 1
        if mode == "all" or pc not in critical_pcs:
            counts["converted"] += 1
            return max(latency, latency_to)
        return latency

    policy.counts = counts
    return policy
