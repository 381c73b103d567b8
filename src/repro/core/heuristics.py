"""Heuristic criticality predictors (the related-work comparators).

Section VII: "Several other works have described heuristics that can be used
to determine critical instructions [2], [3], [6], [13] ... CATCH uses an
accurate and novel light weight detection of criticality via the data
dependency graph but doesn't preclude the use of other finely tuned
heuristics."  Section IV-A adds the concrete criticism: heuristics "often
flag many more PCs than are truly critical — for instance, branch
mis-predictions that lie in the shadow of a load miss to memory may still be
flagged as critical."

This module implements four cheap heuristic families so that claim can be
tested (see ``experiments/detector_comparison.py`` and the ablation
benchmarks).  Each exposes the same interface as
:class:`~repro.core.criticality.CriticalityDetector` (``on_retire`` +
``is_critical``) and is registered in the ``repro.plugins`` ``DETECTORS``
registry, so any of them can drive TACT via ``CatchConfig.detector`` or
the ``--detector`` CLI flag.

* :class:`OldestInROBHeuristic` — flag loads that stall retirement (the
  QOLD/"oldest instruction blocks commit" family, Tune et al. [2]).
* :class:`ConsumerCountHeuristic` — flag loads with high dynamic fan-out
  (freeness/consumer-count heuristics, Fields et al. token-passing flavour).
* :class:`BranchFeederHeuristic` — flag loads that (transitively) feed
  mispredicted branches (Subramaniam et al. [6] style load-criticality cues).
* :class:`LoadMissPCHeuristic` — flag every load PC that misses the L1, the
  cheapest possible cue and the natural lower bound for the comparison.

All four reuse the 32-entry critical-load table so the comparison isolates
the *identification* mechanism, not the table.
"""

from __future__ import annotations

from collections import Counter

from ..caches.hierarchy import Level
from ..workloads.trace import NUM_ARCH_REGS, Op
from .critical_table import CriticalLoadTable

#: Serving levels a heuristic may flag (match the DDG detector's filter).
RECORD_LEVELS = (Level.L2, Level.LLC)


class _HeuristicBase:
    """Shared table plumbing for the heuristic detectors."""

    def __init__(self, table_entries: int = 32, epoch_instructions: int = 100_000):
        self.table = CriticalLoadTable(
            entries=table_entries,
            ways=min(8, table_entries),
            epoch_instructions=epoch_instructions,
        )
        self.critical_pc_counts: Counter[int] = Counter()
        self.flagged = 0

    def _flag(self, pc: int, level: Level | None) -> None:
        self.flagged += 1
        self.critical_pc_counts[pc] += 1
        if level in RECORD_LEVELS:
            self.table.observe_critical(pc)

    def is_critical(self, pc: int) -> bool:
        return self.table.is_critical(pc)

    def is_tracked(self, pc: int) -> bool:
        return self.table.is_tracked(pc)

    def top_critical_pcs(self, n: int) -> list[int]:
        return [pc for pc, _ in self.critical_pc_counts.most_common(n)]

    def on_retire(
        self, idx, instr, exec_lat, producers, level, mispredicted, e_time
    ) -> None:  # pragma: no cover
        """Feed one retired instruction; the fields are those of
        :meth:`repro.cpu.engine.Engine.on_retire`."""
        raise NotImplementedError


class OldestInROBHeuristic(_HeuristicBase):
    """Flag loads whose completion gates in-order retirement.

    A load is flagged when its writeback time exceeds the previous
    instruction's commit time by more than ``slack`` cycles — i.e. it was the
    oldest unfinished instruction and commit had to wait for it.  This is the
    classic "QOLD" stall-based criticality cue.
    """

    def __init__(self, slack: float = 4.0, **kw):
        super().__init__(**kw)
        self.slack = slack
        self._prev_commit = 0.0

    def on_retire(
        self, idx, instr, exec_lat, producers, level, mispredicted, e_time
    ) -> None:
        finish = e_time + exec_lat
        if instr.op is Op.LOAD and finish > self._prev_commit + self.slack:
            self._flag(instr.pc, level)
        self._prev_commit = max(self._prev_commit, finish)
        self.table.tick_retire()


class ConsumerCountHeuristic(_HeuristicBase):
    """Flag loads whose value is consumed by many later instructions.

    Tracks, per in-flight load, how many retired instructions named it as a
    producer within a sliding window; loads with fan-out >= ``threshold``
    are flagged.  At the default threshold of 1 this flags *every consumed
    load* — the liberal archetype: fan-out is a poor proxy for the longest
    path, and over-flagging is exactly the inaccuracy the paper points out
    for heuristic detectors.
    """

    WINDOW = 256

    def __init__(self, threshold: int = 1, **kw):
        super().__init__(**kw)
        self.threshold = threshold
        #: load idx -> (pc, serving level, consumers seen)
        self._inflight: dict[int, tuple[int, Level | None, int]] = {}

    def on_retire(
        self, idx, instr, exec_lat, producers, level, mispredicted, e_time
    ) -> None:
        for producer in producers:
            entry = self._inflight.get(producer)
            if entry is not None:
                pc, lvl, count = entry
                count += 1
                if count == self.threshold:
                    self._flag(pc, lvl)
                self._inflight[producer] = (pc, lvl, count)
        if instr.op is Op.LOAD:
            self._inflight[idx] = (instr.pc, level, 0)
            if len(self._inflight) > self.WINDOW:
                self._inflight.pop(next(iter(self._inflight)))
        self.table.tick_retire()


class BranchFeederHeuristic(_HeuristicBase):
    """Flag loads that transitively feed a mispredicted branch.

    Propagates the youngest in-flight load through architectural registers
    (same mechanism TACT-Feeder uses); when a mispredicted branch retires,
    the load feeding its sources is flagged.  This catches branch-resolution
    criticality but also flags loads whose mispredicts hide in the shadow of
    a memory miss — the paper's canonical false positive.
    """

    def __init__(self, **kw):
        super().__init__(**kw)
        self._youngest: list[tuple[int, int] | None] = [None] * NUM_ARCH_REGS
        #: load idx -> (pc, serving level)
        self._records: dict[int, tuple[int, Level | None]] = {}
        self._cap = 512

    def on_retire(
        self, idx, instr, exec_lat, producers, level, mispredicted, e_time
    ) -> None:
        if instr.op is Op.BRANCH and mispredicted:
            best = None
            for src in instr.srcs:
                cand = self._youngest[src]
                if cand is not None and (best is None or cand[1] > best[1]):
                    best = cand
            if best is not None:
                feeder = self._records.get(best[1])
                if feeder is not None:
                    self._flag(*feeder)
        if instr.dst >= 0:
            if instr.op is Op.LOAD:
                self._youngest[instr.dst] = (instr.pc, idx)
                self._records[idx] = (instr.pc, level)
                if len(self._records) > self._cap:
                    self._records.pop(next(iter(self._records)))
            else:
                best = None
                for src in instr.srcs:
                    cand = self._youngest[src]
                    if cand is not None and (best is None or cand[1] > best[1]):
                        best = cand
                self._youngest[instr.dst] = best
        self.table.tick_retire()


class LoadMissPCHeuristic(_HeuristicBase):
    """Flag every load PC that misses the L1 — the cheapest possible cue.

    No dependency tracking at all: a load served from the L2 or beyond is
    "critical".  This is the degenerate baseline the registry exposes as
    ``load-miss-pc``; it maximally over-flags (every miss PC competes for
    the 32-entry table) and isolates how much the DDG's *selectivity* is
    worth relative to raw miss information the cache already has.
    """

    def on_retire(
        self, idx, instr, exec_lat, producers, level, mispredicted, e_time
    ) -> None:
        if instr.op is Op.LOAD and level is not None and level is not Level.L1:
            self._flag(instr.pc, level)
        self.table.tick_retire()


HEURISTICS = {
    "oldest_in_rob": OldestInROBHeuristic,
    "consumer_count": ConsumerCountHeuristic,
    "branch_feeder": BranchFeederHeuristic,
    "load_miss_pc": LoadMissPCHeuristic,
}


def make_heuristic(name: str, **kw) -> _HeuristicBase:
    """Instantiate a heuristic detector by name.

    Unknown names raise :class:`~repro.errors.ConfigError` (a ``ValueError``
    subclass) with the same choose-from/did-you-mean shape as every plugin
    registry.
    """
    from ..errors import ConfigError
    from ..plugins.registry import canonical_name, suggest

    key = canonical_name(name).replace("-", "_")
    try:
        cls = HEURISTICS[key]
    except KeyError:
        raise ConfigError(
            f"unknown heuristic {name!r}; "
            f"{suggest(name, [k.replace('_', '-') for k in HEURISTICS])}"
        ) from None
    return cls(**kw)
