"""TACT coordinator: target tracking, training, firing, timeliness stats.

Binds the four TACT prefetchers (Cross, Deep-Self, Feeder, Code) to one
core.  Training and prefetching happen only for loads tracked by the
criticality detector's 32-entry table (Section IV-B: "We only do TACT
learning and prefetching for the 32 critical loads"), which is what keeps
TACT's storage at ~1.2 KB and the L1 unpolluted.

The coordinator also implements the Figure 11 timeliness accounting: for
every TACT prefetch it records the serving level and full latency; when the
demand load later arrives it computes how much of that latency the prefetch
actually hid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ...caches.hierarchy import AccessResult, CacheHierarchy, Level
from ...workloads.trace import LINE_SHIFT, Instr, Op
from ..critical_table import CONFIDENCE_MAX, CriticalLoadTable
from ..criticality import CriticalityDetector
from .code import CodePrefetcher
from .cross import CrossState
from .deep_self import DeepSelfState
from .feeder import FEEDER_DISTANCE, FeederState, RegisterLoadTracker
from .trigger_cache import TriggerCache

_OP_LOAD = Op.LOAD

#: Canonical TACT component name -> the ``TACTConfig`` flag enabling it.
#: The plugin registry exposes these as the ``tact-<name>`` prefetchers.
COMPONENTS = {
    "cross": "enable_cross",
    "deep-self": "enable_deep_self",
    "feeder": "enable_feeder",
    "code": "enable_code",
}


@dataclass(frozen=True)
class TACTConfig:
    """Which TACT components are active (Figure 13 ablates these)."""

    enable_cross: bool = True
    enable_deep_self: bool = True
    enable_feeder: bool = True
    enable_code: bool = True
    max_targets: int = 32
    code_runahead_lines: int = 24
    feeder_distance: int = FEEDER_DISTANCE
    deep_max_distance: int = 16

    @classmethod
    def with_components(cls, names, **overrides) -> "TACTConfig":
        """Build a config enabling exactly the named components.

        Args:
            names: iterable of :data:`COMPONENTS` keys (``_``/``-`` and the
                ``tact-`` registry prefix are accepted).
            **overrides: any other ``TACTConfig`` field.
        """
        from ...errors import ConfigError
        from ...plugins.registry import canonical_name, suggest

        flags = {flag: False for flag in COMPONENTS.values()}
        for name in names:
            key = canonical_name(name)
            if key.startswith("tact-"):
                key = key[len("tact-"):]
            if key not in COMPONENTS:
                raise ConfigError(
                    f"unknown TACT component {name!r}; "
                    f"{suggest(key, list(COMPONENTS))}"
                )
            flags[COMPONENTS[key]] = True
        return cls(**flags, **overrides)

    def components(self) -> tuple[str, ...]:
        """Canonical names of the enabled components, in registry order."""
        return tuple(
            name for name, flag in COMPONENTS.items() if getattr(self, flag)
        )


@dataclass
class TACTStats:
    """Prefetch issue/served/timeliness counters (Figures 11 and 13)."""

    cross_prefetches: int = 0
    deep_prefetches: int = 0
    feeder_prefetches: int = 0
    code_prefetches: int = 0
    served_from: Counter = field(default_factory=Counter)
    demand_covered: int = 0      #: demand loads that met a TACT prefetch
    saved_over_80: int = 0       #: >80% of the source latency hidden
    saved_10_to_80: int = 0
    saved_under_10: int = 0

    @property
    def issued(self) -> int:
        return (
            self.cross_prefetches
            + self.deep_prefetches
            + self.feeder_prefetches
        )

    @property
    def pct_from_llc(self) -> float:
        total = sum(self.served_from.values())
        return self.served_from[Level.LLC] / total if total else 0.0

    def timeliness_fractions(self) -> dict[str, float]:
        total = self.demand_covered
        if not total:
            return {"over_80": 0.0, "mid": 0.0, "under_10": 0.0}
        return {
            "over_80": self.saved_over_80 / total,
            "mid": self.saved_10_to_80 / total,
            "under_10": self.saved_under_10 / total,
        }


@dataclass(slots=True)
class _PCHistory:
    """Recent behaviour of one load PC (trigger firing + feeder strides)."""

    last_addr: int = -1
    last_data: int = 0
    stride: int = 0
    stride_conf: int = 0

    def observe(self, addr: int, data: int) -> None:
        if self.last_addr >= 0:
            delta = addr - self.last_addr
            if delta == self.stride and delta != 0:
                self.stride_conf = min(self.stride_conf + 1, 3)
            else:
                self.stride = delta
                self.stride_conf = 0
        self.last_addr = addr
        self.last_data = data


@dataclass(slots=True)
class _TargetState:
    cross: CrossState = field(default_factory=CrossState)
    deep: DeepSelfState = field(default_factory=DeepSelfState)
    feeder: FeederState = field(default_factory=FeederState)
    lru: int = 0


class TACTCoordinator:
    """All TACT machinery for one core."""

    MAX_PC_HISTORY = 2048
    MAX_INFLIGHT = 8192

    def __init__(
        self,
        core: int,
        hierarchy: CacheHierarchy,
        detector: CriticalityDetector,
        predictor,
        config: TACTConfig | None = None,
    ) -> None:
        self.core = core
        self.hierarchy = hierarchy
        self.detector = detector
        self.config = config or TACTConfig()
        self.stats = TACTStats()
        self.trigger_cache = TriggerCache()
        self.reg_tracker = RegisterLoadTracker()
        self._tracker_on_load = self.reg_tracker.on_load
        self._tracker_on_other = self.reg_tracker.on_other
        self.code = CodePrefetcher(
            core, hierarchy, predictor, max_lines=self.config.code_runahead_lines
        )
        self._targets: dict[int, _TargetState] = {}
        self._pc_hist: dict[int, _PCHistory] = {}
        #: cross-trigger PC -> target PCs it prefetches for
        self._cross_triggers: dict[int, set[int]] = {}
        #: feeder PC -> target PCs it feeds
        self._feeders: dict[int, set[int]] = {}
        #: line -> (source level, full latency) for issued TACT prefetches
        self._inflight: dict[int, tuple[Level, float]] = {}
        self._memory_image: dict[int, int] = {}
        self._clock = 0
        # TACT trains on the loads the detector's table reports critical.  A
        # CriticalLoadTable is probed directly, through a per-PC memo of the
        # slot the PC hashes to (bounded by the static load PCs); any other
        # table answers through its own is_critical.
        table = detector.table
        if isinstance(table, CriticalLoadTable):
            self._table_slot = table.slot
            self._is_critical = None
        else:
            self._is_critical = table.is_critical
        self._crit_slots: dict[int, tuple[dict, int]] = {}

    # ------------------------------------------------------------- plumbing

    def set_trace(self, trace) -> None:
        self._memory_image = trace.memory_image
        self.code.set_trace(trace)

    def on_code_miss(self, idx: int, now: float, stall: float) -> None:
        if self.config.enable_code:
            self.code.on_code_miss(idx, now, stall)
            self.stats.code_prefetches = self.code.stats.lines_prefetched

    def _history(self, pc: int) -> _PCHistory:
        hist = self._pc_hist.get(pc)
        if hist is None:
            if len(self._pc_hist) >= self.MAX_PC_HISTORY:
                self._pc_hist.pop(next(iter(self._pc_hist)))
            hist = _PCHistory()
            self._pc_hist[pc] = hist
        return hist

    def _target(self, pc: int) -> _TargetState:
        state = self._targets.get(pc)
        if state is None:
            if len(self._targets) >= self.config.max_targets:
                victim_pc = min(self._targets, key=lambda p: self._targets[p].lru)
                self._drop_target(victim_pc)
            state = _TargetState()
            state.deep.max_distance = self.config.deep_max_distance
            self._targets[pc] = state
        state.lru = self._clock
        return state

    def _drop_target(self, target_pc: int) -> None:
        state = self._targets.pop(target_pc, None)
        if state is None:
            return
        for mapping in (self._cross_triggers, self._feeders):
            for targets in mapping.values():
                targets.discard(target_pc)

    # ------------------------------------------------------------ prefetch

    def _issue(self, byte_addr: int, now: float, component: str) -> None:
        line = byte_addr >> LINE_SHIFT
        outcome = self.hierarchy.prefetch_l1(self.core, line, now)
        if outcome is None:
            return  # already in L1
        level, latency = outcome
        setattr(
            self.stats,
            component,
            getattr(self.stats, component) + 1,
        )
        self.stats.served_from[level] += 1
        if len(self._inflight) >= self.MAX_INFLIGHT:
            self._inflight.pop(next(iter(self._inflight)))
        self._inflight[line] = (level, latency)

    def _record_timeliness(self, instr: Instr, result: AccessResult) -> None:
        record = self._inflight.pop(instr.line, None)
        if record is None:
            return
        level, full_latency = record
        if full_latency <= 0:
            return
        self.stats.demand_covered += 1
        paid = result.latency
        l1_lat = self.hierarchy.l1d[self.core].latency
        saved_fraction = max(0.0, (full_latency - max(paid, l1_lat)) / full_latency)
        if saved_fraction > 0.80:
            self.stats.saved_over_80 += 1
        elif saved_fraction >= 0.10:
            self.stats.saved_10_to_80 += 1
        else:
            self.stats.saved_under_10 += 1

    # -------------------------------------------------------------- hooks

    def on_load_execute(
        self, instr: Instr, idx: int, now: float, result: AccessResult
    ) -> None:
        """Main TACT hook: trains and fires on every executed load."""
        cfg = self.config
        pc = instr.pc
        addr = instr.addr
        self._clock += 1

        if self._inflight:
            self._record_timeliness(instr, result)
        self.trigger_cache.observe(pc, addr)
        hist = self._pc_hist.get(pc)

        # ---- fire: this load is a learned CROSS trigger -------------------
        if cfg.enable_cross:
            for target_pc in self._cross_triggers.get(pc, ()):
                state = self._targets.get(target_pc)
                if state is not None:
                    predicted = state.cross.prefetch_for_trigger(addr)
                    if predicted is not None:
                        self._issue(predicted, now, "cross_prefetches")

        # ---- fire: this load FEEDS a target's address ----------------------
        if cfg.enable_feeder and pc in self._feeders:
            # The target prefetch can only launch once the feeder's *data* is
            # on hand — at ``now + latency``, when this load's line arrives.
            # (A pure pointer chase therefore gains nothing, as the paper
            # observes for namd/gromacs: the prefetch starts exactly when the
            # dependent demand would.)
            data_time = now + result.latency
            for target_pc in self._feeders.get(pc, ()):
                state = self._targets.get(target_pc)
                if state is None or not state.feeder.learned:
                    continue
                issued_deep = False
                if hist is not None and hist.stride_conf >= 2:
                    # TACT deep-prefetches the feeder itself (distance <= 4);
                    # the prefetched feeder line's data then triggers the
                    # target prefetch.  Reading the future value from the
                    # memory image is exactly reading the prefetched line.
                    future_addr = addr + hist.stride * cfg.feeder_distance
                    self._issue(future_addr, now, "feeder_prefetches")
                    data = self._memory_image.get(future_addr)
                    if data is not None:
                        predicted = state.feeder.predict(data)
                        if predicted is not None:
                            self._issue(predicted, data_time, "feeder_prefetches")
                            issued_deep = True
                if not issued_deep:
                    predicted = state.feeder.predict(instr.data)
                    if predicted is not None:
                        self._issue(predicted, data_time, "feeder_prefetches")

        # ---- train: this load is a critical target --------------------------
        is_critical = self._is_critical
        if is_critical is None:  # one probe of the CriticalLoadTable
            slot = self._crit_slots.get(pc)
            if slot is None:
                slot = self._crit_slots[pc] = self._table_slot(pc)
            entry = slot[0].get(slot[1])
            critical = entry is not None and entry.confidence >= CONFIDENCE_MAX
        else:
            critical = is_critical(pc)
        if critical:
            state = self._target(pc)
            if cfg.enable_cross and not state.cross.learned:
                state.cross.refresh_candidates(
                    self.trigger_cache.candidates(addr), pc
                )
                candidate = state.cross.current_candidate()
                cand_hist = self._pc_hist.get(candidate) if candidate >= 0 else None
                state.cross.observe_target(
                    addr, cand_hist.last_addr if cand_hist else -1
                )
                if state.cross.learned:
                    self._cross_triggers.setdefault(
                        state.cross.trigger_pc, set()
                    ).add(pc)
            if cfg.enable_deep_self:
                for predicted in state.deep.observe(addr):
                    self._issue(predicted, now, "deep_prefetches")
            if cfg.enable_feeder and not state.feeder.learned:
                feeder_pc = self.reg_tracker.feeder_for(instr.srcs, idx)
                state.feeder.observe_feeder_candidate(feeder_pc)
                if state.feeder.confirmed:
                    feeder_hist = self._pc_hist.get(state.feeder.feeder_pc)
                    if feeder_hist is not None:
                        state.feeder.observe_relation(addr, feeder_hist.last_data)
                    if state.feeder.learned:
                        self._feeders.setdefault(
                            state.feeder.feeder_pc, set()
                        ).add(pc)

        # ---- history update (after training uses the *previous* values) ----
        if hist is None:
            hist = self._history(pc)
        hist.observe(addr, instr.data)

    def on_execute(self, instr: Instr, idx: int, now: float) -> None:
        """Register propagation for feeder identification (every instr)."""
        # Bound methods cached in __init__: this hook runs per instruction.
        if instr.op is _OP_LOAD:
            self._tracker_on_load(instr.pc, idx, instr.dst)
        elif instr.dst >= 0:
            self._tracker_on_other(idx, instr.srcs, instr.dst)

    # ------------------------------------------------------------- area

    @staticmethod
    def area_bytes() -> dict[str, float]:
        """Figure 9 storage accounting (~1.2 KB total)."""
        return {
            "critical_target_table": 32 * 20,   # 640 B: deep+cross+feeder state
            "feeder_pc_table": 32 * 2,          # 64 B
            "feeder_reg_tracking": 16 * 3,      # 48 B
            "trigger_cache": 64 * 6,            # 384 B
            "cross_pc_table": 64,               # 64 B
            "code_cnpip": 8,                    # 8 B
        }
