"""CATCH: Criticality Aware Tiered Cache Hierarchy — the composed engine.

Wires the hardware criticality detector (Section IV-A) and the TACT
prefetcher family (Section IV-B) into an :class:`~repro.cpu.OOOCore` via the
engine hooks.  This object *is* the paper's proposal: attach it to a core
over any hierarchy (three-level, or two-level "noL2") and critical loads that
would have been served by the L2/LLC are prefetched into the L1 just in time,
while code misses are hidden by the CNPIP runahead.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .. import obs
from ..cpu.engine import Engine
from .criticality import CriticalityDetector
from .tact.coordinator import TACTConfig, TACTCoordinator
from .tact.feeder import RegisterLoadTracker


@dataclass(frozen=True)
class CatchConfig:
    """Knobs for the full CATCH engine."""

    tact: TACTConfig = field(default_factory=TACTConfig)
    table_entries: int = 32
    epoch_instructions: int = 100_000
    #: Detector-only mode: learn criticality but never prefetch (used by the
    #: oracle studies to enumerate critical PCs without perturbing timing).
    detector_only: bool = False
    #: Criticality identification mechanism, resolved through
    #: :data:`repro.plugins.detectors.DETECTORS`: ``"ddg"`` (the paper's
    #: buffered dependency graph), one of the heuristic comparators
    #: (``oldest-in-rob``/``consumer-count``/``branch-feeder``/
    #: ``load-miss-pc``), or ``"oracle"`` (a fixed set from
    #: :attr:`oracle_pcs`).  ``"none"`` is rejected here — it means
    #: ``catch=None`` and is resolved at composition time.
    detector: str = "ddg"
    #: Critical-PC set driving the ``"oracle"`` detector (ignored by the
    #: online detectors); typically produced by
    #: :func:`repro.core.oracle.profile_critical_pcs`.
    oracle_pcs: tuple[int, ...] = ()
    #: Critical-table victim policy: ``"lru"`` (paper) or ``"lfu"`` (the
    #: frequency-aware future-work variant for povray-class applications).
    table_policy: str = "lru"


class CatchEngine(Engine):
    """Criticality detection + TACT prefetching for one core."""

    def __init__(self, config: CatchConfig | None = None) -> None:
        self.config = config or CatchConfig()
        self.detector: CriticalityDetector | None = None
        self.tact: TACTCoordinator | None = None
        self._core = None

    # -------------------------------------------------------------- wiring

    def attach(self, core_id: int, core) -> None:
        if self._core is core:
            return  # re-attach on a warmup/measure boundary keeps state
        self._core = core
        cfg = self.config
        # Resolved lazily: the registry's entry modules import the full
        # core/cpu layers and must not load while this module initialises.
        from ..errors import ConfigError
        from ..plugins.detectors import DETECTORS

        spec = DETECTORS.get(cfg.detector)
        if spec.factory is None:
            raise ConfigError(
                f"detector {cfg.detector!r} cannot drive a CATCH engine; "
                f"'none' means no criticality engine at all — use catch=None "
                f"(the --detector none CLI path composes that for you)"
            )
        self.detector = spec.factory(core, cfg)
        # The hooks are bound as instance attributes so the core calls
        # straight into the detector and TACT; a hook left unbound stays the
        # Engine no-op, which the span kernel skips.
        tracker = None
        if not cfg.detector_only:
            self.tact = TACTCoordinator(
                core_id,
                core.hierarchy,
                self.detector,
                core.predictor,
                cfg.tact,
            )
            core.frontend.on_code_miss = self.tact.on_code_miss
            self.after_load = self.tact.on_load_execute
            tracker = self.tact.reg_tracker
        if isinstance(self.detector, CriticalityDetector):
            # TACT's register tracking rides the retire hook, so a non-load
            # instruction costs one engine call.
            self.on_retire = _ddg_retire_hook(self.detector, tracker)
        else:
            self.on_retire = self.detector.on_retire
            if self.tact is not None:
                self.on_execute = self.tact.on_execute
        obs.metrics().register_provider(
            f"catch.core{core_id}", self._telemetry_snapshot
        )

    def _telemetry_snapshot(self) -> dict:
        """Detector and TACT counters for the metrics registry."""
        out: dict = {
            "detector": self.config.detector,
            "critical_pcs": self.critical_pcs,
        }
        if self.detector is not None:
            out["flagged_pcs"] = len(self.detector.critical_pc_counts)
        if self.tact is not None:
            stats = dataclasses.asdict(self.tact.stats)
            stats["served_from"] = {
                lvl.name: n for lvl, n in self.tact.stats.served_from.items()
            }
            out["tact"] = stats
        return out

    def set_trace(self, trace) -> None:
        if self.tact is not None:
            self.tact.set_trace(trace)

    # ---------------------------------------------------------------- stats

    def reset_stats(self) -> None:
        """Zero TACT counters at a sample boundary (learned state is kept)."""
        if self.tact is not None:
            from .tact.coordinator import TACTStats

            self.tact.stats = TACTStats()
            self.tact.code.stats = type(self.tact.code.stats)()

    @property
    def critical_pcs(self) -> int:
        return self.detector.table.critical_count() if self.detector else 0


def _ddg_retire_hook(
    detector: CriticalityDetector, tracker: RegisterLoadTracker | None
):
    """The retire hook of a DDG-driven engine, as one closure.

    Does what ``detector.on_retire`` and ``TACTCoordinator.on_execute`` do,
    in the same order the core would call them: the tracker update (which
    nothing reads between execute and retire), then ``graph.add``, then the
    epoch countdown, batched into one
    :meth:`~repro.core.critical_table.CriticalLoadTable.tick_retire` call
    on the retire that completes the epoch.  ``level`` is not ``None``
    exactly for loads (the engine hook contract).
    """
    add = detector.graph.add
    table = detector.table
    tick = table.tick_retire
    left = table.retires_to_epoch()
    reg_pc, reg_idx = tracker.registers() if tracker is not None else (None, None)

    def on_retire(idx, instr, exec_lat, producers, level, mispredicted, e_time):
        nonlocal left
        dst = instr.dst
        if dst >= 0 and reg_pc is not None:
            if level is not None:  # RegisterLoadTracker.on_load
                reg_pc[dst] = instr.pc
                reg_idx[dst] = idx
            else:  # RegisterLoadTracker.on_other
                best_pc = -1
                best_idx = -1
                for src in instr.srcs:
                    cand_idx = reg_idx[src]
                    if cand_idx > best_idx:
                        best_idx = cand_idx
                        best_pc = reg_pc[src]
                reg_pc[dst] = best_pc
                reg_idx[dst] = best_idx
        add(idx, instr, exec_lat, producers, level, mispredicted)
        left -= 1
        if left <= 0:
            tick(table.retires_to_epoch())
            left = table.retires_to_epoch()

    return on_retire
