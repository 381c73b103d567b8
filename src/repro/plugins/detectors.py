"""Criticality-detector registry.

Entries are resolved by :meth:`repro.core.catch_engine.CatchEngine.attach`
from ``CatchConfig.detector``: ``factory(core, catch_config)`` returns an
object with the detector interface (``on_retire`` with the positional
fields of :meth:`repro.cpu.engine.Engine.on_retire`, ``is_critical``,
``is_tracked``, ``critical_pc_counts``, ``table``).  TACT trains on the
loads ``table.is_critical`` reports, so ``is_critical`` must agree with it.  The special entry
``none`` has no factory — it means "no criticality engine at all" and is
resolved at composition time (``catch=None``), never inside an engine;
``SimConfig.validate`` rejects configurations that reach the engine with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.criticality import CriticalityDetector
from ..core.heuristics import HEURISTICS
from ..core.oracle import OracleDetector
from .registry import Registry


@dataclass(frozen=True)
class DetectorSpec:
    """One selectable criticality-identification mechanism."""

    name: str
    summary: str
    factory: Callable | None = None  #: (core, CatchConfig) -> detector


DETECTORS: Registry[DetectorSpec] = Registry("criticality detector")


def register_detector(
    name: str, factory: Callable | None, *, summary: str = ""
) -> DetectorSpec:
    """Register a detector (the external-plugin entry point)."""
    spec = DetectorSpec(name=name, summary=summary, factory=factory)
    DETECTORS.register(name, spec, summary=summary)
    return spec


def _make_ddg(core, cfg) -> CriticalityDetector:
    return CriticalityDetector(
        rob_size=core.params.rob_size,
        table_entries=cfg.table_entries,
        rename_latency=core.params.rename_latency,
        epoch_instructions=cfg.epoch_instructions,
        table_policy=cfg.table_policy,
    )


register_detector(
    "ddg", _make_ddg,
    summary="the paper's buffered data-dependency-graph detector (Section IV-A)",
)
register_detector(
    "oracle",
    lambda core, cfg: OracleDetector(cfg.oracle_pcs),
    summary="fixed critical-PC set from CatchConfig.oracle_pcs (perfect knowledge)",
)
register_detector(
    "none", None,
    summary="no criticality engine at all (composes to catch=None)",
)

_HEURISTIC_SUMMARIES = {
    "oldest_in_rob": "flag loads that stall in-order retirement (QOLD family)",
    "consumer_count": "flag loads with high dynamic fan-out",
    "branch_feeder": "flag loads feeding mispredicted branches",
    "load_miss_pc": "flag every load PC that misses the L1 (cheapest cue)",
}


def _heuristic_factory(cls) -> Callable:
    def build(core, cfg, _cls=cls):
        return _cls(
            table_entries=cfg.table_entries,
            epoch_instructions=cfg.epoch_instructions,
        )

    return build


for _name, _cls in HEURISTICS.items():
    register_detector(
        _name,  # canonicalised to kebab-case by the registry
        _heuristic_factory(_cls),
        summary=_HEURISTIC_SUMMARIES[_name],
    )
