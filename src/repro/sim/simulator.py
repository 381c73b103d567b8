"""Single-core simulation driver with warmup/measurement methodology.

Short traces start from cold caches, so every measured run generates a
double-length trace and measures only the second half: the first half warms
caches, branch predictors and (for CATCH) the criticality and TACT tables;
statistics are reset at the midpoint and the second half is measured on the
same continuous timeline.  Because the workload kernels are continuous loops,
the measured half is genuine steady state — looping working sets are resident
at their natural level while streaming kernels keep touching *fresh* lines
and stay memory-bound (replaying the identical trace as warmup would have
artificially cached them).  This is the standard warmup discipline of sampled
simulators.
"""

from __future__ import annotations

import time

from .. import obs
from ..caches.hierarchy import CacheHierarchy, Level
from ..core.catch_engine import CatchEngine
from ..cpu.core import OOOCore
from ..cpu.engine import Engine
from ..plugins import compose
from ..workloads.suites import build_trace, get_spec
from ..workloads.trace import Trace
from .config import SimConfig
from .metrics import ActivitySnapshot, RunResult

#: Default dynamic instruction count for experiment traces.
DEFAULT_TRACE_LENGTH = 40_000


class Simulator:
    """Builds and runs one machine configuration.

    Args:
        config: machine description (see ``repro.sim.config`` factories).
            Validated eagerly — a nonsense machine raises
            :class:`~repro.errors.ConfigError` here, not mid-simulation.
    """

    def __init__(self, config: SimConfig) -> None:
        self.config = config.validate()

    # ------------------------------------------------------------- building

    def build_hierarchy(self, n_cores: int | None = None) -> CacheHierarchy:
        """Construct a fresh (cold) cache hierarchy for this config."""
        cfg = self.config
        from ..memory.controller import MemoryController

        memory = MemoryController(cfg.dram, fixed_latency=cfg.fixed_memory_latency)
        return CacheHierarchy(
            n_cores or cfg.n_cores,
            l1i=cfg.scaled(cfg.l1i),
            l1d=cfg.scaled(cfg.l1d),
            l2=cfg.scaled(cfg.l2),
            llc=cfg.scaled(cfg.llc),
            llc_policy=cfg.llc_policy,
            memory=memory,
            extra_latency=dict(cfg.extra_latency),
        )

    def make_engine(self) -> Engine:
        """Engine matching the config (CATCH when configured, else no-op)."""
        return compose.make_engine(self.config)

    def make_core(
        self, core_id: int, hierarchy: CacheHierarchy, engine: Engine
    ) -> OOOCore:
        """Build one core with registry-composed prefetchers.

        The prefetcher set comes from ``SimConfig.prefetchers`` (or, when
        unset, the legacy ``CoreParams`` flags) via
        :func:`repro.plugins.compose.core_prefetcher_factories`.
        """
        return OOOCore(
            core_id,
            hierarchy,
            self.config.core,
            engine,
            prefetchers=compose.core_prefetcher_factories(self.config),
        )

    # ------------------------------------------------------------- running

    def run(
        self,
        workload: str | Trace,
        n_instrs: int = DEFAULT_TRACE_LENGTH,
        *,
        engine: Engine | None = None,
        warmup: bool = True,
        hierarchy: CacheHierarchy | None = None,
        latency_policy=None,
        on_instruction=None,
        deadline=None,
    ) -> RunResult:
        """Run one workload on this configuration and return the measurement.

        Args:
            workload: a suite workload name, or a prebuilt :class:`Trace`.
            n_instrs: trace length when building from a name.
            engine: override the config's engine (oracle studies).
            warmup: run the warmup pass (disable only in unit tests).
            hierarchy: reuse an existing hierarchy (oracle two-phase studies
                requiring identical cold-start state should pass fresh ones).
            on_instruction: optional callable invoked with the running retired
                instruction index after every stepped instruction (warmup
                included).  The fault-injection harness
                uses it to raise at a chosen instruction; exceptions it
                raises abort the run.
            deadline: optional callable invoked with the retired-instruction
                index *and* at every phase boundary (including right after
                trace build, which has no per-instruction hook).  Kept
                separate from ``on_instruction`` so a wall-clock deadline
                still fires when a fault hook replaces or swallows the
                instruction callback.  :meth:`OOOCore.run_span` polls it every
                :data:`~repro.cpu.core.DEADLINE_POLL_STRIDE` instructions —
                the stride the runner's ``Deadline`` responds to anyway.
                Exceptions it raises abort the run.
        """
        registry = obs.metrics()
        clock = time.perf_counter
        phase_s: dict[str, float] = {}
        name = workload if isinstance(workload, str) else workload.name

        t_phase = clock()
        with obs.span("trace-build", args={"workload": name}):
            if isinstance(workload, Trace):
                trace = workload
            else:
                spec = get_spec(workload)
                length = n_instrs * spec.length_multiplier
                trace = build_trace(workload, 2 * length if warmup else length)
            hierarchy = hierarchy or self.build_hierarchy(n_cores=1)
            if latency_policy is not None:
                hierarchy.latency_policy = latency_policy
            engine = engine or self.make_engine()
            core = self.make_core(0, hierarchy, engine)
            core.start(trace)
        phase_s["trace_build"] = clock() - t_phase
        if deadline is not None:
            deadline(0)

        total = len(trace.instrs)
        boundary = total // 2 if warmup else 0
        idx = 0
        t_phase = clock()
        with obs.span("warmup", args={"instructions": boundary}):
            idx = core.run_span(
                trace.instrs[:boundary], idx,
                on_instruction=on_instruction, deadline=deadline,
            )
            if warmup:
                self._reset_all_stats(hierarchy, core, engine)
        phase_s["warmup"] = clock() - t_phase
        if deadline is not None:
            deadline(0)
        start_time = core.time
        measured = total - boundary
        t_phase = clock()
        with obs.span("measure", args={"instructions": measured}):
            core.run_span(
                trace.instrs[boundary:], idx,
                on_instruction=on_instruction, deadline=deadline,
            )
        phase_s["measure"] = clock() - t_phase
        t_phase = clock()
        with obs.span("finish"):
            hierarchy.memory.finish(core.time)
        cycles = core.time - start_time

        stats = hierarchy.stats[0]
        tact_stats = None
        critical_pcs = 0
        if isinstance(engine, CatchEngine):
            if engine.tact is not None:
                tact_stats = engine.tact.stats
            critical_pcs = engine.critical_pcs
        category = trace.category
        result = RunResult(
            workload=trace.name,
            category=category,
            config_name=self.config.name,
            instructions=measured,
            cycles=cycles,
            load_served=dict(stats.load_served),
            code_served=dict(stats.code_served),
            avg_load_latency=stats.avg_load_latency,
            mispredicts=core.mispredicts,
            code_stall_cycles=core.frontend.code_stall_cycles,
            critical_pcs=critical_pcs,
            tact_stats=tact_stats,
            activity=ActivitySnapshot.capture(hierarchy, cycles),
        )
        phase_s["finish"] = clock() - t_phase
        if registry.enabled:
            for phase, seconds in phase_s.items():
                registry.gauge(f"sim.phase.{phase}_s").set(seconds)
            result.telemetry = {
                "phases": dict(phase_s),
                "metrics": registry.snapshot(),
            }
        return result

    @staticmethod
    def _reset_all_stats(
        hierarchy: CacheHierarchy, core: OOOCore, engine: Engine
    ) -> None:
        hierarchy.reset_stats()
        core.reset_stats()
        engine.reset_stats()


def run_config_suite(
    config: SimConfig,
    workloads: list[str],
    n_instrs: int = DEFAULT_TRACE_LENGTH,
) -> dict[str, RunResult]:
    """Run a list of suite workloads on one configuration."""
    sim = Simulator(config)
    return {name: sim.run(name, n_instrs) for name in workloads}


def speedups_vs_baseline(
    results: dict[str, RunResult], baseline: dict[str, RunResult]
) -> dict[str, float]:
    """Per-workload IPC ratios of ``results`` over ``baseline``."""
    return {
        name: results[name].speedup_over(baseline[name]) for name in results
    }
