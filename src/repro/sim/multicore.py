"""Four-core multi-programmed simulation (Section VI-C / Figure 14).

Each core runs its own trace; cores share the LLC, ring and DRAM.  Cores are
interleaved by commit timestamp (the core with the earliest local clock steps
next), so shared-resource contention — LLC capacity, bank conflicts, bus
occupancy — emerges naturally from the timestamps.  The interleaving is exact
per instruction, but each core runs as many instructions as it stays the
earliest, in one :meth:`~repro.cpu.core.OOOCore.run_span` call.

Each trace's data addresses are relocated to a private region (separate
processes do not share physical data pages); code addresses are left shared,
as RATE-4 copies of one binary genuinely share code lines in the LLC.

A mix is a first-class workload reference: :meth:`MultiCoreSimulator.run`
accepts the ``"a+b+c+d"`` display string (see
:mod:`repro.plugins.workloads`), and :meth:`run_mix` returns an
:class:`~repro.sim.metrics.MPRunResult` — RunResult-shaped, so mixes
checkpoint, cache and serve through the runner/fleet/daemon stack exactly
like single-core runs.

The metric is weighted speedup: ``sum_i IPC_together_i / IPC_alone_i`` with
the alone runs on the same configuration (paper Section V).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import replace as dc_replace
from itertools import islice

from .. import obs
from ..core.catch_engine import CatchEngine
from ..cpu.core import DEADLINE_POLL_STRIDE
from ..workloads.suites import build_trace, get_spec
from ..workloads.trace import Trace
from .config import SimConfig
from .metrics import ActivitySnapshot, MPRunResult
from .simulator import DEFAULT_TRACE_LENGTH, Simulator

#: Address-space stride separating the cores' private data regions.
_CORE_ADDRESS_STRIDE = 1 << 40


def relocate_trace(trace: Trace, core: int) -> Trace:
    """Shift a trace's data addresses into a core-private region."""
    if core == 0:
        return trace
    offset = core * _CORE_ADDRESS_STRIDE
    instrs = [
        dc_replace(ins, addr=ins.addr + offset) if ins.addr >= 0 else ins
        for ins in trace.instrs
    ]
    image = {addr + offset: value for addr, value in trace.memory_image.items()}
    return Trace(trace.name, trace.category, instrs, image)


class MultiCoreSimulator:
    """Runs four-way mixes on a shared hierarchy.

    Args:
        config: machine configuration; ``n_cores`` cores are instantiated.
    """

    def __init__(self, config: SimConfig, n_cores: int = 4) -> None:
        self.config = dc_replace(config, n_cores=n_cores).validate()
        self.n_cores = n_cores

    def run(
        self,
        workload,
        n_instrs: int = DEFAULT_TRACE_LENGTH,
        *,
        on_instruction=None,
        deadline=None,
    ) -> MPRunResult:
        """Simulator-compatible entry point: a mix reference runs as a mix.

        ``workload`` is the ``"a+b+c+d"`` display string or the member
        tuple itself; the runner treats this class as the simulator of mix
        jobs.
        """
        from ..plugins.workloads import mix_names

        mix = mix_names(workload) if isinstance(workload, str) else tuple(workload)
        return self.run_mix(
            mix, n_instrs, on_instruction=on_instruction, deadline=deadline
        )

    def run_mix(
        self,
        mix: tuple[str, ...],
        n_instrs: int = DEFAULT_TRACE_LENGTH,
        *,
        on_instruction=None,
        deadline=None,
    ) -> MPRunResult:
        """Run one mix to completion (warmup half + measured half).

        ``on_instruction``/``deadline`` follow the single-core simulator's
        hook contract, called with the running count of globally stepped
        instructions: ``on_instruction`` after every instruction,
        ``deadline`` at every phase boundary (with 0) and whenever the count
        reaches a multiple of :data:`~repro.cpu.core.DEADLINE_POLL_STRIDE`.
        The fleet worker's heartbeat and the runner's fault injection and
        wall-clock deadline ride them for mix jobs too.
        """
        from ..plugins.workloads import mix_display

        if len(mix) != self.n_cores:
            raise ValueError(f"mix size {len(mix)} != {self.n_cores} cores")
        display = mix_display(mix)
        with obs.span("mix-build", args={"mix": display}):
            sim = Simulator(self.config)
            hierarchy = sim.build_hierarchy()
            traces = []
            for core_id, name in enumerate(mix):
                spec = get_spec(name)
                trace = build_trace(name, 2 * n_instrs * spec.length_multiplier)
                traces.append(relocate_trace(trace, core_id))
            engines = [sim.make_engine() for _ in range(self.n_cores)]
            cores = [
                sim.make_core(c, hierarchy, engines[c])
                for c in range(self.n_cores)
            ]
            for core, trace in zip(cores, traces):
                core.start(trace)
        if deadline is not None:
            deadline(0)

        lengths = [len(t.instrs) for t in traces]
        boundaries = [n // 2 for n in lengths]
        streams = [iter(t.instrs) for t in traces]
        half_time: dict[int, float] = {}
        positions = [0] * self.n_cores
        stepped = 0
        poll = DEADLINE_POLL_STRIDE
        # Min-heap of (local commit time, core id): the core whose clock is
        # furthest behind steps next, keeping shared-resource timestamps
        # roughly ordered.  The popped core runs while its (commit, id)
        # stays below the next heap entry — exactly the instructions one pop
        # per instruction would give it — so its span stops after the first
        # commit above ``stop``.
        heap = [(0.0, c) for c in range(self.n_cores)]
        heapq.heapify(heap)
        with obs.span("mix-run", args={"mix": display}):
            while heap:
                _, c = heapq.heappop(heap)
                pos = positions[c]
                end = boundaries[c] if pos < boundaries[c] else lengths[c]
                if deadline is not None:
                    end = min(end, pos + poll - stepped % poll)
                if heap:
                    top_t, top_c = heap[0]
                    stop = top_t if c < top_c else math.nextafter(top_t, -math.inf)
                else:
                    stop = math.inf
                hook = None
                if on_instruction is not None:
                    def hook(idx, offset=stepped - pos):
                        on_instruction(idx + offset)
                core = cores[c]
                new_pos = core.run_span(
                    islice(streams[c], end - pos), pos,
                    stop=stop, on_instruction=hook,
                )
                positions[c] = new_pos
                stepped += new_pos - pos
                if deadline is not None and not stepped % poll:
                    deadline(stepped)
                if new_pos == boundaries[c]:
                    half_time[c] = core.time
                    hierarchy.stats[c] = type(hierarchy.stats[c])()
                    core.reset_stats()
                    engines[c].reset_stats()
                if new_pos < lengths[c]:
                    heapq.heappush(heap, (core.time, c))
            hierarchy.memory.finish(max(core.time for core in cores))

        per_core_ipc: dict[int, float] = {}
        per_core_cycles: dict[int, float] = {}
        per_core_instructions: dict[int, int] = {}
        per_core_stats: dict[int, dict] = {}
        load_served: dict = {}
        code_served: dict = {}
        total_loads = 0
        latency_weighted = 0.0
        mispredicts = 0
        code_stall_cycles = 0.0
        critical_pcs = 0
        for c in range(self.n_cores):
            measured = len(traces[c].instrs) - boundaries[c]
            span = cores[c].time - half_time[c]
            per_core_cycles[c] = span
            per_core_instructions[c] = measured
            per_core_ipc[c] = measured / span if span else 0.0
            stats = hierarchy.stats[c]
            core_loads = sum(stats.load_served.values())
            total_loads += core_loads
            latency_weighted += stats.avg_load_latency * core_loads
            for level, count in stats.load_served.items():
                load_served[level] = load_served.get(level, 0) + count
            for level, count in stats.code_served.items():
                code_served[level] = code_served.get(level, 0) + count
            mispredicts += cores[c].mispredicts
            code_stall_cycles += cores[c].frontend.code_stall_cycles
            core_critical = 0
            if isinstance(engines[c], CatchEngine):
                core_critical = engines[c].critical_pcs
                critical_pcs += core_critical
            per_core_stats[c] = {
                "workload": mix[c],
                "load_served": {
                    level.name: count
                    for level, count in stats.load_served.items()
                },
                "avg_load_latency": stats.avg_load_latency,
                "mispredicts": cores[c].mispredicts,
                "code_stall_cycles": cores[c].frontend.code_stall_cycles,
                "critical_pcs": core_critical,
            }
        cycles = max(per_core_cycles.values()) if per_core_cycles else 0.0
        return MPRunResult(
            workload=display,
            category="MP",
            config_name=self.config.name,
            instructions=sum(per_core_instructions.values()),
            cycles=cycles,
            load_served=load_served,
            code_served=code_served,
            avg_load_latency=(
                latency_weighted / total_loads if total_loads else 0.0
            ),
            mispredicts=mispredicts,
            code_stall_cycles=code_stall_cycles,
            critical_pcs=critical_pcs,
            activity=ActivitySnapshot.capture(hierarchy, cycles),
            mix=tuple(mix),
            per_core_ipc=per_core_ipc,
            per_core_cycles=per_core_cycles,
            per_core_instructions=per_core_instructions,
            per_core_stats=per_core_stats,
        )


def alone_ipcs(
    config: SimConfig, names: set[str], n_instrs: int = DEFAULT_TRACE_LENGTH
) -> dict[str, float]:
    """IPC of each workload running alone on the same configuration."""
    sim = Simulator(dc_replace(config, n_cores=1))
    return {name: sim.run(name, n_instrs).ipc for name in names}
