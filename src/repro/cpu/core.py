"""Out-of-order core timing model, evaluated as the Fields et al. DDG.

The paper analyses (and our reproduction times) the machine through the data
dependency graph of Fields et al. [1]: every instruction has a Dispatch (D),
Execute (E) and Commit (C) node, and edges

* D-D (in-order allocation, bounded by dispatch width),
* C-D (ROB depth: instruction *i* cannot allocate until *i - ROB* commits),
* D-E (rename latency),
* E-E (register and memory data dependences, weighted by producer latency),
* E-C (execution latency), C-C (in-order commit, bounded by commit width),
* E-D (bad speculation: a mispredicted branch redirects fetch).

This module computes those node times exactly, instruction by instruction, in
program order.  Load execution latencies come from the cache hierarchy *at
the load's execute time*, so prefetch timeliness, DRAM bank state and
in-flight fills all shape the graph.  Total cycles = the last C node.

This is deliberately the same graph the CATCH criticality detector
(``repro.core.ddg``) rebuilds "in hardware" from the retire stream — detected
critical paths are true critical paths of this machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .. import obs
from ..caches.hierarchy import CacheHierarchy, Level
from ..caches.prefetchers import L1StridePrefetcher, L2StreamPrefetcher
from ..workloads.trace import (
    EXEC_LATENCY,
    LINE_SHIFT,
    NUM_ARCH_REGS,
    Op,
    Trace,
)
from .branch import GshareBranchPredictor
from .engine import Engine
from .frontend import FrontEnd

#: Retired-instruction stride between deadline polls in :meth:`OOOCore.run_span`.
#: Matches the runner's ``Deadline``, which ignores every index that is not a
#: multiple of its own check interval — so polling only on these strides is
#: observationally identical to the seed's per-instruction polling.
DEADLINE_POLL_STRIDE = 256

#: Execution latency per op, as floats (timing arithmetic is in floats).
_EXEC_LAT = {op: float(lat) for op, lat in EXEC_LATENCY.items()}

#: The :class:`Engine` hooks :meth:`OOOCore.run_span` calls, in its order.
_HOOKS = ("before_load", "after_load", "on_execute", "on_retire")


@dataclass(frozen=True)
class CoreParams:
    """Microarchitecture parameters (Skylake-like, Section V)."""

    rob_size: int = 224
    width: int = 4              #: dispatch and commit width
    rename_latency: int = 1
    mispredict_penalty: int = 15  #: front-end refill after a bad branch
    enable_l1_stride: bool = True
    enable_l2_stream: bool = True


@dataclass
class CoreResult:
    """Outcome of running one trace on one core."""

    instructions: int
    cycles: float
    load_levels: dict[Level, int] = field(default_factory=dict)
    branch_mispredicts: int = 0
    code_stall_cycles: float = 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def _fold_trainers(trainers):
    """Collapse a trainer list to one call target for the kernel hot loops.

    ``None`` when empty and the single bound method when there is exactly
    one (the default composition), so the common case dispatches with the
    same cost as the pre-registry hard-wired call; only genuinely stacked
    prefetchers pay for a fan-out closure.
    """
    if not trainers:
        return None
    if len(trainers) == 1:
        return trainers[0]
    folded = tuple(trainers)

    def train_all(*args, _trainers=folded):
        for train in _trainers:
            train(*args)

    return train_all


class OOOCore:
    """One out-of-order core bound to a shared cache hierarchy.

    Args:
        core_id: index of this core in the hierarchy.
        hierarchy: shared :class:`CacheHierarchy`.
        params: microarchitectural parameters.
        engine: criticality/prefetch engine (CATCH, oracle, or no-op).
        prefetchers: core-side prefetcher factories, each called as
            ``factory(core_id, hierarchy)`` (see
            :data:`repro.plugins.prefetchers.PREFETCHERS`).  ``None`` builds
            the legacy pair from the ``CoreParams`` enable flags — identical
            to what :func:`repro.plugins.compose.core_prefetcher_factories`
            derives for a default config.
    """

    def __init__(
        self,
        core_id: int,
        hierarchy: CacheHierarchy,
        params: CoreParams | None = None,
        engine: Engine | None = None,
        prefetchers=None,
    ) -> None:
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.params = params or CoreParams()
        self.engine = engine or Engine()
        self.frontend = FrontEnd(core_id, hierarchy, self.params.width)
        self.predictor = GshareBranchPredictor()
        if prefetchers is None:
            built = []
            if self.params.enable_l1_stride:
                built.append(L1StridePrefetcher(core_id, hierarchy))
            if self.params.enable_l2_stream:
                built.append(L2StreamPrefetcher(core_id, hierarchy))
        else:
            built = [factory(core_id, hierarchy) for factory in prefetchers]
        self.prefetchers = built
        # Named aliases kept for the components other code reaches into
        # (TACT-Deep-Self extends the stride mechanism; tests assert on both).
        self.stride_pf = next(
            (p for p in built if isinstance(p, L1StridePrefetcher)), None
        )
        self.stream_pf = next(
            (p for p in built if isinstance(p, L2StreamPrefetcher)), None
        )
        self._train_load = _fold_trainers(
            [p.train for p in built if p.TRAIN_ON == "load"]
        )
        self._train_miss = _fold_trainers(
            [p.train for p in built if p.TRAIN_ON == "miss"]
        )
        obs.metrics().register_provider(
            f"core.core{core_id}", self._telemetry_snapshot
        )
        self._reset_run_state()

    def _telemetry_snapshot(self) -> dict:
        """Core-side counters for the metrics registry."""
        return {
            "instructions_stepped": len(self._e_time),
            "mispredicts": self._mispredicts,
            "code_stall_cycles": self.frontend.code_stall_cycles,
            "code_misses": self.frontend.code_misses,
            "time": self._last_c,
        }

    def _reset_run_state(self) -> None:
        p = self.params
        self._e_time: list[float] = []
        self._lat: list[float] = []
        self._c_ring = [0.0] * p.rob_size  # C times of the last ROB_SIZE instrs
        self._reg_writer = [-1] * NUM_ARCH_REGS
        self._mem_writer: dict[int, int] = {}
        self._last_d = 0.0
        self._last_c = 0.0
        self._d_cycle = -1
        self._d_count = 0
        self._c_cycle = -1
        self._c_count = 0
        self._redirect = 0.0
        self._mispredicts = 0

    # ------------------------------------------------------------------ run

    @property
    def time(self) -> float:
        """Commit time of the most recently stepped instruction."""
        return self._last_c

    @property
    def mispredicts(self) -> int:
        return self._mispredicts

    def start(self, trace: Trace) -> None:
        """Reset timing state and bind the engine for :meth:`run_span` calls.

        The engine's live hooks are resolved here, once per run, so each
        :meth:`run_span` call — the multi-core driver makes one every few
        instructions — starts without a per-call lookup.  A hook is live
        unless it is still the :class:`Engine` base-class no-op; instance
        attribute hooks (no ``__func__``) count as live.
        """
        self._reset_run_state()
        engine = self.engine
        engine.attach(self.core_id, self)
        engine.set_trace(trace)
        hooks = []
        for name in _HOOKS:
            hook = getattr(engine, name)
            live = getattr(hook, "__func__", None) is not getattr(Engine, name)
            hooks.append(hook if live else None)
        self._hooks = tuple(hooks)

    def reset_stats(self) -> None:
        """Zero core-side counters (not timing state) at a sample boundary."""
        self._mispredicts = 0
        self.frontend.code_stall_cycles = 0.0
        self.frontend.code_misses = 0
        self.predictor.stats = type(self.predictor.stats)()
        for prefetcher in self.prefetchers:
            prefetcher.issued = 0

    def run(self, trace: Trace, limit: int | None = None) -> CoreResult:
        """Execute the trace to completion through :meth:`run_span`; returns
        timing results."""
        self.start(trace)
        instrs = trace.instrs if limit is None else trace.instrs[:limit]
        self.run_span(instrs, 0)
        return self.finish(len(instrs))

    def run_span(
        self,
        instrs,
        start_idx: int,
        *,
        stop: float = math.inf,
        on_instruction=None,
        deadline=None,
    ) -> int:
        """Step a span of instructions through D/E/C; the simulation kernel.

        Every attribute, bound method and constant is hoisted out of the
        loop, engine hooks that are still the :class:`Engine` no-ops (as
        resolved by :meth:`start`) are skipped entirely — including the
        producer list when nothing retires into an engine — the front end's
        same-line fetch is inlined, and the deadline is polled every
        :data:`DEADLINE_POLL_STRIDE` instructions, the stride the runner's
        ``Deadline`` checks anyway.  A run may be split into spans at any
        instruction boundary without changing its result: all timing state
        lives on the core between calls.

        ``on_instruction`` stays per-instruction: fault injection raises at
        an exact index and the fleet heartbeat rides it.

        Timing state is written back even when a hook raises (``finally``),
        so an aborted run leaves the core after its last stepped
        instruction.  Engines must not read core timing state mid-span
        (none do).

        Args:
            instrs: the instructions to step, in program order (any
                iterable; the multi-core driver passes an ``islice`` of a
                per-core iterator, which a ``stop`` leaves just after the
                last stepped instruction).
            start_idx: dynamic index of the first instruction in ``instrs``.
            stop: the span ends after the first instruction whose commit
                time exceeds this bound (the multi-core driver's next
                heap entry); ``inf`` steps every instruction.

        Returns:
            The dynamic index after the last stepped instruction.
        """
        p = self.params
        rob_size = p.rob_size
        width = p.width
        rename_latency = p.rename_latency
        mispredict_penalty = p.mispredict_penalty
        core_id = self.core_id

        e_time = self._e_time
        lat_arr = self._lat
        e_append = e_time.append
        lat_append = lat_arr.append
        c_ring = self._c_ring
        reg_writer = self._reg_writer
        mem_writer = self._mem_writer
        mem_writer_get = mem_writer.get

        last_d = self._last_d
        last_c = self._last_c
        d_cycle = self._d_cycle
        d_count = self._d_count
        c_cycle = self._c_cycle
        c_count = self._c_count
        redirect = self._redirect
        mispredicts = self._mispredicts

        frontend = self.frontend
        fetch_time = frontend.fetch_time
        frontend_redirect = frontend.redirect
        hier_load = self.hierarchy.load
        hier_store = self.hierarchy.store
        predict_and_update = self.predictor.predict_and_update
        train_load = self._train_load
        train_miss = self._train_miss

        before_load, after_load, on_execute, on_retire = self._hooks

        op_load = Op.LOAD
        op_store = Op.STORE
        op_branch = Op.BRANCH
        level_l1 = Level.L1
        exec_lat = _EXEC_LAT
        store_lat = exec_lat[op_store]
        branch_lat = exec_lat[op_branch]
        line_shift = LINE_SHIFT
        poll = DEADLINE_POLL_STRIDE

        idx = start_idx
        producers: list[int] = []
        try:
            for instr in instrs:
                # ---- Dispatch (D node) ----------------------------------
                pipeline_time = last_d if last_d >= redirect else redirect
                if instr.pc >> line_shift == frontend._current_line:
                    # FrontEnd.fetch_time on the line it is already fetching:
                    # pipelined, no code access, no stall.
                    fetch_ready = frontend._ready
                    if pipeline_time > fetch_ready:
                        fetch_ready = pipeline_time
                    frontend._ready = fetch_ready
                else:
                    fetch_ready = fetch_time(idx, instr, pipeline_time)
                d = last_d
                if fetch_ready > d:
                    d = fetch_ready
                if redirect > d:
                    d = redirect
                ring_pos = idx % rob_size
                if idx >= rob_size:
                    cd = c_ring[ring_pos]  # C-D edge (ROB full)
                    if cd > d:
                        d = cd
                cyc = int(d)
                if cyc == d_cycle:
                    if d_count >= width:
                        cyc += 1
                        d = float(cyc)
                        d_cycle = cyc
                        d_count = 1
                    else:
                        d_count += 1
                else:
                    d_cycle = cyc
                    d_count = 1
                last_d = d

                # ---- Execute (E node) -----------------------------------
                e = d + rename_latency
                op = instr.op
                if on_retire is not None:
                    producers = []
                    for src in instr.srcs:
                        widx = reg_writer[src]
                        if widx >= 0:
                            producers.append(widx)
                            t = e_time[widx] + lat_arr[widx]
                            if t > e:
                                e = t
                    if op is op_load:
                        sidx = mem_writer_get(instr.addr, -1)
                        if sidx >= 0:
                            producers.append(sidx)
                            t = e_time[sidx] + lat_arr[sidx]
                            if t > e:
                                e = t
                else:
                    for src in instr.srcs:
                        widx = reg_writer[src]
                        if widx >= 0:
                            t = e_time[widx] + lat_arr[widx]
                            if t > e:
                                e = t
                    if op is op_load:
                        sidx = mem_writer_get(instr.addr, -1)
                        if sidx >= 0:
                            t = e_time[sidx] + lat_arr[sidx]
                            if t > e:
                                e = t

                # ---- Execution latency ----------------------------------
                level = None
                mispredicted = False
                if op is op_load:
                    addr = instr.addr
                    line = addr >> line_shift if addr >= 0 else -1
                    if before_load is not None:
                        before_load(instr, idx, e)
                    result = hier_load(core_id, instr.pc, line, e)
                    lat = result.latency
                    level = result.level
                    if train_load is not None:
                        train_load(instr.pc, addr, e)
                    if level is not level_l1 and train_miss is not None:
                        train_miss(line, e)
                    if after_load is not None:
                        after_load(instr, idx, e, result)
                elif op is op_store:
                    lat = store_lat
                    addr = instr.addr
                    line = addr >> line_shift if addr >= 0 else -1
                    hier_store(core_id, instr.pc, line, e)
                    mem_writer[addr] = idx
                elif op is op_branch:
                    lat = branch_lat
                    mispredicted = predict_and_update(
                        instr.pc, instr.taken, instr.target
                    )
                    if mispredicted:
                        mispredicts += 1
                        resume = e + lat + mispredict_penalty  # E-D edge
                        if resume > redirect:
                            redirect = resume
                        frontend_redirect(resume)
                else:
                    lat = exec_lat[op]

                if on_execute is not None:
                    on_execute(instr, idx, e)
                dst = instr.dst
                if dst >= 0:
                    reg_writer[dst] = idx
                e_append(e)
                lat_append(lat)

                # ---- Commit (C node) ------------------------------------
                c = e + lat
                if last_c > c:
                    c = last_c
                cyc = int(c)
                if cyc == c_cycle:
                    if c_count >= width:
                        cyc += 1
                        c = float(cyc)
                        c_cycle = cyc
                        c_count = 1
                    else:
                        c_count += 1
                else:
                    c_cycle = cyc
                    c_count = 1
                last_c = c
                c_ring[ring_pos] = c

                if on_retire is not None:
                    on_retire(
                        idx, instr, lat, tuple(producers), level, mispredicted, e
                    )
                idx += 1
                if on_instruction is not None:
                    on_instruction(idx)
                if deadline is not None and not idx % poll:
                    deadline(idx)
                if last_c > stop:
                    break
        finally:
            self._last_d = last_d
            self._last_c = last_c
            self._d_cycle = d_cycle
            self._d_count = d_count
            self._c_cycle = c_cycle
            self._c_count = c_count
            self._redirect = redirect
            self._mispredicts = mispredicts
        return idx

    def finish(self, n_instructions: int) -> CoreResult:
        """Collect results after the last instruction has stepped."""
        self.hierarchy.memory.finish(self._last_c)
        stats = self.hierarchy.stats[self.core_id]
        return CoreResult(
            instructions=n_instructions,
            cycles=self._last_c,
            load_levels=dict(stats.load_served),
            branch_mispredicts=self._mispredicts,
            code_stall_cycles=self.frontend.code_stall_cycles,
        )
