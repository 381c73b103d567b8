"""White-box tests for TACT coordinator bookkeeping and MP code sharing."""

import hashlib
import json

from repro.caches.hierarchy import CacheHierarchy, Level, LevelSpec
from repro.core.catch_engine import CatchEngine
from repro.core.criticality import CriticalityDetector
from repro.core.tact.coordinator import TACTConfig, TACTCoordinator
from repro.cpu.branch import GshareBranchPredictor
from repro.cpu.core import CoreParams, OOOCore
from repro.memory.controller import MemoryController
from repro.sim.config import skylake_server
from repro.sim.multicore import MultiCoreSimulator, relocate_trace
from repro.workloads.suites import build_trace
from repro.workloads.trace import Instr, Op

#: SHA-256 of the four-core RATE-4 code-sharing run's end state.
RATE4_STATE_DIGEST = "b38ca6cea6304dc2ec786344b262324eb7b5d68e655f1aede9a23b3357c305be"


def make_coordinator(max_targets=4):
    h = CacheHierarchy(
        1,
        l1i=LevelSpec(1, 2, 5),
        l1d=LevelSpec(1, 2, 5),
        l2=LevelSpec(16, 4, 15),
        llc=LevelSpec(64, 4, 40),
        memory=MemoryController(fixed_latency=100),
    )
    det = CriticalityDetector(rob_size=16)
    return TACTCoordinator(
        0, h, det, GshareBranchPredictor(), TACTConfig(max_targets=max_targets)
    ), det


class TestTargetTable:
    def test_capacity_eviction(self):
        coord, det = make_coordinator(max_targets=2)
        for pc in (0x10, 0x20, 0x30):
            coord._target(pc)
        assert len(coord._targets) == 2
        assert 0x10 not in coord._targets  # LRU dropped

    def test_drop_target_cleans_trigger_maps(self):
        coord, det = make_coordinator(max_targets=2)
        coord._target(0x10)
        coord._cross_triggers.setdefault(0x99, set()).add(0x10)
        coord._feeders.setdefault(0x88, set()).add(0x10)
        coord._drop_target(0x10)
        assert 0x10 not in coord._cross_triggers[0x99]
        assert 0x10 not in coord._feeders[0x88]

    def test_lru_refresh_on_reuse(self):
        coord, det = make_coordinator(max_targets=2)
        # The clock normally advances per executed load; tick it manually.
        coord._clock = 1
        coord._target(0x10)
        coord._clock = 2
        coord._target(0x20)
        coord._clock = 3
        coord._target(0x10)  # refresh
        coord._clock = 4
        coord._target(0x30)  # evicts 0x20
        assert 0x10 in coord._targets and 0x20 not in coord._targets

    def test_deep_distance_config_applied(self):
        coord, det = make_coordinator()
        coord.config = TACTConfig(deep_max_distance=4)
        state = coord._target(0x10)
        assert state.deep.max_distance == 4


class TestInflightCap:
    def test_inflight_bounded(self):
        coord, det = make_coordinator()
        coord.MAX_INFLIGHT = 8
        for i in range(50):
            coord._issue(i * 64 * 7 + (1 << 20), 0.0, "deep_prefetches")
        assert len(coord._inflight) <= 8

    def test_pc_history_bounded(self):
        coord, det = make_coordinator()
        coord.MAX_PC_HISTORY = 16
        for pc in range(100):
            coord._history(pc)
        assert len(coord._pc_hist) <= 16


class TestCodeStatsPlumbing:
    def test_code_prefetch_count_copied(self):
        from repro.workloads.generator import server_app

        trace = server_app("s", "server", 20_000, code_kb=48)
        engine = CatchEngine()
        cfg = skylake_server()
        from repro.sim.simulator import Simulator

        sim = Simulator(cfg)
        core = OOOCore(0, sim.build_hierarchy(1), cfg.core, engine)
        core.run(trace)
        core.run(trace)
        assert engine.tact.stats.code_prefetches == (
            engine.tact.code.stats.lines_prefetched
        )


class TestMPCodeSharing:
    def test_rate4_shares_code_lines(self):
        """RATE-4 copies share code: the LLC holds one copy of each code
        line, not four (relocate_trace only shifts data)."""
        cfg = skylake_server()
        mc = MultiCoreSimulator(cfg)
        from repro.sim.simulator import Simulator

        sim = Simulator(mc.config)
        hierarchy = sim.build_hierarchy()
        base_trace = build_trace("tpcc_like", 8000)
        traces = [relocate_trace(base_trace, c) for c in range(4)]
        cores = [OOOCore(c, hierarchy, cfg.core) for c in range(4)]
        for core, trace in zip(cores, traces):
            core.start(trace)
        for pos in range(2000):
            for c in range(4):
                cores[c].run_span(traces[c].instrs[pos:pos + 1], pos)
        code_lines = {i.code_line for i in base_trace.instrs[:2000]}
        resident_everywhere = set(hierarchy.llc.resident_lines())
        for c in range(4):
            resident_everywhere |= set(hierarchy.l1i[c].resident_lines())
            resident_everywhere |= set(hierarchy.l2[c].resident_lines())
        # Each code line occurs once per private cache at most, but the data
        # regions are fully disjoint:
        data_lines = [
            {i.line for i in t.instrs[:2000] if i.is_mem} for t in traces
        ]
        for a in range(4):
            for b in range(a + 1, 4):
                assert not (data_lines[a] & data_lines[b])
        assert code_lines & resident_everywhere  # shared code is cached
        # Pin of the interleaved run's end state (core clocks, LLC contents).
        state = json.dumps(
            [[core.time for core in cores], sorted(hierarchy.llc.resident_lines())]
        )
        assert hashlib.sha256(state.encode()).hexdigest() == RATE4_STATE_DIGEST


class TestTimelinessEdge:
    def test_demand_before_fill_counts_partial(self):
        coord, det = make_coordinator()
        line = 1 << 14
        coord._issue(line << 6, 0.0, "deep_prefetches")
        assert coord._inflight
        # Demand arrives immediately: nearly none of the latency was hidden.
        from repro.caches.hierarchy import AccessResult

        instr = Instr(0x400, Op.LOAD, dst=1, addr=line << 6)
        result = coord.hierarchy.load(0, 0x400, line, 1.0)
        coord._record_timeliness(instr, result)
        assert coord.stats.demand_covered == 1
        assert coord.stats.saved_under_10 == 1

    def test_demand_long_after_fill_counts_full(self):
        coord, det = make_coordinator()
        line = 1 << 14
        coord._issue(line << 6, 0.0, "deep_prefetches")
        from repro.caches.hierarchy import AccessResult

        instr = Instr(0x400, Op.LOAD, dst=1, addr=line << 6)
        result = coord.hierarchy.load(0, 0x400, line, 10_000.0)
        coord._record_timeliness(instr, result)
        assert coord.stats.saved_over_80 == 1
