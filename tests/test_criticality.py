"""Integration tests: criticality detection end to end on a live core."""

import pytest

from repro.caches.hierarchy import CacheHierarchy, Level, LevelSpec
from repro.core.catch_engine import CatchConfig, CatchEngine
from repro.core.critical_table import hash_pc
from repro.core.criticality import CriticalityDetector, detector_area
from repro.cpu.core import CoreParams, OOOCore
from repro.memory.controller import MemoryController
from repro.workloads.generator import hot_loop, streaming
from repro.workloads.trace import Instr, Op, Trace


def make_hierarchy():
    return CacheHierarchy(
        1,
        l1i=LevelSpec(8, 8, 5),
        l1d=LevelSpec(8, 8, 5),
        l2=LevelSpec(128, 8, 15),
        llc=LevelSpec(512, 8, 40),
        memory=MemoryController(fixed_latency=160),
    )


def run_with_detector(trace, params=None):
    engine = CatchEngine(CatchConfig(detector_only=True))
    core = OOOCore(0, make_hierarchy(), params or CoreParams(), engine)
    # Warm + measure so the working set is resident.
    core.run(trace)
    core.run(trace)
    return engine.detector


class TestDetectorOnCore:
    def test_l2_chain_loads_flagged(self):
        """An L2-resident serial load chain must produce critical PCs."""
        trace = hot_loop("t", "ISPEC", 30_000, ws_bytes=48 << 10, chain_loads=3)
        det = run_with_detector(trace)
        assert det.table.critical_count() >= 1
        assert det.graph.stats.walks > 10

    def test_l1_resident_loop_barely_flagged(self):
        """Once the working set is L1-resident, critical observations stop
        (cold-start misses may leave a few stale saturated entries, which is
        the hardware's behaviour too — they only age out via LRU/epochs)."""
        trace = hot_loop("t", "ISPEC", 20_000, ws_bytes=2 << 10, chain_loads=2)
        l1_det = run_with_detector(trace)
        l2_trace = hot_loop("t", "ISPEC", 20_000, ws_bytes=48 << 10, chain_loads=2)
        l2_det = run_with_detector(l2_trace)
        l1_obs = sum(l1_det.critical_pc_counts.values())
        l2_obs = sum(l2_det.critical_pc_counts.values())
        assert l2_obs > 2 * l1_obs

    def test_independent_stream_rarely_critical(self):
        """Independent streaming loads are hidden by MLP; the critical path
        runs through dispatch, not the loads."""
        trace = streaming("t", "FSPEC", 20_000, ws_bytes=64 << 10)
        det = run_with_detector(trace)
        chain = hot_loop("t2", "ISPEC", 20_000, ws_bytes=48 << 10, chain_loads=3)
        det_chain = run_with_detector(chain)
        stream_hits = sum(det.critical_pc_counts.values())
        chain_hits = sum(det_chain.critical_pc_counts.values())
        assert chain_hits > stream_hits

    def test_top_critical_pcs_ranked(self):
        trace = hot_loop("t", "ISPEC", 30_000, ws_bytes=48 << 10, chain_loads=3)
        det = run_with_detector(trace)
        top = det.top_critical_pcs(4)
        counts = [det.critical_pc_counts[pc] for pc in top]
        assert counts == sorted(counts, reverse=True)


class TestDetectorUnit:
    def test_record_levels_filter(self):
        det = CriticalityDetector(rob_size=4, record_levels=(int(Level.L2),))
        # Build a window where an LLC-serving load is critical; it must NOT
        # be recorded because only L2 is in record_levels.
        for i in range(8):
            det.on_retire(
                i,
                Instr(0x100, Op.LOAD, addr=i * 64),
                40.0,
                (i - 1,) if i else (),
                Level.LLC,
                False,
                0.0,
            )
        assert det.table.resident_count() == 0
        assert det.critical_pc_counts  # still counted for oracle ranking

    def test_area_about_3kb(self):
        area = detector_area(224, 32)
        assert 2.5 <= area.total_kb <= 4.0


class TestCatchEngineWiring:
    def test_attach_creates_components(self):
        engine = CatchEngine()
        core = OOOCore(0, make_hierarchy(), CoreParams(), engine)
        trace = Trace("t", "ISPEC", [Instr(0, Op.ALU)])
        core.run(trace)
        assert engine.detector is not None
        assert engine.tact is not None
        assert core.frontend.on_code_miss is not None

    def test_detector_only_has_no_tact(self):
        engine = CatchEngine(CatchConfig(detector_only=True))
        core = OOOCore(0, make_hierarchy(), CoreParams(), engine)
        core.run(Trace("t", "ISPEC", [Instr(0, Op.ALU)]))
        assert engine.tact is None

    def test_reattach_same_core_keeps_state(self):
        engine = CatchEngine()
        core = OOOCore(0, make_hierarchy(), CoreParams(), engine)
        core.run(Trace("t", "ISPEC", [Instr(0, Op.ALU)]))
        detector = engine.detector
        core.run(Trace("t", "ISPEC", [Instr(0, Op.ALU)]))
        assert engine.detector is detector

    def test_reset_stats_clears_tact_counters(self):
        trace = hot_loop("t", "ISPEC", 20_000, ws_bytes=48 << 10, chain_loads=3)
        engine = CatchEngine()
        core = OOOCore(0, make_hierarchy(), CoreParams(), engine)
        core.run(trace)
        core.run(trace)
        engine.reset_stats()
        assert engine.tact.stats.issued == 0

    def test_catch_prefetches_on_l2_chain(self):
        trace = hot_loop("t", "ISPEC", 30_000, ws_bytes=48 << 10, chain_loads=3)
        engine = CatchEngine()
        core = OOOCore(0, make_hierarchy(), CoreParams(), engine)
        core.run(trace)
        core.run(trace)
        assert engine.tact.stats.deep_prefetches > 100

    @pytest.mark.parametrize("drive", ["fast", "reference"])
    @pytest.mark.parametrize("detector", ["ddg", "load-miss-pc"])
    def test_epoch_fires_at_exact_retired_instruction(self, drive, detector):
        """The confidence-reset epoch fires on the ``epoch``-th retired
        instruction and every ``epoch`` after, whether the kernel steps a
        stretch in one span (``fast``) or one instruction per span
        (``reference``, the multi-core driver's shortest span)."""
        epoch = 10
        engine = CatchEngine(
            CatchConfig(epoch_instructions=epoch, detector=detector)
        )
        core = OOOCore(0, make_hierarchy(), CoreParams(), engine)
        instrs = [Instr(0x40 + 4 * i, Op.ALU, dst=1) for i in range(3 * epoch)]
        core.start(Trace("t", "ISPEC", instrs))
        table = engine.detector.table
        h = hash_pc(0x900)

        def confidence():
            return table._sets[h % table.num_sets][h].confidence

        def advance(lo, hi):
            if drive == "fast":
                core.run_span(instrs[lo:hi], lo)
            else:
                for idx in range(lo, hi):
                    core.run_span(instrs[idx:idx + 1], idx)

        table.observe_critical(0x900)
        advance(0, epoch - 1)
        assert (table.stats.epoch_resets, confidence()) == (0, 1)
        advance(epoch - 1, epoch)
        assert (table.stats.epoch_resets, confidence()) == (1, 0)
        table.observe_critical(0x900)
        advance(epoch, 2 * epoch - 1)
        assert (table.stats.epoch_resets, confidence()) == (1, 1)
        advance(2 * epoch - 1, 3 * epoch)
        assert (table.stats.epoch_resets, confidence()) == (3, 0)
