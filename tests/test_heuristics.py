"""Tests for the heuristic criticality predictors and the LFU table."""

import pytest

from repro.caches.hierarchy import Level
from repro.core.critical_table import CriticalLoadTable
from repro.core.heuristics import (
    BranchFeederHeuristic,
    ConsumerCountHeuristic,
    OldestInROBHeuristic,
    make_heuristic,
)
from repro.workloads.trace import Instr, Op


def rec(idx, op=Op.ALU, pc=0x100, lat=1.0, producers=(), level=None,
        mispredicted=False, e_time=0.0, srcs=(), dst=-1):
    """The positional fields of the retire hook for one instruction."""
    instr = Instr(pc, op, srcs=srcs, dst=dst,
                  addr=idx * 64 if op in (Op.LOAD, Op.STORE) else -1)
    return idx, instr, lat, producers, level, mispredicted, e_time


class TestOldestInROB:
    def test_stalling_load_flagged(self):
        h = OldestInROBHeuristic(slack=4.0)
        h.on_retire(*rec(0, Op.ALU, e_time=0.0, lat=1.0))
        h.on_retire(*rec(1, Op.LOAD, pc=0x200, e_time=1.0, lat=40.0,
                        level=Level.LLC, dst=1))
        assert h.flagged == 1
        assert 0x200 in h.critical_pc_counts

    def test_fast_load_not_flagged(self):
        h = OldestInROBHeuristic(slack=4.0)
        h.on_retire(*rec(0, Op.ALU, e_time=0.0, lat=50.0))
        h.on_retire(*rec(1, Op.LOAD, pc=0x200, e_time=1.0, lat=5.0,
                        level=Level.L1, dst=1))
        assert h.flagged == 0

    def test_shadow_effect(self):
        """A load finishing under the shadow of an earlier long-latency op
        is not flagged (retirement was already blocked)."""
        h = OldestInROBHeuristic(slack=4.0)
        h.on_retire(*rec(0, Op.LOAD, pc=0x100, e_time=0.0, lat=200.0,
                        level=Level.MEM, dst=1))
        h.on_retire(*rec(1, Op.LOAD, pc=0x200, e_time=1.0, lat=40.0,
                        level=Level.LLC, dst=2))
        assert 0x200 not in h.critical_pc_counts


class TestConsumerCount:
    def test_consumed_load_flagged(self):
        h = ConsumerCountHeuristic(threshold=1)
        h.on_retire(*rec(0, Op.LOAD, pc=0x300, level=Level.L2, dst=1))
        h.on_retire(*rec(1, Op.ALU, producers=(0,)))
        assert h.flagged == 1

    def test_unconsumed_load_not_flagged(self):
        h = ConsumerCountHeuristic(threshold=1)
        h.on_retire(*rec(0, Op.LOAD, pc=0x300, level=Level.L2, dst=1))
        h.on_retire(*rec(1, Op.ALU))
        assert h.flagged == 0

    def test_threshold_two_needs_fanout(self):
        h = ConsumerCountHeuristic(threshold=2)
        h.on_retire(*rec(0, Op.LOAD, pc=0x300, level=Level.L2, dst=1))
        h.on_retire(*rec(1, Op.ALU, producers=(0,)))
        assert h.flagged == 0
        h.on_retire(*rec(2, Op.ALU, producers=(0,)))
        assert h.flagged == 1

    def test_flag_once_per_instance(self):
        h = ConsumerCountHeuristic(threshold=1)
        h.on_retire(*rec(0, Op.LOAD, pc=0x300, level=Level.L2, dst=1))
        for i in range(1, 5):
            h.on_retire(*rec(i, Op.ALU, producers=(0,)))
        assert h.flagged == 1

    def test_window_bounded(self):
        h = ConsumerCountHeuristic()
        for i in range(600):
            h.on_retire(*rec(i, Op.LOAD, pc=0x300 + i, level=Level.L2, dst=1))
        assert len(h._inflight) <= h.WINDOW


class TestBranchFeeder:
    def test_load_feeding_mispredict_flagged(self):
        h = BranchFeederHeuristic()
        h.on_retire(*rec(0, Op.LOAD, pc=0x400, level=Level.L2, dst=3))
        h.on_retire(*rec(1, Op.BRANCH, srcs=(3,), mispredicted=True))
        assert 0x400 in h.critical_pc_counts

    def test_correct_branch_not_flagged(self):
        h = BranchFeederHeuristic()
        h.on_retire(*rec(0, Op.LOAD, pc=0x400, level=Level.L2, dst=3))
        h.on_retire(*rec(1, Op.BRANCH, srcs=(3,), mispredicted=False))
        assert h.flagged == 0

    def test_transitive_propagation(self):
        h = BranchFeederHeuristic()
        h.on_retire(*rec(0, Op.LOAD, pc=0x400, level=Level.LLC, dst=3))
        h.on_retire(*rec(1, Op.ALU, srcs=(3,), dst=5))
        h.on_retire(*rec(2, Op.BRANCH, srcs=(5,), mispredicted=True))
        assert 0x400 in h.critical_pc_counts


class TestFactoryAndInterface:
    @pytest.mark.parametrize(
        "name", ["oldest_in_rob", "consumer_count", "branch_feeder"]
    )
    def test_factory(self, name):
        h = make_heuristic(name)
        assert not h.is_critical(0x123)
        assert h.top_critical_pcs(4) == []

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown heuristic"):
            make_heuristic("token_passing")

    def test_only_outer_level_hits_enter_table(self):
        h = ConsumerCountHeuristic(threshold=1)
        for i in range(0, 20, 2):
            h.on_retire(*rec(i, Op.LOAD, pc=0x500, level=Level.L1, dst=1))
            h.on_retire(*rec(i + 1, Op.ALU, producers=(i,)))
        assert h.flagged == 10
        assert h.table.resident_count() == 0  # L1 hits never recorded

    def test_drives_catch_engine(self):
        from repro.core.catch_engine import CatchConfig, CatchEngine
        from repro.cpu.core import OOOCore
        from repro.sim.config import skylake_server
        from repro.sim.simulator import Simulator
        from repro.workloads.generator import hot_loop

        trace = hot_loop("t", "ISPEC", 20_000, ws_bytes=48 << 10, chain_loads=3)
        engine = CatchEngine(CatchConfig(detector="oldest_in_rob"))
        sim = Simulator(skylake_server())
        core = OOOCore(0, sim.build_hierarchy(1), skylake_server().core, engine)
        core.run(trace)
        core.run(trace)
        assert engine.detector.flagged > 0
        assert engine.tact.stats.issued > 0


class TestLFUTablePolicy:
    def test_invalid_policy(self):
        with pytest.raises(ValueError, match="table policy"):
            CriticalLoadTable(policy="mru")

    def test_lfu_protects_frequent_entries(self):
        t = CriticalLoadTable(entries=8, ways=8, policy="lfu")
        hot = [0x1000 + i * 4 for i in range(8)]
        for _ in range(3):
            for pc in hot:
                t.observe_critical(pc)
        # A storm of one-off PCs must not displace the established set.
        for i in range(100):
            t.observe_critical(0x9000 + i * 4)
        assert all(t.is_critical(pc) for pc in hot)

    def test_lru_thrashes_where_lfu_holds(self):
        pcs = [0x1000 + i * 48 for i in range(96)]
        results = {}
        for policy in ("lru", "lfu"):
            t = CriticalLoadTable(entries=32, ways=8, policy=policy)
            for _ in range(20):
                for pc in pcs:
                    t.observe_critical(pc)
            results[policy] = t.critical_count()
        assert results["lfu"] > results["lru"]
        assert results["lfu"] >= 16  # a stable majority of the table

    def test_lfu_frequency_decays_each_epoch(self):
        t = CriticalLoadTable(entries=8, ways=8, policy="lfu",
                              epoch_instructions=10)
        for _ in range(8):
            t.observe_critical(0x1000)
        before = next(iter(t._sets[0].values())).hits
        t.tick_retire(10)
        after = next(iter(t._sets[0].values())).hits
        assert after < before
