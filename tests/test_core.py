"""Tests for the DDG-driven OOO core timing model."""

import pytest

from repro.caches.hierarchy import CacheHierarchy, Level, LevelSpec
from repro.cpu.core import CoreParams, OOOCore
from repro.memory.controller import MemoryController
from repro.workloads.trace import Instr, Op, Trace


def make_hierarchy(n_cores=1, mem_latency=160):
    return CacheHierarchy(
        n_cores,
        l1i=LevelSpec(8, 8, 5),
        l1d=LevelSpec(8, 8, 5),
        l2=LevelSpec(64, 8, 15),
        llc=LevelSpec(256, 8, 40),
        memory=MemoryController(fixed_latency=mem_latency),
    )


def run_trace(instrs, params=None, hierarchy=None):
    core = OOOCore(0, hierarchy or make_hierarchy(), params or CoreParams())
    trace = Trace("t", "ISPEC", instrs)
    return core.run(trace), core


def alu_chain(n, pc=0x400000):
    """n serially dependent single-cycle ALU ops (one code line: backend-only
    timing, no cold code misses)."""
    return [Instr(pc, Op.ALU, srcs=(1,), dst=1) for _ in range(n)]


def independent_alus(n, pc=0x400000):
    return [Instr(pc, Op.ALU, srcs=(2,), dst=3) for _ in range(n)]


class TestDispatchWidth:
    def test_independent_ops_reach_full_width(self):
        # A one-time cold code miss (~200 cycles) offsets the ideal 4.0.
        result, _ = run_trace(independent_alus(20_000))
        assert 3.6 <= result.ipc <= 4.0

    def test_narrow_core_halves_throughput(self):
        wide, _ = run_trace(independent_alus(20_000), CoreParams(width=4))
        narrow, _ = run_trace(independent_alus(20_000), CoreParams(width=2))
        assert narrow.ipc == pytest.approx(wide.ipc / 2, rel=0.1)


class TestDependencies:
    def test_serial_chain_is_one_per_cycle(self):
        result, _ = run_trace(alu_chain(10_000))
        assert 0.95 <= result.ipc <= 1.0

    def test_mul_chain_slower(self):
        muls = [Instr(0x400000, Op.MUL, srcs=(1,), dst=1) for _ in range(5000)]
        result, _ = run_trace(muls)
        assert result.ipc == pytest.approx(1 / 3, rel=0.1)

    def test_load_latency_on_chain(self):
        # Serial chain of L1-hitting loads: one load per 5 cycles.
        instrs = []
        for i in range(5000):
            instrs.append(Instr(0x400000, Op.LOAD, srcs=(1,), dst=1, addr=0x1000))
        result, _ = run_trace(instrs)
        assert result.ipc == pytest.approx(1 / 5, rel=0.15)

    def test_store_to_load_forwarding_dependence(self):
        instrs = []
        for i in range(200):
            instrs.append(Instr(0x400000, Op.STORE, srcs=(2,), addr=0x2000))
            instrs.append(Instr(0x400004, Op.LOAD, srcs=(3,), dst=2, addr=0x2000))
        result, _ = run_trace(instrs)
        # load depends on store: the pair serialises well below width 4
        assert result.ipc < 2.0


class TestROB:
    def test_rob_limits_overlap(self):
        # Long-latency loads at line distance; a tiny ROB serialises them.
        def loads(n):
            return [
                Instr(0x400000, Op.LOAD, srcs=(2,), dst=3, addr=i * 4096)
                for i in range(n)
            ]

        big, _ = run_trace(loads(400), CoreParams(rob_size=224))
        small, _ = run_trace(loads(400), CoreParams(rob_size=16))
        assert small.ipc < big.ipc


class TestBranches:
    def test_predictable_branches_cheap(self):
        instrs = []
        for i in range(500):
            instrs.extend(independent_alus(3, pc=0x400000))
            instrs.append(Instr(0x40000C, Op.BRANCH, taken=True, target=0x400000))
        result, _ = run_trace(instrs)
        assert result.branch_mispredicts < 20

    def test_mispredicts_cost_cycles(self):
        import random

        rng = random.Random(3)
        good, bad = [], []
        for i in range(400):
            taken = rng.random() < 0.5
            body = independent_alus(3, pc=0x400000)
            good.extend(body)
            good.append(Instr(0x40000C, Op.BRANCH, taken=True, target=0x400000))
            bad.extend(body)
            bad.append(
                Instr(
                    0x40000C, Op.BRANCH, taken=taken,
                    target=0x400000 if taken else -1,
                )
            )
        good_r, _ = run_trace(good)
        bad_r, _ = run_trace(bad)
        assert bad_r.branch_mispredicts > good_r.branch_mispredicts
        assert bad_r.ipc < good_r.ipc


class TestCodePath:
    def test_large_code_footprint_stalls(self):
        # 4000 instrs over 1000 distinct code lines >> 8KB L1I
        spread = [
            Instr(0x400000 + i * 64, Op.ALU, srcs=(2,), dst=3) for i in range(4000)
        ]
        tight = independent_alus(4000)
        spread_r, spread_core = run_trace(spread)
        tight_r, _ = run_trace(tight)
        assert spread_core.frontend.code_stall_cycles > 0
        assert spread_r.ipc < tight_r.ipc


class TestResultBookkeeping:
    def test_load_levels_recorded(self):
        instrs = [
            Instr(0x400000, Op.LOAD, srcs=(2,), dst=3, addr=i * 64) for i in range(64)
        ]
        result, _ = run_trace(instrs)
        assert result.load_levels[Level.MEM] > 0

    def test_time_monotonic_across_steps(self):
        core = OOOCore(0, make_hierarchy())
        trace = Trace("t", "ISPEC", independent_alus(100))
        core.start(trace)
        last = 0.0
        for idx, ins in enumerate(trace.instrs):
            core.run_span((ins,), idx)
            t = core.time
            assert t >= last
            last = t

    def test_reset_stats_keeps_time(self):
        core = OOOCore(0, make_hierarchy())
        trace = Trace("t", "ISPEC", independent_alus(100))
        core.run(trace)
        t = core.time
        core.reset_stats()
        assert core.time == t
        assert core.mispredicts == 0

    def test_determinism(self):
        r1, _ = run_trace(alu_chain(500))
        r2, _ = run_trace(alu_chain(500))
        assert r1.cycles == r2.cycles
