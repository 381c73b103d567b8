"""Tests for the buffered DDG and incremental critical-path enumeration.

Includes a reconstruction of the paper's Figure 2/6 example graphs: the
critical path must run through the long-latency (LLC-miss) load, not the
short L2 hits.
"""

import pytest

from repro.caches.hierarchy import Level
from repro.core.ddg import (
    BufferedDDG,
    CriticalLoad,
    dequantize,
    graph_area_bytes,
    quantize_latency,
)
from repro.workloads.trace import Instr, Op


def record(idx, op=Op.ALU, lat=1.0, producers=(), level=None, mispredicted=False,
           pc=None):
    """The positional fields of ``BufferedDDG.add`` for one instruction."""
    instr = Instr(pc if pc is not None else 0x400000 + 4 * idx, op,
                  addr=idx * 64 if op in (Op.LOAD, Op.STORE) else -1)
    return idx, instr, lat, tuple(producers), level, mispredicted


class TestQuantization:
    def test_small_latencies_collapse(self):
        assert quantize_latency(5) == 0
        assert quantize_latency(7) == 0

    def test_eight_cycle_units(self):
        assert quantize_latency(16) == 2
        assert dequantize(quantize_latency(16)) == 16

    def test_saturation_at_5_bits(self):
        assert quantize_latency(10_000) == 31

    def test_memory_latency_representable(self):
        assert dequantize(quantize_latency(200)) == 200 - 200 % 8


class TestIncrementalCosts:
    def test_single_instruction(self):
        g = BufferedDDG(rob_size=8)
        g.add(*record(0, lat=20))
        d_cost, e_cost, c_cost = g.node_costs(0)
        assert d_cost == 0
        assert e_cost == 1  # rename latency
        assert c_cost == 1 + dequantize(quantize_latency(20))

    def test_dependence_chain_accumulates(self):
        g = BufferedDDG(rob_size=64)
        g.add(*record(0, op=Op.LOAD, lat=40, level=Level.LLC))
        g.add(*record(1, lat=1, producers=(0,)))
        _, consumer_e, _ = g.node_costs(1)
        _, producer_e, _ = g.node_costs(0)
        assert consumer_e == producer_e + dequantize(quantize_latency(40))

    def test_independent_instruction_not_chained(self):
        g = BufferedDDG(rob_size=64)
        g.add(*record(0, op=Op.LOAD, lat=40, level=Level.LLC))
        g.add(*record(1, lat=1))  # no producers
        d_cost, e_cost, _ = g.node_costs(1)
        assert e_cost == d_cost + 1

    def test_cc_edge_orders_commit(self):
        g = BufferedDDG(rob_size=64)
        g.add(*record(0, op=Op.LOAD, lat=200, level=Level.MEM))
        g.add(*record(1, lat=1))
        assert g.node_costs(1)[2] >= g.node_costs(0)[2]

    def test_cd_edge_rob_pressure(self):
        g = BufferedDDG(rob_size=2)
        g.add(*record(0, op=Op.LOAD, lat=200, level=Level.MEM))
        g.add(*record(1, lat=1))
        g.add(*record(2, lat=1))  # D constrained by C of instr 0
        assert g.node_costs(2)[0] >= g.node_costs(0)[2]

    def test_espec_edge_after_mispredict(self):
        g = BufferedDDG(rob_size=64)
        g.add(*record(0, op=Op.BRANCH, lat=8, mispredicted=True))
        g.add(*record(1, lat=1))
        _, branch_e, _ = g.node_costs(0)
        assert g.node_costs(1)[0] == branch_e + dequantize(quantize_latency(8))


class TestWalk:
    def test_walk_finds_critical_load(self):
        """Figure 2 shape: the chain through the slow load is critical."""
        g = BufferedDDG(rob_size=8)
        g.add(*record(0, op=Op.LOAD, lat=200, level=Level.MEM, pc=0x100))  # slow
        g.add(*record(1, op=Op.LOAD, lat=16, level=Level.L2, pc=0x200))   # off-path
        g.add(*record(2, lat=1, producers=(0,)))
        g.add(*record(3, lat=1, producers=(2,)))
        found = g.walk()
        pcs = {f.pc for f in found}
        assert 0x100 in pcs
        assert 0x200 not in pcs

    def test_critical_l2_load_on_chain(self):
        """A chain of L2 hits longer than anything else becomes critical."""
        g = BufferedDDG(rob_size=32)
        for i in range(6):
            g.add(
                *record(
                    i, op=Op.LOAD, lat=16, level=Level.L2, pc=0x500 + 4 * i,
                    producers=(i - 1,) if i else (),
                )
            )
        found = g.walk()
        assert len(found) >= 4  # most of the chain is on the path

    def test_walk_levels_reported(self):
        g = BufferedDDG(rob_size=8)
        g.add(*record(0, op=Op.LOAD, lat=40, level=Level.LLC, pc=0xAA))
        g.add(*record(1, lat=1, producers=(0,)))
        found = g.walk()
        assert any(f.level == int(Level.LLC) for f in found)

    def test_walk_on_empty_graph(self):
        assert BufferedDDG().walk() == []

    def test_automatic_walk_at_window(self):
        calls = []
        g = BufferedDDG(rob_size=4, on_walk=calls.append)
        for i in range(2 * 4):
            g.add(*record(i, lat=1, producers=(i - 1,) if i else ()))
        assert len(calls) == 1
        assert g.buffered == 0  # flushed after the walk

    def test_multiple_windows(self):
        g = BufferedDDG(rob_size=4)
        for i in range(33):
            g.add(*record(i, lat=1))
        assert g.stats.walks == 4

    def test_producers_outside_window_ignored(self):
        g = BufferedDDG(rob_size=4)
        for i in range(8):
            g.add(*record(i, lat=1))
        # window flushed; producer idx 3 is gone
        g.add(*record(8, lat=1, producers=(3,)))
        d_cost, e_cost, _ = g.node_costs(0)
        assert e_cost == d_cost + 1

    def test_occupancy_never_exceeds_walk_window(self):
        """The model walks instantaneously at ``walk_window``, so the 2.5x
        hardware headroom (:attr:`BufferedDDG.capacity`) is area accounting
        only — there is no reachable overflow path."""
        g = BufferedDDG(rob_size=4)
        assert g.capacity > g.walk_window  # headroom exists on paper...
        peak = 0
        for i in range(5 * g.walk_window + 3):
            g.add(*record(i, lat=1))
            peak = max(peak, g.buffered)
        assert peak == g.walk_window - 1  # ...but occupancy never uses it
        assert g.stats.walks == 5
        assert not hasattr(g.stats, "overflows")  # dead counter removed


class TestArea:
    def test_matches_paper_scale(self):
        area = graph_area_bytes(224)
        assert area["entries"] == 560
        # Paper: ~2.3-2.9 KB graph + ~1 KB PCs = "about 3 KB" total.
        assert 2.0 * 1024 <= area["graph_bytes"] <= 3.2 * 1024
        assert area["total_bytes"] <= 4.0 * 1024

    def test_scales_with_rob(self):
        small = graph_area_bytes(64)["total_bytes"]
        large = graph_area_bytes(256)["total_bytes"]
        assert large == pytest.approx(4 * small)
