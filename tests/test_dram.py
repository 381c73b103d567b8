"""Unit tests for the DDR4 timing model."""

import pytest

from repro.memory.controller import MemoryController
from repro.memory.dram import DRAM, DRAMConfig


class TestConfig:
    def test_cycle_ratio(self):
        cfg = DRAMConfig()
        assert cfg.cycle_ratio == pytest.approx(3.2 / 1.2)

    def test_total_banks(self):
        cfg = DRAMConfig(channels=2, ranks=2, banks=8)
        assert cfg.total_banks == 32

    def test_paper_timings(self):
        cfg = DRAMConfig()
        assert (cfg.tcas, cfg.trcd, cfg.trp, cfg.tras) == (15, 15, 15, 39)


class TestMapping:
    def test_deterministic(self):
        d = DRAM()
        assert d.map_address(1234, ) == d.map_address(1234)

    def test_channel_in_range(self):
        d = DRAM()
        for line in range(0, 10000, 37):
            ch, bank, row = d.map_address(line)
            assert 0 <= ch < d.config.channels
            assert 0 <= bank < d.config.total_banks

    def test_strided_lines_spread_channels(self):
        d = DRAM()
        channels = {d.map_address(8 * k)[0] for k in range(64)}
        assert len(channels) == d.config.channels

    def test_strided_lines_spread_banks(self):
        d = DRAM()
        banks = {d.map_address(8 * k)[1] for k in range(512)}
        assert len(banks) >= d.config.total_banks // 2


class TestReadTiming:
    def test_row_empty_latency(self):
        d = DRAM()
        lat = d.read(0, 0.0)
        cfg = d.config
        expected = (
            cfg.controller_cycles
            + (cfg.trcd + cfg.tcas + cfg.burst_cycles) * cfg.cycle_ratio
        )
        assert lat == pytest.approx(expected)
        assert d.stats.row_empty == 1

    def test_row_hit_cheaper(self):
        d = DRAM()
        first = d.read(0, 0.0)
        second = d.read(1 * d.config.channels, 10_000.0)  # same row, later
        # second access maps to the same row only if rows span several lines
        assert second <= first

    def test_row_hit_detected(self):
        d = DRAM()
        # two addresses in the same row: same (channel, bank, row)
        a = 0
        target = d.map_address(a)
        b = None
        for cand in range(1, 2000):
            if d.map_address(cand) == (target[0], target[1], target[2]):
                b = cand
                break
        if b is None:
            pytest.skip("no same-row partner found in range")
        d.read(a, 0.0)
        d.read(b, 10_000.0)
        assert d.stats.row_hits >= 1

    def test_row_conflict_slower_than_hit(self):
        d = DRAM()
        cfg = d.config
        lines_per_row = cfg.row_bytes // 64
        d.read(0, 0.0)
        # Another row on the same bank requires precharge + activate.
        conflict_lat = None
        for cand in range(lines_per_row, 500_000, lines_per_row):
            ch, bank, row = d.map_address(cand)
            ch0, bank0, row0 = d.map_address(0)
            if bank == bank0 and row != row0:
                conflict_lat = d.read(cand, 10_000.0)
                break
        assert conflict_lat is not None
        hit_like = cfg.controller_cycles + (cfg.tcas + cfg.burst_cycles) * cfg.cycle_ratio
        assert conflict_lat > hit_like
        assert d.stats.row_conflicts >= 1

    def test_back_to_back_same_bank_pipelines(self):
        """Row hits to one bank must pipeline at ~tCCD, not serialize at
        full tCAS latency (the honest-MLP property)."""
        d = DRAM()
        cfg = d.config
        target = d.map_address(0)
        partners = [0]
        for cand in range(1, 5000):
            if d.map_address(cand) == target:
                partners.append(cand)
            if len(partners) >= 4:
                break
        if len(partners) < 4:
            pytest.skip("not enough same-row partners")
        latencies = [d.read(line, 0.0) for line in partners]
        # The 4th access should NOT pay 4x the single-access latency.
        assert latencies[-1] < latencies[0] + 3 * cfg.tcas * cfg.cycle_ratio

    def test_queueing_under_burst(self):
        d = DRAM()
        lat0 = d.read(0, 0.0)
        for i in range(1, 64):
            lat = d.read(i * 999, 0.0)  # all issued at t=0
        assert lat > lat0  # later requests queue behind earlier ones


class TestWrites:
    def test_writes_queue_without_latency(self):
        d = DRAM()
        for i in range(4):
            d.write(i, 0.0)
        assert d.pending_writes() == 4

    def test_batch_drain(self):
        d = DRAM()
        for i in range(0, 2 * d.config.write_batch * d.config.channels, 1):
            d.write(i, 0.0)
        assert d.stats.write_batches >= 1

    def test_flush_writes_empties_queues(self):
        d = DRAM()
        for i in range(5):
            d.write(i, 0.0)
        d.flush_writes(100.0)
        assert d.pending_writes() == 0

    def test_backlog_grows_with_load(self):
        d = DRAM()
        assert d.backlog(0.0) == 0.0
        for i in range(128):
            d.read(i * 31, 0.0)
        assert d.backlog(0.0) > 0.0


class TestController:
    def test_fixed_latency_mode(self):
        m = MemoryController(fixed_latency=100)
        assert m.read(42, 0.0) == 100.0
        assert m.backlog(0.0) == 0.0

    def test_traffic_counted(self):
        m = MemoryController(fixed_latency=100)
        m.read(1, 0.0)
        m.write(2, 0.0)
        assert m.traffic.read_lines == 1
        assert m.traffic.write_lines == 1
        assert m.traffic.read_bytes == 64

    def test_real_mode_delegates(self):
        m = MemoryController()
        lat = m.read(0, 0.0)
        assert lat > 0
        assert m.dram.stats.reads == 1

    def test_finish_flushes(self):
        m = MemoryController()
        m.write(0, 0.0)
        m.finish(1000.0)
        assert m.dram.pending_writes() == 0


class TestPrecomputedTimings:
    """The CPU-cycle timings are computed once; they must track the config."""

    @pytest.mark.parametrize(
        "cfg", [DRAMConfig(), DRAMConfig(cpu_clock_ghz=4.0, tcas=16)],
        ids=["default", "4GHz-tcas16"],
    )
    def test_constants_follow_config(self, cfg):
        d = DRAM(cfg)
        r = cfg.cycle_ratio
        assert d.t_row_hit == (cfg.tcas * r, cfg.tccd * r)
        assert d.t_row_empty == ((cfg.trcd + cfg.tcas) * r, (cfg.trcd + cfg.tccd) * r)
        assert d.t_row_conflict == (
            (cfg.trp + cfg.trcd + cfg.tcas) * r,
            (cfg.trp + cfg.trcd + cfg.tccd) * r,
        )
        assert d.t_ras == cfg.tras * r
        assert d.t_rp == cfg.trp * r
        assert d.t_burst == cfg.burst_cycles * r

    @pytest.mark.parametrize(
        "cfg", [DRAMConfig(), DRAMConfig(cpu_clock_ghz=4.0, tcas=16)],
        ids=["default", "4GHz-tcas16"],
    )
    def test_row_empty_hit_conflict_latencies(self, cfg):
        d = DRAM(cfg)
        r = cfg.cycle_ratio
        ctrl = cfg.controller_cycles
        channel, bank, row = d.map_address(0)
        same_row = next(
            line for line in range(1, 64) if d.map_address(line) == (channel, bank, row)
        )
        other_row = next(
            line for line in range(64, 1 << 20)
            if d.map_address(line)[:2] == (channel, bank)
            and d.map_address(line)[2] != row
        )
        # Reads far apart in time: no bank, bus or tRAS waits.
        assert d.read(0, 0.0) == pytest.approx(ctrl + (cfg.trcd + cfg.tcas + cfg.burst_cycles) * r)
        assert d.read(same_row, 1e4) == pytest.approx(ctrl + (cfg.tcas + cfg.burst_cycles) * r)
        assert d.read(other_row, 2e4) == pytest.approx(
            ctrl + (cfg.trp + cfg.trcd + cfg.tcas + cfg.burst_cycles) * r
        )
        assert (d.stats.row_empty, d.stats.row_hits, d.stats.row_conflicts) == (1, 1, 1)
        assert d.stats.activations == 2
