"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.cache import Cache
from repro.caches.hierarchy import CacheHierarchy, LevelSpec
from repro.core.critical_table import CriticalLoadTable
from repro.core.ddg import BufferedDDG, dequantize, quantize_latency
from repro.core.tact.deep_self import DeepSelfState
from repro.cpu.core import CoreParams, OOOCore
from repro.memory.controller import MemoryController
from repro.memory.dram import DRAM
from repro.workloads.trace import Instr, Op, Trace

lines = st.integers(min_value=0, max_value=1 << 20)


class TestCacheProperties:
    @given(st.lists(st.tuples(lines, st.booleans()), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_bounded_and_residency_consistent(self, ops):
        cache = Cache("P", 2048, 2, 1)
        for line, is_fill in ops:
            if is_fill:
                cache.fill(line, 0.0)
            else:
                cache.access(line, 0.0)
        assert cache.occupancy() <= cache.num_sets * cache.assoc
        for line in cache.resident_lines():
            assert cache.contains(line)

    @given(st.lists(lines, min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_fill_then_access_always_hits(self, addrs):
        cache = Cache("P", 64 * 1024, 8, 1)  # big enough: no eviction
        distinct = list(dict.fromkeys(addrs))[:500]
        for line in distinct:
            cache.fill(line, 0.0)
        for line in distinct:
            assert cache.access(line, 1.0) is not None

    @given(st.lists(lines, max_size=300), st.sampled_from(["lru", "srrip", "nru"]))
    @settings(max_examples=30, deadline=None)
    def test_stats_accounting_consistent(self, addrs, policy):
        cache = Cache("P", 1024, 2, 1, replacement=policy)
        for line in addrs:
            if cache.access(line, 0.0) is None:
                cache.fill(line, 0.0)
        assert cache.stats.hits + cache.stats.misses == len(addrs)
        assert cache.stats.fills == cache.stats.misses
        assert cache.stats.evictions <= cache.stats.fills


class TestHierarchyProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 4095), st.booleans()),
            min_size=1,
            max_size=400,
        ),
        st.sampled_from(["exclusive", "inclusive"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_inclusion_invariants_under_random_traffic(self, ops, policy):
        h = CacheHierarchy(
            1,
            l1i=LevelSpec(1, 2, 5),
            l1d=LevelSpec(1, 2, 5),
            l2=LevelSpec(4, 4, 15),
            llc=LevelSpec(16, 4, 40),
            llc_policy=policy,
            memory=MemoryController(fixed_latency=100),
        )
        t = 0.0
        for line, is_store in ops:
            t += 50.0
            if is_store:
                h.store(0, 0x400, line, t)
            else:
                h.load(0, 0x400, line, t)
        assert h.check_inclusion() == []

    @given(st.lists(st.integers(0, 2047), min_size=1, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_latencies_positive_and_level_consistent(self, linestream):
        h = CacheHierarchy(
            1,
            l1i=LevelSpec(1, 2, 5),
            l1d=LevelSpec(1, 2, 5),
            l2=LevelSpec(4, 4, 15),
            llc=LevelSpec(16, 4, 40),
            memory=MemoryController(fixed_latency=100),
        )
        t = 0.0
        for line in linestream:
            t += 100.0
            r = h.load(0, 0x400, line, t)
            assert r.latency >= 5
            assert r.latency <= 5 + 15 + 40 + 100 + 1


class TestDRAMProperties:
    @given(st.lists(st.tuples(lines, st.floats(0, 1e6)), max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_read_latency_bounds(self, reqs):
        d = DRAM()
        now = 0.0
        for line, gap in sorted(reqs, key=lambda x: x[1]):
            now = max(now, gap)
            lat = d.read(line, now)
            assert lat > 0

    @given(lines)
    @settings(max_examples=100, deadline=None)
    def test_mapping_total(self, line):
        d = DRAM()
        ch, bank, row = d.map_address(line)
        assert 0 <= ch < d.config.channels
        assert 0 <= bank < d.config.total_banks
        assert row >= 0


class TestDDGProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),        # op selector
                st.integers(1, 300),      # latency
                st.booleans(),            # depends on previous
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_node_costs_monotone_and_walk_terminates(self, items):
        g = BufferedDDG(rob_size=16)
        for idx, (opsel, lat, dep) in enumerate(items):
            g.add(
                idx,
                Instr(0x400 + 4 * (idx % 64), Op(opsel % 6), addr=idx * 64),
                float(lat),
                (idx - 1,) if dep and idx else (),
                None,
                opsel == 5,
            )
            if g.buffered:
                d_cost, e_cost, c_cost = g.node_costs(g.buffered - 1)
                assert c_cost >= e_cost >= d_cost >= 0
        g.walk()  # must terminate regardless of structure

    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_quantization_bounds(self, lat):
        q = quantize_latency(lat)
        assert 0 <= q <= 31
        assert dequantize(q) <= max(lat, 31 * 8)


class TestDeepSelfProperties:
    @given(st.lists(st.integers(-(1 << 16), 1 << 16), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_counters_stay_in_hardware_ranges(self, deltas):
        s = DeepSelfState()
        addr = 1 << 20
        for d in deltas:
            addr = max(0, addr + d)
            s.observe(addr)
            assert 0 <= s.run_length <= 32
            assert 1 <= s.safe_length <= 32
            assert 0 <= s.safe_conf <= 3
            assert 0 <= s.stride_conf <= 3

    @given(st.integers(1, 1024), st.integers(5, 50))
    @settings(max_examples=30, deadline=None)
    def test_stable_stride_prefetches_forward(self, stride_lines, count):
        s = DeepSelfState()
        stride = stride_lines * 64
        addr = 0
        for _ in range(count):
            out = s.observe(addr)
            for p in out:
                assert p > addr  # never prefetch behind a positive stride
            addr += stride


class TestCriticalTableProperties:
    @given(st.lists(st.integers(0, 1 << 30), max_size=400))
    @settings(max_examples=30, deadline=None)
    def test_capacity_and_confidence_invariants(self, pcs):
        t = CriticalLoadTable(entries=32, ways=8)
        for pc in pcs:
            t.observe_critical(pc)
            t.tick_retire(10)
        assert t.resident_count() <= 32
        assert t.critical_count() <= t.resident_count()


class TestCoreProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.booleans(), st.integers(0, 63)),
            min_size=5,
            max_size=150,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_commit_times_monotone(self, items):
        h = CacheHierarchy(
            1,
            l1i=LevelSpec(1, 2, 5),
            l1d=LevelSpec(1, 2, 5),
            l2=LevelSpec(4, 4, 15),
            llc=LevelSpec(16, 4, 40),
            memory=MemoryController(fixed_latency=100),
        )
        instrs = []
        for opsel, dep, line in items:
            op = [Op.ALU, Op.LOAD, Op.MUL, Op.STORE][opsel]
            instrs.append(
                Instr(
                    0x400000,
                    op,
                    srcs=(1,) if dep else (),
                    dst=1 if op is not Op.STORE else -1,
                    addr=line * 64 if op in (Op.LOAD, Op.STORE) else -1,
                )
            )
        core = OOOCore(0, h, CoreParams(rob_size=16, width=2))
        trace = Trace("p", "ISPEC", instrs)
        core.start(trace)
        last = 0.0
        for idx, ins in enumerate(instrs):
            c = core.step(idx, ins)
            assert c >= last
            last = c
        assert core.time > 0
