"""Tests for the four-core multi-programmed driver."""

import pytest

from repro.errors import InjectedFault, RunFailure, RunTimeoutError
from repro.runner import ExperimentRunner
from repro.runner.runner import DEADLINE_CHECK_INTERVAL
from repro.sim.config import skylake_server
from repro.sim.metrics import MPRunResult
from repro.sim.multicore import MultiCoreSimulator, alone_ipcs, relocate_trace
from repro.workloads.suites import build_trace, get_spec, mp_mixes

N = 8000


class TestRelocation:
    def test_core0_unchanged(self):
        t = build_trace("hmmer_like", 2000)
        assert relocate_trace(t, 0) is t

    def test_data_addresses_shifted(self):
        t = build_trace("hmmer_like", 2000)
        r = relocate_trace(t, 1)
        originals = [i.addr for i in t.instrs if i.addr >= 0]
        shifted = [i.addr for i in r.instrs if i.addr >= 0]
        assert all(s == o + (1 << 40) for o, s in zip(originals, shifted))

    def test_code_addresses_shared(self):
        t = build_trace("hmmer_like", 2000)
        r = relocate_trace(t, 2)
        assert [i.pc for i in r.instrs] == [i.pc for i in t.instrs]

    def test_memory_image_shifted(self):
        t = build_trace("mcf_like", 2000)
        r = relocate_trace(t, 1)
        assert set(r.memory_image) == {a + (1 << 40) for a in t.memory_image}


class TestMPRuns:
    def test_rate4_mix_runs(self):
        mc = MultiCoreSimulator(skylake_server())
        res = mc.run_mix(("hplinpack_like",) * 4, N)
        assert set(res.per_core_ipc) == {0, 1, 2, 3}
        assert all(v > 0 for v in res.per_core_ipc.values())
        assert res.workload == "hplinpack_like+" * 3 + "hplinpack_like"
        assert res.category == "MP"
        assert set(res.per_core_stats) == {0, 1, 2, 3}
        assert res.ipc > 0  # aggregate RunResult surface works too

    def test_wrong_mix_size_rejected(self):
        mc = MultiCoreSimulator(skylake_server())
        with pytest.raises(ValueError, match="mix size"):
            mc.run_mix(("hmmer_like",) * 3, N)

    def test_l2_resident_rate4_near_linear(self):
        """Private-L2-resident copies barely interfere: WS ~ 4."""
        mc = MultiCoreSimulator(skylake_server())
        res = mc.run_mix(("hmmer_like",) * 4, 20_000)
        alone = alone_ipcs(skylake_server(), {"hmmer_like"}, 20_000)
        assert res.weighted_speedup(alone) == pytest.approx(4.0, abs=0.3)

    def test_memory_bound_mix_contends(self):
        """Four streaming copies share DRAM bandwidth: WS well below 4."""
        mc = MultiCoreSimulator(skylake_server())
        res = mc.run_mix(("bwaves_like",) * 4, N)
        alone = alone_ipcs(skylake_server(), {"bwaves_like"}, N)
        assert res.weighted_speedup(alone) < 3.7

    def test_heterogeneous_mix(self):
        mc = MultiCoreSimulator(skylake_server())
        mix = ("hmmer_like", "mcf_like", "excel_like", "hplinpack_like")
        res = mc.run_mix(mix, N)
        alone = alone_ipcs(skylake_server(), set(mix), N)
        ws = res.weighted_speedup(alone)
        assert 1.0 < ws <= 4.2


class TestMixes:
    def test_mix_count(self):
        assert len(mp_mixes(12)) == 12

    def test_rate4_half(self):
        mixes = mp_mixes(12)
        rate4 = [m for m in mixes if len(set(m)) == 1]
        assert len(rate4) == 6

    def test_all_four_way(self):
        assert all(len(m) == 4 for m in mp_mixes(8))

    def test_deterministic(self):
        assert mp_mixes(8, seed=5) == mp_mixes(8, seed=5)


def test_mpresult_weighted_speedup():
    res = MPRunResult(
        workload="a+b+c+d",
        category="MP",
        config_name="cfg",
        instructions=4,
        cycles=1.0,
        mix=("a", "b", "c", "d"),
        per_core_ipc={0: 1.0, 1: 1.0, 2: 2.0, 3: 2.0},
    )
    alone = {"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0}
    assert res.weighted_speedup(alone) == pytest.approx(3.0)


class TestMPHooks:
    """Mix jobs keep the single-core hook contract on the global count: the
    runner's instruction hook (fleet heartbeat, daemon lease renewal) and
    its deadline ride them."""

    MIX = "hmmer_like+mcf_like+tpcc_like+bwaves_like"
    N = 1000

    def _total(self) -> int:
        """Instructions a mix steps: every core's whole trace."""
        return sum(
            len(build_trace(name, 2 * self.N * get_spec(name).length_multiplier))
            for name in self.MIX.split("+")
        )

    def test_on_instruction_once_per_global_instruction(self):
        seen = []
        MultiCoreSimulator(skylake_server()).run(
            self.MIX, self.N, on_instruction=seen.append
        )
        assert seen == list(range(1, self._total() + 1))

    def test_injected_raise_aborts_at_exact_global_index(self):
        seen = []

        def tripwire(retired):
            seen.append(retired)
            if retired == 777:
                raise InjectedFault("injected fault at instruction 777")

        runner = ExperimentRunner(sleep=lambda s: None)
        runner.instruction_hook = tripwire
        with pytest.raises(RunFailure) as info:
            runner.run(skylake_server(), self.MIX, self.N)
        assert isinstance(info.value.__cause__, InjectedFault)
        assert seen == list(range(1, 778))

    def test_deadline_polled_on_global_stride(self):
        seen = []
        MultiCoreSimulator(skylake_server()).run(
            self.MIX, self.N, deadline=seen.append
        )
        total = self._total()
        assert seen[0] == 0  # after the trace build
        assert seen[1:] == list(
            range(DEADLINE_CHECK_INTERVAL, total + 1, DEADLINE_CHECK_INTERVAL)
        )

    def test_runner_deadline_fires_mid_mix(self):
        ticks = [0.0]

        def clock():
            ticks[0] += 0.25
            return ticks[0]

        seen = []
        runner = ExperimentRunner(timeout_s=1.0, clock=clock, sleep=lambda s: None)
        runner.instruction_hook = seen.append
        with pytest.raises(RunFailure) as info:
            runner.run(skylake_server(), self.MIX, self.N)
        assert isinstance(info.value.__cause__, RunTimeoutError)
        assert 0 < seen[-1] < self._total()
        assert seen[-1] % DEADLINE_CHECK_INTERVAL == 0

    def test_stray_keyword_rejected(self):
        with pytest.raises(TypeError):
            MultiCoreSimulator(skylake_server()).run(
                self.MIX, self.N, warmup=False
            )
