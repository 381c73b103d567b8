"""Golden parity of the simulation kernel (tier-1 gate).

:meth:`~repro.cpu.core.OOOCore.run_span` must keep producing *byte-identical*
``RunResult`` JSON to the results pinned here.  The digests were captured
while the seed's per-instruction reference loop still ran beside the span
kernel and both agreed byte for byte, so they pin the reference semantics:
every config of the fig10 differential matrix on two workloads at a short
trace length, plus a run without warm-up and one with a latency policy.
``perfbench/golden.json`` pins the same machines at the fig10 quick length.

After a change that is *meant* to alter simulated results, print the new
digests with ``PYTHONPATH=src python tests/test_golden_parity.py`` and say
why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import obs
from repro.errors import RunTimeoutError
from repro.runner.runner import DEADLINE_CHECK_INTERVAL, Deadline
from repro.runner.store import ResultStore
from repro.sim.config import fig10_configs, skylake_server
from repro.sim.multicore import MultiCoreSimulator
from repro.sim.parity import canonical_result_json
from repro.sim.simulator import Simulator

SMOKE_WORKLOADS = ("mcf_like", "tpcc_like")
SMOKE_PAIRS = [
    (config, workload)
    for config in (skylake_server(), *fig10_configs())
    for workload in SMOKE_WORKLOADS
]

MATRIX_DIGESTS = {
    "baseline_server|mcf_like": "68b3a25524f9964c448960462b0e5d7affd461fc3ea2ae1d0251f62759e7b926",
    "baseline_server|tpcc_like": "f16a7e36b7fdf46bdff9159a0b1d3e1ae7d45de355083ea5ad2f48796851d745",
    "noL2_6.5MB|mcf_like": "a974e511cf9790a8b68df5e2c42c5b6b6c9acffa74ca8bb4cfd95289e333b726",
    "noL2_6.5MB|tpcc_like": "1fb8046dc9c5edec174bf47b802e6a2e99a9bf2d936ed9c16a33d4d0cc3d0c43",
    "noL2_9.5MB|mcf_like": "9f7168e670bc481691dd0a6ece0642407d4de3b4f252bcc78209a7513fc963a3",
    "noL2_9.5MB|tpcc_like": "adfc6f09c01fe10aa24ee0299b139320155d0fe912b044c34d5fc5377af3db6b",
    "noL2_6.5MB+CATCH|mcf_like": "ed1df865a6f1e423351be37091bf2155ddebd7b38aa42d17d16cd3a654063ef6",
    "noL2_6.5MB+CATCH|tpcc_like": "752f604dcf260d504c50b68d0f82dabbf1d11b776cf60a0789c072910ec5aec4",
    "noL2_9.5MB+CATCH|mcf_like": "c25103d6fe2d1fc55c0cc188c10b7ff8a5ca241ee533fc116812e27c127d1285",
    "noL2_9.5MB+CATCH|tpcc_like": "91be5ddd03c4bbc117c76a96255bb666e44c0fd55cdf78a987a97b265dd8b9e7",
    "CATCH|mcf_like": "003c726b423c284632d8f39e910a62193f032855b37dc716933668b38950e79a",
    "CATCH|tpcc_like": "dd50a91da91823f29b547ef47c61fdea2c5e89a138e08daf156c8fc967579ddc",
}
NO_WARMUP_DIGEST = "067ab7cdda647a9d79000c16df7ae49e3ffac3774a46959618e453123e297f36"
LATENCY_POLICY_DIGEST = "044b08fee75f81170b941f95852067958bca3c829100fa1af7f031cf2889cbce"


def _digest(result) -> str:
    return hashlib.sha256(canonical_result_json(result).encode()).hexdigest()


def _tax(pc, level, latency):
    return latency + 2.0


class TestMatrixParity:
    @pytest.mark.parametrize(
        "config, workload",
        SMOKE_PAIRS,
        ids=[f"{c.name}-{w}" for c, w in SMOKE_PAIRS],
    )
    def test_byte_identical_across_matrix(self, config, workload):
        result = Simulator(config).run(workload, 4000)
        assert _digest(result) == MATRIX_DIGESTS[f"{config.name}|{workload}"]

    def test_parity_without_warmup(self):
        result = Simulator(skylake_server()).run("hmmer_like", 3000, warmup=False)
        assert _digest(result) == NO_WARMUP_DIGEST

    def test_parity_with_latency_policy(self):
        """The hierarchy's latency_policy hook runs inside the inlined hit
        path; the pinned result must hold with it installed."""
        result = Simulator(skylake_server()).run(
            "mcf_like", 3000, latency_policy=_tax
        )
        assert _digest(result) == LATENCY_POLICY_DIGEST

    def test_unknown_kernel_rejected(self):
        """There is one kernel: a stale ``kernel=`` argument is an error,
        on the single-core and the mix simulator alike, never ignored."""
        with pytest.raises(TypeError, match="kernel"):
            Simulator(skylake_server()).run("mcf_like", 1000, kernel="fast")
        with pytest.raises(TypeError, match="kernel"):
            MultiCoreSimulator(skylake_server()).run(
                "hmmer_like+hmmer_like+hmmer_like+hmmer_like", 1000,
                kernel="fast",
            )


class TestHookSemantics:
    """The kernel keeps the per-instruction hook contract."""

    def test_on_instruction_counts_match(self):
        seen = []
        result = Simulator(skylake_server()).run(
            "hmmer_like", 1500, on_instruction=seen.append
        )
        # Called after every stepped instruction, warm-up included, from 1.
        assert seen == list(range(1, 2 * result.instructions + 1))

    def test_on_instruction_aborts_at_exact_index(self):
        class Boom(Exception):
            pass

        seen = []

        def hook(idx):
            seen.append(idx)
            if idx == 100:
                raise Boom

        with pytest.raises(Boom):
            Simulator(skylake_server()).run(
                "hmmer_like", 1500, on_instruction=hook
            )
        assert seen[-1] == 100 and len(seen) == 100

    def test_fast_kernel_polls_deadline_on_stride(self):
        seen = []
        Simulator(skylake_server()).run(
            "hmmer_like", 1500, warmup=False, deadline=seen.append
        )
        assert 0 in seen  # phase boundaries always notify
        nonzero = [i for i in seen if i]
        assert nonzero == list(
            range(DEADLINE_CHECK_INTERVAL, 1501, DEADLINE_CHECK_INTERVAL)
        )

    def test_runner_deadline_fires_under_fast_kernel(self):
        """A wall-clock ``Deadline`` must still abort a run mid-span, not
        merely at phase boundaries."""
        t = 0.0

        def fake_clock():
            nonlocal t
            t += 0.3
            return t

        deadline = Deadline(1.0, fake_clock)
        with pytest.raises(RunTimeoutError):
            Simulator(skylake_server()).run(
                "hmmer_like", 2000, warmup=False, deadline=deadline
            )


class TestCheckpointTelemetryParity:
    """Satellite: telemetry-carrying and telemetry-free checkpoints must
    round-trip through ``ResultStore`` and compare equal under the parity
    comparator (telemetry is presentation, never measurement)."""

    def test_round_trip_compares_equal(self, tmp_path):
        cfg = skylake_server()
        with obs.use_metrics():
            with_telemetry = Simulator(cfg).run("hmmer_like", 1500)
        plain = Simulator(cfg).run("hmmer_like", 1500)
        assert with_telemetry.telemetry is not None
        assert plain.telemetry is None

        restored = {}
        for label, result in (("t", with_telemetry), ("p", plain)):
            store = ResultStore(tmp_path / label)
            store.put(cfg, "hmmer_like", 1500, result)
            reader = ResultStore(tmp_path / label, resume=True)
            restored[label] = reader.get(cfg, "hmmer_like", 1500)
        assert restored["t"] is not None and restored["p"] is not None

        # Telemetry survives its own round trip...
        assert restored["t"].telemetry == with_telemetry.telemetry
        # ...but the comparator sees both checkpoints as the same run.
        jsons = {
            canonical_result_json(restored["t"]),
            canonical_result_json(restored["p"]),
            canonical_result_json(with_telemetry),
            canonical_result_json(plain),
        }
        assert len(jsons) == 1, jsons

    def test_comparator_distinguishes_telemetry_when_asked(self, tmp_path):
        cfg = skylake_server()
        with obs.use_metrics():
            with_telemetry = Simulator(cfg).run("hmmer_like", 1500)
        plain = Simulator(cfg).run("hmmer_like", 1500)
        assert canonical_result_json(
            with_telemetry, include_telemetry=True
        ) != canonical_result_json(plain, include_telemetry=True)


if __name__ == "__main__":
    print("MATRIX_DIGESTS = {")
    for config, workload in SMOKE_PAIRS:
        digest = _digest(Simulator(config).run(workload, 4000))
        print(f'    "{config.name}|{workload}": "{digest}",')
    print("}")
    print("NO_WARMUP_DIGEST =", repr(_digest(
        Simulator(skylake_server()).run("hmmer_like", 3000, warmup=False))))
    print("LATENCY_POLICY_DIGEST =", repr(_digest(
        Simulator(skylake_server()).run("mcf_like", 3000, latency_policy=_tax))))
