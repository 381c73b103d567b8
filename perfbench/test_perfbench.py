"""Self-test of the benchmark (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs at a tiny length and must print every metric that
``BENCHMARK.json`` names, with its unit; the digest checks must reject an
altered payload.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import common
import run

sys.path.insert(0, str(common.SRC))

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())

#: Tiny base lengths: correctness is then checked by the model-independent
#: invariants and the warm-equals-cold rule, not by the golden digests.
TINY_N = {"sim-memory": 300, "sim-catch": 300, "daemon-slice": 200}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(common.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--n", str(TINY_N[workload])],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    if trace and workload == "sim-memory":
        # No CATCH engine: TACT and the DDG must do no work at all.
        assert result["metrics"]["core.tact_calls"]["value"] == 0
        assert result["metrics"]["core.ddg_add_calls"]["value"] == 0
    if trace and workload == "sim-catch":
        assert result["metrics"]["core.tact_calls"]["value"] > 0
        assert result["metrics"]["core.ddg_add_calls"]["value"] > 0


def _served_payload(config_name: str, workload: str) -> dict:
    import simwork
    from repro.sim.serialization import result_to_dict
    from repro.sim.simulator import Simulator

    result = Simulator(simwork.configs()[config_name]).run(workload, common.DAEMON_N)
    return json.loads(json.dumps(result_to_dict(result)))


def test_daemon_digest_check_rejects_an_altered_payload():
    import daemonwork

    key = ("baseline_server", "tpcc_like")
    golden = common.load_golden()["daemon"]
    payload = _served_payload(*key)
    assert common.payload_digest(payload) == golden[common.pair_key(*key)]

    def job(p, cached):
        return {"ok": True, "digest": common.payload_digest(p),
                "payload": json.dumps(p, sort_keys=True), "cached_at_submit": cached}

    good = {"jobs": [key], "cold": {"results": [job(payload, False)]},
            "warm": {"results": [job(payload, True)]}}
    failures: list[str] = []
    assert daemonwork.check_cycle(good, golden, failures) == 0 and not failures

    altered = dict(payload, cycles=payload["cycles"] + 1)
    bad = {"jobs": [key], "cold": {"results": [job(payload, False)]},
           "warm": {"results": [job(altered, True)]}}
    assert daemonwork.check_cycle(bad, golden, failures) == 2
    assert any("golden" in f for f in failures)
    assert any("differs from cold" in f for f in failures)


def test_sim_digest_check_rejects_an_altered_payload():
    import simwork

    golden = common.load_golden()["sim"]
    key = common.pair_key("CATCH", "tpcc_like")
    failures: list[str] = []
    simwork.check_digests({key: {golden[key]}}, golden, failures)
    assert not failures
    simwork.check_digests({key: {common.sha256("altered")}}, golden, failures)
    assert failures == [f"{key}: digest differs from golden"]
