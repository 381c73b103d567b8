"""Fingerprint-keyed stores: MP results, collisions, one entry format.

Checkpoints, cache entries and service dedup are keyed by
``workload_fingerprint`` instead of display name, and checkpoints and cache
entries share one on-disk format.  These tests pin the load-bearing
consequences: multi-programmed results round-trip like any ``RunResult``,
sanitisation collisions can no longer alias entries, a checkpoint dir is
listable with the cache CLI, and files of an earlier format are misses.
"""

import json

import pytest

from repro.cache import ResultCache
from repro.cache.cli import main as cache_main
from repro.plugins.workloads import workload_fingerprint
from repro.runner import ExperimentRunner
from repro.runner.store import ResultStore, config_fingerprint
from repro.service.queue import Job
from repro.sim.config import skylake_server
from repro.sim.metrics import MPRunResult, RunResult
from repro.sim.serialization import result_from_dict, result_to_dict


def _mp_result(config_name="baseline_server"):
    return MPRunResult(
        workload="hmmer_like+mcf_like+tpcc_like+bwaves_like",
        category="MP",
        config_name=config_name,
        instructions=4000,
        cycles=2500.0,
        avg_load_latency=9.5,
        mispredicts=17,
        mix=("hmmer_like", "mcf_like", "tpcc_like", "bwaves_like"),
        per_core_ipc={0: 1.5, 1: 0.7, 2: 1.1, 3: 0.4},
        per_core_cycles={0: 600.0, 1: 1400.0, 2: 900.0, 3: 2500.0},
        per_core_instructions={0: 1000, 1: 1000, 2: 1000, 3: 1000},
        per_core_stats={0: {"workload": "hmmer_like", "mispredicts": 3}},
    )


def _st_result(workload, instructions=1000):
    return RunResult(
        workload=workload,
        category="server",
        config_name="baseline_server",
        instructions=instructions,
        cycles=1000.0,
    )


class TestMPResultSerialization:
    def test_dict_roundtrip(self):
        res = _mp_result()
        back = result_from_dict(result_to_dict(res))
        assert isinstance(back, MPRunResult)
        assert back == res
        assert back.per_core_ipc[3] == pytest.approx(0.4)

    def test_json_roundtrip_restores_int_core_keys(self):
        payload = json.loads(json.dumps(result_to_dict(_mp_result())))
        back = result_from_dict(payload)
        assert set(back.per_core_ipc) == {0, 1, 2, 3}
        assert back.mix == ("hmmer_like", "mcf_like", "tpcc_like", "bwaves_like")

    def test_plain_result_payload_unchanged(self):
        # The MP extension must not leak keys into single-core payloads —
        # the golden-parity (byte-identical checkpoint) contract.
        payload = result_to_dict(_st_result("tpcc_like"))
        assert "kind" not in payload
        assert "per_core_ipc" not in payload

    def test_store_roundtrip(self, tmp_path):
        config = skylake_server()
        res = _mp_result(config.name)
        store = ResultStore(tmp_path, resume=True)
        store.put(config, res.workload, 4000, res)
        fresh = ResultStore(tmp_path, resume=True)
        back = fresh.get(config, res.workload, 4000)
        assert isinstance(back, MPRunResult)
        assert back == res


class TestSanitisationCollision:
    # "wl a" and "wl?a" both sanitise to the stem segment "wl_a"; keyed by
    # name alone they collide on one path.
    NAMES = ("wl a", "wl?a")

    def test_store_keeps_both(self, tmp_path):
        config = skylake_server()
        store = ResultStore(tmp_path, resume=True)
        for i, name in enumerate(self.NAMES):
            store.put(config, name, 500, _st_result(name, instructions=100 + i))
        fresh = ResultStore(tmp_path, resume=True)
        for i, name in enumerate(self.NAMES):
            got = fresh.get(config, name, 500)
            assert got is not None and got.workload == name
            assert got.instructions == 100 + i

    def test_cache_keeps_both(self, tmp_path):
        config = skylake_server()
        cache = ResultCache(tmp_path)
        for i, name in enumerate(self.NAMES):
            assert cache.put(config, name, 500, _st_result(name, 100 + i))
        for i, name in enumerate(self.NAMES):
            hit = cache.lookup(config, name, 500)
            assert hit is not None and hit.provenance["cache_hit"] is True
            assert hit.result.workload == name
            assert hit.result.instructions == 100 + i


class TestOneEntryFormat:
    def test_cache_ls_lists_runner_checkpoints(self, tmp_path, capsys):
        runner = ExperimentRunner(store=ResultStore(tmp_path))
        runner.run(skylake_server(), "hmmer_like", 1500)
        runner.run(skylake_server(), "hmmer_like+mcf_like", 800)
        assert cache_main(["ls", str(tmp_path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert sorted((r["workload"], r["n_instrs"]) for r in rows) == [
            ("hmmer_like", 1500), ("hmmer_like+mcf_like", 800),
        ]
        fp = config_fingerprint(skylake_server())
        assert {r["fingerprint_prefix"] for r in rows} == {fp[:24]}

    def test_store_checkpoint_is_a_cache_hit(self, tmp_path):
        config = skylake_server()
        res = _st_result("tpcc_like")
        ResultStore(tmp_path).put(config, "tpcc_like", 500, res)
        hit = ResultCache(tmp_path).lookup(config, "tpcc_like", 500)
        assert hit is not None and hit.provenance["cache_hit"] is True
        assert hit.result == res

    @staticmethod
    def _old_checkpoint(tmp_path, version_key):
        """A current entry rewritten into a pre-unification envelope."""
        config = skylake_server()
        ResultStore(tmp_path).put(
            config, "tpcc_like", 500, _st_result("tpcc_like")
        )
        (path,) = tmp_path.glob("*.json")
        payload = json.loads(path.read_text())
        payload[version_key] = payload.pop("entry_version")
        path.write_text(json.dumps(payload))
        return config, path, payload

    @pytest.mark.parametrize("version_key", ["checkpoint_version", "cache_version"])
    def test_old_envelope_is_a_miss(self, tmp_path, version_key):
        config, path, _ = self._old_checkpoint(tmp_path, version_key)
        cache = ResultCache(tmp_path)
        assert cache.lookup(config, "tpcc_like", 500) is None
        assert cache.stats.corrupt_quarantined == 1
        assert path.with_suffix(".json.corrupt").exists()

        self._old_checkpoint(tmp_path, version_key)
        store = ResultStore(tmp_path, resume=True)
        assert store.get(config, "tpcc_like", 500) is None
        assert store.corrupt_skipped == 1

    def test_name_keyed_stem_is_a_miss(self, tmp_path):
        config, path, payload = self._old_checkpoint(
            tmp_path, "checkpoint_version"
        )
        fp = config_fingerprint(config)
        path.unlink()
        for stem in (
            f"{config.name}--tpcc_like--500--{fp[:12]}",
            f"{fp[:24]}--tpcc_like--500",
        ):
            (tmp_path / f"{stem}.json").write_text(json.dumps(payload))
        assert ResultStore(tmp_path, resume=True).get(
            config, "tpcc_like", 500
        ) is None
        assert ResultCache(tmp_path).lookup(config, "tpcc_like", 500) is None
        # Not an entry name at all: inventory skips them.
        assert ResultCache(tmp_path).entries() == []

    def test_put_replaces_old_envelope(self, tmp_path):
        config, path, _ = self._old_checkpoint(tmp_path, "checkpoint_version")
        res = _st_result("tpcc_like", instructions=777)
        ResultStore(tmp_path).put(config, "tpcc_like", 500, res)
        assert "entry_version" in json.loads(path.read_text())
        assert ResultStore(tmp_path, resume=True).get(
            config, "tpcc_like", 500
        ) == res


class TestJobDedupKey:
    def _job(self, **kw):
        defaults = dict(
            job_id="j1", seq=1, fingerprint="cfgfp", config_name="c",
            config={}, workload="tpcc_like", n_instrs=500,
            workload_fingerprint=workload_fingerprint("tpcc_like"),
        )
        defaults.update(kw)
        return Job(**defaults)

    def test_key_uses_workload_fingerprint(self):
        job = self._job(workload_fingerprint="abc123")
        assert job.key == ("cfgfp", "abc123", 500)

    def test_job_requires_workload_fingerprint(self):
        with pytest.raises(ValueError, match="workload_fingerprint"):
            self._job(workload_fingerprint="")
        payload = self._job(workload_fingerprint="abc123").to_dict()
        del payload["workload_fingerprint"]
        with pytest.raises(TypeError):
            Job.from_dict(payload)
