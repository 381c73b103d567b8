"""Tests for the content-addressed result cache (repro.cache).

Pins the tier's contract: exact hits are byte-identical and carry
``cache_hit`` provenance outside the payload; anything but the exact key
misses (there are no approximate answers); any single config-field change
misses; a renamed machine never collides;
corrupt entries quarantine like ``*.corrupt`` checkpoints; gc evicts LRU
but never pinned entries.
"""

import dataclasses
import json

import pytest

from repro.cache import ResultCache
from repro.cache.cli import main as cache_cli
from repro.runner import ExperimentRunner, ResultStore
from repro.runner.store import config_fingerprint
from repro.service import preset_configs
from repro.sim.serialization import config_to_dict, result_to_dict

WL = "mcf_like"
N = 3000


@pytest.fixture()
def config():
    return preset_configs()["CATCH"]


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def run_once(config, workload=WL, n=N):
    return ExperimentRunner(ResultStore()).run(config, workload, n)


def canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestExactHits:
    def test_roundtrip_is_byte_identical(self, cache, config):
        result = run_once(config)
        assert cache.put(config, WL, N, result)
        hit = cache.lookup(config, WL, N)
        assert hit is not None
        assert canonical(hit.result) == canonical(result)
        # Provenance travels beside the result, never inside it.
        assert hit.provenance["cache_hit"] is True
        assert hit.provenance["key"] == [config_fingerprint(config), WL, N]
        assert (hit.result.telemetry or {}).get("cache") is None

    def test_put_is_first_write_wins(self, cache, config):
        result = run_once(config)
        assert cache.put(config, WL, N, result) is True
        assert cache.put(config, WL, N, result) is False
        assert cache.stats.puts == 1

    def test_miss_counts(self, cache, config):
        assert cache.lookup(config, WL, N) is None
        assert cache.stats.misses == 1
        assert cache.stats.exact_hits == 0


class TestInvalidation:
    """Satellite: any single config-field change must miss."""

    def test_single_field_change_misses(self, cache, config):
        cache.put(config, WL, N, run_once(config))
        mutants = [
            dataclasses.replace(
                config, l2=dataclasses.replace(config.l2, latency=config.l2.latency + 1)
            ),
            dataclasses.replace(
                config, llc=dataclasses.replace(config.llc, size_kb=config.llc.size_kb * 2)
            ),
            dataclasses.replace(config, capacity_scale=config.capacity_scale + 1),
            dataclasses.replace(
                config, core=dataclasses.replace(config.core, rob_size=config.core.rob_size + 1)
            ),
        ]
        for mutant in mutants:
            assert config_fingerprint(mutant) != config_fingerprint(config)
            assert cache.lookup(mutant, WL, N) is None

    def test_same_machine_different_name_does_not_collide(self, cache, config):
        result = run_once(config)
        cache.put(config, WL, N, result)
        renamed = dataclasses.replace(config, name="totally-different-label")
        # A rename changes the canonical JSON, hence the fingerprint, hence
        # the key: the renamed machine misses.
        assert cache.lookup(renamed, WL, N) is None

    def test_workload_and_length_participate_in_the_key(self, cache, config):
        cache.put(config, WL, N, run_once(config))
        assert cache.lookup(config, "gcc_like", N) is None
        assert cache.lookup(config, WL, N + 1) is None


class TestCorruptEntries:
    def test_corrupt_entry_is_quarantined(self, cache, config):
        cache.put(config, WL, N, run_once(config))
        (entry,) = cache.entries()
        entry.path.write_text("{ not json")
        assert cache.lookup(config, WL, N) is None
        assert cache.stats.corrupt_quarantined == 1
        assert not entry.path.exists()
        corrupt = list(cache.cache_dir.glob("*.corrupt*"))
        assert len(corrupt) == 1

    def test_wrong_schema_is_quarantined(self, cache, config):
        cache.put(config, WL, N, run_once(config))
        (entry,) = cache.entries()
        entry.path.write_text(json.dumps({"entry_version": 999}))
        assert cache.lookup(config, WL, N) is None
        assert cache.stats.corrupt_quarantined == 1


class TestGc:
    def _fill(self, cache, config, count=4):
        results = {}
        for i in range(count):
            mutant = dataclasses.replace(config, capacity_scale=config.capacity_scale + i)
            cache.put(mutant, WL, N + i, run_once(mutant, n=N + i))
            results[i] = mutant
        return results

    def test_lru_eviction_down_to_budget(self, cache, config):
        self._fill(cache, config)
        rows = cache.entries()
        keep = sum(row.bytes for row in rows[-2:])
        report = cache.gc(keep)
        assert report["evicted"] == 2
        assert report["bytes_after"] <= keep
        survivors = {row.path.name for row in cache.entries()}
        assert survivors == {row.path.name for row in rows[-2:]}
        assert cache.stats.evictions == 2

    def test_pinned_entries_survive_any_budget(self, cache, config):
        self._fill(cache, config)
        oldest = cache.entries()[0]
        assert cache.pin(
            config_fingerprint_for_entry(cache, oldest), oldest.workload, oldest.n_instrs
        )
        report = cache.gc(0)
        assert report["pinned_kept"] == 1
        names = {row.path.name for row in cache.entries()}
        assert names == {oldest.path.name}

    def test_exact_hit_touches_lru_clock(self, cache, config):
        import os

        mutants = self._fill(cache, config)
        oldest = cache.entries()[0]
        # Age everything, then hit the oldest entry: it must move to the
        # MRU end and survive a gc that evicts half the cache.
        for i, row in enumerate(cache.entries()):
            os.utime(row.path, (row.mtime - 1000 + i, row.mtime - 1000 + i))
        assert cache.lookup(mutants[0], WL, N) is not None
        rows = cache.entries()
        assert rows[-1].path.name == oldest.path.name
        cache.gc(sum(r.bytes for r in rows[-2:]))
        assert oldest.path.name in {r.path.name for r in cache.entries()}

    def test_dry_run_deletes_nothing(self, cache, config):
        self._fill(cache, config)
        before = len(cache.entries())
        report = cache.gc(0, dry_run=True)
        assert report["dry_run"] is True
        assert report["evicted"] == before
        assert len(cache.entries()) == before

    def test_gc_without_budget_raises(self, cache):
        with pytest.raises(ValueError):
            cache.gc()

    def test_auto_gc_on_put(self, tmp_path, config):
        small = ResultCache(tmp_path / "small", max_bytes=1)
        self._fill(small, config, count=3)
        # Every put over budget triggered an eviction pass.
        assert len(small.entries()) <= 1


def config_fingerprint_for_entry(cache, entry):
    payload = json.loads(entry.path.read_text())
    return payload["fingerprint"]


class TestStatsAndCli:
    def test_stats_dict_shape(self, cache, config):
        cache.put(config, WL, N, run_once(config))
        cache.lookup(config, WL, N)
        cache.lookup(config, WL, N + 1)
        stats = cache.stats_dict()
        assert stats["exact_hits"] == 1
        assert stats["misses"] == 1
        assert stats["puts"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] > 0

    def test_cli_ls_stats_gc(self, cache, config, capsys):
        cache.put(config, WL, N, run_once(config))
        root = str(cache.cache_dir)
        assert cache_cli(["ls", root]) == 0
        assert WL in capsys.readouterr().out
        assert cache_cli(["stats", root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert cache_cli(["gc", root, "--max-mb", "0", "--dry-run", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["evicted"] == 1 and report["dry_run"] is True

    def test_cli_pin_unpin(self, cache, config, capsys):
        cache.put(config, WL, N, run_once(config))
        fp = config_fingerprint(config)
        root = str(cache.cache_dir)
        assert cache_cli(["pin", root, fp, WL, str(N)]) == 0
        assert cache.entries()[0].pinned
        assert cache_cli(["unpin", root, fp, WL, str(N)]) == 0
        assert not cache.entries()[0].pinned
        assert cache_cli(["pin", root, "0" * 64, WL, str(N)]) == 1


class TestFingerprintMemoization:
    """Satellite: the memoized fingerprint must keep identical digests."""

    def test_digest_matches_unmemoized_recomputation(self, config):
        import hashlib

        expected = hashlib.sha256(
            json.dumps(config_to_dict(config), sort_keys=True).encode()
        ).hexdigest()
        assert config_fingerprint(config) == expected
        # Memoized second call returns the same digest.
        assert config_fingerprint(config) == expected
        # An equal-but-distinct config object digests identically…
        clone = dataclasses.replace(config)
        assert config_fingerprint(clone) == expected
        # …and any mutation digests differently.
        mutant = dataclasses.replace(config, capacity_scale=config.capacity_scale + 1)
        assert config_fingerprint(mutant) != expected

    def test_store_fingerprint_delegates(self, config):
        store = ResultStore()
        assert store.fingerprint(config) == config_fingerprint(config)
