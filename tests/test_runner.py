"""Tests for the resilient runner: store, resume, deadlines, retry, reports.

The acceptance flow of the runner subsystem — an interrupted campaign whose
second invocation re-simulates nothing already completed, verified by run
counters — lives here, both at the runner level and end to end through the
experiment CLI (with miniature experiments so the test stays fast).
"""

import dataclasses
import json
import types

import pytest

from repro.errors import (
    CheckpointError,
    ConfigError,
    RunFailure,
    RunTimeoutError,
)
from repro.runner import (
    ExperimentRunner,
    FaultInjector,
    ResultStore,
    config_fingerprint,
    get_runner,
    use_runner,
)
from repro.cache.result_cache import read_entry
from repro.sim.config import no_l2, skylake_server, with_extra_latency
from repro.caches.hierarchy import Level

N = 2000
CFG = skylake_server()


def make_runner(**kwargs):
    kwargs.setdefault("sleep", lambda s: None)
    return ExperimentRunner(**kwargs)


class TestStore:
    def test_memory_memoisation(self):
        runner = make_runner()
        a = runner.run(CFG, "hmmer_like", N)
        b = runner.run(CFG, "hmmer_like", N)
        assert a is b
        assert runner.stats.executed == 1
        assert runner.stats.store_hits == 1

    def test_fingerprint_distinguishes_configs(self):
        assert config_fingerprint(CFG) != config_fingerprint(no_l2(CFG, 6.5))
        assert config_fingerprint(CFG) != config_fingerprint(
            with_extra_latency(CFG, Level.L2, 3)
        )
        assert config_fingerprint(CFG) == config_fingerprint(skylake_server())

    def test_disk_round_trip(self, tmp_path):
        first = make_runner(store=ResultStore(tmp_path))
        result = first.run(CFG, "hmmer_like", N)
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        # One entry format with the result cache: config fingerprint, then
        # the workload's display name in the file name.
        name = files[0].name
        assert name.startswith(config_fingerprint(CFG)[:24])
        assert "hmmer_like" in name

        second = make_runner(store=ResultStore(tmp_path, resume=True))
        restored = second.run(CFG, "hmmer_like", N)
        assert second.stats.executed == 0
        assert second.stats.store_hits == 1
        assert restored.cycles == result.cycles
        assert restored.load_served == result.load_served

    def test_without_resume_disk_is_not_read(self, tmp_path):
        make_runner(store=ResultStore(tmp_path)).run(CFG, "hmmer_like", N)
        fresh = make_runner(store=ResultStore(tmp_path, resume=False))
        fresh.run(CFG, "hmmer_like", N)
        assert fresh.stats.executed == 1

    def test_corrupt_checkpoint_quarantined_not_fatal(self, tmp_path):
        store = ResultStore(tmp_path)
        make_runner(store=store).run(CFG, "hmmer_like", N)
        (checkpoint,) = tmp_path.glob("*.json")
        checkpoint.write_text("{ not json")

        resumed = ResultStore(tmp_path, resume=True)
        runner = make_runner(store=resumed)
        runner.run(CFG, "hmmer_like", N)
        assert resumed.corrupt_skipped == 1
        assert runner.stats.executed == 1  # re-simulated, did not crash
        # The broken file was moved aside, and the re-simulated result was
        # checkpointed under the original name.
        (quarantined,) = resumed.quarantined
        assert quarantined.name == checkpoint.name + ".corrupt"
        assert quarantined.exists()
        assert checkpoint.exists()
        assert "not json" in quarantined.read_text()

    def test_quarantined_checkpoint_not_reparsed_on_next_resume(self, tmp_path):
        make_runner(store=ResultStore(tmp_path)).run(CFG, "hmmer_like", N)
        (checkpoint,) = tmp_path.glob("*.json")
        checkpoint.write_text("{ not json")
        first = ResultStore(tmp_path, resume=True)
        make_runner(store=first).run(CFG, "hmmer_like", N)
        # The repaired checkpoint now serves; the .corrupt file is inert.
        second = ResultStore(tmp_path, resume=True)
        runner = make_runner(store=second)
        runner.run(CFG, "hmmer_like", N)
        assert second.corrupt_skipped == 0
        assert runner.stats.store_hits == 1

    def test_quarantine_numbers_colliding_files(self, tmp_path):
        for _ in range(2):
            make_runner(store=ResultStore(tmp_path)).run(CFG, "hmmer_like", N)
            (checkpoint,) = tmp_path.glob("*.json")
            checkpoint.write_text("{ not json")
            store = ResultStore(tmp_path, resume=True)
            make_runner(store=store).run(CFG, "hmmer_like", N)
            checkpoint.write_text("{ not json")  # corrupt the repair too
        store = ResultStore(tmp_path, resume=True)
        make_runner(store=store).run(CFG, "hmmer_like", N)
        names = sorted(p.name for p in tmp_path.glob("*.corrupt*"))
        assert len(names) == 3
        assert names[1].endswith(".corrupt.1") and names[2].endswith(".corrupt.2")

    def test_quarantine_rename_failure_degrades_to_skip(
        self, tmp_path, monkeypatch
    ):
        """If the .corrupt rename itself fails (read-only dir, races), the
        resume degrades to the old count-and-skip path instead of dying."""
        import os

        make_runner(store=ResultStore(tmp_path)).run(CFG, "hmmer_like", N)
        (checkpoint,) = tmp_path.glob("*.json")
        checkpoint.write_text("{ not json")

        def refuse(src, dst):
            raise OSError("read-only filesystem")

        monkeypatch.setattr(os, "replace", refuse)
        store = ResultStore(tmp_path, resume=True)
        assert store.get(CFG, "hmmer_like", N) is None
        assert store.corrupt_skipped == 1
        assert store.quarantined == []
        assert checkpoint.exists()  # left in place, counted, not re-parsed

    def test_wrong_schema_checkpoint_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        make_runner(store=store).run(CFG, "hmmer_like", N)
        (checkpoint,) = tmp_path.glob("*.json")
        payload = json.loads(checkpoint.read_text())
        payload["entry_version"] = 99
        checkpoint.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            read_entry(checkpoint)
        resumed = ResultStore(tmp_path, resume=True)
        assert resumed.get(CFG, "hmmer_like", N) is None
        assert resumed.corrupt_skipped == 1

    def test_clear_drops_memory_keeps_disk(self, tmp_path):
        store = ResultStore(tmp_path, resume=True)
        runner = make_runner(store=store)
        runner.run(CFG, "hmmer_like", N)
        store.clear()
        assert len(store) == 0
        runner.run(CFG, "hmmer_like", N)  # served from disk
        assert runner.stats.executed == 1


class TestIsolationAndRetry:
    def test_config_error_propagates_unretried(self):
        runner = make_runner(retries=3)
        bad = dataclasses.replace(CFG, capacity_scale=0)
        with pytest.raises(ConfigError):
            runner.run(bad, "hmmer_like", N)
        assert runner.stats.executed == 0
        assert runner.failures == []

    def test_persistent_fault_exhausts_retries(self):
        injector = FaultInjector(kind="raise", at_instruction=300, times=99)
        runner = make_runner(
            simulator_factory=injector.simulator_factory, retries=2
        )
        with pytest.raises(RunFailure) as info:
            runner.run(CFG, "hmmer_like", N)
        assert runner.stats.executed == 3       # 1 + 2 retries
        assert runner.stats.retries == 2
        assert info.value.attempts == 3
        assert info.value.config_name == "baseline_server"
        assert info.value.workload == "hmmer_like"

    def test_transient_fault_recovered_by_retry(self):
        injector = FaultInjector(kind="raise", at_instruction=300, times=1)
        runner = make_runner(
            simulator_factory=injector.simulator_factory, retries=1
        )
        result = runner.run(CFG, "hmmer_like", N)
        assert result.ipc > 0
        assert runner.stats.retries == 1
        assert runner.stats.completed == 1
        assert runner.failures == []

    def test_backoff_is_exponential(self):
        # rng=1.0 pins the full-jitter draw to the deterministic ceiling.
        naps = []
        injector = FaultInjector(kind="raise", at_instruction=300, times=2)
        runner = ExperimentRunner(
            simulator_factory=injector.simulator_factory,
            retries=2,
            backoff_s=0.5,
            sleep=naps.append,
            rng=lambda: 1.0,
        )
        runner.run(CFG, "hmmer_like", N)
        assert naps == [0.5, 1.0]

    def test_backoff_is_fully_jittered(self):
        """Each nap is uniform over [0, ceiling): the injected rng draw
        scales the exponential ceiling, so a fleet of retrying runners
        never synchronises into a retry storm."""
        naps = []
        draws = iter([0.5, 0.25])
        injector = FaultInjector(kind="raise", at_instruction=300, times=2)
        runner = ExperimentRunner(
            simulator_factory=injector.simulator_factory,
            retries=2,
            backoff_s=0.5,
            sleep=naps.append,
            rng=lambda: next(draws),
        )
        runner.run(CFG, "hmmer_like", N)
        assert naps == [0.5 * 0.5, 1.0 * 0.25]

    def test_default_backoff_never_exceeds_the_ceiling(self):
        naps = []
        injector = FaultInjector(kind="raise", at_instruction=300, times=2)
        runner = ExperimentRunner(
            simulator_factory=injector.simulator_factory,
            retries=2,
            backoff_s=0.5,
            sleep=naps.append,
        )
        runner.run(CFG, "hmmer_like", N)
        assert len(naps) == 2
        assert 0.0 <= naps[0] < 0.5
        assert 0.0 <= naps[1] < 1.0

    def test_failure_record_shape(self):
        injector = FaultInjector(kind="raise", at_instruction=300, times=99)
        runner = make_runner(simulator_factory=injector.simulator_factory)
        with pytest.raises(RunFailure):
            runner.run(CFG, "hmmer_like", N)
        (record,) = runner.failures
        assert record.error_type == "InjectedFault"
        assert record.config_name == "baseline_server"
        assert record.workload == "hmmer_like"
        assert record.n_instrs == N
        assert record.attempts == 1
        report = runner.failure_report()
        assert report["failures"][0]["error_type"] == "InjectedFault"
        assert report["stats"]["failures"] == 1


class TestTimeout:
    def test_deadline_fires(self):
        ticks = [0.0]

        def clock():
            ticks[0] += 0.25
            return ticks[0]

        runner = make_runner(timeout_s=1.0, clock=clock)
        with pytest.raises(RunFailure) as info:
            runner.run(CFG, "hmmer_like", N)
        assert isinstance(info.value.__cause__, RunTimeoutError)
        assert runner.stats.timeouts == 1

    def test_timeout_is_not_retried(self):
        ticks = [0.0]

        def clock():
            ticks[0] += 0.25
            return ticks[0]

        runner = make_runner(timeout_s=1.0, clock=clock, retries=5)
        with pytest.raises(RunFailure):
            runner.run(CFG, "hmmer_like", N)
        assert runner.stats.executed == 1
        assert runner.stats.retries == 0

    def test_generous_deadline_does_not_fire(self):
        runner = make_runner(timeout_s=300.0)
        assert runner.run(CFG, "hmmer_like", N).ipc > 0


class TestActiveRunner:
    def test_default_runner_exists(self):
        assert get_runner() is get_runner()

    def test_use_runner_scopes_and_restores(self):
        outer = get_runner()
        scoped = make_runner()
        with use_runner(scoped):
            assert get_runner() is scoped
        assert get_runner() is outer

    def test_cached_run_and_clear_cache_use_active_runner(self):
        from repro.experiments.common import cached_run, clear_cache

        scoped = make_runner()
        with use_runner(scoped):
            cached_run(CFG, "hmmer_like", N)
            assert scoped.stats.executed == 1
            assert len(scoped.store) == 1
            clear_cache()
            assert len(scoped.store) == 0


# --------------------------------------------------------------- CLI e2e


def _mini_experiment(configs, workloads, n=1200):
    """A registry-shaped module running a tiny sweep through the runner."""

    def main(quick=False):
        from repro.experiments.common import sweep

        results = sweep(configs, workloads, n)
        return {
            "summary": {
                cfg.name: {wl: results[cfg.name][wl].ipc for wl in workloads}
                for cfg in configs
            }
        }

    return types.SimpleNamespace(main=main)


@pytest.fixture
def mini_registry(monkeypatch):
    """Three miniature experiments; expB's workload is the fault target."""
    from repro.experiments import registry

    cfg_a = skylake_server()
    cfg_b = no_l2(skylake_server(), 6.5)
    monkeypatch.setitem(registry.__dict__, "EXPERIMENTS", {
        "expA": _mini_experiment([cfg_a], ["hmmer_like"]),
        "expB": _mini_experiment([cfg_a], ["mcf_like"]),
        "expC": _mini_experiment([cfg_b], ["hmmer_like"]),
    })
    captured = []
    real_make_runner = registry.make_runner
    monkeypatch.setattr(
        registry, "make_runner",
        lambda args: captured.append(real_make_runner(args)) or captured[-1],
    )
    return registry, captured


class TestRegistryCLI:
    FAULT = "raise:workload=mcf_like:at=300:times=99"

    def test_keep_going_isolates_and_reports(self, mini_registry, tmp_path, capsys):
        registry, captured = mini_registry
        report_path = tmp_path / "failures.json"
        json_path = tmp_path / "results.json"
        code = registry.main([
            "all", "--quick", "--keep-going",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--inject-fault", self.FAULT,
            "--failure-report", str(report_path),
            "--json", str(json_path),
        ])
        # Distinct from a dead campaign (1): completed, but with failures.
        assert code == 3

        payload = json.loads(json_path.read_text())
        # expA and expC completed despite expB's mid-suite fault.
        assert set(payload["experiments"]) == {"expA", "expC"}
        (failure,) = payload["failures"]
        assert failure["experiment"] == "expB"
        assert failure["error_type"] == "InjectedFault"
        assert failure["config_name"] == "baseline_server"
        assert failure["workload"] == "mcf_like"
        assert failure["elapsed_s"] >= 0

        report = json.loads(report_path.read_text())
        assert report["failures"][0]["experiment"] == "expB"
        assert report["runner"]["stats"]["failures"] == 1
        err = capsys.readouterr().err
        assert "expB failed" in err
        assert f"failure report: {report_path}" in err

    def test_resume_re_simulates_nothing_completed(self, mini_registry, tmp_path):
        registry, captured = mini_registry
        ckpt = tmp_path / "ckpt"
        code = registry.main([
            "all", "--quick", "--keep-going",
            "--checkpoint-dir", str(ckpt),
            "--inject-fault", self.FAULT,
        ])
        assert code == 3
        first = captured[-1]
        assert first.stats.completed == 2   # expA + expC checkpointed

        # Second invocation, fault gone: only the failed run simulates.
        code = registry.main([
            "all", "--quick", "--keep-going",
            "--checkpoint-dir", str(ckpt), "--resume",
        ])
        assert code == 0
        second = captured[-1]
        assert second.stats.executed == 1          # only expB's mcf_like run
        assert second.stats.store_hits == 2        # expA/expC from checkpoints
        assert second.stats.failures == 0

        # Third invocation: everything checkpointed, nothing simulates.
        code = registry.main([
            "all", "--quick",
            "--checkpoint-dir", str(ckpt), "--resume",
        ])
        assert code == 0
        assert captured[-1].stats.executed == 0
        assert captured[-1].stats.store_hits == 3

    def test_stop_on_first_failure_without_keep_going(self, mini_registry, tmp_path):
        registry, captured = mini_registry
        json_path = tmp_path / "results.json"
        code = registry.main([
            "all", "--quick",
            "--inject-fault", self.FAULT,
            "--json", str(json_path),
        ])
        assert code == 1
        payload = json.loads(json_path.read_text())
        assert set(payload["experiments"]) == {"expA"}   # stopped at expB

    def test_resume_requires_checkpoint_dir(self, mini_registry):
        registry, _ = mini_registry
        with pytest.raises(SystemExit):
            registry.main(["expA", "--resume"])

    def test_worker_faults_need_isolated_workers(self, mini_registry):
        registry, _ = mini_registry
        with pytest.raises(SystemExit, match="--jobs >= 2"):
            registry.main(["expA", "--inject-fault", "worker-crash"])

    def test_max_rss_needs_jobs(self, mini_registry):
        registry, _ = mini_registry
        with pytest.raises(SystemExit, match="--max-rss-mb requires --jobs"):
            registry.main(["expA", "--max-rss-mb", "512"])

    def test_multiple_serial_injectors_rejected(self, mini_registry):
        registry, _ = mini_registry
        with pytest.raises(SystemExit, match="multiple --inject-fault"):
            registry.main([
                "expA",
                "--inject-fault", self.FAULT,
                "--inject-fault", "nan-metrics",
            ])

    def test_parallel_runner_selected_by_jobs(self, mini_registry, tmp_path):
        from repro.runner import FleetRunner

        registry, captured = mini_registry
        code = registry.main([
            "expA", "--quick", "--jobs", "2",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ])
        assert code == 0
        assert isinstance(captured[-1], FleetRunner)
        assert captured[-1].stats.completed == 1
