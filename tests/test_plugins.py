"""Tests for the plugin registry layer (:mod:`repro.plugins`).

Covers the generic :class:`Registry` semantics (duplicate registration,
unknown-name errors with did-you-mean, canonical naming), the concrete
registries' contents, ``$REPRO_PLUGINS`` external loading, the
``SimConfig.validate`` component checks, :class:`Selection` composition
semantics, kernel parity for registry-composed machines, serialization
round-trips of the new fields, and the CLI surface
(``repro.sim plugins`` / ``--prefetchers`` / ``--detector`` /
``--topology``).
"""

from __future__ import annotations

import hashlib
import textwrap
from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.plugins import (
    DETECTORS,
    PREFETCHERS,
    POLICIES,
    Selection,
    TOPOLOGIES,
    all_registries,
    apply_selection,
    canonical_name,
    use_selection,
)
from repro.plugins.registry import Registry
from repro.sim.config import no_l2, skylake_server, with_catch
from repro.sim.parity import canonical_result_json
from repro.sim.serialization import config_from_dict, config_to_dict
from repro.sim.simulator import Simulator

N = 2000


# ------------------------------------------------------- generic semantics


class TestRegistry:
    def test_canonical_name(self):
        assert canonical_name("  IP_Stride ") == "ip-stride"

    def test_get_normalizes(self):
        reg = Registry("widget")
        reg.register("ip-stride", object(), summary="s")
        assert reg.get("IP_Stride") is reg.get("ip-stride")

    def test_duplicate_registration_raises(self):
        reg = Registry("widget")
        reg.register("a", 1, summary="first")
        with pytest.raises(ValueError, match="duplicate widget registration"):
            reg.register("A", 2, summary="second")
        assert reg.get("a") == 1  # original binding untouched

    def test_unknown_name_is_config_error_with_suggestion(self):
        reg = Registry("widget")
        reg.register("ip-stride", 1, summary="s")
        reg.register("stream", 2, summary="s")
        with pytest.raises(ConfigError) as err:
            reg.get("ip-strid")
        message = str(err.value)
        assert "unknown widget 'ip-strid'" in message
        assert "['ip-stride', 'stream']" in message
        assert "did you mean 'ip-stride'?" in message

    def test_unknown_name_without_close_match(self):
        reg = Registry("widget")
        reg.register("alpha", 1, summary="s")
        with pytest.raises(ConfigError) as err:
            reg.get("zzzz")
        assert "did you mean" not in str(err.value)

    def test_introspection(self):
        reg = Registry("widget")
        reg.register("b", 2, summary="bee")
        reg.register("a", 1, summary="ay")
        assert reg.names() == ("a", "b")
        assert reg.describe() == {"a": "ay", "b": "bee"}
        assert "a" in reg and "A" in reg and "c" not in reg
        assert len(reg) == 2 and sorted(reg) == ["a", "b"]

    def test_unregister(self):
        reg = Registry("widget")
        reg.register("a", 1, summary="s")
        reg.unregister("a")
        assert "a" not in reg
        reg.register("a", 3, summary="s")  # name is reusable afterwards
        assert reg.get("a") == 3


class TestGlobalRegistries:
    def test_families(self):
        assert set(all_registries()) == {
            "prefetchers", "detectors", "topologies", "replacement-policies",
            "workloads",
        }

    def test_expected_entries(self):
        assert {"ip-stride", "stream", "next-line", "tact-cross",
                "tact-deep-self", "tact-feeder", "tact-code"} <= set(
            PREFETCHERS.names()
        )
        assert {"ddg", "oracle", "none", "load-miss-pc",
                "oldest-in-rob"} <= set(DETECTORS.names())
        assert {"baseline", "no-l2", "no-l2-catch"} <= set(TOPOLOGIES.names())
        assert {"lru", "lip", "random", "srrip", "nru"} <= set(
            POLICIES.names()
        )

    def test_make_policy_error_carries_suggestion(self):
        from repro.caches.replacement import make_policy

        with pytest.raises(ConfigError, match="unknown replacement policy"):
            make_policy("belady")
        with pytest.raises(ConfigError, match=r"did you mean 'lru'\?"):
            make_policy("lruu")
        assert type(make_policy("LRU")).__name__ == "LRUPolicy"

    def test_policy_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate replacement policy"):
            POLICIES.register("lru", object, summary="again")


# ----------------------------------------------------- external plugins


def _write_plugin(tmp_path, name, body):
    (tmp_path / f"{name}.py").write_text(textwrap.dedent(body))
    return name


class TestExternalPlugins:
    def test_env_module_registers(self, tmp_path, monkeypatch):
        mod = _write_plugin(
            tmp_path, "extra_pf", """
            from repro.caches.prefetchers import NextLinePrefetcher
            from repro.plugins import register_prefetcher

            class DoubleNextLine(NextLinePrefetcher):
                pass

            register_prefetcher(
                "double-next-line", DoubleNextLine,
                summary="test-only next-line clone",
            )
            """,
        )
        monkeypatch.syspath_prepend(tmp_path)
        monkeypatch.setenv("REPRO_PLUGINS", mod)
        try:
            spec = PREFETCHERS.get("double-next-line")
            assert spec.scope == "core"
            cfg = replace(
                skylake_server(), name="ext", prefetchers=("double-next-line",)
            )
            result = Simulator(cfg).run("mcf_like", N)
            assert result.ipc > 0
        finally:
            if "double-next-line" in PREFETCHERS:
                PREFETCHERS.unregister("double-next-line")

    def test_broken_env_module_is_config_error(self, tmp_path, monkeypatch):
        mod = _write_plugin(
            tmp_path, "broken_plugin_mod", "raise ImportError('kaboom')\n"
        )
        monkeypatch.syspath_prepend(tmp_path)
        monkeypatch.setenv("REPRO_PLUGINS", mod)
        with pytest.raises(ConfigError, match="broken_plugin_mod"):
            PREFETCHERS.get("ip-stride")
        # With the variable cleared the registry works again.
        monkeypatch.delenv("REPRO_PLUGINS")
        assert PREFETCHERS.get("ip-stride").scope == "core"


_CRASHING_PLUGIN = """
from repro.plugins import register_prefetcher

def exploding_factory(core_id, hierarchy):
    raise RuntimeError("plugin construction exploded")

register_prefetcher(
    "exploding", exploding_factory, summary="always fails to build",
)
"""


class TestPluginFaultIsolation:
    """A plugin that fails to *construct* becomes a FailureRecord, not a
    crash of the process (serial) or the worker pool (parallel)."""

    @pytest.fixture
    def exploding_env(self, tmp_path, monkeypatch, request):
        # Module name is unique per test: the loader (and sys.modules) caches
        # imported plugin modules per process, so re-registering after a
        # previous test's teardown unregistered requires a fresh module.
        unique = request.node.name.strip("_[]").replace("[", "_")
        mod = _write_plugin(tmp_path, f"exploding_plugin_{unique}",
                            _CRASHING_PLUGIN)
        monkeypatch.syspath_prepend(tmp_path)
        monkeypatch.setenv("REPRO_PLUGINS", mod)
        yield replace(
            skylake_server(), name="exploding_cfg", prefetchers=("exploding",)
        )
        if "exploding" in PREFETCHERS:
            PREFETCHERS.unregister("exploding")

    def test_serial_runner_records_failure(self, exploding_env):
        from repro.errors import RunFailure
        from repro.runner import ExperimentRunner

        runner = ExperimentRunner()
        with pytest.raises(RunFailure, match="plugin construction exploded"):
            runner.run(exploding_env, "mcf_like", N)
        (record,) = runner.failures
        assert record.error_type == "RuntimeError"
        assert "plugin construction exploded" in record.message
        assert runner.stats.failures == 1

    def test_fleet_contains_failure_and_finishes_sweep(self, exploding_env):
        from repro.errors import RunFailure
        from repro.runner import FleetRunner

        fleet = FleetRunner(jobs=2)
        with pytest.raises(RunFailure, match="1 of 2 jobs failed"):
            fleet.sweep(
                [exploding_env, skylake_server()], ["mcf_like"], N
            )
        (record,) = fleet.failures
        assert record.config_name == "exploding_cfg"
        assert "plugin construction exploded" in record.message
        assert fleet.fleet_stats.workers_crashed == 0  # fault, not a crash
        assert fleet.stats.completed == 1  # the healthy config still ran


# ------------------------------------------------------- validation (S6)


class TestComponentValidation:
    def test_tact_prefetcher_needs_detector(self):
        cfg = replace(skylake_server(), prefetchers=("tact-cross",))
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        message = str(err.value)
        assert "tact-cross" in message
        assert "conflicting fields" in message and "prefetchers" in message

    def test_detector_none_conflicts_with_catch_engine(self):
        cfg = with_catch(skylake_server())
        cfg = replace(cfg, catch=replace(cfg.catch, detector="none"))
        with pytest.raises(ConfigError, match="catch.detector='none'"):
            cfg.validate()

    def test_unknown_prefetcher_name(self):
        cfg = replace(skylake_server(), prefetchers=("ip-strid",))
        with pytest.raises(
            ConfigError, match=r"prefetchers:.*did you mean 'ip-stride'"
        ):
            cfg.validate()

    def test_unknown_detector_name(self):
        cfg = with_catch(skylake_server())
        cfg = replace(cfg, catch=replace(cfg.catch, detector="dgd"))
        with pytest.raises(
            ConfigError, match=r"catch\.detector:.*did you mean 'ddg'"
        ):
            cfg.validate()

    def test_unknown_replacement_name(self):
        cfg = skylake_server()
        cfg = replace(cfg, llc=replace(cfg.llc, replacement="lruu"))
        with pytest.raises(
            ConfigError, match=r"did you mean 'lru'"
        ):
            cfg.validate()

    def test_valid_compositions_pass(self):
        replace(skylake_server(), prefetchers=()).validate()
        replace(skylake_server(), prefetchers=("next-line",)).validate()
        with_catch(skylake_server()).validate()


# ------------------------------------------------------------- Selection


class TestSelection:
    def test_empty_selection_is_identity(self):
        cfg = skylake_server()
        assert apply_selection(cfg, Selection()) is cfg

    def test_topology_transform(self):
        cfg = apply_selection(skylake_server(), Selection(topology="no-l2"))
        assert cfg.l2 is None
        assert cfg.name == "noL2_6.5MB"

    def test_prefetchers_exhaustive_core_only(self):
        cfg = apply_selection(
            skylake_server(), Selection(prefetchers=("next-line",))
        )
        assert cfg.prefetchers == ("next-line",)
        assert cfg.catch is None
        assert cfg.name == "baseline_server[pf=next-line]"

    def test_tact_prefetchers_create_catch_config(self):
        cfg = apply_selection(
            skylake_server(),
            Selection(prefetchers=("ip-stride", "tact-cross")),
        )
        assert cfg.prefetchers == ("ip-stride",)
        assert cfg.catch is not None and not cfg.catch.detector_only
        assert cfg.catch.tact.components() == ("cross",)
        cfg.validate()

    def test_no_tact_entries_on_catch_config_goes_detector_only(self):
        cfg = apply_selection(
            with_catch(skylake_server()),
            Selection(prefetchers=("ip-stride", "stream")),
        )
        assert cfg.catch.detector_only

    def test_detector_none_strips_catch(self):
        cfg = apply_selection(
            with_catch(skylake_server()), Selection(detector="none")
        )
        assert cfg.catch is None

    def test_detector_swap_and_creation(self):
        swapped = apply_selection(
            with_catch(skylake_server()), Selection(detector="oldest-in-rob")
        )
        assert swapped.catch.detector == "oldest-in-rob"
        created = apply_selection(
            skylake_server(), Selection(detector="load-miss-pc")
        )
        assert created.catch.detector_only
        assert created.catch.detector == "load-miss-pc"

    def test_tact_with_detector_none_conflicts(self):
        with pytest.raises(ConfigError, match="conflicting fields"):
            apply_selection(
                skylake_server(),
                Selection(prefetchers=("tact-cross",), detector="none"),
            )

    def test_idempotent(self):
        sel = Selection(prefetchers=("next-line",), detector="ddg")
        once = apply_selection(skylake_server(), sel)
        assert apply_selection(once, sel) == once

    def test_selection_from_args(self):
        import argparse

        from repro.plugins import add_selection_args, selection_from_args

        parser = argparse.ArgumentParser()
        add_selection_args(parser)
        args = parser.parse_args(
            ["--prefetchers", "ip-stride,stream", "tact-cross",
             "--detector", "ddg", "--topology", "no-l2"]
        )
        sel = selection_from_args(args)
        assert sel.prefetchers == ("ip-stride", "stream", "tact-cross")
        assert sel.detector == "ddg" and sel.topology == "no-l2"
        none = selection_from_args(parser.parse_args(["--prefetchers", "none"]))
        assert none.prefetchers == ()
        assert not selection_from_args(parser.parse_args([]))

    def test_use_selection_scopes_the_override(self):
        from repro.plugins.compose import apply_active_selection

        cfg = skylake_server()
        with use_selection(Selection(detector="load-miss-pc")):
            inside = apply_active_selection(cfg)
            assert inside.catch is not None
        assert apply_active_selection(cfg) is cfg


# ---------------------------------------------------- composition parity


class TestComposition:
    def test_explicit_default_prefetchers_byte_identical(self):
        base = skylake_server()
        explicit = replace(base, prefetchers=("ip-stride", "stream"))
        a = canonical_result_json(Simulator(base).run("mcf_like", N))
        b = canonical_result_json(Simulator(explicit).run("mcf_like", N))
        assert a == b

    def test_next_line_kernel_parity(self):
        """The registry-composed next-line machine keeps its pinned result."""
        cfg = replace(
            skylake_server(), name="nextline", prefetchers=("next-line",)
        )
        result = canonical_result_json(Simulator(cfg).run("mcf_like", N))
        assert hashlib.sha256(result.encode()).hexdigest() == (
            "8b9a2e8da5e7f5dede0a8568cb1a0ac05de7242a73b6d890f273d6b02edb1f6b"
        )

    def test_no_prefetchers_differs_from_default(self):
        base = skylake_server()
        none = replace(base, prefetchers=())
        a = Simulator(base).run("gcc_like", N)
        b = Simulator(none).run("gcc_like", N)
        assert a.cycles != b.cycles  # prefetchers genuinely disabled


# --------------------------------------------------------- serialization


class TestSerialization:
    def test_prefetchers_round_trip(self):
        cfg = replace(skylake_server(), prefetchers=("next-line",))
        restored = config_from_dict(config_to_dict(cfg))
        assert restored.prefetchers == ("next-line",)
        assert restored == cfg

    def test_prefetchers_none_round_trip(self):
        cfg = skylake_server()
        restored = config_from_dict(config_to_dict(cfg))
        assert restored.prefetchers is None

    def test_oracle_pcs_round_trip(self):
        cfg = with_catch(skylake_server())
        cfg = replace(
            cfg,
            catch=replace(cfg.catch, detector="oracle", oracle_pcs=(4, 8)),
        )
        restored = config_from_dict(config_to_dict(cfg))
        assert restored.catch.oracle_pcs == (4, 8)
        assert restored == cfg


# ------------------------------------------------------------------- CLI


class TestCLI:
    def test_plugins_subcommand(self, capsys):
        from repro.sim.__main__ import main

        assert main(["plugins"]) == 0
        out = capsys.readouterr().out
        for family in ("prefetchers:", "detectors:", "topologies:",
                       "replacement-policies:"):
            assert family in out
        assert "ip-stride" in out and "ddg" in out and "no-l2" in out

    def test_plugins_family_filter(self, capsys):
        from repro.sim.__main__ import main

        assert main(["plugins", "--family", "detectors"]) == 0
        out = capsys.readouterr().out
        assert "detectors:" in out and "prefetchers:" not in out
        with pytest.raises(SystemExit, match="unknown registry family"):
            main(["plugins", "--family", "wombats"])

    def test_run_with_selection_flags(self, capsys):
        from repro.sim.__main__ import main

        assert main(
            ["run", "baseline_server", "mcf_like", "--n", str(N),
             "--prefetchers", "ip-stride", "--detector", "none"]
        ) == 0
        out = capsys.readouterr().out
        assert "baseline_server[pf=ip-stride,det=none]" in out

    def test_run_with_topology(self, capsys):
        from repro.sim.__main__ import main

        assert main(
            ["run", "baseline_server", "mcf_like", "--n", str(N),
             "--topology", "no-l2"]
        ) == 0
        assert "noL2_6.5MB" in capsys.readouterr().out

    def test_run_rejects_invalid_combo(self):
        from repro.sim.__main__ import main

        with pytest.raises(SystemExit, match="invalid configuration"):
            main(
                ["run", "baseline_server", "mcf_like", "--n", str(N),
                 "--prefetchers", "tact-cross", "--detector", "none"]
            )

    def test_experiments_parser_accepts_selection_flags(self):
        from repro.experiments.registry import build_parser

        args = build_parser().parse_args(
            ["fig13", "--quick", "--detector", "oldest-in-rob",
             "--topology", "no-l2"]
        )
        assert args.detector == "oldest-in-rob"
        assert args.topology == "no-l2"
