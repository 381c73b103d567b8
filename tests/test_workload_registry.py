"""Workload registry, content-addressed identity, ingestion and compat.

Covers the plugin-ised workload layer: registry lookup semantics,
``workload_fingerprint`` (synthetic / trace / mix / name-fallback),
trace-file ingestion in all three serialization formats, the
fingerprint-keyed ``build_trace`` memo, and the sanitisation-collision
behaviour of the checkpoint store and result cache.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.plugins import WORKLOADS
from repro.plugins.workloads import (
    MIX_SEPARATOR,
    is_mix,
    mix_display,
    mix_names,
    register_workload,
    workload_fingerprint,
)
from repro.workloads.ingest import (
    INGEST_PROFILES,
    TraceFileSpec,
    register_trace_workload,
    trace_content_hash,
)
from repro.workloads.serialization import (
    load_trace_any,
    load_trace_bin,
    load_trace_jsonl,
    save_trace,
    save_trace_bin,
    save_trace_jsonl,
    trace_to_dict,
)
from repro.workloads.suites import ST_SUITE, WorkloadSpec, build_trace, get_spec
from repro.workloads.trace import Trace


def _unregister(name: str) -> None:
    WORKLOADS.unregister(name)


@pytest.fixture
def small_trace():
    return build_trace("hmmer_like", 2000)


# ----------------------------------------------------------------- registry


class TestRegistry:
    def test_builtin_suite_registered(self):
        assert len(ST_SUITE) <= len(WORKLOADS)
        assert "mcf-like" in WORKLOADS.names()

    def test_name_agnostic_lookup(self):
        assert get_spec("MCF_LIKE") is get_spec("mcf-like")

    def test_unknown_name_suggests(self):
        with pytest.raises(ConfigError, match="did you mean"):
            get_spec("mcf_lik")

    def test_mix_separator_rejected_in_names(self):
        spec = ST_SUITE[0]
        with pytest.raises(ValueError, match="reserved"):
            WORKLOADS.register("a+b", spec)

    def test_describe_has_summaries(self):
        described = WORKLOADS.describe()
        assert described["hmmer-like"]


class TestMixRefs:
    def test_is_mix(self):
        assert is_mix("a+b")
        assert not is_mix("hmmer_like")

    def test_mix_names_roundtrip(self):
        mix = ("hmmer_like", "mcf_like", "tpcc_like", "bwaves_like")
        assert mix_names(mix_display(mix)) == mix

    def test_separator_is_plus(self):
        assert MIX_SEPARATOR == "+"


# ------------------------------------------------------------- fingerprints


class TestFingerprint:
    def test_stable(self):
        assert workload_fingerprint("mcf_like") == workload_fingerprint("mcf_like")

    def test_name_form_agnostic(self):
        assert workload_fingerprint("mcf_like") == workload_fingerprint("MCF-LIKE")

    def test_distinct_across_workloads(self):
        fps = {workload_fingerprint(s.name) for s in ST_SUITE}
        assert len(fps) == len(ST_SUITE)

    def test_mix_covers_member_order(self):
        assert workload_fingerprint("hmmer_like+mcf_like") != (
            workload_fingerprint("mcf_like+hmmer_like")
        )

    def test_mix_accepts_tuple(self):
        assert workload_fingerprint(("hmmer_like", "mcf_like")) == (
            workload_fingerprint("hmmer_like+mcf_like")
        )

    def test_unregistered_name_fallback(self):
        fp = workload_fingerprint("totally_unregistered_wl")
        assert fp == workload_fingerprint("totally-unregistered-wl")
        assert fp != workload_fingerprint("mcf_like")

    def test_reregistration_changes_fingerprint(self):
        base = get_spec("hmmer_like")
        name = "fp_regen_wl"
        register_workload(dataclasses.replace(base, name=name))
        try:
            first = workload_fingerprint(name)
            assert first == workload_fingerprint("hmmer_like")
        finally:
            _unregister(name)
        other = dataclasses.replace(get_spec("mcf_like"), name=name)
        register_workload(other)
        try:
            assert workload_fingerprint(name) != first
        finally:
            _unregister(name)

    def test_registered_name_never_aliases_fallback(self):
        # The name-fallback payload must differ from any spec payload even
        # for the same string.
        name = "alias_check_wl"
        fallback = workload_fingerprint(name)
        register_workload(dataclasses.replace(get_spec("hmmer_like"), name=name))
        try:
            assert workload_fingerprint(name) != fallback
        finally:
            _unregister(name)


class TestBuildTraceMemo:
    def test_memoised(self):
        assert build_trace("hmmer_like", 2000) is build_trace("hmmer_like", 2000)

    def test_invalidated_on_reregistration(self):
        name = "memo_regen_wl"
        register_workload(dataclasses.replace(get_spec("hmmer_like"), name=name))
        try:
            first = build_trace(name, 2000)
        finally:
            _unregister(name)
        register_workload(dataclasses.replace(get_spec("mcf_like"), name=name))
        try:
            second = build_trace(name, 2000)
        finally:
            _unregister(name)
        # Keyed by name alone (the old lru_cache) this would return the
        # stale hmmer-shaped trace.
        assert first is not second
        assert [i.pc for i in first.instrs] != [i.pc for i in second.instrs]


# ---------------------------------------------------------------- ingestion


class TestSerializationFormats:
    @pytest.mark.parametrize("save,load", [
        (save_trace_jsonl, load_trace_jsonl),
        (save_trace_bin, load_trace_bin),
    ])
    def test_roundtrip(self, tmp_path, small_trace, save, load):
        path = tmp_path / "t.trace"
        save(small_trace, path)
        assert trace_to_dict(load(path)) == trace_to_dict(small_trace)

    def test_sniffing(self, tmp_path, small_trace):
        want = trace_to_dict(small_trace)
        for save in (save_trace, save_trace_jsonl, save_trace_bin):
            path = tmp_path / f"t.{save.__name__}"
            save(small_trace, path)
            assert trace_to_dict(load_trace_any(path)) == want

    def test_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "not-a-trace"}\n')
        with pytest.raises(ValueError):
            load_trace_jsonl(path)

    def test_bin_rejects_truncation(self, tmp_path, small_trace):
        path = tmp_path / "t.bin"
        save_trace_bin(small_trace, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ValueError, match="corrupt"):
            load_trace_bin(path)


class TestMalformedTraces:
    """Every malformed trace file is a ConfigError naming the file."""

    @pytest.mark.parametrize("content", [
        b"RTRC\x01",                                            # short header
        b'{"format_version": 1, "kind": "trace-jsonl", "name": "t", '
        b'"category": "server", "count": 1, "memory_image": []}\n5\n',
        b'{"format_version": 1, "kind": "trace-jsonl"}\n',     # no count
        b'[1, "trace-jsonl"]\n',                               # list header
    ], ids=["rtrc-5-bytes", "jsonl-scalar-row", "jsonl-no-count",
            "jsonl-list-header"])
    def test_known_crashers(self, tmp_path, content):
        path = tmp_path / "bad.trace"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="bad.trace"):
            load_trace_any(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="unreadable"):
            load_trace_any(tmp_path / "absent.trace")

    @pytest.fixture(scope="class")
    def encoded(self, tmp_path_factory):
        trace = build_trace("hmmer_like", 60)
        root = tmp_path_factory.mktemp("encoded")
        blobs = {}
        for save in (save_trace, save_trace_jsonl, save_trace_bin):
            path = root / save.__name__
            save(trace, path)
            blobs[save.__name__] = path.read_bytes()
        return root, blobs

    @given(
        fmt=st.sampled_from(["save_trace", "save_trace_jsonl", "save_trace_bin"]),
        cut=st.floats(0.0, 1.0),
        flips=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.integers(1, 255)), max_size=4
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_truncated_or_flipped_is_loaded_or_config_error(
        self, encoded, fmt, cut, flips
    ):
        root, blobs = encoded
        blob = blobs[fmt]
        data = bytearray(blob[:max(1, round(len(blob) * cut))])
        for where, mask in flips:
            data[min(len(data) - 1, int(len(data) * where))] ^= mask
        path = root / f"fuzzed-{fmt}"
        path.write_bytes(bytes(data))
        try:
            trace = load_trace_any(path)
        except ConfigError as exc:
            assert str(path) in str(exc)
        else:
            assert isinstance(trace, Trace)


class TestIngestion:
    def test_register_and_build(self, tmp_path, small_trace):
        path = tmp_path / "recorded.jsonl"
        save_trace_jsonl(small_trace, path)
        spec = register_trace_workload(
            "recorded_wl", path, profile="server-app"
        )
        try:
            assert get_spec("recorded_wl") is spec
            trace = build_trace("recorded_wl", 1500)
            assert len(trace.instrs) == 1500
            assert trace.category == INGEST_PROFILES["server-app"]["category"]
        finally:
            _unregister("recorded_wl")

    def test_fingerprint_is_content_hash(self, tmp_path, small_trace):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_trace_jsonl(small_trace, a)
        save_trace_jsonl(small_trace, b)
        spec = TraceFileSpec("x", str(a))
        assert spec.fingerprint_payload() == {
            "type": "trace", "sha256": trace_content_hash(a),
        }
        assert trace_content_hash(a) == trace_content_hash(b)

    def test_identical_content_same_fingerprint(self, tmp_path, small_trace):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_trace_jsonl(small_trace, a)
        save_trace_jsonl(small_trace, b)
        register_trace_workload("rec_a", a)
        register_trace_workload("rec_b", b)
        try:
            # Same bytes, different names/paths: same identity.
            assert workload_fingerprint("rec_a") == workload_fingerprint("rec_b")
        finally:
            _unregister("rec_a")
            _unregister("rec_b")

    def test_unknown_profile_rejected(self, tmp_path, small_trace):
        path = tmp_path / "t.jsonl"
        save_trace_jsonl(small_trace, path)
        with pytest.raises(ConfigError, match="profile"):
            register_trace_workload("bad_wl", path, profile="mystery-app")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            register_trace_workload("ghost_wl", tmp_path / "missing.jsonl")

    def test_too_short_trace_rejected(self, tmp_path, small_trace):
        path = tmp_path / "t.jsonl"
        save_trace_jsonl(small_trace, path)
        register_trace_workload("short_wl", path)
        try:
            with pytest.raises(ConfigError, match="instructions"):
                build_trace("short_wl", 10_000_000)
        finally:
            _unregister("short_wl")
