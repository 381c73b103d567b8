"""Golden digests for CATCH driven by every registered detector.

``perfbench/golden.json`` only covers the ``ddg`` detector.  These
digests pin the simulated result of CATCH driven by each detector in
:data:`repro.plugins.detectors.DETECTORS`, plus the
:func:`~repro.core.oracle.profile_critical_pcs` ranking that figures 4 and 5
consume, on two workloads at a short trace length.

After a change that is *meant* to alter simulated results, print the new
digests with ``PYTHONPATH=src python tests/test_detector_digests.py`` and
say why in CHANGES.md.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.oracle import profile_critical_pcs
from repro.cpu.core import OOOCore
from repro.sim.config import skylake_server, with_catch
from repro.sim.parity import canonical_result_json
from repro.sim.simulator import Simulator
from repro.workloads.suites import build_trace, get_spec

#: Long enough that every detector drives TACT-Deep-Self prefetches on
#: excel_like, and three of them drive TACT-Feeder prefetches on mcf_like.
N_INSTRS = 4000
WORKLOADS = ("mcf_like", "excel_like")
DETECTORS = (
    "ddg",
    "oracle",
    "oldest-in-rob",
    "consumer-count",
    "branch-feeder",
    "load-miss-pc",
)
#: Critical PCs handed to the ``oracle`` detector (the paper's table size).
ORACLE_BUDGET = 32

PROFILE_DIGESTS = {
    "mcf_like": "d20e6499920e6d58f769135e0109afa993e5412485c3267147fbcfda39b59fd7",
    "excel_like": "3a0d40c68694773dc1810009cce3c19b0cd4b52acee828ba63da0bcbd65aff59",
}
RESULT_DIGESTS = {
    "mcf_like|ddg": "18c00d0825d38b1ae97b03b5960a42717ce790cf51211ac5fb069f48a6fb0e77",
    "mcf_like|oracle": "27ca2081075519ab1615d6d7e100bfcd6e2c59625edaa2b6fe7532c90d81c873",
    "mcf_like|oldest-in-rob": "6015d392359529f52c0a82bb5a508ec262c8df7e5ffa6c2da8eeae69a3ebbf73",
    "mcf_like|consumer-count": "e8ddc71ec0e30370704136510dcdf524f30eae2e635025937bc807606ccc4d4b",
    "mcf_like|branch-feeder": "0c74754a7166a412706033e53042c521dfa661fbff34f3cd9e6cf7e236f2a7a2",
    "mcf_like|load-miss-pc": "17b1fc29a03daa35e5b9c48db9b37ba39288796f1f4378fea1c4e0c2c5c71bac",
    "excel_like|ddg": "60e00a688dc692ae2a7f3b31db274dbf2d0907d79301bf4d5d7a7e656ad51a4d",
    "excel_like|oracle": "6e109ac15c819b72535eecf9af435c23a4cc4e046adcfe84249cf2b9ad85a7ff",
    "excel_like|oldest-in-rob": "4df8d2091b30128ffba7e0f5770f5c0a364b1eec1457066cfc49314893d0e4eb",
    "excel_like|consumer-count": "3bebf12fbbd28f47e0eefcdd0abe9d5bb2d912348ae272ee3905f205c1a68c91",
    "excel_like|branch-feeder": "b89be16dea47bb8c50471b99298c812056eb7b632dfdbd4b3d37f132f41d4585",
    "excel_like|load-miss-pc": "e8dcc66de3eff771b11c16edbbbfb7281188011708d14b3b5ecde0a688996147",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _trace(workload: str):
    length = N_INSTRS * get_spec(workload).length_multiplier
    return build_trace(workload, 2 * length)


@functools.lru_cache(maxsize=None)
def _ranking(workload: str) -> list[int]:
    sim = Simulator(skylake_server())
    return profile_critical_pcs(
        _trace(workload), lambda: sim.build_hierarchy(1), sim.config.core
    )


def _catch_config(detector: str, ranking: list[int]):
    cfg = with_catch(skylake_server())
    catch = replace(
        cfg.catch, detector=detector, oracle_pcs=tuple(ranking[:ORACLE_BUDGET])
    )
    return replace(cfg, name=f"CATCH[det={detector}]", catch=catch)


def _result_json(workload: str, detector: str) -> str:
    cfg = _catch_config(detector, _ranking(workload))
    result = Simulator(cfg).run(_trace(workload))
    return canonical_result_json(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_profile_ranking_digest(workload):
    assert _sha256(json.dumps(_ranking(workload))) == PROFILE_DIGESTS[workload]


@pytest.mark.parametrize("detector", DETECTORS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_catch_result_digest(workload, detector):
    digest = _sha256(_result_json(workload, detector))
    assert digest == RESULT_DIGESTS[f"{workload}|{detector}"]


@pytest.mark.parametrize("detector", DETECTORS)
def test_reference_kernel_matches_digest(detector, monkeypatch):
    """Driven one instruction per span (the multi-core driver's shortest
    span), the kernel feeds every detector the same retire stream and lands
    on the same digest: no engine or core state may depend on where a span
    ends."""
    run_span = OOOCore.run_span

    def one_per_span(core, instrs, start_idx, **hooks):
        idx = start_idx
        for instr in instrs:
            idx = run_span(core, (instr,), idx, **hooks)
        return idx

    monkeypatch.setattr(OOOCore, "run_span", one_per_span)
    workload = WORKLOADS[0]
    digest = _sha256(_result_json(workload, detector))
    assert digest == RESULT_DIGESTS[f"{workload}|{detector}"]


def test_detectors_are_distinguished():
    """The matrix is only a guard if the detectors disagree somewhere."""
    for workload in WORKLOADS:
        digests = {RESULT_DIGESTS[f"{workload}|{d}"] for d in DETECTORS}
        assert len(digests) > 1, workload


if __name__ == "__main__":
    print("PROFILE_DIGESTS = {")
    for wl in WORKLOADS:
        print(f'    "{wl}": "{_sha256(json.dumps(_ranking(wl)))}",')
    print("}")
    print("RESULT_DIGESTS = {")
    for wl in WORKLOADS:
        for det in DETECTORS:
            print(f'    "{wl}|{det}": "{_sha256(_result_json(wl, det))}",')
    print("}")
