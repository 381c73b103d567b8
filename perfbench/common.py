"""Shared helpers of the benchmark: calibration, statistics, digests, paths.

This module imports nothing from the repository, so the orchestrator can
load it (and fail cleanly) in a directory that holds only the benchmark.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import statistics
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: Base trace length of the sim workloads: the fig10 quick length.  Each
#: workload runs ``QUICK_N * length_multiplier`` measured instructions after
#: a warm-up half of the same length.
QUICK_N = 24_000

#: Job length of ``daemon-slice``.  At this length the platform cost of a
#: job exceeds its simulation.
DAEMON_N = 2_000

#: Calibration loop time on the reference host (2-vCPU container, Python
#: 3.11.7).  Normalised host times are "seconds on the reference host":
#: ``raw_s * (CALIB_REF_S / calibration_s) ** CALIB_EXPONENT``.
CALIB_REF_S = 0.050

#: How strongly simulator host time follows the calibration loop's time.
#: Over 215 pair runs on the reference host, log-log residuals of pair time
#: against the bracketing calibration were smallest near 0.75 (stdev 9.6%,
#: against 11.3% at 1.0 and 15.7% uncalibrated): the simulator is partly
#: memory-bound, so only part of its time moves with the loop's speed.
CALIB_EXPONENT = 0.75

SIM_MEMORY_CONFIGS = ("baseline_server", "noL2_6.5MB", "noL2_9.5MB")
SIM_MEMORY_WORKLOADS = (
    "sphinx3_like", "bwaves_like", "hplinpack_like", "namd_like", "tpcc_like",
)
SIM_CATCH_CONFIGS = ("CATCH", "noL2_6.5MB+CATCH")
SIM_CATCH_WORKLOADS = ("mcf_like", "hmmer_like", "tpcc_like", "excel_like")

SIM_WORKLOADS = {
    "sim-memory": (SIM_MEMORY_CONFIGS, SIM_MEMORY_WORKLOADS),
    "sim-catch": (SIM_CATCH_CONFIGS, SIM_CATCH_WORKLOADS),
}
WORKLOADS = (*SIM_WORKLOADS, "daemon-slice")

#: ``daemon-slice`` submits the fig10 quick matrix: the baseline and the five
#: fig10 variants on the eight quick workloads (48 jobs).
FIG10_PRESETS = (
    "baseline_server", "noL2_6.5MB", "noL2_9.5MB",
    "noL2_6.5MB+CATCH", "noL2_9.5MB+CATCH", "CATCH",
)
QUICK_WORKLOADS = (
    "hmmer_like", "mcf_like", "sphinx3_like", "tpcc_like",
    "excel_like", "bwaves_like", "hplinpack_like", "namd_like",
)


class _ToyCache:
    """Set-associative LRU over dicts, the shape of the modelled caches."""

    __slots__ = ("sets", "n_sets", "ways", "hits")

    def __init__(self, n_sets: int, ways: int) -> None:
        self.sets = [{} for _ in range(n_sets)]
        self.n_sets = n_sets
        self.ways = ways
        self.hits = 0

    def access(self, line: int, now: float) -> float:
        lines = self.sets[line % self.n_sets]
        if line in lines:
            lines[line] = now
            self.hits += 1
            return 4.0
        if len(lines) >= self.ways:
            del lines[min(lines, key=lines.get)]
        lines[line] = now
        return 40.0


def calibration_loop(iterations: int = 15_000) -> int:
    """A fixed pure-Python workload shaped like the simulator's hot loop.

    A toy two-level cache (dict sets, bound-method calls, float timing
    arithmetic) and a ready-time ring, with no repository code: its time
    tracks how fast this host currently runs that kind of code.
    """
    l1 = _ToyCache(64, 8)
    l2 = _ToyCache(512, 16)
    ready = [0.0] * 64
    now = 0.0
    x = 12345
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = (x >> 8) & 0x3FFF if x & 3 else (x >> 8) & 0x3F
        latency = l1.access(line, now)
        if latency > 4.0:
            latency += l2.access(line, now)
        slot = i & 63
        now = max(now + 0.25, ready[slot])
        ready[slot] = now + latency
    return l1.hits + l2.hits


def calibrate() -> float:
    """Seconds the calibration loop takes on this host right now.

    The garbage collector is held off for the loop: a collection it
    happened to trigger would scan the caller's heap (a sim worker holds
    the traces), which measures the heap, not the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalise(raw_s: float, *calibrations: float) -> float:
    """``raw_s`` rescaled to the reference host by the bracketing calibrations."""
    return raw_s * (CALIB_REF_S / statistics.fmean(calibrations)) ** CALIB_EXPONENT


def pair_order(pairs: list, seed: int, salt: str) -> list:
    """The seed's permutation of ``pairs`` (same seed, same order).

    The order is all a seed changes: the traces are the registered
    workloads, so every run's outputs are checked against the committed
    digests and every run does the same simulated work.
    """
    ordered = list(pairs)
    random.Random(f"{seed}:{salt}").shuffle(ordered)
    return ordered


def p50_p75(values: list[float]) -> tuple[float, float]:
    """Median and 75th percentile (linear interpolation between samples)."""
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[1], quartiles[2]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digest(payload: dict) -> str:
    """SHA-256 of a served result payload in ``canonical_result_json`` form.

    The daemon serves ``result_to_dict`` output; nulling ``telemetry`` and
    dumping with sorted keys reproduces the canonical encoding exactly.
    """
    return sha256(json.dumps(dict(payload, telemetry=None), sort_keys=True))


def payload_counts(payload: dict) -> dict:
    """Simulated counts of one ``result_to_dict`` payload, for the per-layer
    report (summed over pairs there)."""
    activity = payload["activity"]
    tact = payload["tact_stats"] or {}
    out = {
        "sim.cycles": payload["cycles"],
        "sim.llc_reads": activity["llc_reads"],
        "sim.ring_messages": activity["ring_messages"],
        "sim.dram_reads": activity["dram_reads"],
        "sim.dram_activations": activity["dram_activations"],
        "sim.tact_issued": sum(
            tact.get(k, 0)
            for k in ("cross_prefetches", "deep_prefetches", "feeder_prefetches")
        ),
        "sim.tact_demand_covered": tact.get("demand_covered", 0),
        "sim.critical_pcs": payload["critical_pcs"],
    }
    for level, count in payload["load_served"].items():
        out[f"sim.load_served.{level}"] = count
    return out


def pair_key(config: str, workload: str) -> str:
    return f"{config}|{workload}"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_env() -> dict:
    """Environment for benchmark child processes: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Out-of-tree plugins of the caller's shell must not change what runs.
    env.pop("REPRO_PLUGINS", None)
    return env
