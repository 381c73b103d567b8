"""Worker process of the ``sim-memory`` and ``sim-catch`` workloads.

Run by ``run.py`` in a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH``.  It builds the workload's traces, prints ``READY`` with its
set-up time once it is ready to time, then runs the (config, workload)
pairs serially in the seed's order, each bracketed by calibration loops,
in whole passes until ``--seconds`` have passed, and writes its
measurements as JSON to ``--out``.

``--setup-only`` stops after ``READY``: the set-up probes.  ``--trace``
installs the layer wrappers (``layers.py``) before anything is built and
reports per-layer numbers for exactly one pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import shutil
import statistics
import sys
import tempfile
import time

_T_START = time.perf_counter()

import common  # noqa: E402  (the benchmark's own modules, next to this file)
import layers  # noqa: E402

from repro.obs import TraceCollector  # noqa: E402
from repro.sim.config import fig10_configs, skylake_server  # noqa: E402
from repro.sim.parity import canonical_result_json  # noqa: E402
from repro.sim.serialization import result_to_dict  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402
from repro.workloads.suites import build_trace, get_spec  # noqa: E402
from repro.workloads.trace import Op  # noqa: E402

_IMPORT_S = time.perf_counter() - _T_START


#: Cached-recall rounds after each pass; each recalls every pair once.
RECALL_ROUNDS_PER_PASS = 8


def configs() -> dict:
    return {c.name: c for c in (skylake_server(), *fig10_configs())}


def build_traces(names, n: int) -> dict:
    """The workloads' traces: a warm-up half, then the measured half."""
    return {
        name: build_trace(name, 2 * n * get_spec(name).length_multiplier)
        for name in names
    }


def check_invariants(result, trace) -> str | None:
    """Model-independent checks that hold at any length; a message on failure."""
    measured = len(trace.instrs) - len(trace.instrs) // 2
    if result.instructions != measured:
        return f"measured {result.instructions} instructions, expected {measured}"
    if not (result.cycles > 0 and math.isfinite(result.cycles)):
        return f"cycles {result.cycles!r}"
    loads = sum(1 for i in trace.instrs[len(trace.instrs) // 2:] if i.op == Op.LOAD)
    served = sum(result.load_served.values())
    if served != loads:
        return f"{served} loads served, {loads} loads in the measured half"
    return None


def run_pass(order, cfgs, traces, records, results, failures, layer_clock, calib):
    """Run every pair once, bracketing each with calibration loops.

    ``results`` keeps each pair's latest result for the cached recall.
    """
    collector = layer_clock.collector if layer_clock is not None else None

    def calibrate() -> float:
        with phase(collector, "bench.calibrate"):
            return common.calibrate()

    for cfg_name, wl in order:
        trace = traces[wl]
        if layer_clock is not None:
            layer_clock.set_run(common.pair_key(cfg_name, wl))
        t0 = time.perf_counter()
        try:
            result = Simulator(cfgs[cfg_name]).run(trace)
        except Exception as exc:  # a failed pair is counted, the run goes on
            failures.append(f"{cfg_name}|{wl}: {exc!r}")
            calib = calibrate()
            continue
        raw_s = time.perf_counter() - t0
        # Collect this pair's garbage before the next one starts, so no pair
        # pays for another's and the peak heap does not depend on the order.
        with phase(collector, "bench.collect"):
            gc.collect()
        after = calibrate()
        problem = check_invariants(result, trace)
        digest = common.sha256(canonical_result_json(result))
        results[(cfg_name, wl)] = (result, digest)
        if problem:
            failures.append(f"{cfg_name}|{wl}: {problem}")
        records.append({
            "pair": common.pair_key(cfg_name, wl),
            "raw_s": raw_s,
            "norm_s": common.normalise(raw_s, calib, after),
            "stepped": len(trace.instrs),
            "instructions": result.instructions,
            "cycles": result.cycles,
            "digest": digest,
            "counts": common.payload_counts(result_to_dict(result)),
        })
        calib = after
    return calib


def check_digests(by_pair: dict, golden: dict, failures: list) -> None:
    """Every pass of every pair must match the committed digest."""
    for key, digests in by_pair.items():
        if digests != {golden[key]}:
            failures.append(f"{key}: digest differs from golden")


class CachedRecall:
    """Times recalling each pair through a runner backed by a result cache.

    That is what a re-run of the same matrix with ``--cache-dir`` waits for
    per pair.  The cache is filled from the first pass's results; recall
    rounds run after every pass, so the samples spread over the run, and
    every recalled payload must be byte-equal to the simulated one.
    """

    def __init__(self, pairs, cfgs, n: int) -> None:
        from repro.cache import ResultCache

        self.pairs, self.cfgs, self.n = pairs, cfgs, n
        common.WORK.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="recall-", dir=common.WORK)
        self.cache = ResultCache(self.dir)
        self.filled = False
        self.norm_s: list[float] = []
        self.raw_s: list[float] = []

    def rounds(self, results: dict, count: int, failures: list) -> int:
        """Run ``count`` recall rounds; returns the recalls attempted."""
        from repro.runner import ExperimentRunner

        if not self.filled:
            for cfg_name, wl in self.pairs:
                self.cache.put(self.cfgs[cfg_name], wl, self.n, results[(cfg_name, wl)][0])
            self.filled = True
        for _ in range(count):
            runner = ExperimentRunner(cache=self.cache)
            before = common.calibrate()
            raw = []
            for cfg_name, wl in self.pairs:
                t0 = time.perf_counter()
                result = runner.run(self.cfgs[cfg_name], wl, self.n)
                raw.append(time.perf_counter() - t0)
                if common.sha256(canonical_result_json(result)) != results[(cfg_name, wl)][1]:
                    failures.append(f"recall {cfg_name}|{wl}: payload differs")
            after = common.calibrate()
            self.norm_s.extend(common.normalise(s, before, after) for s in raw)
            self.raw_s.extend(raw)
        return count * len(self.pairs)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(common.SIM_WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--n", type=int, default=common.QUICK_N)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="run whole passes until this much time has passed")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spawn-wall", type=float, required=True,
                    help="wall time the parent spawned this process")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    cfg_names, wl_names = common.SIM_WORKLOADS[args.workload]
    collector = layer_clock = None
    if args.trace:
        collector = TraceCollector()
        with phase(collector, "bench.install"):
            layer_clock = layers.install(collector)
    with phase(collector, "bench.setup"):
        traces = build_traces(wl_names, args.n)
    # Set-up is timed from the parent's spawn time and scaled by calibrations
    # taken here, right after it: the parent may run on another CPU, whose
    # speed drifts independently.
    setup_raw = time.time() - args.spawn_wall
    with phase(collector, "bench.calibrate"):
        setup_calib = statistics.median(common.calibrate() for _ in range(3))
    setup_norm = common.normalise(setup_raw, setup_calib)
    print("READY " + json.dumps({"raw_s": setup_raw, "norm_s": setup_norm}), flush=True)
    if args.setup_only:
        return 0

    cfgs = configs()
    pairs = [(c, w) for c in cfg_names for w in wl_names]
    order = common.pair_order(pairs, args.seed, args.workload)
    records: list[dict] = []
    results: dict = {}
    failures: list[str] = []
    passes = 0
    recall = None if args.trace else CachedRecall(pairs, cfgs, args.n)
    with phase(collector, "bench.calibrate"):
        calib = common.calibrate()
    measure_s = 0.0
    try:
        while True:
            t_pass = time.perf_counter()
            calib = run_pass(
                order, cfgs, traces, records, results, failures, layer_clock, calib,
            )
            measure_s += time.perf_counter() - t_pass
            passes += 1
            if recall is not None:
                recall.rounds(results, RECALL_ROUNDS_PER_PASS, failures)
                calib = common.calibrate()
            if measure_s >= args.seconds:
                break
    finally:
        if recall is not None:
            recall.close()
    out: dict = {
        "passes": passes,
        "measure_s": measure_s,
        "peak_rss_mb": common.peak_rss_mb(),
        "records": records,
    }
    if layer_clock is not None:
        out["layers"] = layers.layer_metrics(*layer_clock.totals())

    # Correctness, outside the timed region.
    with phase(collector, "bench.check"):
        by_pair: dict = {}
        for rec in records:
            by_pair.setdefault(rec["pair"], set()).add(rec["digest"])
        for key, digests in by_pair.items():
            if len(digests) != 1:
                failures.append(f"{key}: passes disagree ({len(digests)} digests)")
        checked = args.n == common.QUICK_N
        if checked:
            check_digests(by_pair, common.load_golden()["sim"], failures)
        out["golden_checked"] = checked
        out["combined_digest"] = common.sha256("\n".join(
            f"{key} {sorted(digests)[0]}" for key, digests in sorted(by_pair.items())
        ))
    if recall is not None:
        out["recall_s"], out["recall_raw_s"] = recall.norm_s, recall.raw_s
    out["failures"] = failures
    if collector is not None:
        out["unattributed_frac"] = unattributed(
            collector, args.spawn_wall, _IMPORT_S,
        )
        trace_file = common.WORK / f"{args.workload}.trace.json"
        collector.write(trace_file)
        out["trace_file"] = str(trace_file.relative_to(common.ROOT))
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


def phase(collector, name: str):
    """A top-level span of the benchmark's own work (traced runs only)."""
    if collector is None:
        return contextlib.nullcontext()
    return collector.span(name, cat="bench")


def unattributed(collector, spawn_wall: float, import_s: float) -> float:
    """Share of this process's life (spawn to now) outside top-level spans.

    Imports are attributed by their measured duration; interpreter start-up
    and glue code between spans stay unattributed.
    """
    wall_s = time.time() - spawn_wall
    now = collector.now_us()
    intervals = layers.top_level_intervals(collector.events) + [
        (e["ts"], e["ts"] + e["dur"])
        for e in collector.events
        if e.get("cat") == "bench" and e["name"].startswith("bench.")
    ]
    covered_s = layers.covered(intervals, 0.0, now) / 1e6 + import_s
    return max(0.0, 1.0 - covered_s / wall_s)


if __name__ == "__main__":
    sys.exit(main())
